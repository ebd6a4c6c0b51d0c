"""Inconsistency detection over a requirements model.

A clash is a concept whose instances are forced into two classes that
were declared disjoint. Two routes produce one:

* concept level: subsumption edges alone squeeze a concept under both
  classes;
* instance level: a function element asserts a role filler (a slot with
  a positive minimum count), while a universal role restriction (an
  ONLY slot reachable through the verb's superclasses) pushes the same
  filler under the other class.

Each clash carries rendered derivation chains so a reader can follow
every step back to the axiom, assumption, or element that caused it.
"""

from __future__ import annotations

import functools
from collections import deque

from ..records import Frozen, init_field
from ..syntax import ast

_RESERVED = ("Anything", "Nothing")


class Clash(Frozen):
    __slots__ = ("anchor", "pair", "chains", "fact")

    def __init__(self, anchor: str, pair: tuple[str, str],
                 chains: tuple[str, str], fact: str | None = None):
        init_field(self, "anchor", anchor)  # concept caught on both sides
        init_field(self, "pair", pair)  # the declared disjoint classes
        init_field(self, "chains", chains)  # one rendered derivation per side
        init_field(self, "fact", fact)  # id of the triggering function, if any

    def render(self) -> str:
        where = f" (asserted by {self.fact})" if self.fact else ""
        return (f"{self.anchor} falls under both {self.pair[0]} and "
                f"{self.pair[1]}{where}: {self.chains[0]} | {self.chains[1]}")


def _harvest(sources):
    """Super-edges, the same edges reversed, and universal role
    restrictions keyed by (owner, slot) as (source position, owner,
    fillers, label), all labeled."""
    edges: dict[str, list[tuple[str, str]]] = {}
    down: dict[str, list[tuple[str, str]]] = {}
    onlys: dict[tuple[str, str], list[tuple]] = {}
    for at, (label, lhs, rhs) in enumerate(sources):
        if not isinstance(lhs, ast.Atom) or lhs.name in _RESERVED:
            continue
        for part in ast.and_parts(rhs):
            if isinstance(part, ast.Atom) and part.name not in _RESERVED:
                edges.setdefault(lhs.name, []).append((part.name, label))
                down.setdefault(part.name, []).append((lhs.name, label))
            elif (isinstance(part, ast.Slot)
                  and isinstance(part.modifier, ast.Only)):
                fillers = tuple(
                    p.name for p in ast.and_parts(part.filler)
                    if isinstance(p, ast.Atom) and p.name not in _RESERVED)
                if fillers:
                    onlys.setdefault((lhs.name, part.slot), []).append(
                        (at, lhs.name, fillers, label))
    return edges, down, onlys


def _closure(seeds, edges):
    """Each class reachable from the seeds, mapped to the (class, label)
    step that first reached it, or None for a seed.

    Not the prover's `told` table, which would change the clashes: this
    reads every active subsumption-form element, not only assumptions,
    splits right sides with `and_parts` and labels each step."""
    reached = dict.fromkeys(seeds)
    queue = deque(reached)
    while queue:
        a = queue.popleft()
        for parent, label in edges.get(a, ()):
            if parent not in reached:
                reached[parent] = (a, label)
                queue.append(parent)
    return reached


def _steps(reached, cls) -> list[str]:
    """The rendered steps from a seed of `reached` up to cls."""
    steps = []
    while reached[cls] is not None:
        a, label = reached[cls]
        steps.append(f"{a} :< {cls} ({label})")
        cls = a
    return steps[::-1]


def check_consistency(sources, disjoints, facts) -> list[Clash]:
    """Find every clash; empty list means no inconsistency was detected.

    sources: (label, lhs, rhs) subsumptions from axioms and active
    subsumption-form elements. disjoints: pairs of class names. facts:
    (label, description) for active function elements.
    """
    edges, down, onlys = _harvest(sources)
    pairs = [(a, b) for a, b in disjoints]
    found: dict[tuple[str, tuple[str, str]], Clash] = {}
    # One closure per seed tuple for the length of the call.
    up = functools.cache(lambda *seeds: _closure(seeds, edges))

    def record(anchor, routes, fact=None):
        # routes: (rendered head, closure); the first holding a class wins.
        for pair in pairs:
            hits = (anchor, pair) not in found and [
                next((r for r in routes if cls in r[1]), None) for cls in pair]
            if hits and None not in hits:
                found[anchor, pair] = Clash(anchor, pair, tuple(
                    "; ".join(head + _steps(reached, cls))
                    or f"{anchor} itself"
                    for cls, (head, reached) in zip(pair, hits)), fact)

    # Only a class below both sides of a pair can be squeezed by them.
    below = {c: _closure((c,), down) for pair in pairs for c in pair}
    for atom in sorted(edges.keys() & set().union(
            *(below[a].keys() & below[b].keys() for a, b in pairs))):
        record(atom, [([], up(atom))])

    for fact_label, desc in facts:
        parts = ast.and_parts(desc)
        verbs = [p.name for p in parts
                 if isinstance(p, ast.Atom) and p.name not in _RESERVED]
        if not verbs:
            continue
        verb_classes = up(*verbs)
        for part in parts:
            if (not isinstance(part, ast.Slot)
                    or isinstance(part.modifier, ast.Only)
                    or ast.modifier_bounds(part.modifier)[0] < 1):
                continue
            # The ONLY rules on the verbs' classes, in source order.
            rules = sorted((rule for owner in verb_classes
                            for rule in onlys.get((owner, part.slot), ())),
                           key=lambda rule: rule[0])
            routes = []
            for _, owner, fillers, label in rules:
                head = _steps(verb_classes, owner) + [
                    f"the {part.slot} of {fact_label} must fall under "
                    f"{' and '.join(fillers)} "
                    f"(ONLY {part.slot} on {owner}, {label})"]
                routes += [(head, up(g)) for g in fillers]
            for p in ast.and_parts(part.filler):
                if isinstance(p, ast.Atom) and p.name not in _RESERVED:
                    record(p.name, [([], up(p.name))] + routes, fact_label)

    return sorted(found.values(), key=lambda c: (c.anchor, c.pair))
