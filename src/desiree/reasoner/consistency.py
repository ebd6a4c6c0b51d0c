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


class _OnlyRule(Frozen):
    __slots__ = ("owner", "slot", "fillers", "label")

    def __init__(self, owner: str, slot: str, fillers: tuple[str, ...],
                 label: str):
        init_field(self, "owner", owner)
        init_field(self, "slot", slot)
        init_field(self, "fillers", fillers)
        init_field(self, "label", label)


def _harvest(sources):
    """Super-edges and universal role restrictions, both labeled."""
    edges: dict[str, list[tuple[str, str]]] = {}
    onlys: list[_OnlyRule] = []
    for label, lhs, rhs in sources:
        if not isinstance(lhs, ast.Atom) or lhs.name in _RESERVED:
            continue
        for part in ast.and_parts(rhs):
            if isinstance(part, ast.Atom) and part.name not in _RESERVED:
                edges.setdefault(lhs.name, []).append((part.name, label))
            elif (isinstance(part, ast.Slot)
                  and isinstance(part.modifier, ast.Only)):
                fillers = tuple(
                    p.name for p in ast.and_parts(part.filler)
                    if isinstance(p, ast.Atom) and p.name not in _RESERVED)
                if fillers:
                    onlys.append(_OnlyRule(lhs.name, part.slot, fillers,
                                           label))
    return edges, onlys


def _closure(seeds: dict[str, tuple[str, ...]], edges):
    """Reachable superclasses with the rendered step list leading there.

    Not the prover's `told` table, which would change the clashes: this
    reads every active subsumption-form element, not only assumptions,
    splits right sides with `and_parts` and labels each step."""
    reached = dict(seeds)
    queue = deque(seeds)
    while queue:
        a = queue.popleft()
        for parent, label in edges.get(a, ()):
            if parent not in reached:
                reached[parent] = reached[a] + (f"{a} :< {parent} ({label})",)
                queue.append(parent)
    return reached


def _render_chain(anchor: str, steps: tuple[str, ...]) -> str:
    if not steps:
        return f"{anchor} itself"
    return "; ".join(steps)


def check_consistency(sources, disjoints, facts) -> list[Clash]:
    """Find every clash; empty list means no inconsistency was detected.

    sources: (label, lhs, rhs) subsumptions from axioms and active
    subsumption-form elements. disjoints: pairs of class names. facts:
    (label, description) for active function elements.
    """
    edges, onlys = _harvest(sources)
    pairs = [(a, b) for a, b in disjoints]
    found: dict[tuple[str, tuple[str, str]], Clash] = {}

    def record(anchor, classes, fact=None):
        for a, b in pairs:
            if a in classes and b in classes:
                key = (anchor, (a, b))
                if key not in found:
                    found[key] = Clash(
                        anchor, (a, b),
                        (_render_chain(anchor, classes[a]),
                         _render_chain(anchor, classes[b])),
                        fact)

    for atom in sorted(edges):
        record(atom, _closure({atom: ()}, edges))

    for fact_label, desc in facts:
        parts = ast.and_parts(desc)
        verbs = [p.name for p in parts
                 if isinstance(p, ast.Atom) and p.name not in _RESERVED]
        if not verbs:
            continue
        verb_classes = _closure({v: () for v in verbs}, edges)
        for part in parts:
            if not isinstance(part, ast.Slot):
                continue
            if isinstance(part.modifier, ast.Only):
                continue
            lo, _ = ast.modifier_bounds(part.modifier)
            if lo < 1:
                continue
            filler_atoms = [p.name for p in ast.and_parts(part.filler)
                            if isinstance(p, ast.Atom)
                            and p.name not in _RESERVED]
            for anchor in filler_atoms:
                classes = _closure({anchor: ()}, edges)
                for rule in onlys:
                    if rule.slot != part.slot or rule.owner not in verb_classes:
                        continue
                    prefix = verb_classes[rule.owner] + (
                        f"the {part.slot} of {fact_label} must fall under "
                        f"{' and '.join(rule.fillers)} "
                        f"(ONLY {part.slot} on {rule.owner}, {rule.label})",)
                    for g in rule.fillers:
                        for cls, steps in _closure({g: prefix}, edges).items():
                            classes.setdefault(cls, steps)
                record(anchor, classes, fact_label)

    return sorted(found.values(), key=lambda c: (c.anchor, c.pair))
