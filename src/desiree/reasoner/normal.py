"""Disjunctive normal form and the structural subsumption rules.

A description becomes a list of conjuncts (empty list = empty extension).
Each conjunct is an immutable record of nine flat sets of what it
guarantees about one element: atom memberships, exclusions, enum
candidates, region memberships, filler counts as (slot, lo, hi, filler),
ONLY constraints as (slot, filler), projections, and opaque negative
parts. Merging two conjuncts unions them set by set. Subsumption holds
when every left conjunct lands inside some right conjunct, requirement
by requirement.

A context reads the told axioms once into the prover's table, which
leaves out told disjunctions, and the search's index (ReasonerContext).

Everything here errs toward "not proven": a False answer never means
disproved. Counterexamples are the oracle's job.
"""
from __future__ import annotations

import operator
from typing import NamedTuple

from desiree.reasoner.oracle import _nonempty_when_empty, signature
from desiree.reasoner.regions import (
    region_subset,
    regions_certainly_disjoint,
)
from desiree.records import Record
from desiree.syntax import ast

DEFAULT_MAX_DNF = 16


class DnfOverflow(Exception):
    """Normalization exceeded the disjunct cap."""


class ReasonerContext(Record):
    """Background theory plus caches shared across queries.

    `told` is keyed by a told left side: an atom's name (a str) or a
    named region (an ast.Named), so a concept axiom never speaks of the
    region of the same name. `told[key]` merges the key's told right
    sides that normalise to one conjunct (None if they contradict); a
    side with more disjuncts or past `max_dnf` is left out, which only
    loses proofs.
    `by_lhs` indexes `axiom_pairs()` for the bounded search: it maps each
    symbol to the entries (position, axiom, signature of both sides) of
    the axioms whose left side mentions it (key None: those whose left
    side may be nonempty whatever is empty; see oracle.select_axioms).
    `search_memo` maps a search's k = 1 problem to its outcome, and
    `programs` holds one copy of each program in its keys.

    A context is built once per theory and grown, never rebuilt: one
    pass over its new axioms fills both tables. A context given a
    `base` (with the same disjoints and cap, whose axioms begin this
    one's) starts from the base's tables and shares its search memo;
    it copies only the entry lists its new axioms join, and appends in
    place only to lists it made itself. Conjuncts are immutable, so told
    entries are shared, never copied. The caches (the structural memo,
    the search memo, the contexts made by `assuming`) live as long as
    the context does.
    """

    # The tables and caches that `__post_init__` builds live in `__dict__`;
    # it is a method of its own, so a context build can be wrapped.
    __slots__ = ("axioms", "disjoints", "max_dnf", "__dict__")

    def __init__(self,
                 axioms: list[tuple[ast.Description, ast.Description]]
                 | None = None,
                 disjoints: list[tuple[str, str]] | None = None,
                 max_dnf: int = DEFAULT_MAX_DNF,
                 base: ReasonerContext | None = None):
        self.axioms = [] if axioms is None else axioms
        self.disjoints = [] if disjoints is None else disjoints
        self.max_dnf = max_dnf
        # not kept, so a context and the contexts grown from it form no
        # cycle
        self.__post_init__(base)

    def __post_init__(self, base=None):
        if base is None:
            self.disjoint_pairs = {frozenset(p) for p in self.disjoints}
            self.told: dict[str | ast.Named, Conjunct | None] = {}
            self.by_lhs: dict[tuple | None, list] = {}
            self.search_memo: dict = {}
            self.programs: dict = {}
            self.n_entries, new = 0, self.axiom_pairs()
        else:
            self.disjoint_pairs = base.disjoint_pairs
            self.told = dict(base.told)
            self.by_lhs = dict(base.by_lhs)
            self.search_memo, self.programs = base.search_memo, base.programs
            self.n_entries, new = base.n_entries, self.axioms[len(base.axioms):]
        own = set()  # the entry lists this context made
        for axiom in new:
            lhs, rhs = axiom
            left = signature(lhs)
            entry = (self.n_entries, axiom, left | signature(rhs))
            self.n_entries += 1
            for s in (None,) if _nonempty_when_empty(lhs) else left:
                if s in own:
                    self.by_lhs[s].append(entry)
                else:
                    self.by_lhs[s] = [*self.by_lhs.get(s, ()), entry]
                    own.add(s)
            if isinstance(lhs, ast.Atom) and lhs.name not in (
                    "Anything", "Nothing"):
                key = lhs.name
            elif isinstance(lhs, ast.Named):
                key = lhs
            else:
                continue
            try:
                nf = translate(rhs, self)
            except (DnfOverflow, RecursionError):  # too large to normalise
                continue
            if len(nf) == 1 and key not in self.told:
                self.told[key] = nf[0]
            elif len(nf) == 1 and self.told[key] is not None:
                self.told[key] = _merge(self.told[key], nf[0], self)
        self.memo: dict = {}
        # structural_subsumes' open queries (to their depth) and the
        # outermost depth whose cycle guard the current query has read
        self.open_queries: dict = {}
        self.guard_read = 0
        self._assumed: dict = {}

    def axiom_pairs(self) -> list[tuple[ast.Description, ast.Description]]:
        """Axioms plus disjointness constraints, for the model search."""
        out = list(self.axioms)
        for a, b in self.disjoints:
            out.append((ast.And(ast.Atom(a), ast.Atom(b)), ast.NOTHING))
        return out

    def assuming(self, axiom: tuple[ast.Description, ast.Description]
                 ) -> "ReasonerContext":
        """This theory plus one axiom, grown from this context once per
        axiom and kept."""
        if axiom not in self._assumed:
            self._assumed[axiom] = ReasonerContext(
                self.axioms + [axiom], self.disjoints, self.max_dnf, base=self)
        return self._assumed[axiom]


class Conjunct(NamedTuple):
    """What one element is guaranteed to satisfy, in nine flat sets."""

    atoms: frozenset = frozenset()
    neg_atoms: frozenset = frozenset()
    neg_inds: frozenset = frozenset()
    enums: frozenset = frozenset()  # frozensets of candidate names
    regions: frozenset = frozenset()
    cards: frozenset = frozenset()  # (slot, lo, hi or None, filler)
    onlys: frozenset = frozenset()  # (slot, filler)
    projs: frozenset = frozenset()  # (slot, base description)
    neg_complex: frozenset = frozenset()


def _is_bottom(c: Conjunct, ctx: ReasonerContext) -> bool:
    if c.atoms & c.neg_atoms or frozenset() in c.enums:
        return True
    if any(pair <= c.atoms for pair in ctx.disjoint_pairs):
        return True
    lows: dict = {}
    highs: dict = {}
    for s, lo, hi, f in c.cards:
        lows[s, f] = max(lows.get((s, f), 0), lo)
        if hi is not None:
            highs[s, f] = min(highs.get((s, f), hi), hi)
    if any(lows[key] > hi for key, hi in highs.items()):
        return True
    rs = list(c.regions)
    for i, r1 in enumerate(rs):
        for r2 in rs[i + 1:]:
            if regions_certainly_disjoint(r1, r2):
                return True
    return False


def _merge(c1: Conjunct, c2: Conjunct, ctx: ReasonerContext) -> Conjunct | None:
    c = Conjunct(*map(operator.or_, c1, c2))
    if c.enums and c.neg_inds:
        # only same-name exclusions cancel: two names may share a denotation
        c = c._replace(enums=frozenset(e - c.neg_inds for e in c.enums))
    return None if _is_bottom(c, ctx) else c


def _cap(cs: list, ctx: ReasonerContext) -> None:
    if len(cs) > ctx.max_dnf:
        raise DnfOverflow(f"more than {ctx.max_dnf} disjuncts")


def translate(d: ast.Description, ctx: ReasonerContext) -> list[Conjunct]:
    """Normalize a description; an empty list is the empty extension."""
    if isinstance(d, ast.Atom):
        if d.name == "Nothing":
            return []
        if d.name == "Anything":
            return [Conjunct()]
        return [Conjunct(atoms=frozenset({d.name}))]
    if isinstance(d, ast.Enum):
        return [Conjunct(enums=frozenset({frozenset(d.members)}))]
    if isinstance(d, ast.Slot):
        if isinstance(d.modifier, ast.Only):
            return [Conjunct(onlys=frozenset({(d.slot, d.filler)}))]
        lo, hi = ast.modifier_bounds(d.modifier)
        return [Conjunct(cards=frozenset({(d.slot, lo, hi, d.filler)}))]
    if isinstance(d, ast.Proj):
        return [Conjunct(projs=frozenset({(d.slot, d.base)}))]
    if isinstance(d, (ast.And, ast.Or, ast.Diff)):
        # Folded along the left spine, left to right, so that `_cap`
        # meets the sizes a recursive walk would. A run of `&` operands
        # of one conjunct each is merged into `out` at once, before the
        # next operand that could change its length: merging one by one
        # would copy the growing sets at every operand.
        d, chain = ast.left_spine(d)
        out = translate(d, ctx)
        run: list[Conjunct] = []
        for node in chain:
            if isinstance(node, ast.Diff):
                right = None
            else:
                right = translate(node.right, ctx)
                if len(right) == 1 and isinstance(node, ast.And):
                    run.append(right[0])
                    continue
            if run:
                out, run = _merge_run(out, run, ctx), []
            if isinstance(node, ast.And):
                acc, out = out, []
                for a in acc:
                    for b in right:
                        m = _merge(a, b, ctx)
                        if m is not None:
                            out.append(m)
                    _cap(out, ctx)
            elif isinstance(node, ast.Or):
                out = out + right
                _cap(out, ctx)
            else:
                out = _apply_neg(out, node.right, ctx)
        return _merge_run(out, run, ctx) if run else out
    if isinstance(d, ast.REGIONS):
        return [Conjunct(regions=frozenset({d}))]
    raise ValueError(f"no extension for {d!r}")


def _merge_run(cs: list, run: list, ctx: ReasonerContext) -> list:
    """Each conjunct of cs merged with every conjunct of run. Bottom
    only grows with the sets, so one merge with their union drops the
    conjuncts that merging one by one would."""
    r = run[0] if len(run) == 1 else Conjunct(*map(frozenset().union, *run))
    return [m for c in cs if (m := _merge(c, r, ctx)) is not None]


def _apply_neg(cs: list, r: ast.Description, ctx: ReasonerContext) -> list:
    if isinstance(r, (ast.And, ast.Or, ast.Diff)):
        # Folded along r's left spine: an Or node excludes its right
        # operand from what the nodes below it left, And and Diff nodes
        # exclude theirs from cs.
        r, chain = ast.left_spine(r)
        out = _apply_neg(cs, r, ctx)
        for node in chain:
            if isinstance(node, ast.Or):
                out = _apply_neg(out, node.right, ctx)
            elif isinstance(node, ast.And):
                out = out + _apply_neg(cs, node.right, ctx)
                _cap(out, ctx)
            else:
                # excluding (p - q) means avoiding p or landing in q
                qs = translate(node.right, ctx)
                out = out + [m for c in cs for q in qs
                             if (m := _merge(c, q, ctx)) is not None]
                _cap(out, ctx)
        return out
    if isinstance(r, ast.Atom) and r.name in ("Nothing", "Anything"):
        return cs if r.name == "Nothing" else []
    if isinstance(r, ast.Atom):
        neg = Conjunct(neg_atoms=frozenset({r.name}))
    elif isinstance(r, ast.Enum):
        neg = Conjunct(neg_inds=frozenset(r.members))
    else:
        return [c._replace(neg_complex=c.neg_complex | {r}) for c in cs]
    return [m for c in cs if (m := _merge(c, neg, ctx)) is not None]


def enrich(c: Conjunct, ctx: ReasonerContext) -> Conjunct | None:
    """Fold in the told consequences of the conjunct's atoms and named
    regions, and of those they bring in; None when that reaches bottom.
    Named regions are closed here, so `region_subset` never follows an
    axiom."""
    done: set = set()
    while todo := ((c.atoms | c.regions) - done) & ctx.told.keys():
        done |= todo
        for a in todo:
            t = ctx.told[a]
            if t is None or (c := _merge(c, t, ctx)) is None:
                return None
    return c


def structural_subsumes(
    d1: ast.Description,
    d2: ast.Description,
    ctx: ReasonerContext,
) -> bool:
    """Sound proof search; False means unproven, never refuted.

    A query met again while it is still open counts as unproven (the
    cycle guard): a finite proof never needs itself. A result that read
    the guard of a query opened further out may change once that query
    is answered, so it is not memoized, and a search that raises leaves
    nothing behind. The memo thus holds only what a search with an empty
    memo would answer, and may live as long as the theory.
    """
    key = (d1, d2)
    if key in ctx.memo:
        return ctx.memo[key]
    if key in ctx.open_queries:
        ctx.guard_read = min(ctx.guard_read, ctx.open_queries[key])
        return False
    depth = ctx.open_queries[key] = len(ctx.open_queries)
    outer, ctx.guard_read = ctx.guard_read, depth
    try:
        nf1 = []
        for c in translate(d1, ctx):
            e = enrich(c, ctx)
            if e is not None:
                nf1.append(e)
        nf2 = translate(d2, ctx)
        result = all(any(_conj_leq(c, d, ctx) for d in nf2) for c in nf1)
    finally:
        del ctx.open_queries[key]
        read = ctx.guard_read
        ctx.guard_read = min(outer, read)
    if read >= depth:
        ctx.memo[key] = result
    return result


def _is_anything(d: ast.Description) -> bool:
    return isinstance(d, ast.Atom) and d.name == "Anything"


def _conj_leq(c: Conjunct, d: Conjunct, ctx: ReasonerContext) -> bool:
    if not d.atoms <= c.atoms:
        return False
    for b in d.neg_atoms:
        if b not in c.neg_atoms and not any(
                frozenset((a, b)) in ctx.disjoint_pairs for a in c.atoms):
            return False
    # no unique-name assumption: distinct names may denote one individual
    if not d.neg_inds <= c.neg_inds:
        return False
    for e2 in d.enums:
        if not any(e1 <= e2 for e1 in c.enums):
            return False
    for r2 in d.regions:
        if not any(region_subset(r1, r2) for r1 in c.regions):
            return False
    for s2, b2 in d.projs:
        if not any(s1 == s2 and structural_subsumes(b1, b2, ctx)
                   for s1, b1 in c.projs):
            return False
    for n2 in d.neg_complex:
        if not any(structural_subsumes(n2, n1, ctx)
                   for n1 in c.neg_complex):
            return False
    for s, f2 in d.onlys:
        if not _only_ok(c, s, f2, ctx):
            return False
    for s, lo2, hi2, f2 in d.cards:
        if not _card_ok(c, s, lo2, hi2, f2, ctx):
            return False
    return True


def _no_edges(c: Conjunct, s: str) -> bool:
    return any(s1 == s and lo == 0 and hi == 0 and _is_anything(f)
               for s1, lo, hi, f in c.cards)


def _only_ok(c: Conjunct, s: str, f2, ctx) -> bool:
    if _no_edges(c, s):
        return True  # vacuously, nothing leaves the element
    return any(s1 == s and structural_subsumes(f1, f2, ctx)
               for s1, f1 in c.onlys)


def _card_ok(c: Conjunct, s: str, lo2: int, hi2, f2, ctx) -> bool:
    cards = [(lo1, hi1, f1) for s1, lo1, hi1, f1 in c.cards if s1 == s]
    lower = lo2 == 0 or any(
        lo1 >= lo2 and structural_subsumes(f1, f2, ctx)
        for lo1, _hi1, f1 in cards)
    if not lower:
        return False
    if hi2 is None:
        return True
    # counts into a superset of f2 bound counts into f2 from above
    for _lo1, hi1, f1 in cards:
        if hi1 is not None and hi1 <= hi2 and structural_subsumes(
                f2, f1, ctx):
            return True
    # or all edges stay inside some filler whose total count is bounded
    for s1, only1 in c.onlys:
        if s1 != s:
            continue
        for _lo1, hi1, f1 in cards:
            if hi1 is not None and hi1 <= hi2 and structural_subsumes(
                    only1, f1, ctx):
                return True
    return False
