"""Disjunctive normal form and the structural subsumption rules.

A description becomes a list of conjuncts (empty list = empty extension).
Each conjunct gathers what it guarantees about one element: atom
memberships, exclusions, enum candidates, region memberships, per-slot
filler-count ranges and ONLY constraints, projections, and opaque
negative parts. Subsumption holds when every left conjunct lands inside
some right conjunct, requirement by requirement.

Everything here errs toward "not proven": a False answer never means
disproved. Counterexamples are the oracle's job.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from desiree.reasoner.oracle import AxiomIndex
from desiree.reasoner.regions import (
    region_subset,
    regions_certainly_disjoint,
)
from desiree.syntax import ast

DEFAULT_MAX_DNF = 16


class DnfOverflow(Exception):
    """Normalization exceeded the disjunct cap."""


def _side_name(d: ast.Description) -> str | None:
    if isinstance(d, ast.Atom) and d.name not in ("Anything", "Nothing"):
        return d.name
    if isinstance(d, ast.Region) and isinstance(d.expr, ast.Named):
        return d.expr.name
    return None


@dataclass
class ReasonerContext:
    """Background theory plus caches shared across queries.

    A context is built once per theory and kept as long as the theory
    does not change; its caches (the structural memo, the search index
    and its memo, the contexts made by `assuming`) live as long as it
    does.
    """

    axioms: list[tuple[ast.Description, ast.Description]] = field(
        default_factory=list)
    disjoints: list[tuple[str, str]] = field(default_factory=list)
    max_dnf: int = DEFAULT_MAX_DNF

    def __post_init__(self):
        self.atom_axioms: dict[str, list[ast.Description]] = {}
        self.region_edges: list[tuple[str, str]] = []
        for lhs, rhs in self.axioms:
            if isinstance(lhs, ast.Atom) and _side_name(lhs):
                self.atom_axioms.setdefault(lhs.name, []).append(rhs)
            n1, n2 = _side_name(lhs), _side_name(rhs)
            if n1 and n2:
                self.region_edges.append((n1, n2))
        self.disjoint_pairs = {frozenset(p) for p in self.disjoints}
        self.memo: dict = {}
        # structural_subsumes' open queries (to their depth) and the
        # outermost depth whose cycle guard the current query has read
        self.open_queries: dict = {}
        self.guard_read = 0
        self._index: AxiomIndex | None = None
        self._assumed: dict = {}

    def axiom_pairs(self) -> list[tuple[ast.Description, ast.Description]]:
        """Axioms plus disjointness constraints, for the model search."""
        out = list(self.axioms)
        for a, b in self.disjoints:
            out.append((ast.And(ast.Atom(a), ast.Atom(b)), ast.NOTHING))
        return out

    def axiom_index(self) -> AxiomIndex:
        """axiom_pairs() indexed for the model search, built at first use."""
        if self._index is None:
            self._index = AxiomIndex(self.axiom_pairs())
        return self._index

    def assuming(self, axiom: tuple[ast.Description, ast.Description]
                 ) -> "ReasonerContext":
        """This theory plus one axiom, built once per axiom and kept. Its
        search index extends this one's, so they share the kernel memo."""
        if axiom not in self._assumed:
            ctx = ReasonerContext(self.axioms + [axiom], self.disjoints,
                                  self.max_dnf)
            ctx._index = self.axiom_index().extended(axiom)
            self._assumed[axiom] = ctx
        return self._assumed[axiom]


@dataclass
class SlotCons:
    cards: set = field(default_factory=set)  # (lo, hi or None, filler)
    onlys: set = field(default_factory=set)  # filler descriptions


@dataclass
class Conjunct:
    atoms: set = field(default_factory=set)
    neg_atoms: set = field(default_factory=set)
    neg_inds: set = field(default_factory=set)
    enums: set = field(default_factory=set)  # frozensets of candidate names
    regions: set = field(default_factory=set)
    slots: dict = field(default_factory=dict)  # name -> SlotCons
    projs: set = field(default_factory=set)  # (slot, base description)
    neg_complex: set = field(default_factory=set)

    def copy(self) -> "Conjunct":
        return Conjunct(
            atoms=set(self.atoms),
            neg_atoms=set(self.neg_atoms),
            neg_inds=set(self.neg_inds),
            enums=set(self.enums),
            regions=set(self.regions),
            slots={s: SlotCons(set(sc.cards), set(sc.onlys))
                   for s, sc in self.slots.items()},
            projs=set(self.projs),
            neg_complex=set(self.neg_complex),
        )


_EMPTY_SLOT = SlotCons()


def _is_bottom(c: Conjunct, ctx: ReasonerContext) -> bool:
    if c.atoms & c.neg_atoms:
        return True
    if c.enums:
        # only same-name exclusions cancel: two names may share a denotation
        live = {e - c.neg_inds for e in c.enums}
        c.enums = live
        if any(not e for e in live):
            return True
    for pair in ctx.disjoint_pairs:
        if pair <= c.atoms:
            return True
    for sc in c.slots.values():
        by_filler: dict = {}
        for lo, hi, f in sc.cards:
            cur_lo, cur_hi = by_filler.get(f, (0, None))
            cur_lo = max(cur_lo, lo)
            if hi is not None:
                cur_hi = hi if cur_hi is None else min(cur_hi, hi)
            if cur_hi is not None and cur_lo > cur_hi:
                return True
            by_filler[f] = (cur_lo, cur_hi)
    rs = list(c.regions)
    for i, r1 in enumerate(rs):
        for r2 in rs[i + 1:]:
            if regions_certainly_disjoint(r1, r2):
                return True
    return False


def _merge(c1: Conjunct, c2: Conjunct, ctx: ReasonerContext) -> Conjunct | None:
    c = c1.copy()
    c.atoms |= c2.atoms
    c.neg_atoms |= c2.neg_atoms
    c.neg_inds |= c2.neg_inds
    c.enums |= c2.enums
    c.regions |= c2.regions
    for s, sc in c2.slots.items():
        mine = c.slots.setdefault(s, SlotCons(set(), set()))
        mine.cards |= sc.cards
        mine.onlys |= sc.onlys
    c.projs |= c2.projs
    c.neg_complex |= c2.neg_complex
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
        return [Conjunct(atoms={d.name})]
    if isinstance(d, ast.Enum):
        return [Conjunct(enums={frozenset(d.members)})]
    if isinstance(d, ast.Region):
        return [Conjunct(regions={d.expr})]
    if isinstance(d, ast.Slot):
        sc = SlotCons(set(), set())
        if isinstance(d.modifier, ast.Only):
            sc.onlys.add(d.filler)
        else:
            lo, hi = ast.modifier_bounds(d.modifier)
            sc.cards.add((lo, hi, d.filler))
        return [Conjunct(slots={d.slot: sc})]
    if isinstance(d, ast.Proj):
        return [Conjunct(projs={(d.slot, d.base)})]
    if isinstance(d, ast.And):
        out = []
        right = translate(d.right, ctx)
        for a in translate(d.left, ctx):
            for b in right:
                m = _merge(a, b, ctx)
                if m is not None:
                    out.append(m)
            _cap(out, ctx)
        return out
    if isinstance(d, ast.Or):
        out = translate(d.left, ctx) + translate(d.right, ctx)
        _cap(out, ctx)
        return out
    if isinstance(d, ast.Diff):
        return _apply_neg(translate(d.left, ctx), d.right, ctx)
    raise ValueError(f"no extension for {d!r}")


def _apply_neg(cs: list, r: ast.Description, ctx: ReasonerContext) -> list:
    if isinstance(r, ast.Atom):
        if r.name == "Nothing":
            return cs
        if r.name == "Anything":
            return []
        out = []
        for c in cs:
            c2 = c.copy()
            c2.neg_atoms.add(r.name)
            if not _is_bottom(c2, ctx):
                out.append(c2)
        return out
    if isinstance(r, ast.Enum):
        out = []
        for c in cs:
            c2 = c.copy()
            c2.neg_inds |= set(r.members)
            c2.enums = {e - set(r.members) for e in c2.enums}
            if not _is_bottom(c2, ctx):
                out.append(c2)
        return out
    if isinstance(r, ast.Or):
        return _apply_neg(_apply_neg(cs, r.left, ctx), r.right, ctx)
    if isinstance(r, ast.And):
        out = _apply_neg(cs, r.left, ctx) + _apply_neg(cs, r.right, ctx)
        _cap(out, ctx)
        return out
    if isinstance(r, ast.Diff):
        # excluding (p - q) means avoiding p or landing in q
        out = _apply_neg(cs, r.left, ctx)
        qs = translate(r.right, ctx)
        for c in cs:
            for q in qs:
                m = _merge(c, q, ctx)
                if m is not None:
                    out.append(m)
        _cap(out, ctx)
        return out
    out = []
    for c in cs:
        c2 = c.copy()
        c2.neg_complex.add(r)
        out.append(c2)
    return out


def enrich(c: Conjunct, ctx: ReasonerContext) -> Conjunct | None:
    """Fold axiom consequences for the conjunct's atoms into it."""
    applied: set = set()
    cur = c
    changed = True
    while changed:
        changed = False
        for a in sorted(cur.atoms):
            for i, rhs in enumerate(ctx.atom_axioms.get(a, ())):
                if (a, i) in applied:
                    continue
                applied.add((a, i))
                nf = translate(rhs, ctx)
                if len(nf) != 1:
                    continue  # disjunctive consequences don't merge in
                m = _merge(cur, nf[0], ctx)
                if m is None:
                    return None
                cur = m
                changed = True
    return cur


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
        if not any(region_subset(r1, r2, ctx.region_edges)
                   for r1 in c.regions):
            return False
    for s2, b2 in d.projs:
        if not any(s1 == s2 and structural_subsumes(b1, b2, ctx)
                   for s1, b1 in c.projs):
            return False
    for n2 in d.neg_complex:
        if not any(structural_subsumes(n2, n1, ctx)
                   for n1 in c.neg_complex):
            return False
    for s, dc in d.slots.items():
        cc = c.slots.get(s, _EMPTY_SLOT)
        for f2 in dc.onlys:
            if not _only_ok(cc, f2, ctx):
                return False
        for lo2, hi2, f2 in dc.cards:
            if not _card_ok(cc, lo2, hi2, f2, ctx):
                return False
    return True


def _no_edges(cc: SlotCons) -> bool:
    return any(lo == 0 and hi == 0 and _is_anything(f)
               for lo, hi, f in cc.cards)


def _only_ok(cc: SlotCons, f2, ctx) -> bool:
    if _no_edges(cc):
        return True  # vacuously, nothing leaves the element
    return any(structural_subsumes(f1, f2, ctx) for f1 in cc.onlys)


def _card_ok(cc: SlotCons, lo2: int, hi2, f2, ctx) -> bool:
    lower = lo2 == 0 or any(
        lo1 >= lo2 and structural_subsumes(f1, f2, ctx)
        for lo1, _hi1, f1 in cc.cards)
    if not lower:
        return False
    if hi2 is None:
        return True
    # counts into a superset of f2 bound counts into f2 from above
    for _lo1, hi1, f1 in cc.cards:
        if hi1 is not None and hi1 <= hi2 and structural_subsumes(
                f2, f1, ctx):
            return True
    # or all edges stay inside some filler whose total count is bounded
    for only1 in cc.onlys:
        for _lo1, hi1, f1 in cc.cards:
            if hi1 is not None and hi1 <= hi2 and structural_subsumes(
                    only1, f1, ctx):
                return True
    return False
