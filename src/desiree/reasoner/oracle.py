"""Bounded-model counterexample search.

Enumerates every interpretation over a small universe derived from the
descriptions at hand, keeps those satisfying the axioms, and looks for
an element separating d1 from d2. A hit comes back as a replayable
Witness. Bounded search never proves anything: the only trusted outcome
is the counterexample, so callers treat "no hit" as inconclusive.

The universe has k abstract individuals plus a grid of value points
built from every numeric boundary mentioned (boundaries, midpoints, one
point past each end) and every literal (plus one fresh literal). k is
the largest of 3, 2, 1 whose full enumeration fits the budget.
"""
from __future__ import annotations

from fractions import Fraction

from desiree.reasoner import kernels
from desiree.reasoner.compile import SymbolTable, assemble
from desiree.reasoner.interp import GridPoint, Interpretation, Witness
from desiree.reasoner.semantics import satisfies_axioms, violates_subsumption
from desiree.syntax import ast
from desiree.syntax.render import render_description

BUDGET = 1 << 21

AxiomPair = tuple[ast.Description, ast.Description]


class BoundsExceeded(Exception):
    """The problem does not fit the enumeration budget (or mixes units)."""


def symbols_of(d: ast.Description) -> frozenset[str]:
    out = set()
    for node in ast.walk(d):
        if isinstance(node, ast.Atom):
            if node.name not in ("Anything", "Nothing"):
                out.add(node.name)
        elif isinstance(node, (ast.Slot, ast.Proj)):
            out.add(node.slot)
        elif isinstance(node, ast.Enum):
            out.update(node.members)
        elif isinstance(node, ast.Region) and isinstance(node.expr, ast.Named):
            out.add(node.expr.name)
    return frozenset(out)


def _nonempty_when_empty(d: ast.Description) -> bool:
    """Whether d's extension may be nonempty with all its symbols empty.

    Exact in the False direction: a False answer means the extension is
    certainly empty once every atom, slot, named region of d is empty,
    which is what lets an axiom be dropped from the search soundly.
    """
    if isinstance(d, ast.Atom):
        return d.name == "Anything"
    if isinstance(d, ast.Region):
        return not isinstance(d.expr, ast.Named)
    if isinstance(d, ast.Enum):
        return True
    if isinstance(d, ast.Slot):
        if isinstance(d.modifier, ast.Only):
            return True
        lo, _hi = ast.modifier_bounds(d.modifier)
        return lo == 0
    if isinstance(d, ast.Proj):
        return False
    if isinstance(d, ast.And):
        return _nonempty_when_empty(d.left) and _nonempty_when_empty(d.right)
    if isinstance(d, ast.Or):
        return _nonempty_when_empty(d.left) or _nonempty_when_empty(d.right)
    if isinstance(d, ast.Diff):
        return _nonempty_when_empty(d.left)
    return False


def select_axioms(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair],
) -> list[AxiomPair]:
    """The axioms that can matter for separating d1 from d2.

    An axiom is kept when it shares symbols (transitively) with the pair
    under test, or when its left side can be nonempty even with all of
    its symbols uninterpreted; every other axiom holds vacuously in the
    searched interpretations.
    """
    active = set(symbols_of(d1) | symbols_of(d2))
    syms = [symbols_of(lhs) | symbols_of(rhs) for lhs, rhs in axioms]
    universal = [_nonempty_when_empty(lhs) for lhs, _rhs in axioms]
    chosen = [False] * len(axioms)
    changed = True
    while changed:
        changed = False
        for i in range(len(axioms)):
            if chosen[i]:
                continue
            if universal[i] or (syms[i] & active):
                chosen[i] = True
                active |= syms[i]
                changed = True
    return [ax for i, ax in enumerate(axioms) if chosen[i]]


def _census(descs: list[ast.Description]):
    atoms: set[str] = set()
    slots: set[str] = set()
    named: set[str] = set()
    inds: set[str] = set()
    units: set[str] = set()
    nums: set[Fraction] = set()
    lits: set[str] = set()
    for d in descs:
        for node in ast.walk(d):
            if isinstance(node, ast.Atom):
                if node.name not in ("Anything", "Nothing"):
                    atoms.add(node.name)
            elif isinstance(node, (ast.Slot, ast.Proj)):
                slots.add(node.slot)
            elif isinstance(node, ast.Enum):
                inds.update(node.members)
            elif isinstance(node, ast.Region):
                r = node.expr
                if isinstance(r, ast.Named):
                    named.add(r.name)
                elif isinstance(r, ast.Interval):
                    units.add(r.unit or "")
                    nums.add(r.lo)
                    if r.hi is not None:
                        nums.add(r.hi)
                elif isinstance(r, ast.Percent):
                    units.add("%")
                    nums.add(r.lo)
                    nums.add(r.hi)
                elif isinstance(r, ast.ValueSet):
                    for v in r.values:
                        try:
                            nums.add(Fraction(v))
                            units.add("")
                        except ValueError:
                            lits.add(v)
    return atoms, slots, named, inds, units, nums, lits


def _build_grid(nums: set[Fraction], lits: set[str],
                need_slack: bool) -> tuple[GridPoint, ...]:
    points: list[GridPoint] = []
    ordered = sorted(nums)
    if ordered:
        points.append(ordered[0] - 1)
        for i, v in enumerate(ordered):
            points.append(v)
            if i + 1 < len(ordered):
                points.append((v + ordered[i + 1]) / 2)
        points.append(ordered[-1] + 1)
    for lit in sorted(lits):
        points.append(lit)
    if lits:
        points.append("__other__")
    if not points and need_slack:
        points.append(Fraction(0))
    return tuple(points)


def _pick_k(n_atoms, n_slots, n_named, n_inds, gamma):
    for k in (3, 2, 1):
        if k + gamma > 16:
            continue
        bits = k * n_atoms + n_slots * k * (k + gamma) + gamma * n_named
        if bits > 61:
            continue
        total = (1 << bits) * (k ** n_inds)
        if total <= BUDGET:
            return k, total
    raise BoundsExceeded("enumeration budget exceeded")


def build_problem(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair],
):
    """Symbol table plus compiled programs for the pair and its axioms."""
    descs = [d1, d2]
    for lhs, rhs in axioms:
        descs.append(lhs)
        descs.append(rhs)
    atoms, slots, named, inds, units, nums, lits = _census(descs)
    if len(units) > 1:
        raise BoundsExceeded(
            "mixed units: " + ", ".join(sorted(u or "(none)" for u in units)))
    grid = _build_grid(nums, lits, need_slack=bool(slots or named))
    k, total = _pick_k(len(atoms), len(slots), len(named), len(inds),
                       len(grid))
    table = SymbolTable(
        k=k,
        grid=grid,
        atoms={a: i for i, a in enumerate(sorted(atoms))},
        slots={s: i for i, s in enumerate(sorted(slots))},
        named={r: i for i, r in enumerate(sorted(named))},
        inds={x: i for i, x in enumerate(sorted(inds))},
    )
    progs, bounds, enum_table = assemble(descs, table)
    return table, total, progs, bounds, enum_table


def decode_interpretation(idx: int, table: SymbolTable) -> Interpretation:
    """Rebuild the explicit interpretation at one enumeration index."""
    k, gamma = table.k, table.gamma
    u = k + gamma
    rest = idx
    individuals = {}
    for name in sorted(table.inds, key=table.inds.__getitem__):
        individuals[name] = rest % k
        rest //= k
    named_regions = {}
    for name in sorted(table.named, key=table.named.__getitem__):
        bits = rest & ((1 << gamma) - 1)
        rest >>= gamma
        named_regions[name] = frozenset(
            k + g for g in range(gamma) if bits >> g & 1)
    slots = {}
    for name in sorted(table.slots, key=table.slots.__getitem__):
        pairs = set()
        for x in range(k):
            m = rest & ((1 << u) - 1)
            rest >>= u
            pairs.update((x, y) for y in range(u) if m >> y & 1)
        slots[name] = frozenset(pairs)
    atoms = {}
    for name in sorted(table.atoms, key=table.atoms.__getitem__):
        m = rest & ((1 << k) - 1)
        rest >>= k
        atoms[name] = frozenset(x for x in range(k) if m >> x & 1)
    return Interpretation(k, table.grid, atoms, slots, named_regions,
                          individuals)


def oracle_disprove(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair] | tuple[AxiomPair, ...] = (),
) -> Witness | None:
    """Search for an axiom-respecting model where d1 is not within d2.

    Returns a replayable Witness, or None when the bounded search is
    exhausted without a hit. Raises BoundsExceeded when the problem does
    not fit the budget, so the caller must fall back to Unknown.
    """
    selected = select_axioms(d1, d2, list(axioms))
    table, total, progs, bounds, enum_table = build_problem(d1, d2, selected)
    idx = kernels.find_violation(
        total, table.k, table.gamma, len(table.atoms), len(table.slots),
        len(table.named), len(table.inds), len(selected), progs, bounds,
        enum_table)
    if idx < 0:
        return None
    interp = decode_interpretation(idx, table)
    viol = violates_subsumption(interp, d1, d2)
    if not viol or not satisfies_axioms(interp, selected):
        raise RuntimeError("kernel disagrees with the reference evaluator")
    return Witness(interp, min(viol), render_description(d1),
                   render_description(d2))
