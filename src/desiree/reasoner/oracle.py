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

Each ReasonerContext keeps one AxiomIndex of its theory, built at its
first search: every axiom's symbol set, whether its left side is
universal, and a map from symbol to axioms. Selecting the axioms of a
search walks that map from the pair's symbols instead of the whole
theory. The index also carries the search memo: the kernel's answer
per compiled problem, keyed by the arguments of kernels.find_violation
(the counts of the search and its tuple of programs), so searches that
differ only in symbol names run the kernel once. A context made by
`ReasonerContext.assuming` (theory plus one assumed axiom) takes its
parent's index extended by that axiom, so the two share the memo. All
of it lives as long as the model's context, which the model keeps until
its theory changes; nothing is kept across processes.
"""
from __future__ import annotations

from fractions import Fraction

from desiree.reasoner import kernels
from desiree.reasoner.compile import SymbolTable, assemble
from desiree.reasoner.interp import GridPoint, Witness
from desiree.reasoner.semantics import satisfies_axioms, violates_subsumption
from desiree.syntax import ast
from desiree.syntax.render import render_description

BUDGET = 1 << 21

AxiomPair = tuple[ast.Description, ast.Description]


class BoundsExceeded(Exception):
    """The problem does not fit the enumeration budget (or mixes units)."""


def symbols_of(d: ast.Description) -> frozenset[str]:
    """The atoms, slots, named regions and individuals d mentions."""
    atoms, slots, named, inds, *_ = _census([d])
    return frozenset(atoms | slots | named | inds)


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


class AxiomIndex:
    """The axioms of one theory, indexed for select_axioms.

    Holds each axiom's symbol set, which axioms are universal (their left
    side may be nonempty with every symbol empty), and a map from each
    symbol to the positions of the axioms that mention it. `memo` maps a
    compiled search problem to the kernel's answer, and `programs` holds
    one copy of each program in the memo's keys; an index made by
    `extended` shares both.
    """

    def __init__(self, axioms: list[AxiomPair] | tuple[AxiomPair, ...] = ()):
        self.axioms: list[AxiomPair] = []
        self.syms: list[frozenset[str]] = []
        self.universal: list[int] = []
        self.by_symbol: dict[str, list[int]] = {}
        self.memo: dict = {}
        self.programs: dict = {}
        for ax in axioms:
            self._add(ax)

    def _add(self, axiom: AxiomPair) -> None:
        lhs, rhs = axiom
        i = len(self.axioms)
        self.axioms.append(axiom)
        self.syms.append(symbols_of(lhs) | symbols_of(rhs))
        if _nonempty_when_empty(lhs):
            self.universal.append(i)
        for s in self.syms[i]:
            self.by_symbol.setdefault(s, []).append(i)

    def extended(self, axiom: AxiomPair) -> "AxiomIndex":
        """This index plus one axiom at the end, sharing the memo.

        Only the position lists of the new axiom's symbols are copied;
        the theory's axioms are not walked again.
        """
        new = AxiomIndex()
        new.axioms = list(self.axioms)
        new.syms = list(self.syms)
        new.universal = list(self.universal)
        new.by_symbol = dict(self.by_symbol)
        new.memo, new.programs = self.memo, self.programs
        lhs, rhs = axiom
        for s in symbols_of(lhs) | symbols_of(rhs):
            new.by_symbol[s] = list(self.by_symbol.get(s, ()))
        new._add(axiom)
        return new


def select_axioms(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair] | AxiomIndex,
) -> list[AxiomPair]:
    """The axioms that can matter for separating d1 from d2, in order.

    An axiom is kept when it shares symbols (transitively) with the pair
    under test, or when its left side can be nonempty even with all of
    its symbols uninterpreted; every other axiom holds vacuously in the
    searched interpretations. The kept set is found by a walk from the
    pair's symbols and the universal axioms' symbols over the index; a
    plain list is indexed first.
    """
    index = axioms if isinstance(axioms, AxiomIndex) else AxiomIndex(axioms)
    chosen = set(index.universal)
    todo = list(symbols_of(d1) | symbols_of(d2))
    for i in index.universal:
        todo.extend(index.syms[i])
    seen: set[str] = set()
    while todo:
        s = todo.pop()
        if s in seen:
            continue
        seen.add(s)
        for i in index.by_symbol.get(s, ()):
            if i not in chosen:
                chosen.add(i)
                todo.extend(index.syms[i])
    return [index.axioms[i] for i in sorted(chosen)]


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
    """(table, total, programs): the symbol table, the number of
    interpretations and the programs of d1, d2 and each axiom's sides."""
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
    return table, total, assemble(descs, table)


def oracle_disprove(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair] | tuple[AxiomPair, ...] | AxiomIndex = (),
) -> Witness | None:
    """Search for an axiom-respecting model where d1 is not within d2.

    Returns a replayable Witness, or None when the bounded search is
    exhausted without a hit. Raises BoundsExceeded when the problem does
    not fit the budget, so the caller must fall back to Unknown.

    Given an AxiomIndex, the kernel's answer is remembered in its memo,
    keyed by the compiled problem, and a later search that compiles to
    the same problem skips the kernel. Its witness is still decoded
    with its own symbol table and replayed.
    """
    index = axioms if isinstance(axioms, AxiomIndex) else AxiomIndex(axioms)
    selected = select_axioms(d1, d2, index)
    table, total, programs = build_problem(d1, d2, selected)
    key = (total, table.k, table.gamma, len(table.atoms), len(table.slots),
           len(table.named), len(table.inds), programs)
    idx = index.memo.get(key)
    if idx is None:
        idx = kernels.find_violation(*key)
        # Few programs are distinct (51 in the 4,504 of an entail-search
        # pass); a copy per key had the garbage collector run 40% more.
        programs = tuple(index.programs.setdefault(p, p) for p in programs)
        index.memo[key[:-1] + (programs,)] = idx
    if idx < 0:
        return None
    interp = kernels.decode_interpretation(idx, table)
    viol = violates_subsumption(interp, d1, d2)
    if not viol or not satisfies_axioms(interp, selected):
        raise RuntimeError("kernel disagrees with the reference evaluator")
    return Witness(interp, min(viol), render_description(d1),
                   render_description(d2))
