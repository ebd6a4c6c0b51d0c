"""Bounded-model counterexample search.

Enumerates every interpretation over a small universe derived from the
descriptions at hand, keeps those satisfying the axioms, and looks for
an element separating d1 from d2. A hit comes back as a replayable
Witness. Bounded search never proves anything: the only trusted outcome
is the counterexample, so callers treat "no hit" as inconclusive.

Only the theory's ⊥-module for the pair is searched (select_axioms;
Cuenca Grau, Horrocks, Kazakov & Sattler, "Modular reuse of ontologies",
JAIR 2008), so every witness also replays against the whole theory.

The universe has k abstract individuals plus a grid of value points
built from every numeric boundary mentioned (boundaries, midpoints, one
point past each end) and every literal (plus one fresh literal). k
ascends through 1, 2, 3 while the full enumeration fits the budget, and
the first hit ends the search (small k first, as in Claessen &
Sörensson's MACE-style model finding), so only an exhaustive scan at
the largest k that fits comes back empty.

Each ReasonerContext keeps one AxiomIndex of its theory, built at its
first search: every axiom's symbol set and a map from each symbol to
the axioms whose left side mentions it, so the fixpoint tests an axiom
again only when such a symbol enters Σ. The index also carries the
search memo: the outcome of each search (the k and index of its hit, or
none), keyed by the arguments of kernels.find_violation at k = 1 (the
counts of the search and its tuple of programs), so searches that
differ only in symbol names run the kernel once and compile only at
k = 1. A context made by `ReasonerContext.assuming` (theory plus one
assumed axiom) takes its parent's index extended by that axiom, so the
two share the memo. All of it lives as long as the model's context,
which the model keeps until its theory changes; nothing is kept across
processes.
"""
from __future__ import annotations

from dataclasses import replace
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


def _nonempty_when_empty(d: ast.Description, sigma=frozenset()) -> bool:
    """Whether d's extension may be nonempty with every atom, slot and
    named region outside sigma empty.

    Exact in the False direction: a False answer means the extension is
    certainly empty once those symbols are empty, which is what lets an
    axiom be dropped from the search soundly. Monotone in sigma. d is
    walked with an explicit stack, so a long chain does not recurse.
    """
    vals: list[bool] = []
    todo: list = [d]
    while todo:
        d = todo.pop()
        if d is ast.And or d is ast.Or:
            a, b = vals.pop(), vals.pop()
            vals.append(a & b if d is ast.And else a | b)
        elif isinstance(d, (ast.And, ast.Or)):
            todo += [type(d), d.right, d.left]
        elif isinstance(d, ast.Diff):
            todo.append(d.left)
        elif isinstance(d, ast.Slot) and (
                isinstance(d.modifier, ast.Only)
                or ast.modifier_bounds(d.modifier)[0] == 0):
            vals.append(True)
        elif isinstance(d, (ast.Slot, ast.Proj)) and d.slot in sigma:
            todo.append(d.filler if isinstance(d, ast.Slot) else d.base)
        elif isinstance(d, ast.Atom):
            vals.append(d.name == "Anything" or d.name in sigma)
        elif isinstance(d, ast.Region):
            vals.append(not isinstance(d.expr, ast.Named)
                        or d.expr.name in sigma)
        else:  # enum members always exist; a slot outside sigma has no edge
            vals.append(isinstance(d, ast.Enum))
    return vals.pop()


class AxiomIndex:
    """The axioms of one theory, indexed for select_axioms.

    Holds each axiom's symbol set and `by_lhs`, a map from each symbol to
    the positions of the axioms whose left side mentions it (key None:
    those whose left side may be nonempty whatever Σ is). `memo` maps a
    search's k = 1 problem to its outcome, and `programs` holds
    one copy of each program in the memo's keys; an index made by
    `extended` shares both.
    """

    def __init__(self, axioms: list[AxiomPair] | tuple[AxiomPair, ...] = ()):
        self.axioms: list[AxiomPair] = []
        self.syms: list[frozenset[str]] = []
        self.by_lhs: dict[str | None, list[int]] = {}
        self.memo: dict = {}
        self.programs: dict = {}
        for ax in axioms:
            self._add(ax)

    def _add(self, axiom: AxiomPair) -> None:
        lhs, rhs = axiom
        i = len(self.axioms)
        self.axioms.append(axiom)
        left = symbols_of(lhs)
        self.syms.append(left | symbols_of(rhs))
        for s in (None,) if _nonempty_when_empty(lhs) else left:
            self.by_lhs.setdefault(s, []).append(i)

    def extended(self, axiom: AxiomPair) -> "AxiomIndex":
        """This index plus one axiom at the end, sharing the memo.

        Only the position lists the new axiom may join are copied; the
        theory's axioms are not walked again.
        """
        new = AxiomIndex()
        new.axioms = list(self.axioms)
        new.syms = list(self.syms)
        new.by_lhs = dict(self.by_lhs)
        new.memo, new.programs = self.memo, self.programs
        for s in symbols_of(axiom[0]) | {None}:
            new.by_lhs[s] = list(self.by_lhs.get(s, ()))
        new._add(axiom)
        return new


def select_axioms(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair] | AxiomIndex,
) -> list[AxiomPair]:
    """The ⊥-module of the theory for separating d1 from d2, in order.

    Σ starts as the pair's symbols. An axiom is kept when its left side
    may be nonempty with every atom, slot and named region outside Σ
    empty, and its symbols then join Σ, until nothing changes. Every
    other axiom holds once the symbols outside Σ are empty. An axiom is
    tested again only when a symbol of its left side enters Σ; the test
    is monotone in Σ, so the fixpoint is exact. A list is indexed first.
    """
    index = axioms if isinstance(axioms, AxiomIndex) else AxiomIndex(axioms)
    sigma = set(symbols_of(d1) | symbols_of(d2))
    todo: list[str | None] = [None, *sigma]
    chosen: set[int] = set()
    while todo:
        for i in index.by_lhs.get(todo.pop(), ()):
            if i not in chosen and _nonempty_when_empty(index.axioms[i][0],
                                                        sigma):
                chosen.add(i)
                todo.extend(index.syms[i] - sigma)
                sigma |= index.syms[i]
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


def _sizes(n_atoms, n_slots, n_named, n_inds, gamma):
    """(k, total) for each k of 1, 2, 3 whose enumeration fits the budget."""
    sizes = []
    for k in (1, 2, 3):
        bits = k * n_atoms + n_slots * k * (k + gamma) + gamma * n_named
        if k + gamma > 16 or bits > 61 or (1 << bits) * k ** n_inds > BUDGET:
            break
        sizes.append((k, (1 << bits) * k ** n_inds))
    if not sizes:
        raise BoundsExceeded("enumeration budget exceeded")
    return sizes


def build_problems(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair],
):
    """(table, total, programs) for each k that fits, smallest first: the
    symbol table, the number of interpretations and the programs of d1,
    d2 and each axiom's sides. The census and the grid are made once;
    each k is compiled when the caller asks for it."""
    descs = [d1, d2, *(side for axiom in axioms for side in axiom)]
    atoms, slots, named, inds, units, nums, lits = _census(descs)
    if len(units) > 1:
        raise BoundsExceeded(
            "mixed units: " + ", ".join(sorted(u or "(none)" for u in units)))
    grid = _build_grid(nums, lits, need_slack=bool(slots or named))
    for k, total in _sizes(len(atoms), len(slots), len(named), len(inds),
                           len(grid)):
        table = SymbolTable(
            k=k,
            grid=grid,
            atoms={a: i for i, a in enumerate(sorted(atoms))},
            slots={s: i for i, s in enumerate(sorted(slots))},
            named={r: i for i, r in enumerate(sorted(named))},
            inds={x: i for i, x in enumerate(sorted(inds))},
        )
        yield table, total, assemble(descs, table)


def oracle_disprove(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair] | tuple[AxiomPair, ...] | AxiomIndex = (),
) -> Witness | None:
    """Search for an axiom-respecting model where d1 is not within d2.

    Tries k = 1, 2, 3 in turn and returns the first hit as a replayable
    Witness, or None when the scan at the largest k that fits the budget
    is exhausted as well. Raises BoundsExceeded when no k fits, so the
    caller must fall back to Unknown.

    Given an AxiomIndex, the outcome is remembered in its memo: the k
    and index of the hit, or -1 when every k came back empty. The key is
    the compiled k = 1 problem, whose counts and programs fix the
    problem at every larger k, so a later search that compiles to the
    same k = 1 problem compiles nothing more and runs no kernel. Its
    witness is still decoded with its own symbols at the hit's k and
    replayed.
    """
    index = axioms if isinstance(axioms, AxiomIndex) else AxiomIndex(axioms)
    selected = select_axioms(d1, d2, index)
    problems = build_problems(d1, d2, selected)
    table, total, programs = next(problems)
    key = (total, table.k, table.gamma, len(table.atoms), len(table.slots),
           len(table.named), len(table.inds), programs)
    found = index.memo.get(key)
    if found is None:
        idx = kernels.find_violation(*key)
        while idx < 0 and (bigger := next(problems, None)) is not None:
            table, total, programs = bigger
            idx = kernels.find_violation(total, table.k, *key[2:7], programs)
        found = table.k, idx
        # Few programs are distinct (51 in the 4,504 of an entail-search
        # pass); a copy per key had the garbage collector run 40% more.
        programs = tuple(index.programs.setdefault(p, p) for p in key[-1])
        index.memo[key[:-1] + (programs,)] = found
    k, idx = found
    if idx < 0:
        return None
    table = replace(table, k=k)
    interp = kernels.decode_interpretation(idx, table)
    viol = violates_subsumption(interp, d1, d2)
    if not viol or not satisfies_axioms(interp, selected):
        raise RuntimeError("kernel disagrees with the reference evaluator")
    return Witness(interp, min(viol), render_description(d1),
                   render_description(d2))
