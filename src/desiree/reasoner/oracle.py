"""Bounded-model counterexample search.

Enumerates every interpretation over a small universe derived from the
descriptions at hand, keeps those satisfying the axioms, and looks for
an element separating d1 from d2. A hit is decoded, replayed through
the reference evaluator (it must separate the pair and satisfy every
selected axiom, or the search raises), and comes back as a Witness that
keeps d1 and d2 and renders their text only when it is read. Bounded
search never proves anything: the only trusted outcome is the
counterexample, so callers treat "no hit" as inconclusive.

Only the theory's ⊥-module for the pair is searched (select_axioms;
Cuenca Grau, Horrocks, Kazakov & Sattler, "Modular reuse of ontologies",
JAIR 2008), so every witness also replays against the whole theory.

The universe has k abstract individuals plus a grid of value points
built from every numeric boundary mentioned (boundaries, midpoints, one
point past each end) and every literal (plus one fresh literal):
regions.build_grid, the grid on which the region decisions probe too. k
ascends through 1, 2, 3 while the full enumeration fits the budget, and
the first hit ends the search (small k first, as in Claessen &
Sörensson's MACE-style model finding), so only an exhaustive scan at
the largest k that fits comes back empty.

Each ReasonerContext keeps one AxiomIndex of its theory, built at its
first search: a map from each symbol to the axioms whose left side
mentions it, each with the signature of both its sides, so the fixpoint
tests an axiom again only when such a symbol enters Σ. A search walks
the pair once: its signature seeds Σ, select_axioms grows that set in
place, and the final Σ is the problem's census, which build_problems
splits by kind, so neither the pair nor a selected axiom is walked
again for it. The index also carries the search memo: the outcome of
each search (the k and index of its hit, or none), keyed by the
arguments of kernels.find_violation at k = 1 (the counts of the search
and its tuple of programs), so searches that differ only in symbol names
run the kernel once and compile only at k = 1. A context made by
`ReasonerContext.assuming` (theory plus one assumed axiom) takes its
parent's index extended by that axiom, so the two share the memo and
every entry list that axiom does not join. All of it lives as long as
the model's context, which the model keeps until its theory changes;
nothing is kept across processes.
"""
from __future__ import annotations

from desiree.reasoner import kernels
from desiree.reasoner.compile import SymbolTable, assemble
from desiree.reasoner.interp import Witness
from desiree.reasoner.regions import build_grid, census
from desiree.reasoner.semantics import satisfies_axioms, violates_subsumption
from desiree.syntax import ast

BUDGET = 1 << 21

AxiomPair = tuple[ast.Description, ast.Description]


class BoundsExceeded(Exception):
    """The problem does not fit the enumeration budget (or mixes units)."""


def signature(d: ast.Description) -> frozenset[tuple]:
    """The symbols d mentions, each tagged with its kind: (ast.Atom,
    name) for atoms other than Anything and Nothing, (ast.Slot, slot)
    for slots and projections, (ast.Enum, member) for individuals and
    (ast.Region, expr) for region expressions."""
    out = set()
    for node in ast.walk(d):
        if isinstance(node, ast.Atom):
            if node.name not in ("Anything", "Nothing"):
                out.add((ast.Atom, node.name))
        elif isinstance(node, (ast.Slot, ast.Proj)):
            out.add((ast.Slot, node.slot))
        elif isinstance(node, ast.Enum):
            out.update((ast.Enum, x) for x in node.members)
        elif isinstance(node, ast.Region):
            out.add((ast.Region, node.expr))
    return frozenset(out)


def _nonempty_when_empty(d: ast.Description, sigma=frozenset()) -> bool:
    """Whether d's extension may be nonempty with every atom, slot and
    named region outside sigma (tagged as `signature` tags them) empty.

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
        elif (isinstance(d, (ast.Slot, ast.Proj))
              and (ast.Slot, d.slot) in sigma):
            todo.append(d.filler if isinstance(d, ast.Slot) else d.base)
        elif isinstance(d, ast.Atom):
            vals.append(d.name == "Anything" or (ast.Atom, d.name) in sigma)
        elif isinstance(d, ast.Region):
            vals.append(not isinstance(d.expr, ast.Named)
                        or (ast.Region, d.expr) in sigma)
        else:  # enum members always exist; a slot outside sigma has no edge
            vals.append(isinstance(d, ast.Enum))
    return vals.pop()


class AxiomIndex:
    """The axioms of one theory, indexed for select_axioms.

    `by_lhs` maps each symbol to the entries (position, axiom, signature
    of both sides) of the axioms whose left side mentions it (key None:
    those whose left side may be nonempty whatever Σ is); `count` is the
    number of axioms. `memo` maps a search's k = 1 problem to its
    outcome, and `programs` holds one copy of each program in the memo's
    keys. An index made by `extended` shares all three with its parent,
    and every entry list the new axiom does not join.
    """

    def __init__(self, axioms: list[AxiomPair] | tuple[AxiomPair, ...] = ()):
        self.count = 0
        self.by_lhs: dict[tuple | None, list] = {}
        self.memo: dict = {}
        self.programs: dict = {}
        for ax in axioms:
            self._add(ax)

    def _add(self, axiom: AxiomPair, shared: bool = False) -> None:
        """Index one more axiom; a shared list is copied, not grown."""
        lhs, rhs = axiom
        left = signature(lhs)
        entry = (self.count, axiom, left | signature(rhs))
        self.count += 1
        for s in (None,) if _nonempty_when_empty(lhs) else left:
            if shared:
                self.by_lhs[s] = [*self.by_lhs.get(s, ()), entry]
            else:
                self.by_lhs.setdefault(s, []).append(entry)

    def extended(self, axiom: AxiomPair) -> "AxiomIndex":
        """This index plus one axiom at the end, sharing the memo.

        Only the entry lists the new axiom joins are copied; the
        theory's axioms are not walked again.
        """
        new = AxiomIndex()
        new.count, new.by_lhs = self.count, dict(self.by_lhs)
        new.memo, new.programs = self.memo, self.programs
        new._add(axiom, shared=True)
        return new


def select_axioms(
    d1: ast.Description,
    d2: ast.Description,
    axioms: list[AxiomPair] | AxiomIndex,
    sigma: set | None = None,
) -> list[tuple]:
    """The ⊥-module of the theory for separating d1 from d2: its index
    entries (position, axiom, signature), in theory order.

    Σ starts as the pair's signature. An axiom is kept when its left side
    may be nonempty with every atom, slot and named region outside Σ
    empty, and its signature then joins Σ, until nothing changes. Every
    other axiom holds once the symbols outside Σ are empty. An axiom is
    tested again only when a symbol of its left side enters Σ; the test
    is monotone in Σ, so the fixpoint is exact. A list is indexed first.

    Given sigma, the pair's signature as a set, Σ is grown in it, so it
    ends as the module's signature: the census build_problems takes.
    """
    index = axioms if isinstance(axioms, AxiomIndex) else AxiomIndex(axioms)
    if sigma is None:
        sigma = set(signature(d1) | signature(d2))
    todo: list[tuple | None] = [None, *sigma]
    chosen: dict[int, tuple] = {}
    while todo:
        for i, axiom, syms in index.by_lhs.get(todo.pop(), ()):
            if i not in chosen and _nonempty_when_empty(axiom[0], sigma):
                chosen[i] = i, axiom, syms
                todo.extend(syms - sigma)
                sigma |= syms
    return [chosen[i] for i in sorted(chosen)]


def _sizes(n_atoms, n_slots, n_named, n_inds, gamma):
    """(k, total) for each k of 1, 2, 3 whose enumeration fits the budget."""
    sizes = []
    for k in (1, 2, 3):
        bits = k * n_atoms + n_slots * k * (k + gamma) + gamma * n_named
        if (1 << bits) * k ** n_inds > BUDGET:
            break
        sizes.append((k, (1 << bits) * k ** n_inds))
    if not sizes:
        raise BoundsExceeded("enumeration budget exceeded")
    return sizes


def build_problems(
    d1: ast.Description,
    d2: ast.Description,
    entries: list[tuple],
    sigma: set | frozenset,
):
    """(table, total, programs) for each k that fits, smallest first: the
    symbol table, the number of interpretations and the programs of d1,
    d2 and each selected entry's axiom sides. The census is sigma, the
    union of the pair's and the entries' signatures (as select_axioms
    leaves it), split by kind; it and the grid are made once; each k is
    compiled when the caller asks for it."""
    kinds = {ast.Atom: [], ast.Slot: [], ast.Enum: [], ast.Region: []}
    for kind, symbol in sigma:
        kinds[kind].append(symbol)
    named, units, nums, lits = census(kinds[ast.Region])
    if len(units) > 1:
        raise BoundsExceeded(
            "mixed units: " + ", ".join(sorted(u or "(none)" for u in units)))
    grid = build_grid(nums, lits, need_slack=bool(kinds[ast.Slot] or named))
    atoms, slots, inds, named = (
        {s: i for i, s in enumerate(sorted(symbols))} for symbols in
        (kinds[ast.Atom], kinds[ast.Slot], kinds[ast.Enum], named))
    descs = [d1, d2, *(side for _, axiom, _ in entries for side in axiom)]
    for k, total in _sizes(len(atoms), len(slots), len(named), len(inds),
                           len(grid)):
        table = SymbolTable(k=k, grid=grid, atoms=atoms, slots=slots,
                            named=named, inds=inds)
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
    sigma = set(signature(d1) | signature(d2))
    selected = select_axioms(d1, d2, index, sigma)
    problems = build_problems(d1, d2, selected, sigma)
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
    if k != table.k:
        table = SymbolTable(k, table.grid, table.atoms, table.slots,
                            table.named, table.inds)
    interp = kernels.decode_interpretation(idx, table)
    viol = violates_subsumption(interp, d1, d2)
    if not viol or not satisfies_axioms(interp, [e[1] for e in selected]):
        raise RuntimeError("kernel disagrees with the reference evaluator")
    return Witness(interp, min(viol), d1, d2)
