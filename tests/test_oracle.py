"""Counterexample-search checks: kernels vs the reference evaluator."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from desiree.reasoner import kernels
from desiree.reasoner.interp import witness_from_json
from desiree.reasoner.normal import ReasonerContext
from desiree.reasoner.oracle import (
    BUDGET,
    BoundsExceeded,
    _nonempty_when_empty,
    build_problem,
    decode_interpretation,
    oracle_disprove,
    select_axioms,
    symbols_of,
)
from desiree.reasoner.semantics import (
    replay_witness,
    satisfies_axioms,
    violates_subsumption,
)
from desiree.syntax import ast
from desiree.syntax.parser import parse_description as pd

from gen_strategies import descriptions


def scalar_first(d1, d2, axioms, limit=10000):
    """First violating index found by the reference evaluator."""
    table, total, _p, _b, _e = build_problem(d1, d2, axioms)
    for idx in range(min(total, limit)):
        interp = decode_interpretation(idx, table)
        if not satisfies_axioms(interp, axioms):
            continue
        if violates_subsumption(interp, d1, d2):
            return idx
    return -1


def kernel_on(d1, d2, axioms):
    """The kernel's index on the problem of exactly these axioms."""
    table, total, progs, bounds, enum_table = build_problem(d1, d2, axioms)
    return kernels.find_violation(
        total, table.k, table.gamma, len(table.atoms), len(table.slots),
        len(table.named), len(table.inds), len(axioms), progs, bounds,
        enum_table)


def kernel_first(d1, d2, axioms):
    return kernel_on(d1, d2, select_axioms(d1, d2, axioms))


def test_no_witness_for_obvious_truths():
    assert oracle_disprove(pd("A"), pd("A")) is None
    assert oracle_disprove(pd("A B"), pd("A")) is None
    assert oracle_disprove(pd("A"), pd("A | B")) is None
    assert oracle_disprove(pd("A - B"), pd("A")) is None
    assert oracle_disprove(pd("Nothing"), pd("A")) is None
    assert oracle_disprove(pd("A"), pd("Anything")) is None
    assert oracle_disprove(pd("{a}"), pd("{a, b}")) is None
    assert oracle_disprove(pd("<s: =1 A>"), pd("<s: SOME A>")) is None


def test_plain_atom_witness_replays():
    w = oracle_disprove(pd("A"), pd("B"))
    assert w is not None
    assert replay_witness(w)
    assert replay_witness(witness_from_json(w.to_json()))


def test_some_vs_only_witness():
    w = oracle_disprove(pd("<s: SOME A>"), pd("<s: ONLY A>"))
    assert w is not None
    assert replay_witness(w)


def test_count_strengthening_disproved():
    w = oracle_disprove(pd("<s: =2 A>"), pd("<s: =1 A>"))
    assert w is not None
    assert replay_witness(w)


def test_projection_collects_stray_targets():
    # a B-filler plus a stray edge: the projection leaks the stray target
    w = oracle_disprove(pd("(A <s: B>).s"), pd("B"))
    assert w is not None
    assert replay_witness(w)


def test_enum_shrink_disproved():
    w = oracle_disprove(pd("{a, b}"), pd("{a}"))
    assert w is not None
    assert replay_witness(w)
    w2 = oracle_disprove(pd("Anything"), pd("{a}"))
    assert w2 is not None
    assert replay_witness(w2)


def test_axioms_block_witnesses():
    ab = (pd("A"), pd("B"))
    bc = (pd("B"), pd("C"))
    assert oracle_disprove(pd("A"), pd("B")) is not None
    assert oracle_disprove(pd("A"), pd("B"), [ab]) is None
    assert oracle_disprove(pd("A"), pd("C"), [ab, bc]) is None
    # declared disjointness closes the A&B corner
    disj = (pd("A B"), pd("Nothing"))
    assert oracle_disprove(pd("A B"), pd("Nothing")) is not None
    assert oracle_disprove(pd("A B"), pd("Nothing"), [disj]) is None


def test_universal_axiom_always_selected():
    # lhs Anything constrains every model even with no shared symbols
    ax = (pd("Anything"), pd("Q"))
    assert select_axioms(pd("A"), pd("Q"), [ax]) == [ax]
    assert oracle_disprove(pd("Anything"), pd("Q"), [ax]) is None


def test_unrelated_axiom_dropped():
    ax = (pd("X"), pd("Y"))
    assert select_axioms(pd("A"), pd("B"), [ax]) == []
    w = oracle_disprove(pd("A"), pd("B"), [ax])
    assert w is not None
    assert "X" not in w.interp.atoms


def test_reversed_axiom_chain_selected_in_list_order():
    # listed last link first, so each pass over the list reaches one
    # more link; the unrelated axiom stays out
    chain = [(pd(f"Y{i}"), pd(f"Y{i + 1}")) for i in range(4, 0, -1)]
    chain.append((pd("A"), pd("Y1")))
    stray = (pd("X"), pd("Z"))
    axioms = chain[:2] + [stray] + chain[2:]
    assert select_axioms(pd("A"), pd("B"), axioms) == chain


def select_reference(d1, d2, axioms):
    """The fixpoint that select_axioms must reach: keep an axiom once it
    is universal or shares a symbol with the pair or a kept axiom."""
    active = set(symbols_of(d1) | symbols_of(d2))
    chosen = [False] * len(axioms)
    changed = True
    while changed:
        changed = False
        for i, (lhs, rhs) in enumerate(axioms):
            syms = symbols_of(lhs) | symbols_of(rhs)
            if not chosen[i] and (_nonempty_when_empty(lhs)
                                  or syms & active):
                chosen[i] = True
                active |= syms
                changed = True
    return [ax for i, ax in enumerate(axioms) if chosen[i]]


UNIVERSAL_SIDES = [ast.ANYTHING, pd("<s: <=1 A>"), pd("Anything - B"),
                   pd("{a}"), pd("<t: ONLY C>")]


axiom_sides = st.recursive(
    st.one_of(st.sampled_from("ABCDEFG").map(ast.Atom),
              st.sampled_from(["a", "b"]).map(lambda x: ast.Enum((x,)))),
    lambda sub: st.one_of(
        st.builds(ast.And, sub, sub),
        st.builds(ast.Slot, st.sampled_from(["s", "t"]),
                  st.just(ast.ExactlyOne()), sub)),
    max_leaves=3)
axioms_of = st.tuples(st.one_of(axiom_sides, st.sampled_from(UNIVERSAL_SIDES)),
                      axiom_sides)


@st.composite
def axiom_theories(draw):
    """Random axioms, some with universal left sides, with a chain
    Y0 :< Y1 :< ... spliced in last link first."""
    axioms = draw(st.lists(axioms_of, max_size=16))
    n = draw(st.integers(0, 5))
    spots = sorted(draw(st.lists(st.integers(0, len(axioms)),
                                 min_size=n, max_size=n)))
    for j, at in enumerate(spots):
        i = n - 1 - j
        axioms.insert(at + j, (ast.Atom(f"Y{i}"), ast.Atom(f"Y{i + 1}")))
    return axioms


pair_sides = st.one_of(descriptions(max_depth=2), st.just(ast.Atom("Y0")))


@given(pair_sides, pair_sides, axiom_theories(),
       st.lists(axioms_of, max_size=3))
def test_indexed_selection_matches_the_fixpoint(d1, d2, axioms, more):
    assert select_axioms(d1, d2, axioms) == select_reference(d1, d2, axioms)
    # a context's index, extended by one assumed axiom, selects as a
    # fresh list with that axiom appended would, and leaves the base as
    # it was
    ctx = ReasonerContext(axioms=axioms, disjoints=[("A", "B")])
    base = ctx.axiom_index()
    for assumed in more:
        ext = base.extended(assumed)
        assert ext.memo is base.memo
        assert select_axioms(d1, d2, ext) == select_reference(
            d1, d2, ctx.axiom_pairs() + [assumed])
    assert select_axioms(d1, d2, base) == select_reference(
        d1, d2, ctx.axiom_pairs())


def test_renamed_pair_reuses_the_search(monkeypatch):
    calls = []
    search = kernels.find_violation

    def counted(*args):
        calls.append(args[0])
        return search(*args)

    monkeypatch.setattr(kernels, "find_violation", counted)
    axioms = [(pd("A"), pd("B")), (pd("P"), pd("Q"))]
    ctx = ReasonerContext(axioms=axioms)
    w1 = oracle_disprove(pd("A"), pd("C"), ctx.axiom_index())
    assert len(calls) == 1
    # P, Q, R sit where A, B, C did: the same compiled problem
    w2 = oracle_disprove(pd("P"), pd("R"), ctx.axiom_index())
    assert len(calls) == 1
    assert set(w1.interp.atoms) == {"A", "B", "C"}
    assert set(w2.interp.atoms) == {"P", "Q", "R"}
    assert (w2.d1_text, w2.d2_text) == ("P", "R")
    assert replay_witness(w2)
    assert satisfies_axioms(w2.interp, axioms)
    # the memo belongs to the context
    fresh = ReasonerContext(axioms=axioms)
    w3 = oracle_disprove(pd("P"), pd("R"), fresh.axiom_index())
    assert len(calls) == 2
    assert w3.to_json() == w2.to_json()


def test_interval_widening_monotone_only_for_some():
    # the default modifier demands exactly one filler in the region, so
    # widening is not entailed: a second edge in (20, 30] breaks it
    lo = pd("<has_value_in: [0, 20 (Sec.)]>")
    hi = pd("<has_value_in: [0, 30 (Sec.)]>")
    w = oracle_disprove(lo, hi)
    assert w is not None
    assert replay_witness(w)
    w2 = oracle_disprove(hi, lo)
    assert w2 is not None
    assert replay_witness(w2)
    # the separating filler value sits in (20, 30]
    vals = [w2.interp.grid[y - w2.interp.k]
            for (x, y) in w2.interp.slots.get("has_value_in", ())
            if x == w2.x and y >= w2.interp.k]
    assert any(isinstance(v, Fraction) and 20 < v <= 30 for v in vals)
    # at-least-one is monotone in the region
    lo_some = pd("<has_value_in: SOME [0, 20 (Sec.)]>")
    hi_some = pd("<has_value_in: SOME [0, 30 (Sec.)]>")
    assert oracle_disprove(lo_some, hi_some) is None
    assert oracle_disprove(hi_some, lo_some) is not None


def test_named_region_needs_axiom():
    fast = ast.Region(ast.Named("Fast"))
    slow = ast.Region(ast.Named("Slow"))
    w = oracle_disprove(fast, slow)
    assert w is not None
    assert replay_witness(w)
    assert oracle_disprove(fast, slow, [(fast, slow)]) is None


def test_mixed_units_are_skipped():
    sec = pd("<has_value_in: [0, 20 (Sec.)]>")
    minutes = pd("<has_value_in: [0, 30 (Min.)]>")
    with pytest.raises(BoundsExceeded):
        oracle_disprove(sec, minutes)
    pct = ast.Region(ast.Percent(Fraction(0), Fraction(1, 2)))
    with pytest.raises(BoundsExceeded):
        oracle_disprove(pd("<has_value_in: [0, 20 (Sec.)]>"),
                        ast.Slot("has_value_in", ast.ExactlyOne(), pct))


def test_budget_overflow_raises():
    text = "A " + " ".join(f"<s{i}: A>" for i in range(22))
    with pytest.raises(BoundsExceeded):
        oracle_disprove(pd(text), pd("B"))


SWEEP_CASES = [
    (pd("A"), pd("B"), []),
    (pd("A B"), pd("A"), []),
    (pd("A"), pd("A B"), []),
    (pd("{a, b}"), pd("{a}"), []),
    (pd("A | B"), pd("A"), [(pd("B"), pd("A"))]),
    (ast.Region(ast.Named("Fast")), ast.Region(ast.Named("Slow")), []),
    (pd("<s: SOME A>"), pd("<s: ONLY A>"), []),
]


@pytest.mark.parametrize("case", range(len(SWEEP_CASES)))
def test_kernel_matches_reference_sweep(case):
    d1, d2, axioms = SWEEP_CASES[case]
    got = kernel_first(d1, d2, axioms)
    want = scalar_first(d1, d2, axioms)
    assert got == want


def logged_kernel(monkeypatch, d1, d2, axioms):
    """The kernel's index on the problem of exactly these axioms; per
    visited chunk, the (program, came out as an array) of every program
    run; and what each program reads (kernels.LO, kernels.HI or both).
    Program i < len(axioms) is axiom i, program len(axioms) the pair's.

    Fails as soon as any array is longer than MAX_LANES.
    """
    visits, programs, reads = [], [], []
    fields, run, specialise = (kernels._Split.fields, kernels._run,
                               kernels._specialise)

    def logged_fields(self, hi):
        env = fields(self, hi)
        assert all(np.size(v) <= kernels.MAX_LANES for v in env)
        visits.append([])
        return env

    def logged_specialise(*args):
        code, r = specialise(*args)
        programs.append(code)
        reads.append(r)
        return code, r

    def logged_run(code, *args):
        res = run(code, *args)
        assert np.size(res) <= kernels.MAX_LANES
        which = [i for i, p in enumerate(programs) if p is code]
        if which:
            visits[-1].append((which[0], np.ndim(res) > 0))
        return res

    monkeypatch.setattr(kernels._Split, "fields", logged_fields)
    monkeypatch.setattr(kernels, "_specialise", logged_specialise)
    monkeypatch.setattr(kernels, "_run", logged_run)
    return kernel_on(d1, d2, axioms), visits, reads


EIGHT = "{a, b, c, d, e, f, g, h}"

CHUNK_CASES = {
    "witness past the first chunk":
        ("A", "B | {a}", [("A", "<s: SOME Anything>")]),
    "straddling field": ("<s: SOME A>", "<s: A>", []),
    "exhaustive over chunks": ("<s: =2 A>", "<s: SOME A>", []),
    "chunk killed by a constant axiom":
        ("A", EIGHT, [("{a} A", "A"), ("{i}", "A")]),
    "more individual digits than fit":
        ("A", "{i} | B " + EIGHT, []),
}


@pytest.mark.parametrize("name", CHUNK_CASES)
def test_chunked_kernel_matches_reference(monkeypatch, name):
    d1, d2, axioms = CHUNK_CASES[name]
    d1, d2 = pd(d1), pd(d2)
    axioms = [(pd(lhs), pd(rhs)) for lhs, rhs in axioms]
    assert select_axioms(d1, d2, axioms) == axioms
    got, visits, _reads = logged_kernel(monkeypatch, d1, d2, axioms)
    assert got == scalar_first(d1, d2, axioms, limit=BUDGET)
    table, total, *_ = build_problem(d1, d2, axioms)
    chunks = kernels._Split(total, table.k, table.gamma, len(table.atoms),
                            len(table.slots), len(table.named),
                            len(table.inds))
    assert chunks.lanes <= kernels.MAX_LANES
    assert total >= 3 * chunks.lanes
    if name == "witness past the first chunk":
        assert got // chunks.lanes >= 2
    elif name == "straddling field":
        # the witness sets bits of the straddling field on both sides
        _field, part, _shift, mask = chunks.straddle
        assert part[got % chunks.lanes] and got // chunks.lanes & mask
    elif name == "exhaustive over chunks":
        assert got == -1
        assert len(visits) == total // chunks.lanes
        # nothing to hoist: A straddles the split, so each chunk runs
        # the pair's program, and only that
        assert all(v == [(0, True)] for v in visits)
    elif name == "chunk killed by a constant axiom":
        assert got // chunks.lanes >= 3
        killed = [v for v in visits if not any(arr for _prog, arr in v)]
        assert len(killed) >= 3
        # axiom 1 reads only i and A, both above the split: it runs
        # first, as integers, and rejects the chunk on its own
        assert all(v == [(1, False)] for v in killed)
    else:
        assert table.k ** len(table.inds) > kernels.MAX_LANES
        assert chunks.lo_inds < len(table.inds)
        # the witness needs i, the digit above the split, off element 0
        assert got // chunks.lanes % table.k != 0


# The differential test below draws small problems and lane caps far
# below MAX_LANES, so the split falls everywhere: between individual
# digits, inside a field, above every field. The leaves cover fields
# below the split (invariant), above it (chunk-constant) and across it,
# enums whose members sit on both sides, and constants, so that an
# axiom such as Anything :< Nothing empties the base mask.
kernel_leaves = st.one_of(
    st.sampled_from("AB").map(ast.Atom),
    st.sampled_from([ast.ANYTHING, ast.NOTHING,
                     ast.Region(ast.Named("Fast"))]),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=2,
             unique=True).map(lambda ms: ast.Enum(tuple(ms))))
kernel_descs = st.recursive(kernel_leaves, lambda sub: st.one_of(
    st.builds(ast.And, sub, sub),
    st.builds(ast.Or, sub, sub),
    st.builds(ast.Diff, sub, sub)), max_leaves=4)
# Slots take a universe of their own (12 bits at k = 3), so they come
# with constant fillers only, which keeps every reference scan short.
slot_descs = st.recursive(
    st.sampled_from([ast.ANYTHING, ast.NOTHING]),
    lambda sub: st.one_of(
        st.builds(ast.Slot, st.just("s"),
                  st.sampled_from([ast.Some(), ast.Only(), ast.ExactlyOne(),
                                   ast.AtMost(1), ast.Exactly(2)]), sub),
        st.builds(ast.Proj, sub, st.just("s")),
        st.builds(ast.And, sub, sub),
        st.builds(ast.Diff, sub, sub)), max_leaves=3)
LANE_CAPS = [1, 2, 4, 8, 16, 32, 128, kernels.MAX_LANES]


@st.composite
def one_symbol_sides(draw, leaves):
    """A side over one drawn leaf and the constants."""
    x = draw(leaves)
    return st.recursive(
        st.sampled_from([x, ast.ANYTHING, ast.NOTHING]),
        lambda sub: st.one_of(st.builds(ast.And, sub, sub),
                              st.builds(ast.Or, sub, sub),
                              st.builds(ast.Diff, sub, sub)), max_leaves=3)


@st.composite
def kernel_problems(draw):
    if draw(st.booleans()):
        sides, leaves = kernel_descs, kernel_leaves
    else:
        sides, leaves = slot_descs, slot_descs
    d1, d2 = draw(sides), draw(sides)
    # an axiom over one symbol reads one side of the split, or both
    # when that symbol straddles it
    one_symbol = one_symbol_sides(leaves).flatmap(
        lambda side: st.tuples(side, side))
    axioms = draw(st.lists(st.one_of(st.tuples(sides, sides), one_symbol),
                           max_size=3))
    return d1, d2, select_axioms(d1, d2, axioms)


def kernel_cases(d1, d2, axioms, reads, visits, got):
    """The specialisation cases one search meets."""
    table, total, progs, _bounds, enum_table = build_problem(d1, d2, axioms)
    split = kernels._Split(total, table.k, table.gamma, len(table.atoms),
                           len(table.slots), len(table.named),
                           len(table.inds))
    cases = set()
    if split.straddle is not None:
        cases.add("straddling field")
    for op, a, b, _c in progs:
        members = enum_table[a:a + b]
        if (op == kernels.OP_PUSH_ENUM and min(members) < split.lo_inds
                <= max(members)):
            cases.add("enum split")
    for r in reads[:len(axioms)]:
        if r == kernels.LO:
            cases.add("invariant axiom")
        elif r == kernels.HI:
            cases.add("chunk-constant axiom")
    if got < 0 and not visits and len(reads) == len(axioms):
        cases.add("empty base")
    return cases


KERNEL_EXAMPLES = [
    # A below the split and empty, B above it and empty
    (("A", "B", [("A", "Anything - A"), ("B", "Anything - B")]), 8,
     {"invariant axiom", "chunk-constant axiom"}),
    # the split falls inside A's field
    (("A", "B", []), 4, {"straddling field"}),
    # a below the split, b above it
    (("A {a, b}", "B", []), 4, {"enum split"}),
    (("A", "B", [("Anything", "Nothing")]), 64, {"empty base"}),
]


def specialised_search(d1, d2, axioms, cap):
    """The cases the kernel met at lane cap `cap`, once its index has
    matched the reference's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "MAX_LANES", cap)
        got, visits, reads = logged_kernel(mp, d1, d2, axioms)
        cases = kernel_cases(d1, d2, axioms, reads, visits, got)
    assert got == scalar_first(d1, d2, axioms, limit=BUDGET)
    return cases


@pytest.mark.parametrize("case", range(len(KERNEL_EXAMPLES)))
def test_kernel_examples_meet_each_case(case):
    (d1, d2, axioms), cap, want = KERNEL_EXAMPLES[case]
    d1, d2 = pd(d1), pd(d2)
    axioms = [(pd(lhs), pd(rhs)) for lhs, rhs in axioms]
    assert select_axioms(d1, d2, axioms) == axioms
    assert want <= specialised_search(d1, d2, axioms, cap)


@settings(max_examples=80, deadline=None)
@given(kernel_problems(), st.sampled_from(LANE_CAPS))
def test_specialised_kernel_matches_reference(problem, cap):
    for name in sorted(specialised_search(*problem, cap)):
        event(name)
