"""Region decisions (reasoner/regions.py) against the reference evaluator."""
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from desiree.reasoner import kernels
from desiree.reasoner.normal import (
    ReasonerContext,
    structural_subsumes,
    translate,
)
from desiree.reasoner.oracle import (
    build_problems,
    oracle_disprove,
    select_axioms,
    signature,
)
from desiree.reasoner.regions import (
    region_gap_point,
    region_subset,
    regions_certainly_disjoint,
)
from desiree.reasoner.semantics import (
    eval_desc,
    point_in_region,
    replay_witness,
)
from desiree.reasoner.subsume import subsumes
from desiree.reasoner.verdict import Disproved, Proved
from desiree.syntax import ast
from desiree.syntax.parser import AxiomDecl, parse_model_file
from desiree.syntax.parser import parse_description as pd
from desiree.syntax.render import render_declaration, render_description

from gen_strategies import intervals, percents, regions, value_sets

F = Fraction
concrete = st.one_of(intervals(), value_sets, percents())

# Every generated bound is a multiple of 1/12 in [0, 90] and every
# numeric member is 3 or 5, so these points meet every piece of every
# region: each bound, a point between each two neighbours, and points
# past both ends. "Sun" is a literal no region holds.
SAMPLE = ([F(n, 24) for n in range(-24, 92 * 24 + 1)]
          + ["Mon", "Wed", "Fri", "Sun"])


def compared(r1, r2) -> bool:
    kinds = {type(r1), type(r2)}
    if ast.Percent in kinds:
        return kinds == {ast.Percent}
    if kinds == {ast.Interval}:
        return (r1.unit or "") == (r2.unit or "")
    return True


def inside(r):
    return {p for p in SAMPLE if point_in_region(r, p)}


@given(regions, regions)
@example(ast.Interval(F(10), None, "Sec"), ast.Interval(F(0), F(5), "Sec"))
def test_a_gap_point_lies_in_r1_and_not_in_r2(r1, r2):
    p = region_gap_point(r1, r2)
    if p is not None:
        assert point_in_region(r1, p)
        assert not point_in_region(r2, p)


@given(concrete, concrete)
def test_compared_pairs_agree_with_a_dense_sample(r1, r2):
    subset = region_subset(r1, r2)
    disjoint = regions_certainly_disjoint(r1, r2)
    gap = region_gap_point(r1, r2)
    if compared(r1, r2):
        in1, in2 = inside(r1), inside(r2)
        assert subset == (in1 <= in2)
        assert disjoint == (not in1 & in2)
        assert (gap is None) == subset
    else:
        assert (subset, disjoint, gap) == (r1 == r2, False, None)


SEC_0_10 = ast.Interval(F(0), F(10), "Sec")


@pytest.mark.parametrize("r1, r2, subset, disjoint, gap", [
    # two intervals only with the same unit
    (ast.Interval(F(0), F(5), "Sec"), ast.Interval(F(0), F(10), "MB"),
     False, False, None),
    (ast.Interval(F(0), F(5), "Sec"), SEC_0_10, True, False, None),
    (ast.Interval(F(20), None, "Sec"), SEC_0_10, False, True, F(20)),
    # a percentage only with a percentage
    (ast.Percent(F(0), F(1, 2)), ast.Interval(F(0), F(1), None),
     False, False, None),
    (ast.Percent(F(0), F(1, 2)), ast.ValueSet(("Mon",)),
     False, False, None),
    (ast.Percent(F(0), F(1, 2)), ast.Percent(F(3, 4), F(1)),
     False, True, F(0)),
    # a value set with a value set, or an interval of any unit
    (ast.ValueSet(("3", "5")), SEC_0_10, True, False, None),
    (ast.ValueSet(("3", "Mon")), SEC_0_10, False, False, "Mon"),
    (ast.ValueSet(("Mon", "Wed")), ast.ValueSet(("Wed", "Mon", "Fri")),
     True, False, None),
    (ast.Interval(F(5), F(5), None), ast.ValueSet(("3", "5")),
     True, False, None),
    (ast.Interval(F(4), F(6), None), ast.ValueSet(("3", "5")),
     False, False, F(4)),
])
def test_comparability_rules(r1, r2, subset, disjoint, gap):
    assert region_subset(r1, r2) is subset
    assert regions_certainly_disjoint(r1, r2) is disjoint
    assert region_gap_point(r1, r2) == gap


def test_the_gap_point_is_r1s_own_point_first():
    # grid order alone would give 33, the point between 30 and 36
    assert region_gap_point(ast.Interval(F(0), F(36), None),
                            ast.Interval(F(0), F(30), None)) == 36
    # an unbounded r1 wholly above r2 gives its lower bound
    assert region_gap_point(ast.Interval(F(10), None, "Sec"),
                            ast.Interval(F(0), F(5), "Sec")) == 10
    # past r1's own points, the grid: a point above 30 for [0, ...)
    assert region_gap_point(ast.Interval(F(0), None, None),
                            ast.Interval(F(0), F(30), None)) == 31


def test_named_regions_are_compared_through_the_edges():
    # region_subset reads two regions alone: one named region lies within
    # another only when they are one. The told edges are followed by the
    # prover, which closes a conjunct's named regions first.
    fast, good, nearly, slow, bad = (
        ast.Named(n) for n in ("Fast", "Good", "Nearly Fast", "Slow", "Bad"))
    assert region_subset(slow, slow)
    assert not region_subset(fast, nearly)
    assert not region_subset(fast, SEC_0_10)
    edges = [(fast, good), (good, nearly), (nearly, good), (slow, bad)]
    ctx = ReasonerContext([(a, b) for a, b in edges])

    def within(r1, r2):
        return structural_subsumes(r1, r2, ctx)

    assert within(fast, nearly) and within(nearly, good)
    assert not within(nearly, fast)
    assert not within(fast, slow)
    assert not within(bad, slow)
    # never a gap or disjointness
    assert region_gap_point(fast, slow) is None
    assert region_gap_point(SEC_0_10, fast) is None
    assert not regions_certainly_disjoint(fast, slow)


CHAIN = ('"Fast" :< "Nearly Fast"', '"Nearly Fast" :< "Good"')
CYCLE = ('"A" :< "B"', '"B" :< "A"')
BOUNDED = ('"Fast" :< [0, 5 Sec]',)


@pytest.mark.parametrize("axioms, r1, r2, proved", [
    (CHAIN, '"Fast"', '"Good"', True),
    (CHAIN, '"Good"', '"Fast"', False),
    (CYCLE, '"A"', '"B"', True),
    (CYCLE, '"B"', '"A"', True),
    (BOUNDED, '"Fast"', "[0, 10 Sec]", True),
    (BOUNDED, '"Fast"', "[0, 3 Sec]", False),
    # a concept axiom says nothing of the region of the same name, nor
    # does one whose right side is a region
    (("A :< B",), '"A"', '"B"', False),
    (('A :< "B"',), '"A"', '"B"', False),
])
def test_told_region_inclusions(axioms, r1, r2, proved):
    ctx = ReasonerContext([tuple(map(pd, a.split(":<"))) for a in axioms])
    d1, d2 = pd(r1), pd(r2)
    assert structural_subsumes(d1, d2, ctx) is proved
    w = oracle_disprove(d1, d2, ctx)
    assert (w is None) is proved
    if w is not None:
        assert replay_witness(w)
    v = subsumes(d1, d2, ctx)
    assert isinstance(v, Proved if proved else Disproved)


@pytest.mark.parametrize("values", [("a", "b"), ("a", "__other__"),
                                    ("__other__", "__other___")])
def test_the_grid_holds_a_literal_no_value_set_holds(values):
    # A named region may hold a value outside every value set, whatever
    # literals the value set uses.
    v = subsumes(ast.Named("Fast"), ast.ValueSet(values))
    assert isinstance(v, Disproved)
    assert replay_witness(v.witness)


# Each region as written in description position and in region context.
REGION_FORMS = {
    "named": (ast.Named("Fast"), '"Fast"', "Fast"),
    "closed": (ast.Interval(F(0), F(30), "Sec"), "[0, 30 (Sec.)]",
               "[0, 30 Sec]"),
    "one-sided": (ast.Interval(F(20), None, "Sec"), ">= 20 (Sec)",
                  ">=20 Sec"),
    "value set": (ast.ValueSet(("3", "Mon")), ":: {3, Mon}", "{3, Mon}"),
    "percent": (ast.Percent(F(1, 10), F(1, 2)), "[10%, 50%]",
                "[10%, 50%]"),
}
GOOD = ast.Named("Good")
# Each position: the text around the region, and the node around it.
POSITIONS = {
    "body": ("{}", lambda r: r),
    "&": ('{} & "Good"', lambda r: ast.And(r, GOOD)),
    "|": ('"Good" | {}', lambda r: ast.Or(GOOD, r)),
    "-": ('{} - "Good"', lambda r: ast.Diff(r, GOOD)),
    "slot": ("<s: {}>", lambda r: ast.Slot("s", ast.ExactlyOne(), r)),
    "has_value_in": ("<has_value_in: {}>",
                     lambda r: ast.Slot("has_value_in", ast.ExactlyOne(), r)),
    "axiom side": ("axiom {} :< Anything.", None),
}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("form", REGION_FORMS)
def test_a_region_stands_in_every_description_position(form, position):
    region, text, in_region_context = REGION_FORMS[form]
    around, node = POSITIONS[position]
    if position == "has_value_in":
        text = in_region_context
    if node is None:
        decls = parse_model_file(around.format(text)).declarations
        assert decls == [AxiomDecl(region, ast.ANYTHING, (1, 1))]
        assert parse_model_file(render_declaration(decls[0])).declarations \
            == decls
        d, axioms = region, [(region, ast.ANYTHING)]
    else:
        d, axioms = node(region), []
        assert pd(around.format(text)) == d
        assert pd(render_description(d)) == d
    ctx = ReasonerContext(axioms)
    assert translate(d, ctx)
    sigma = set(signature(d))
    assert (ast.REGIONS, region) in sigma
    selected = select_axioms(d, d, ctx, sigma)
    assert len(selected) == len(axioms)
    for table, _total, programs in build_problems(d, d, selected, sigma):
        assert len(programs) == 2 + 2 * len(axioms)
        interp = kernels.decode_interpretation(0, table)
        assert eval_desc(d, interp) <= interp.universe
    assert isinstance(subsumes(d, d, ctx), Proved)
