"""Region decisions (reasoner/regions.py) against the reference evaluator."""
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from desiree.reasoner.regions import (
    named_closure,
    region_gap_point,
    region_subset,
    regions_certainly_disjoint,
)
from desiree.reasoner.semantics import point_in_region
from desiree.syntax import ast

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
    subset = region_subset(r1, r2, {})
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
    assert region_subset(r1, r2, {}) is subset
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
    supers = {"Fast": ("Good",), "Good": ("Nearly Fast",),
              "Nearly Fast": ("Good",), "Slow": ("Bad",)}
    assert named_closure("Fast", supers) == {"Fast", "Good", "Nearly Fast"}
    assert named_closure("Bad", supers) == {"Bad"}
    fast, nearly, slow = (ast.Named(n) for n in ("Fast", "Nearly Fast",
                                                 "Slow"))
    assert region_subset(fast, nearly, supers)
    assert not region_subset(nearly, fast, supers)
    assert not region_subset(fast, slow, supers)
    assert region_subset(slow, slow, {})
    # never against a concrete region, and never a gap or disjointness
    assert not region_subset(fast, SEC_0_10, supers)
    assert region_gap_point(fast, slow) is None
    assert region_gap_point(SEC_0_10, fast) is None
    assert not regions_certainly_disjoint(fast, slow)
