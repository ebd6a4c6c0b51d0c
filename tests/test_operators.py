"""Constructive operator helpers: scaling, focus, observe, relax."""

from fractions import Fraction

import pytest

from desiree import operators as ops
from desiree.diagnostics import E_REGION_KIND, E_SIG_ARGS
from desiree.syntax import ast
from desiree.syntax.parser import (
    DeUniversalizeSyntax,
    FocusTargets,
    HierarchyDecl,
    QualityBody,
    ScaleQualitative,
    ScaleQuantitative,
    parse_description,
)

D = parse_description
F = Fraction


def quant(lo, hi):
    return ScaleQuantitative(F(lo), F(hi))


# ---------------------------------------------------------------------------
# Quantitative scaling.


def test_scaleup_shrinks_interval():
    region = ast.Interval(F(0), F(30), "Sec")
    scaled, axiom = ops.scale_region(region, quant(1, F(2, 3)), "up", {})
    assert scaled == ast.Interval(F(0), F(20), "Sec")
    assert axiom is None


def test_scaledown_enlarges_interval():
    region = ast.Interval(F(0), F(30), "Sec")
    scaled, _ = ops.scale_region(region, quant(1, F(6, 5)), "down", {})
    assert scaled == ast.Interval(F(0), F(36), "Sec")


def test_scale_moves_both_bounds():
    region = ast.Interval(F(10), F(20), None)
    scaled, _ = ops.scale_region(region, quant(F(3, 2), F(9, 10)), "up", {})
    assert scaled == ast.Interval(F(15), F(18), None)


def test_scale_keeps_open_upper_bound():
    region = ast.Interval(F(10), None, "MB")
    scaled, _ = ops.scale_region(region, quant(2, F(1, 2)), "up", {})
    assert scaled == ast.Interval(F(20), None, "MB")


def test_scale_percent_clamps():
    region = ast.Percent(F(90, 100), F(95, 100))
    scaled, _ = ops.scale_region(region, quant(1, F(3, 2)), "down", {})
    assert scaled == ast.Percent(F(90, 100), F(1))


@pytest.mark.parametrize("direction,f_lo,f_hi", [
    ("up", F(1, 2), F(2, 3)),    # lower bound may not drop when tightening
    ("up", F(1), F(3, 2)),       # upper bound may not rise when tightening
    ("down", F(3, 2), F(2)),     # lower bound may not rise when relaxing
    ("down", F(1), F(1, 2)),     # upper bound may not drop when relaxing
])
def test_scale_direction_enforced(direction, f_lo, f_hi):
    region = ast.Interval(F(0), F(30), "Sec")
    with pytest.raises(ops.OperatorError) as err:
        ops.scale_region(region, ScaleQuantitative(f_lo, f_hi),
                         direction, {})
    assert err.value.code == E_SIG_ARGS


def test_scale_bounds_crossing_rejected():
    region = ast.Interval(F(10), F(12), None)
    with pytest.raises(ops.OperatorError) as err:
        ops.scale_region(region, quant(F(3, 2), F(9, 10)), "up", {})
    assert err.value.code == E_SIG_ARGS


def test_scale_numeric_needs_numeric_region():
    with pytest.raises(ops.OperatorError) as err:
        ops.scale_region(ast.Named("Fast"), quant(1, F(1, 2)), "up", {})
    assert err.value.code == E_REGION_KIND


# ---------------------------------------------------------------------------
# Qualitative scaling.


def test_qualitative_scaledown_prefixes_and_orders():
    scaled, axiom = ops.scale_region(ast.Named("Fast"),
                                     ScaleQualitative("Nearly"), "down",
                                     ops.BUILTIN_FACTORS)
    assert scaled == ast.Named("Nearly Fast")
    lhs, rhs = axiom
    assert lhs == ast.Named("Fast")
    assert rhs == ast.Named("Nearly Fast")


def test_qualitative_scaleup_orders_the_other_way():
    scaled, axiom = ops.scale_region(ast.Named("Fast"),
                                     ScaleQualitative("Very"), "up",
                                     ops.BUILTIN_FACTORS)
    assert scaled == ast.Named("Very Fast")
    lhs, rhs = axiom
    assert lhs == ast.Named("Very Fast")
    assert rhs == ast.Named("Fast")


def test_declared_factor_respected():
    factors = dict(ops.BUILTIN_FACTORS, Roughly="weakens")
    scaled, _ = ops.scale_region(ast.Named("Simple"),
                                 ScaleQualitative("Roughly"), "down",
                                 factors)
    assert scaled == ast.Named("Roughly Simple")


def test_unknown_factor_rejected():
    with pytest.raises(ops.OperatorError) as err:
        ops.scale_region(ast.Named("Fast"), ScaleQualitative("Sorta"),
                         "down", ops.BUILTIN_FACTORS)
    assert err.value.code == E_SIG_ARGS
    assert "Sorta" in err.value.message


def test_factor_direction_mismatch_rejected():
    # Nearly weakens, so it cannot tighten a region.
    with pytest.raises(ops.OperatorError) as err:
        ops.scale_region(ast.Named("Fast"), ScaleQualitative("Nearly"),
                         "up", ops.BUILTIN_FACTORS)
    assert err.value.code == E_SIG_ARGS


def test_qualitative_needs_named_region():
    region = ast.Interval(F(0), F(30), "Sec")
    with pytest.raises(ops.OperatorError) as err:
        ops.scale_region(region, ScaleQualitative("Nearly"), "down",
                         ops.BUILTIN_FACTORS)
    assert err.value.code == E_REGION_KIND


# ---------------------------------------------------------------------------
# Focus.


HIER = (
    HierarchyDecl("dimension", "Confidentiality", "Security", None),
    HierarchyDecl("dimension", "Integrity", "Security", None),
    HierarchyDecl("dimension", "Availability", "Security", None),
    HierarchyDecl("part", "data_storage", "the_system", None),
    HierarchyDecl("part", "scheduling_engine", "the_system", None),
)

SEC = QualityBody("Security", ast.Enum(("the_system",)), ast.Named("Good"),
                  None)


def test_focus_on_dimensions():
    bodies, complete = ops.focus_outputs(
        SEC, FocusTargets(("Confidentiality", "Integrity")), HIER)
    assert [b.quality for b in bodies] == ["Confidentiality", "Integrity"]
    assert all(b.subject == SEC.subject for b in bodies)
    assert not complete


def test_focus_covering_all_dimensions():
    _, complete = ops.focus_outputs(
        SEC, FocusTargets(("Confidentiality", "Integrity", "Availability")),
        HIER)
    assert complete


def test_focus_on_parts():
    bodies, complete = ops.focus_outputs(
        SEC, FocusTargets(("data_storage",)), HIER)
    assert bodies[0].quality == "Security"
    assert bodies[0].subject == ast.Enum(("data_storage",))
    assert not complete


def test_focus_covering_all_parts():
    _, complete = ops.focus_outputs(
        SEC, FocusTargets(("data_storage", "scheduling_engine")), HIER)
    assert complete


def test_focus_rejects_unknown_targets():
    with pytest.raises(ops.OperatorError) as err:
        ops.focus_outputs(SEC, FocusTargets(("Latency",)), HIER)
    assert err.value.code == E_SIG_ARGS


def test_focus_rejects_mixed_targets():
    with pytest.raises(ops.OperatorError):
        ops.focus_outputs(
            SEC, FocusTargets(("Confidentiality", "data_storage")), HIER)


def test_focus_rejects_repeats():
    with pytest.raises(ops.OperatorError) as err:
        ops.focus_outputs(
            SEC, FocusTargets(("Integrity", "Integrity")), HIER)
    assert "repeat" in err.value.message


def test_focus_parts_need_single_individual():
    body = QualityBody("Security", D("the_system"), ast.Named("Good"), None)
    with pytest.raises(ops.OperatorError):
        ops.focus_outputs(body, FocusTargets(("data_storage",)), HIER)


# ---------------------------------------------------------------------------
# Observe and relax.


def test_observe_attaches_observer():
    out = ops.observe_output(SEC, D("Surveyed_user"))
    assert out.observer == D("Surveyed_user")
    assert out.quality == SEC.quality
    assert out.region == SEC.region


def test_relax_records_retained_rate():
    args = DeUniversalizeSyntax("S", ast.Slot("observed_by", None,
                                              ast.Var("S")), F(4, 5))
    out = ops.relax({}, args)
    assert out == {"observed_by": F(4, 5)}


def test_relax_keeps_the_smaller_rate():
    args = DeUniversalizeSyntax("S", ast.Slot("observed_by", None,
                                              ast.Var("S")), F(9, 10))
    out = ops.relax({"observed_by": F(4, 5)}, args)
    assert out == {"observed_by": F(4, 5)}


def test_relax_rejects_zero_rate():
    args = DeUniversalizeSyntax("S", ast.Slot("observed_by", None,
                                              ast.Var("S")), F(0))
    with pytest.raises(ops.OperatorError) as err:
        ops.relax({}, args)
    assert err.value.code == E_SIG_ARGS


def test_relax_pattern_must_bind_the_variable():
    args = DeUniversalizeSyntax("S", ast.Slot("observed_by", None,
                                              ast.Var("T")), F(1, 2))
    with pytest.raises(ops.OperatorError):
        ops.relax({}, args)


# ---------------------------------------------------------------------------
# Kind categories.


def test_categories():
    assert ops.category("goal") == "goal"
    assert ops.category("qg") == "goal"
    assert ops.category("qc") == "specification"
    assert ops.category("sc") == "specification"
    assert ops.category("da") == "assumption"
