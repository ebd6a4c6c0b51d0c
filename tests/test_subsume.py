"""Structural prover checks, with the bounded search as backstop."""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from desiree.reasoner.normal import (
    DnfOverflow,
    ReasonerContext,
    _merge,
    enrich,
    structural_subsumes,
    translate,
)
from desiree.reasoner.semantics import replay_witness
from desiree.reasoner.subsume import subsumes
from desiree.reasoner.verdict import Disproved, Proved, Unknown
from desiree.syntax import ast
from desiree.syntax.parser import parse_description as pd
from gen_strategies import IDENTS, atoms, descriptions


def proved(d1, d2, ctx=None):
    v = subsumes(pd(d1) if isinstance(d1, str) else d1,
                 pd(d2) if isinstance(d2, str) else d2, ctx)
    return isinstance(v, Proved)


def verdict(d1, d2, ctx=None):
    return subsumes(pd(d1) if isinstance(d1, str) else d1,
                    pd(d2) if isinstance(d2, str) else d2, ctx)


def test_boolean_truths():
    assert proved("A", "A")
    assert proved("A B", "A")
    assert proved("A B", "B A")
    assert proved("A", "A | B")
    assert proved("B | A", "A | B")
    assert proved("A - B", "A")
    assert proved("Nothing", "A")
    assert proved("A", "Anything")
    assert proved("(A - B) B", "Nothing")


def test_boolean_falsehoods_are_disproved():
    for d1, d2 in [("A", "B"), ("A", "A B"), ("A | B", "A")]:
        v = verdict(d1, d2)
        assert isinstance(v, Disproved)
        assert replay_witness(v.witness)


def test_distinct_names_may_share_a_denotation():
    # {a} {c} is satisfiable (both names picking one element), so it must
    # not be normalized away as empty
    v = verdict("{a} {c}", "B")
    assert isinstance(v, Disproved)
    assert replay_witness(v.witness)
    assert proved("{a} {c}", "{a}")
    assert proved("{a} {c}", "{a, b}")
    assert not proved("{a, b} {b, c}", "{b}")


def test_axiom_chain_enrichment():
    ctx = ReasonerContext(axioms=[(pd("A"), pd("B")), (pd("B"), pd("C"))])
    assert proved("A", "C", ctx)
    assert proved("A X", "C X", ctx)
    assert not proved("C", "A", ctx)


def reference_enrich(c, ctx):
    """The fixpoint that enrich ran before the told table: each told right
    side of each atom reached is normalised again on every call, and an
    overflowing one raises DnfOverflow."""
    atom_axioms: dict = {}
    for lhs, rhs in ctx.axioms:
        if isinstance(lhs, ast.Atom) and lhs.name not in ("Anything",
                                                          "Nothing"):
            atom_axioms.setdefault(lhs.name, []).append(rhs)
    applied: set = set()
    cur = c
    changed = True
    while changed:
        changed = False
        for a in sorted(cur.atoms):
            for i, rhs in enumerate(atom_axioms.get(a, ())):
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


told_theories = st.tuples(
    st.lists(st.tuples(atoms, descriptions()), max_size=6),
    st.lists(st.tuples(st.sampled_from(IDENTS), st.sampled_from(IDENTS)),
             max_size=2),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(theory=told_theories, d=descriptions())
def test_enrich_matches_the_reference_fixpoint(theory, d):
    axioms, disjoints = theory
    ctx = ReasonerContext(axioms=axioms, disjoints=disjoints)
    try:
        cs = translate(d, ctx)
        expected = [reference_enrich(c, ctx) for c in cs]
    except DnfOverflow:
        assume(False)  # the reference fails here; the table skips it
    assert [enrich(c, ctx) for c in cs] == expected


def test_an_overflowing_told_side_is_left_out():
    # U's one told consequence has two disjuncts, past the cap of 1: it is
    # left out of the table like any disjunction, so U :< U is proved
    ctx = ReasonerContext(axioms=[(pd("U"), pd("P | Q"))], max_dnf=1)
    assert verdict("U", "U", ctx) == Proved()
    assert ctx.told == {}


def test_contradicting_told_sides_make_the_atom_bottom():
    ctx = ReasonerContext(axioms=[(pd("U"), pd("P")), (pd("U"), pd("Q"))],
                          disjoints=[("P", "Q")])
    assert ctx.told == {"U": None}
    assert proved("U", "Nothing", ctx)


def test_disjointness_context():
    ctx = ReasonerContext(disjoints=[("A", "B")])
    assert proved("A B", "Nothing", ctx)
    assert proved("A", "Anything - B", ctx)
    v = verdict("A", "Anything - B")  # without the declaration
    assert isinstance(v, Disproved)


def test_enum_rules():
    assert proved("{a}", "{a, b}")
    v = verdict("{a, b}", "{a}")
    assert isinstance(v, Disproved)
    # no unique-name assumption, so the difference is not always empty
    assert isinstance(verdict("{a} - {b}", "Nothing"), Disproved)
    assert not proved("{a} - {b}", "Nothing")
    assert proved("{a, b} - {b}", "{a}")
    assert proved("{b} - {b}", "Nothing")


def test_slot_lower_bounds():
    assert proved("<s: =2 A>", "<s: SOME A>")
    assert proved("<s: =2 A>", "<s: >=2 A>")
    assert proved("<s: A>", "<s: SOME (A | B)>")
    v = verdict("<s: SOME A>", "<s: =2 A>")
    assert isinstance(v, Disproved)


def test_slot_upper_bounds():
    assert proved("<s: <=1 A>", "<s: <=2 A>")
    assert proved("<s: <=1 (A | B)>", "<s: <=2 A>")
    assert proved("<s: <=0 Anything>", "<s: <=1 A>")
    # different fillers with a finite bound stay unproven at best
    v = verdict("<s: =1 A>", "<s: =1 (A | B)>")
    assert isinstance(v, Disproved)
    assert replay_witness(v.witness)


def test_only_rules():
    assert proved("<s: ONLY A>", "<s: ONLY (A | B)>")
    assert proved("<s: <=0 Anything>", "<s: ONLY B>")
    assert isinstance(verdict("<s: SOME A>", "<s: ONLY A>"), Disproved)
    # bounded total edges inside an ONLY filler bound any sub-count
    assert proved("<s: ONLY A> <s: <=2 A>", "<s: <=2 (A | B)>")


def test_region_constraints():
    sec20 = ast.Region(ast.Interval(Fraction(0), Fraction(20), "Sec"))
    sec30 = ast.Region(ast.Interval(Fraction(0), Fraction(30), "Sec"))
    assert proved(sec20, sec30)
    v = subsumes(sec30, sec20)
    assert isinstance(v, Disproved)
    fast = ast.Region(ast.Named("Fast"))
    nearly = ast.Region(ast.Named("Nearly Fast"))
    ctx = ReasonerContext(axioms=[(fast, nearly)])
    assert proved(fast, nearly, ctx)
    assert not proved(nearly, fast, ctx)


def test_projection_rule():
    assert proved("(A B).s", "A.s")
    assert isinstance(verdict("A.s", "(A B).s"), Disproved)


def test_opaque_negation_reflexive():
    assert proved("A - <s: C>", "A - <s: C>")
    assert proved("A - <s: SOME C>", "A")


def test_dnf_cap_turns_unknown():
    atoms = " | ".join(f"A{i}" for i in range(17))
    v = verdict(atoms, atoms)
    assert isinstance(v, Unknown)
    assert "normal form" in v.reason
    wide = ReasonerContext(max_dnf=32)
    assert proved(atoms, atoms, wide)


def test_overflow_leaves_no_memo_entry():
    # a search that raised is not an answer: asking again raises again
    ctx = ReasonerContext(max_dnf=1)
    d = pd("(A | B) <s: C>")
    for _ in range(2):
        with pytest.raises(DnfOverflow):
            structural_subsumes(d, d, ctx)


def test_memo_answers_as_a_fresh_context():
    # Proving k reaches k2, which needs k back: k2 reads k's cycle guard
    # and comes out unproven, then k is proved through W. Asked next, k2
    # holds through the now proved k, as it does in a fresh context.
    axioms = [(pd("X"), pd("<s: <=1 <t: <=1 X>>")),
              (pd("X"), pd("W")),
              (pd("Q"), pd("<t: <=1 (<s: <=1 Q> | W)>"))]
    k = (pd("X"), pd("<s: <=1 Q> | W"))
    k2 = (pd("Q"), pd("<t: <=1 X>"))
    ctx = ReasonerContext(axioms=axioms)
    assert structural_subsumes(*k, ctx)
    assert structural_subsumes(*k2, ctx)
    assert structural_subsumes(*k2, ReasonerContext(axioms=axioms))


def test_translate_bottom_shapes():
    ctx = ReasonerContext()
    assert translate(pd("Nothing"), ctx) == []
    assert translate(pd("(A - B) B"), ctx) == []
    assert translate(pd("{a} - {a}"), ctx) == []
    with pytest.raises(DnfOverflow):
        translate(pd(" | ".join(f"A{i}" for i in range(40))), ctx)


def test_unknown_when_budget_blocks_both_routes():
    # structurally unprovable and too big to enumerate
    left = "A " + " ".join(f"<s{i}: A>" for i in range(22))
    v = verdict(left + " Z", left.replace("A ", "A0 ", 1) + " Z")
    assert isinstance(v, Unknown)


def test_subtracting_nothing_keeps_the_description():
    assert proved("A - Nothing", "A")
    assert proved("A", "A - Nothing")


def test_subtracting_anything_leaves_nothing():
    assert translate(pd("A - Anything"), ReasonerContext()) == []


def test_certainly_disjoint_regions_meet_in_nothing():
    ctx = ReasonerContext()
    assert structural_subsumes(pd("[0, 1] & [5, 6]"), pd("Nothing"), ctx)
    # touching intervals share a point
    assert not structural_subsumes(pd("[0, 1] & [1, 6]"), pd("Nothing"), ctx)
    v = verdict("[0, 1] & [1, 6]", "Nothing")
    assert isinstance(v, Disproved)
    assert replay_witness(v.witness)


def test_a_variable_has_no_normal_form():
    with pytest.raises(ValueError):
        translate(ast.Var("X"), ReasonerContext())


def test_many_grid_points_are_searched():
    # 23 grid points and one interpretation: the search decides it
    v = verdict("[0, 20]", "[0, 1] | [2, 3] | [4, 5] | [6, 7] | [8, 9]")
    assert isinstance(v, Disproved)
    assert replay_witness(v.witness)
