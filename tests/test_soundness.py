"""Randomized cross-check: the prover must never contradict the search.

Every randomly generated pair runs through both routes. A structural
proof alongside a bounded counterexample would be a soundness bug, and
every counterexample must replay through the reference evaluator.
"""
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from desiree.reasoner.normal import (
    DnfOverflow,
    ReasonerContext,
    structural_subsumes,
    translate,
)
from desiree.reasoner.oracle import BoundsExceeded, oracle_disprove
from desiree.reasoner.semantics import replay_witness, satisfies_axioms
from desiree.syntax import ast
from desiree.syntax.parser import parse_description as pd
from gen_strategies import descriptions

# Its DNF has 20 disjuncts, past the default cap of 16.
OVERFLOWING = pd("(A | A)(A | A)(A | (A | A)(A | A))")

RELAXED = settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)


def _structural(d1, d2, ctx):
    try:
        return structural_subsumes(d1, d2, ctx)
    except DnfOverflow:
        return False


@RELAXED
@given(d1=descriptions(), d2=descriptions())
def test_proofs_survive_the_search(d1, d2):
    ctx = ReasonerContext()
    proved = _structural(d1, d2, ctx)
    try:
        w = oracle_disprove(d1, d2, ctx)
    except BoundsExceeded:
        return
    if proved:
        assert w is None, f"proved yet refuted: {w.to_json()}"
    if w is not None:
        assert replay_witness(w)


# One pool of names for atoms and named regions, so that a theory may
# speak of the atom A and the region "A" at once (a region name need not
# be an identifier), and concrete regions of one unit, so that named and
# concrete regions meet in the search.
POOL = ("A", "B", "Fast", "Good")
SECONDS = [ast.Interval(Fraction(lo), hi and Fraction(hi), "Sec")
           for lo, hi in ((0, 3), (0, 5), (0, 10), (4, None))]


def _pool_sides(leaves):
    """A leaf, or two joined by & or | (a region joins regions only)."""
    return st.one_of(leaves, st.builds(ast.And, leaves, leaves),
                     st.builds(ast.Or, leaves, leaves))


pool_sides = st.one_of(
    _pool_sides(st.sampled_from(POOL).map(ast.Atom)),
    _pool_sides(st.one_of(
        st.sampled_from(POOL + ("Nearly Fast",)).map(ast.Named),
        st.sampled_from(SECONDS))))


@RELAXED
@given(axioms=st.lists(st.tuples(pool_sides, pool_sides), max_size=3),
       d1=pool_sides, d2=pool_sides)
@example(axioms=[(ast.Atom("A"), ast.Atom("B"))],
         d1=ast.Named("A"), d2=ast.Named("B"))
def test_proofs_survive_the_search_under_a_theory(axioms, d1, d2):
    ctx = ReasonerContext(axioms)
    proved = _structural(d1, d2, ctx)
    try:
        w = oracle_disprove(d1, d2, ctx)
    except BoundsExceeded:
        return
    if proved:
        assert w is None, f"proved yet refuted: {w.to_json()}"
    if w is not None:
        assert replay_witness(w)
        assert satisfies_axioms(w.interp, ctx.axiom_pairs())


@RELAXED
@given(d=descriptions())
def test_reflexivity_always_provable(d):
    ctx = ReasonerContext()
    try:
        assert _structural(d, d, ctx) or _overflows(d, ctx)
    except DnfOverflow:
        pass


def _overflows(d, ctx):
    try:
        translate(d, ctx)
        return False
    except DnfOverflow:
        return True


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(d1=descriptions(), d2=descriptions())
@example(d1=OVERFLOWING.left, d2=OVERFLOWING.right)
def test_weakening_provable(d1, d2):
    ctx = ReasonerContext()
    try:
        assert structural_subsumes(ast.And(d1, d2), d1, ctx)
    except DnfOverflow:
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(d=descriptions())
@example(d=OVERFLOWING)
def test_extremes(d):
    ctx = ReasonerContext()
    try:
        assert structural_subsumes(ast.NOTHING, d, ctx)
        assert structural_subsumes(d, ast.ANYTHING, ctx)
    except DnfOverflow:
        pass
