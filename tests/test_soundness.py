"""Randomized cross-check: the prover must never contradict the search.

Every randomly generated pair runs through both routes. A structural
proof alongside a bounded counterexample would be a soundness bug, and
every counterexample must replay through the reference evaluator.
"""
from hypothesis import HealthCheck, example, given, settings

from desiree.reasoner.normal import (
    DnfOverflow,
    ReasonerContext,
    structural_subsumes,
    translate,
)
from desiree.reasoner.oracle import BoundsExceeded, oracle_disprove
from desiree.reasoner.semantics import replay_witness
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
        w = oracle_disprove(d1, d2)
    except BoundsExceeded:
        return
    if proved:
        assert w is None, f"proved yet refuted: {w.to_json()}"
    if w is not None:
        assert replay_witness(w)


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
