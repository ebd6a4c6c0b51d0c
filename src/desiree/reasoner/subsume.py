"""Three-valued subsumption: structural proof, then bounded disproof."""
from __future__ import annotations

from desiree.reasoner.normal import (
    DnfOverflow,
    ReasonerContext,
    structural_subsumes,
)
from desiree.reasoner.oracle import BoundsExceeded, oracle_disprove
from desiree.reasoner.verdict import PROVED, Disproved, Unknown, Verdict3
from desiree.syntax import ast


def subsumes(
    d1: ast.Description,
    d2: ast.Description,
    ctx: ReasonerContext | None = None,
) -> Verdict3:
    """Whether every element of d1 is an element of d2 (under ctx axioms).

    Proved comes only from the structural rules; Disproved only from a
    replayable counter-interpretation; everything else is Unknown with
    the reason attached.
    """
    ctx = ctx or ReasonerContext()
    overflow = False
    try:
        if structural_subsumes(d1, d2, ctx):
            return PROVED
    except DnfOverflow:
        overflow = True
    try:
        w = oracle_disprove(d1, d2, ctx.axiom_index())
    except BoundsExceeded as e:
        return Unknown(f"inconclusive: {e}")
    if w is not None:
        return Disproved(w)
    if overflow:
        return Unknown("normal form too large; no bounded counterexample")
    return Unknown("no structural proof; no bounded counterexample")
