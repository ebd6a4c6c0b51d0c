"""Strength tags on operator applications.

Every application declares how its outputs relate to its inputs:
strengthening [s] (outputs jointly entail the input), weakening [w]
(the input entails each output), or equivalence [e] (both). Each
operator admits only some tags; an admissible claim is then checked
against the entailment engine where the bodies allow it.

Verification outcomes:

* verified  - the claim was proved;
* violated  - the claim was refuted by a counter-interpretation;
* asserted  - the claim is recorded but lies outside what the engine
              compares (natural language, cross-category outputs,
              joint claims over bodies that do not conjoin);
* unknown   - comparable but neither proved nor refuted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from ..syntax import ast
from ..syntax.parser import DescBody, NLBody, QualityBody, SubsumptionBody
from .entail import entails
from .normal import ReasonerContext
from .subsume import subsumes
from .verdict import Disproved, is_proved

VERIFIED = "verified"
ASSERTED = "asserted"
VIOLATED = "violated"
UNDECIDED = "unknown"

_TABLE = {
    "reduce": frozenset("swe"),
    "interpret": frozenset("se"),
    "focus": frozenset("we"),
    "scaleup": frozenset("se"),
    "scaledown": frozenset("we"),
    "deuniversalize": frozenset("w"),
    "resolve": frozenset("w"),
    "observe": frozenset("s"),
}


def admissible_strengths(op: str, *, pct: Fraction | None = None,
                         output_kinds: tuple[str, ...] = ()) -> frozenset:
    """Tags the operator admits, given the arguments that matter.

    De-universalizing by 100% changes nothing, so [e] becomes available.
    Operationalize claims [s] when at least one output is a requirement
    and [w] when it only introduces domain assumptions.
    """
    if op == "deuniversalize":
        tags = {"w"}
        if pct == 1:
            tags.add("e")
        return frozenset(tags)
    if op == "operationalize":
        non_da = [k for k in output_kinds if k != "da"]
        return frozenset("s" if non_da else "w")
    return _TABLE[op]


def _same_form(b1, b2) -> bool:
    """Bodies are comparable when they share a syntactic form."""
    for form in (DescBody, QualityBody, SubsumptionBody):
        if isinstance(b1, form) and isinstance(b2, form):
            return True
    return False


def verify_claim(strength: str, input_elem, outputs,
                 ctx: ReasonerContext) -> tuple[str, str | None]:
    """Check a strength claim for a single-input application.

    `outputs` are the produced elements; domain assumptions among them
    join the background theory elsewhere and are not part of the claim.
    """
    outs = [o for o in outputs if o.kind != "da"]
    if not outs:
        return ASSERTED, "only domain assumptions were produced"
    if isinstance(input_elem.body, NLBody) or any(
            isinstance(o.body, NLBody) for o in outs):
        return ASSERTED, "natural-language body"
    if not all(_same_form(input_elem.body, o.body) for o in outs):
        return ASSERTED, "bodies of different forms are not comparable"
    if strength == "s":
        return _strengthening(input_elem, outs, ctx)
    if strength == "w":
        return _weakening(input_elem, outs, ctx)
    return _combine([_strengthening(input_elem, outs, ctx),
                     _weakening(input_elem, outs, ctx)])


def _strengthening(input_elem, outs, ctx):
    if len(outs) == 1:
        return _from_verdict(entails(outs[0], input_elem, ctx))
    conjoinable = (isinstance(input_elem.body, DescBody)
                   and input_elem.kind != "f"
                   and all(isinstance(o.body, DescBody) for o in outs)
                   and not any(getattr(o, "relaxations", None) for o in outs))
    if not conjoinable:
        return ASSERTED, "joint claim over these bodies is not expressible"
    conj = reduce(ast.And, [o.body.desc for o in outs])
    return _from_verdict(subsumes(conj, input_elem.body.desc, ctx))


def _weakening(input_elem, outs, ctx):
    legs = []
    for o in outs:
        legs.append(_from_verdict(entails(input_elem, o, ctx)))
        if legs[-1][0] == VIOLATED:
            break
    return _combine(legs)


def _combine(legs):
    """The first violated leg, else the first asserted, else the first
    undecided; verified when every leg is."""
    for status in (VIOLATED, ASSERTED, UNDECIDED):
        for leg in legs:
            if leg[0] == status:
                return leg
    return VERIFIED, None


def _from_verdict(v) -> tuple[str, str | None]:
    if is_proved(v):
        return VERIFIED, None
    if isinstance(v, Disproved):
        return VIOLATED, "refuted by a counter-interpretation"
    return UNDECIDED, v.reason
