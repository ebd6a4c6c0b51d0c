"""Refinement operator signatures and the constructive operators.

The admissible input and output kinds live in the tables below, and
arity in `model._apply`, which walks each application through them. The
constructive operators (focus, scaling, de-universalization, observe)
synthesize their output bodies here, so a model file only names the
results.
"""

from __future__ import annotations

from fractions import Fraction

from .diagnostics import E_REGION_KIND, E_SIG_ARGS
from .syntax import ast
from .syntax.parser import (
    DeUniversalizeSyntax,
    FocusTargets,
    QualityBody,
    ScaleQualitative,
    ScaleQuantitative,
)

GOAL_CATEGORY = frozenset({"goal", "fg", "qg", "ctg"})
SPEC_CATEGORY = frozenset({"f", "fc", "qc", "sc"})
REFINABLE = GOAL_CATEGORY | SPEC_CATEGORY

IN_KINDS = {
    "reduce": REFINABLE,
    "interpret": REFINABLE,
    "deuniversalize": REFINABLE,
    "resolve": REFINABLE,
    "focus": frozenset({"qg", "qc"}),
    "scaleup": frozenset({"qg", "qc"}),
    "scaledown": frozenset({"qg", "qc"}),
    "observe": frozenset({"qg", "qc"}),
    "operationalize": frozenset({"goal", "fg", "qg", "ctg"}),
}

# What operationalize may produce, by input kind.
OPERATIONALIZE_OUT = {
    "fg": frozenset({"f", "fc", "da"}),
    "qg": frozenset({"qc", "f", "fc", "da"}),
    "ctg": frozenset({"sc", "da"}),
    "goal": frozenset({"da"}),
}

# Operators whose outputs are synthesized rather than declared.
CONSTRUCTIVE = frozenset(
    {"focus", "scaleup", "scaledown", "deuniversalize", "observe"})

BUILTIN_FACTORS = {
    "Very": "strengthens",
    "Nearly": "weakens",
    "Almost": "weakens",
}


class OperatorError(Exception):
    """A constructive operator rejected its arguments."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def category(kind: str) -> str:
    if kind in GOAL_CATEGORY:
        return "goal"
    if kind in SPEC_CATEGORY:
        return "specification"
    return "assumption"


def _clamp01(x: Fraction) -> Fraction:
    return min(max(x, Fraction(0)), Fraction(1))


def scale_region(region: ast.RegionExpr,
                 args: ScaleQuantitative | ScaleQualitative,
                 direction: str,
                 factors: dict[str, str]):
    """Scaled region plus the implied region axiom (or None).

    Scaling up shrinks the acceptable region, scaling down enlarges it.
    Numeric factor pairs multiply interval or percent bounds; a
    qualitative factor prefixes a named region and yields the axiom
    ordering the two names.
    """
    if isinstance(args, ScaleQuantitative):
        f_lo, f_hi = args.f_lo, args.f_hi
        if direction == "up" and not (f_lo >= 1 >= f_hi):
            raise OperatorError(
                E_SIG_ARGS, "scaling up must shrink: need f_lo >= 1 >= f_hi")
        if direction == "down" and not (f_lo <= 1 <= f_hi):
            raise OperatorError(
                E_SIG_ARGS,
                "scaling down must enlarge: need f_lo <= 1 <= f_hi")
        if isinstance(region, ast.Interval):
            lo = region.lo * f_lo
            hi = None if region.hi is None else region.hi * f_hi
            if hi is not None and lo > hi:
                raise OperatorError(E_SIG_ARGS, "scaled bounds cross")
            return ast.Interval(lo, hi, region.unit), None
        if isinstance(region, ast.Percent):
            lo = _clamp01(region.lo * f_lo)
            hi = _clamp01(region.hi * f_hi)
            if lo > hi:
                raise OperatorError(E_SIG_ARGS, "scaled bounds cross")
            return ast.Percent(lo, hi), None
        raise OperatorError(
            E_REGION_KIND, "numeric factors need an interval or percentage")
    factor = args.factor
    declared = factors.get(factor)
    if declared is None:
        raise OperatorError(
            E_SIG_ARGS,
            f"unknown scale factor {factor!r}; declare it with a factor line")
    needed = "strengthens" if direction == "up" else "weakens"
    if declared != needed:
        raise OperatorError(
            E_SIG_ARGS,
            f"factor {factor!r} {declared}, so it cannot scale {direction}")
    if not isinstance(region, ast.Named):
        raise OperatorError(
            E_REGION_KIND, "qualitative factors need a named region")
    scaled = ast.Named(f"{factor} {region.name}")
    if needed == "weakens":
        axiom = (ast.Region(region), ast.Region(scaled))
    else:
        axiom = (ast.Region(scaled), ast.Region(region))
    return scaled, axiom


def focus_outputs(body: QualityBody, args: FocusTargets, hierarchy):
    """Quality bodies for each focus target, plus whether they cover.

    Targets must all be declared dimensions of the quality, or all
    declared parts of the (single-individual) subject.
    """
    dims = {h.child for h in hierarchy
            if h.edge == "dimension" and h.parent == body.quality}
    members = (body.subject.members
               if isinstance(body.subject, ast.Enum) else ())
    parts = set()
    if len(members) == 1:
        parts = {h.child for h in hierarchy
                 if h.edge == "part" and h.parent == members[0]}
    chosen = set(args.targets)
    if len(chosen) != len(args.targets):
        raise OperatorError(E_SIG_ARGS, "focus targets repeat")
    if dims and chosen <= dims:
        bodies = [QualityBody(t, body.subject, body.region, body.observer)
                  for t in args.targets]
        return bodies, chosen == dims
    if parts and chosen <= parts:
        bodies = [QualityBody(body.quality, ast.Enum((t,)), body.region,
                              body.observer)
                  for t in args.targets]
        return bodies, chosen == parts
    raise OperatorError(
        E_SIG_ARGS,
        f"focus targets must all be dimensions of {body.quality} "
        "or parts of the subject individual")


def observe_output(body: QualityBody, observer: ast.Description) -> QualityBody:
    return QualityBody(body.quality, body.subject, body.region, observer)


def relax(relaxations: dict[str, Fraction], args: DeUniversalizeSyntax):
    """Relaxation map after de-universalizing one slot path.

    Repeated relaxation of the same path keeps the smaller retained
    rate, so the element only ever weakens.
    """
    if not 0 < args.pct <= 1:
        raise OperatorError(
            E_SIG_ARGS, "the retained rate must be in (0%, 100%]")
    pat = args.pattern
    if not (isinstance(pat, ast.Slot) and isinstance(pat.filler, ast.Var)
            and pat.filler.name == args.var):
        raise OperatorError(
            E_SIG_ARGS,
            "the pattern must be a single slot holding the bound ?variable")
    out = dict(relaxations)
    out[pat.slot] = min(out.get(pat.slot, Fraction(1)), args.pct)
    return out
