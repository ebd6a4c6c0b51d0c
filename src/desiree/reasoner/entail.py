"""Entailment between requirement elements.

Elements are compared through their bodies. Plain description bodies go
through the subsumption engine; the remaining body forms get dedicated
rules because their intended readings are not raw set inclusion:

* function elements (kind "f") refine slot-wise: the verb specializes and
  each role filler narrows. The exact-count semantics of slots would
  reject e.g. narrowing an object from Ticket to Airline_ticket (a model
  can add a second Ticket edge), so this rule never consults the model
  search and never disproves;
* quality constraints compare frame parts contravariantly (quality,
  subject, observer) and the value region covariantly;
* subsumption-form bodies (constraints `L :< R`) entail when the second
  constraint follows from the first taken as an axiom.

Callers pass element-like objects exposing `kind`, `body` and
`relaxations` (a mapping from slot path to the retained fraction of a
de-universalized constraint; missing path means fully universal).
"""

from __future__ import annotations

from fractions import Fraction

from ..syntax import ast
from ..syntax.parser import DescBody, NLBody, QualityBody, SubsumptionBody
from ..syntax.render import render_description
from .interp import Interpretation, Witness
from .normal import DnfOverflow, ReasonerContext, structural_subsumes
from .regions import region_gap_point, region_subset
from .subsume import subsumes
from .verdict import PROVED, Disproved, Unknown, Verdict3, is_proved

ONE = Fraction(1)


def entails(e1, e2, ctx: ReasonerContext | None = None) -> Verdict3:
    """Whether requirement e1 is at least as strong as requirement e2."""
    ctx = ctx or ReasonerContext()
    b1, b2 = e1.body, e2.body
    if isinstance(b1, NLBody) or isinstance(b2, NLBody):
        return Unknown("natural-language body")
    base = _body_entails(e1.kind, b1, e2.kind, b2, ctx)
    r1 = dict(getattr(e1, "relaxations", None) or {})
    r2 = dict(getattr(e2, "relaxations", None) or {})
    if not r1 and not r2:
        return base
    if is_proved(base):
        for path in set(r1) | set(r2):
            if r1.get(path, ONE) < r2.get(path, ONE):
                return Unknown(
                    f"universal over {path!r} retained at a lower rate")
        return PROVED
    if isinstance(base, Disproved):
        # The counterexample was built against the unrelaxed bodies, so it
        # says nothing once either side tolerates exceptions.
        return Unknown("counterexample predates relaxed universals")
    return base


def _body_entails(kind1, b1, kind2, b2, ctx) -> Verdict3:
    if isinstance(b1, DescBody) and isinstance(b2, DescBody):
        if kind1 == "f" and kind2 == "f":
            return function_refines(b1.desc, b2.desc, ctx)
        return subsumes(b1.desc, b2.desc, ctx)
    if isinstance(b1, QualityBody) and isinstance(b2, QualityBody):
        return quality_entails(b1, b2, ctx)
    if isinstance(b1, SubsumptionBody) and isinstance(b2, SubsumptionBody):
        return constraint_entails(b1, b2, ctx)
    return Unknown("bodies of different forms are not comparable")


# ---------------------------------------------------------------------------
# Functions.


def _function_shape(d):
    """Split a verb+slots description; None when it is anything else."""
    atoms, counts, onlys = [], [], []
    for part in ast.and_parts(d):
        if isinstance(part, ast.Atom):
            if part.name == "Nothing":
                return None
            if part.name != "Anything":
                atoms.append(part.name)
        elif isinstance(part, ast.Slot):
            if isinstance(part.modifier, ast.Only):
                onlys.append(part)
            else:
                counts.append(part)
        else:
            return None
    return atoms, counts, onlys


def function_refines(d1, d2, ctx: ReasonerContext) -> Verdict3:
    """Slot-wise refinement between function descriptions.

    d1 refines d2 when every verb or category atom of d2 is matched by a
    specializing atom of d1 and every role of d2 is filled at least as
    tightly in d1. Extra roles on d1 are allowed. Proved or Unknown only.
    """
    shape1 = _function_shape(d1)
    shape2 = _function_shape(d2)
    if shape1 is None or shape2 is None:
        return Unknown("not a plain verb-and-roles description")
    atoms1, counts1, onlys1 = shape1
    atoms2, counts2, onlys2 = shape2
    for a2 in atoms2:
        if not any(structural_subsumes(ast.Atom(a1), ast.Atom(a2), ctx)
                   for a1 in atoms1):
            return Unknown(f"no atom refining {a2!r}")
    for s2 in counts2:
        lo2, hi2 = ast.modifier_bounds(s2.modifier)
        if not any(_count_slot_refines(s1, s2, lo2, hi2, ctx)
                   for s1 in counts1):
            return Unknown(f"role {s2.slot!r} is not refined")
    for s2 in onlys2:
        if not any(s1.slot == s2.slot
                   and structural_subsumes(s1.filler, s2.filler, ctx)
                   for s1 in onlys1):
            return Unknown(f"universal role {s2.slot!r} is not refined")
    return PROVED


def _count_slot_refines(s1, s2, lo2, hi2, ctx) -> bool:
    if s1.slot != s2.slot:
        return False
    lo1, hi1 = ast.modifier_bounds(s1.modifier)
    if lo1 < lo2:
        return False
    if hi2 is not None and (hi1 is None or hi1 > hi2):
        return False
    return structural_subsumes(s1.filler, s2.filler, ctx)


# ---------------------------------------------------------------------------
# Quality constraints.


def quality_entails(b1: QualityBody, b2: QualityBody,
                    ctx: ReasonerContext) -> Verdict3:
    """Frame parts contravariant, value region covariant."""
    problems = []
    if not (b1.quality == b2.quality
            or structural_subsumes(ast.Atom(b2.quality),
                                   ast.Atom(b1.quality), ctx)):
        problems.append("quality")
    if not structural_subsumes(b2.subject, b1.subject, ctx):
        problems.append("subject")
    if b2.observer is not None and b1.observer is not None:
        if not structural_subsumes(b2.observer, b1.observer, ctx):
            problems.append("observer")
    # An observer on b1 only restricts how the constraint is checked, not
    # what it claims, so it never blocks; b2-only asks for less anyway.
    if not region_subset(b1.region, b2.region, ctx.region_edges):
        if not problems and b1.observer == b2.observer:
            p = region_gap_point(b1.region, b2.region)
            if p is not None:
                return Disproved(_region_witness(p, b1.region, b2.region))
        problems.append("value region")
    if not problems:
        return PROVED
    return Unknown("quality claims not aligned on: " + ", ".join(problems))


def _region_witness(point, r1, r2) -> Witness:
    """A one-point interpretation separating two concrete regions."""
    interp = Interpretation(k=0, grid=(point,))
    return Witness(interp, 0,
                   render_description(ast.Region(r1)),
                   render_description(ast.Region(r2)))


# ---------------------------------------------------------------------------
# Subsumption-form constraints.


def constraint_entails(b1: SubsumptionBody, b2: SubsumptionBody,
                       ctx: ReasonerContext) -> Verdict3:
    """Whether constraint b1 forces constraint b2.

    b2 follows when the chain lhs2 <= lhs1 <= rhs1 <= rhs2 holds with b1
    assumed; otherwise b2's inclusion is decided by `subsumes` in the
    context `ctx.assuming(b1)`, which extends ctx's search index by b1.
    """
    ctx2 = ctx.assuming((b1.lhs, b1.rhs))
    try:
        if (structural_subsumes(b2.lhs, b1.lhs, ctx2)
                and structural_subsumes(b1.rhs, b2.rhs, ctx2)):
            return PROVED
    except DnfOverflow:
        pass
    return subsumes(b2.lhs, b2.rhs, ctx2)
