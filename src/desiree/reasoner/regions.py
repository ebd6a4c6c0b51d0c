"""Region comparison: proven inclusion, proven emptiness, witnesses.

Concrete regions (intervals, percentages, value sets) are decided on
probe points through the reference evaluator, semantics.point_in_region;
this module has no case analysis of its own. The probes for r1 against
r2 are r1's own points first (its bounds, or its values in declaration
order), then the grid of both regions: every number either mentions, a
point between each two neighbours, one point past each end, every
literal and one literal neither holds. It is the grid the bounded search
uses (census, build_grid). Membership cannot change between neighbouring
numbers, so the probes decide inclusion and overlap exactly, and the gap
point, the first probe in r1 and not in r2, replays by construction.

A region here is the node that stands in a description (one of
ast.REGIONS), with no wrapper: the prover passes the regions of its
conjuncts, and the search's census is the regions of its signature.

Which pairs are compared at all:

- a named region only with itself; the prover first closes a conjunct's
  named regions under the told axioms (normal.enrich);
- a percentage only with another percentage;
- two intervals only when they have the same unit;
- a value set with another value set, or with an interval of any unit.

The bounded search is stricter on the last rule: it rejects a numeric
value set next to an interval with a unit as mixed units.

All checks are conservative: a False from region_subset or
regions_certainly_disjoint means "not proven", and region_gap_point
returns None for a pair that is not compared.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from desiree.reasoner.interp import GridPoint
from desiree.reasoner.semantics import point_in_region
from desiree.syntax import ast


def _value(v: str) -> GridPoint:
    """A value-set member as a grid point: a number, else the literal."""
    try:
        return Fraction(v)
    except ValueError:
        return v


def census(regions):
    """(named, units, nums, lits): the named regions, units, numbers and
    literals that the region expressions mention."""
    named: set[str] = set()
    units: set[str] = set()
    nums: set[Fraction] = set()
    lits: set[str] = set()
    for r in regions:
        if isinstance(r, ast.Named):
            named.add(r.name)
        elif isinstance(r, ast.Interval):
            units.add(r.unit or "")
            nums.add(r.lo)
            if r.hi is not None:
                nums.add(r.hi)
        elif isinstance(r, ast.Percent):
            units.add("%")
            nums.update((r.lo, r.hi))
        else:
            for v in map(_value, r.values):
                if isinstance(v, Fraction):
                    nums.add(v)
                    units.add("")
                else:
                    lits.add(v)
    return named, units, nums, lits


def build_grid(nums: set[Fraction], lits: set[str],
               need_slack: bool) -> tuple[GridPoint, ...]:
    """The value points: each number, a midpoint between neighbours, one
    point past each end, each literal and a fresh one; a lone 0 when
    there is nothing else and need_slack."""
    points: list[GridPoint] = []
    ordered = sorted(nums)
    if ordered:
        points.append(ordered[0] - 1)
        for i, v in enumerate(ordered):
            points.append(v)
            if i + 1 < len(ordered):
                points.append((v + ordered[i + 1]) / 2)
        points.append(ordered[-1] + 1)
    points += sorted(lits)
    if lits:
        fresh = "__other__"
        while fresh in lits:
            fresh += "_"
        points.append(fresh)
    if not points and need_slack:
        points.append(Fraction(0))
    return tuple(points)


def _compared(r1: ast.RegionExpr, r2: ast.RegionExpr) -> bool:
    t1, t2 = type(r1), type(r2)
    if ast.Named in (t1, t2):
        return False
    if ast.Percent in (t1, t2):
        return t1 is t2
    if t1 is t2 is ast.Interval:
        return (r1.unit or "") == (r2.unit or "")
    return True  # a value set against a value set or an interval


@lru_cache(maxsize=1024)
def _compare(r1: ast.RegionExpr, r2: ast.RegionExpr):
    """None when r1 and r2 are not compared, else (gap, overlap): the
    first probe in r1 and not in r2 (or None), and whether some probe
    lies in both."""
    if not _compared(r1, r2):
        return None
    if isinstance(r1, ast.ValueSet):
        own = map(_value, r1.values)
    else:
        own = (r1.lo,) if r1.hi is None else (r1.lo, r1.hi)
    _, _, nums, lits = census((r1, r2))
    gap, overlap = None, False
    for p in (*own, *build_grid(nums, lits, need_slack=False)):
        if point_in_region(r1, p):
            if point_in_region(r2, p):
                overlap = True
            elif gap is None:
                gap = p
    return gap, overlap


def region_subset(r1: ast.RegionExpr, r2: ast.RegionExpr) -> bool:
    """Whether r1 is provably contained in r2, read off the two alone."""
    if r1 == r2:
        return True
    found = _compare(r1, r2)
    return found is not None and found[0] is None


def region_gap_point(r1: ast.RegionExpr, r2: ast.RegionExpr):
    """A concrete point certainly in r1 and not in r2, or None."""
    found = _compare(r1, r2)
    return None if found is None else found[0]


def regions_certainly_disjoint(r1: ast.RegionExpr, r2: ast.RegionExpr) -> bool:
    """Whether two concrete regions provably share no point."""
    found = _compare(r1, r2)
    return found is not None and not found[1]
