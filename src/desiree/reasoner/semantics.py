"""Reference set-semantics evaluator over explicit finite interpretations.

This is the slow, obviously-correct route: plain Python sets, one clause
per description form. The enumeration kernel is checked against it, and
every Disproved witness must replay through it.

Axioms here are pairs of descriptions (lhs, rhs); an interpretation
satisfies the axiom set when every lhs extension is contained in the
matching rhs extension.
"""
from __future__ import annotations

from fractions import Fraction

from desiree.reasoner.interp import Interpretation
from desiree.syntax import ast


def point_in_region(r: ast.RegionExpr, g) -> bool:
    """Whether a concrete grid point (Fraction or literal) lies in a region.

    Named regions are not decided here; they are interpretation-dependent.
    """
    if isinstance(r, ast.Interval):
        return isinstance(g, Fraction) and g >= r.lo and (r.hi is None or g <= r.hi)
    if isinstance(r, ast.Percent):
        return isinstance(g, Fraction) and r.lo <= g <= r.hi
    if isinstance(r, ast.ValueSet):
        for v in r.values:
            if isinstance(g, Fraction):
                try:
                    if Fraction(v) == g:
                        return True
                except ValueError:
                    pass
            elif g == v:
                return True
        return False
    raise TypeError(f"not a concrete region: {r!r}")


def region_members(r: ast.RegionExpr, interp: Interpretation) -> frozenset[int]:
    """Universe indices (grid points) belonging to a region."""
    if isinstance(r, ast.Named):
        return interp.named_regions.get(r.name, frozenset())
    return frozenset(
        idx
        for idx in interp.grid_indices()
        if point_in_region(r, interp.grid[idx - interp.k])
    )


def eval_desc(d: ast.Description, interp: Interpretation) -> frozenset[int]:
    """The extension T(d) of a description in a finite interpretation."""
    if isinstance(d, ast.Atom):
        if d.name == "Nothing":
            return frozenset()
        if d.name == "Anything":
            return interp.universe
        return interp.atoms.get(d.name, frozenset())
    if isinstance(d, ast.Enum):
        members = set()
        for name in d.members:
            if name not in interp.individuals:
                raise KeyError(f"individual {name!r} not interpreted")
            members.add(interp.individuals[name])
        return frozenset(members)
    if isinstance(d, ast.Slot):
        rel = interp.slots.get(d.slot, frozenset())
        filler = eval_desc(d.filler, interp)
        out = set()
        if isinstance(d.modifier, ast.Only):
            for x in interp.universe:
                if all(y in filler for (x2, y) in rel if x2 == x):
                    out.add(x)
            return frozenset(out)
        lo, hi = ast.modifier_bounds(d.modifier)
        for x in interp.universe:
            cnt = sum(1 for (x2, y) in rel if x2 == x and y in filler)
            if cnt >= lo and (hi is None or cnt <= hi):
                out.add(x)
        return frozenset(out)
    if isinstance(d, ast.Proj):
        base = eval_desc(d.base, interp)
        rel = interp.slots.get(d.slot, frozenset())
        return frozenset(y for (x, y) in rel if x in base)
    if isinstance(d, (ast.And, ast.Or, ast.Diff)):
        d, chain = ast.left_spine(d)
        out = eval_desc(d, interp)
        for node in chain:
            right = eval_desc(node.right, interp)
            if isinstance(node, ast.And):
                out = out & right
            elif isinstance(node, ast.Or):
                out = out | right
            else:
                out = out - right
        return out
    if isinstance(d, ast.REGIONS):
        return region_members(d, interp)
    raise TypeError(f"cannot evaluate {d!r}")


def satisfies_axioms(
    interp: Interpretation,
    axioms: list[tuple[ast.Description, ast.Description]],
) -> bool:
    for lhs, rhs in axioms:
        if not eval_desc(lhs, interp) <= eval_desc(rhs, interp):
            return False
    return True


def violates_subsumption(
    interp: Interpretation,
    d1: ast.Description,
    d2: ast.Description,
) -> frozenset[int]:
    """Elements witnessing that T(d1) is not within T(d2) here."""
    return eval_desc(d1, interp) - eval_desc(d2, interp)


def replay_witness(w) -> bool:
    """Re-parse a witness's descriptions and confirm the separation."""
    from desiree.syntax.parser import parse_description

    d1 = parse_description(w.d1_text)
    d2 = parse_description(w.d2_text)
    return w.x in violates_subsumption(w.interp, d1, d2)
