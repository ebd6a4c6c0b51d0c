"""The normaliser that merged each `&` operand into every conjunct of
the chain so far, one operand at a time, kept as the reference for the
differential test in `test_subsume.py`.

`desiree.reasoner.normal.translate` gathers each run of `&` operands
that normalise to one conjunct and merges the run into the chain once.
Its conjunct lists must be the same as this module's `translate`, in
the same order, and it must raise `DnfOverflow` where this one does.
"""
from __future__ import annotations

from desiree.reasoner.normal import (
    Conjunct,
    ReasonerContext,
    _cap,
    _merge,
)
from desiree.syntax import ast


def translate(d: ast.Description, ctx: ReasonerContext) -> list[Conjunct]:
    """Normalize a description; an empty list is the empty extension."""
    if isinstance(d, ast.Atom):
        if d.name == "Nothing":
            return []
        if d.name == "Anything":
            return [Conjunct()]
        return [Conjunct(atoms=frozenset({d.name}))]
    if isinstance(d, ast.Enum):
        return [Conjunct(enums=frozenset({frozenset(d.members)}))]
    if isinstance(d, ast.REGIONS):
        return [Conjunct(regions=frozenset({d}))]
    if isinstance(d, ast.Slot):
        if isinstance(d.modifier, ast.Only):
            return [Conjunct(onlys=frozenset({(d.slot, d.filler)}))]
        lo, hi = ast.modifier_bounds(d.modifier)
        return [Conjunct(cards=frozenset({(d.slot, lo, hi, d.filler)}))]
    if isinstance(d, ast.Proj):
        return [Conjunct(projs=frozenset({(d.slot, d.base)}))]
    if isinstance(d, (ast.And, ast.Or, ast.Diff)):
        d, chain = ast.left_spine(d)
        out = translate(d, ctx)
        for node in chain:
            if isinstance(node, ast.And):
                acc, out = out, []
                right = translate(node.right, ctx)
                for a in acc:
                    for b in right:
                        m = _merge(a, b, ctx)
                        if m is not None:
                            out.append(m)
                    _cap(out, ctx)
            elif isinstance(node, ast.Or):
                out = out + translate(node.right, ctx)
                _cap(out, ctx)
            else:
                out = _apply_neg(out, node.right, ctx)
        return out
    raise ValueError(f"no extension for {d!r}")


def _apply_neg(cs: list, r: ast.Description, ctx: ReasonerContext) -> list:
    if isinstance(r, (ast.And, ast.Or, ast.Diff)):
        r, chain = ast.left_spine(r)
        out = _apply_neg(cs, r, ctx)
        for node in chain:
            if isinstance(node, ast.Or):
                out = _apply_neg(out, node.right, ctx)
            elif isinstance(node, ast.And):
                out = out + _apply_neg(cs, node.right, ctx)
                _cap(out, ctx)
            else:
                qs = translate(node.right, ctx)
                out = out + [m for c in cs for q in qs
                             if (m := _merge(c, q, ctx)) is not None]
                _cap(out, ctx)
        return out
    if isinstance(r, ast.Atom) and r.name in ("Nothing", "Anything"):
        return cs if r.name == "Nothing" else []
    if isinstance(r, ast.Atom):
        neg = Conjunct(neg_atoms=frozenset({r.name}))
    elif isinstance(r, ast.Enum):
        neg = Conjunct(neg_inds=frozenset(r.members))
    else:
        return [c._replace(neg_complex=c.neg_complex | {r}) for c in cs]
    return [m for c in cs if (m := _merge(c, neg, ctx)) is not None]
