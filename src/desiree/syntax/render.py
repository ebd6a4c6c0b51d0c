"""Canonical rendering of descriptions, regions, and declarations.

parse(render(d)) is structurally d for every well-formed AST; `fmt` builds
on this, so the output here defines the canonical file format.
"""
from __future__ import annotations

from fractions import Fraction

from desiree.syntax import ast
from desiree.syntax import parser as syn

# Precedence levels used to decide parenthesization.
_LEVEL_DIFF = 0
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_PROJ = 3
_LEVEL_PRIMARY = 4


def _num(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _pct(x: Fraction) -> str:
    return f"{_num(x * 100)}%"


def _is_ident(name: str) -> bool:
    return (name != "" and (name[0].isalpha() or name[0] == "_")
            and all(c.isalnum() or c == "_" for c in name))


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_region(r: ast.RegionExpr) -> str:
    """Render a region in region context (bare named regions allowed)."""
    if isinstance(r, ast.Named):
        return r.name if _is_ident(r.name) else _quote(r.name)
    if isinstance(r, ast.Interval):
        unit = f" ({r.unit})" if r.unit else ""
        if r.hi is None:
            return f">={_num(r.lo)}{unit}"
        return f"[{_num(r.lo)}, {_num(r.hi)}{unit}]"
    if isinstance(r, ast.ValueSet):
        return "{" + ", ".join(r.values) + "}"
    if isinstance(r, ast.Percent):
        if r.lo == r.hi:
            return _pct(r.lo)
        return f"[{_pct(r.lo)}, {_pct(r.hi)}]"
    raise TypeError(f"not a region: {r!r}")


def _modifier(mod: ast.CardModifier) -> str:
    if isinstance(mod, ast.ExactlyOne):
        return ""
    if isinstance(mod, ast.AtMost):
        return f"<={mod.n} "
    if isinstance(mod, ast.AtLeast):
        return f">={mod.n} "
    if isinstance(mod, ast.Exactly):
        return f"={mod.n} "
    if isinstance(mod, ast.Some):
        return "SOME "
    if isinstance(mod, ast.Only):
        return "ONLY "
    raise TypeError(f"not a modifier: {mod!r}")


def _level(d: ast.Description) -> int:
    if isinstance(d, ast.Diff):
        return _LEVEL_DIFF
    if isinstance(d, ast.Or):
        return _LEVEL_OR
    if isinstance(d, ast.And):
        return _LEVEL_AND
    if isinstance(d, ast.Proj):
        return _LEVEL_PROJ
    return _LEVEL_PRIMARY


_INFIX = {ast.And: " ", ast.Or: " | ", ast.Diff: " - "}


def _render(d: ast.Description, min_level: int) -> str:
    # And/Or/Diff chains and projections nest to the left, so their left
    # spine is walked in a loop; a right operand binds one level tighter.
    opens = 0
    tails = []
    while type(d) in _INFIX or isinstance(d, ast.Proj):
        level = _level(d)
        close = level < min_level
        opens += close
        if isinstance(d, ast.Proj):
            tail, d = f".{d.slot}", d.base
        else:
            tail, d = _INFIX[type(d)] + _render(d.right, level + 1), d.left
        tails.append(tail + ")" * close)
        min_level = level
    text = _render_at(d)
    if _level(d) < min_level:
        text = f"({text})"
    return "(" * opens + text + "".join(reversed(tails))


def _render_at(d: ast.Description) -> str:
    if isinstance(d, ast.Atom):
        return d.name
    if isinstance(d, ast.Var):
        return f"?{d.name}"
    if isinstance(d, ast.Slot):
        if d.slot in syn.REGION_SLOTS and isinstance(d.filler, ast.Region):
            filler = render_region(d.filler.expr)
        else:
            filler = _render(d.filler, _LEVEL_DIFF)
        return f"<{d.slot}: {_modifier(d.modifier)}{filler}>"
    if isinstance(d, ast.Enum):
        return "{" + ", ".join(d.members) + "}"
    if isinstance(d, ast.Region):
        # Description position: named regions must be quoted so they do not
        # read back as concept atoms, and value sets marked so they do not
        # read back as enumerations.
        if isinstance(d.expr, ast.Named):
            return _quote(d.expr.name)
        if isinstance(d.expr, ast.ValueSet):
            return ":: " + render_region(d.expr)
        return render_region(d.expr)
    raise TypeError(f"not a description: {d!r}")


def render_description(d: ast.Description) -> str:
    return _render(d, _LEVEL_DIFF)


def render_body(body: syn.Body) -> str:
    if isinstance(body, syn.NLBody):
        return _quote(body.text)
    if isinstance(body, syn.DescBody):
        return render_description(body.desc)
    if isinstance(body, syn.SubsumptionBody):
        return f"{render_description(body.lhs)} :< {render_description(body.rhs)}"
    if isinstance(body, syn.QualityBody):
        out = (f"{body.quality} ({render_description(body.subject)})"
               f" :: {render_region(body.region)}")
        if body.observer is not None:
            out += f" <observed_by: {render_description(body.observer)}>"
        return out
    raise TypeError(f"not a body: {body!r}")


def render_declaration(decl: syn.Declaration) -> str:
    if isinstance(decl, syn.ElementDecl):
        return f"{decl.kind} {decl.ident} = {render_body(decl.body)}."
    if isinstance(decl, syn.AxiomDecl):
        return (f"axiom {render_description(decl.lhs)}"
                f" :< {render_description(decl.rhs)}.")
    if isinstance(decl, syn.DisjointDecl):
        return (f"disjoint {render_description(decl.left)},"
                f" {render_description(decl.right)}.")
    if isinstance(decl, syn.HierarchyDecl):
        return f"{decl.edge} {decl.child} of {decl.parent}."
    if isinstance(decl, syn.FactorDecl):
        return f"factor {decl.name} {decl.direction}."
    if isinstance(decl, syn.ConflictDecl):
        return "conflict {" + ", ".join(decl.ids) + "}."
    if isinstance(decl, syn.ApplicationDecl):
        args = ""
        if decl.op == "deuniversalize":
            a = decl.args
            args = (f"(?{a.var}, {decl.inputs[0]}, "
                    f"{render_description(a.pattern)}, {_pct(a.pct)})")
        elif decl.op == "observe":
            args = f"({decl.inputs[0]}, {render_description(decl.args.observer)})"
        elif decl.op == "focus":
            args = f"({decl.inputs[0]}, {{{', '.join(decl.args.targets)}}})"
        elif decl.op in ("scaleup", "scaledown"):
            a = decl.args
            if isinstance(a, syn.ScaleQuantitative):
                args = f"({decl.inputs[0]}, ({_num(a.f_lo)}, {_num(a.f_hi)}))"
            else:
                args = f"({decl.inputs[0]}, {a.factor})"
        else:
            args = f"({', '.join(decl.inputs)})"
        outs = ", ".join(decl.outputs)
        return f"{decl.op}{args} [{decl.strength}] = {{{outs}}}."
    raise TypeError(f"not a declaration: {decl!r}")


def render_model_file(ast_file: syn.ModelFileAst) -> str:
    lines = [render_declaration(d) for d in ast_file.declarations]
    return "\n".join(lines) + ("\n" if lines else "")
