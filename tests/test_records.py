"""The record contract of the syntax, model and reasoner classes.

Every record compares by class and fields, shows its fields in `repr`,
and is either immutable and hashed as the tuple of its fields, or
mutable and unhashable. Set and dict order, diagnostics and golden
outputs rest on this, so it is pinned class by class.
"""
from fractions import Fraction

import pytest

from desiree import model, query
from desiree.diagnostics import Diagnostic, Span
from desiree.reasoner import compile, consistency, interp, normal, verdict
from desiree.syntax import ast
from desiree.syntax import parser as syn
from desiree.syntax.parser import parse_description, parse_model_file

A, B = ast.Atom("A"), ast.Atom("B")
SPAN = Span(1, 1)
HALF = Fraction(1, 2)
MAPS = dict(atoms={"A": frozenset({0})}, slots={}, named_regions={},
            individuals={})
INTERP = interp.Interpretation(1, (), **MAPS)

# (class, every field with its value, in declaration order)
FROZEN = [
    (ast.ExactlyOne, {}),
    (ast.AtMost, dict(n=2)),
    (ast.AtLeast, dict(n=1)),
    (ast.Exactly, dict(n=3)),
    (ast.Some, {}),
    (ast.Only, {}),
    (ast.Named, dict(name="Fast")),
    (ast.Interval, dict(lo=Fraction(0), hi=None, unit="Sec")),
    (ast.ValueSet, dict(values=("a", "b"))),
    (ast.Percent, dict(lo=Fraction(0), hi=HALF)),
    (ast.Atom, dict(name="A")),
    (ast.Slot, dict(slot="actor", modifier=ast.ExactlyOne(), filler=A)),
    (ast.Enum, dict(members=("Mon", "Wed"))),
    (ast.Proj, dict(base=A, slot="object")),
    (ast.And, dict(left=A, right=B)),
    (ast.Or, dict(left=A, right=B)),
    (ast.Diff, dict(left=A, right=B)),
    (ast.Region, dict(expr=ast.Named("Fast"))),
    (ast.Var, dict(name="X")),
    (syn.NLBody, dict(text="text")),
    (syn.DescBody, dict(desc=A)),
    (syn.SubsumptionBody, dict(lhs=A, rhs=B)),
    (syn.QualityBody, dict(quality="Speed", subject=A,
                           region=ast.Named("Fast"), observer=B)),
    (syn.ElementDecl, dict(kind="goal", ident="G1", body=syn.NLBody("t"),
                           span=SPAN)),
    (syn.AxiomDecl, dict(lhs=A, rhs=B, span=SPAN)),
    (syn.DisjointDecl, dict(left=A, right=B, span=SPAN)),
    (syn.HierarchyDecl, dict(edge="part", child="C", parent="P", span=SPAN)),
    (syn.FactorDecl, dict(name="Load", direction="weakens", span=SPAN)),
    (syn.ConflictDecl, dict(ids=("G1", "G2"), span=SPAN)),
    (syn.ScaleQuantitative, dict(f_lo=HALF, f_hi=Fraction(2))),
    (syn.ScaleQualitative, dict(factor="Load")),
    (syn.FocusTargets, dict(targets=("G1",))),
    (syn.DeUniversalizeSyntax, dict(var="X", pattern=A, pct=HALF)),
    (syn.ObserveSyntax, dict(observer=A)),
    (syn.ApplicationDecl, dict(op="reduce", inputs=("G1",), args=None,
                               strength="s", outputs=("G2",), span=SPAN)),
    (consistency.Clash, dict(anchor="x", pair=("A", "B"),
                             chains=("x: A", "x: B"), fact="F1")),
    (consistency._OnlyRule, dict(owner="A", slot="s", fillers=("B",),
                                 label="A")),
    (verdict.Proved, {}),
    (verdict.Disproved, dict(witness="w")),
    (verdict.Unknown, dict(reason="why")),
    (interp.Interpretation, dict(k=1, grid=(), **MAPS)),
    (interp.Witness, dict(interp=INTERP, x=0, d1=A, d2=B)),
]

MUTABLE = [
    (syn.ModelFileAst, dict(declarations=[], diagnostics=[])),
    (Diagnostic, dict(severity="Error", code="E-PARSE-001", span=SPAN,
                      message="bad")),
    (query.FactGraph, dict(nodes={}, edges={}, regions={})),
    (query.QueryResult, dict(sure=["F1"], tentative=[], diagnostics=[])),
    (model.Element, dict(kind="goal", ident="G1", body=syn.NLBody("t"),
                         span=SPAN, origin="declared", relaxations={},
                         active=True)),
    (model.Application, dict(op="reduce", inputs=("G1",), strength="s",
                             outputs=("G2",), span=SPAN, verdict="valid",
                             note=None)),
    (normal.ReasonerContext, dict(axioms=[(A, B)], disjoints=[("A", "B")],
                                  max_dnf=16)),
    (compile.SymbolTable, dict(k=1, grid=(), atoms={"A": 0}, slots={},
                               named={}, inds={})),
]


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize(
    "cls, fields, frozen",
    [(c, f, True) for c, f in FROZEN] + [(c, f, False) for c, f in MUTABLE],
    ids=lambda p: p.__qualname__ if isinstance(p, type) else "")
def test_record_contract(cls, fields, frozen):
    values = tuple(fields.values())
    x, y = cls(*values), cls(**fields)
    assert x == y and not x != y
    assert x != values and x != object()
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(x) == f"{cls.__qualname__}({shown})"
    if frozen:
        # The dataclass hash: that of the tuple of the fields, or the
        # same TypeError when a field is unhashable.
        assert _hash_or_error(x) == _hash_or_error(values)
        with pytest.raises(AttributeError):
            x.anything = 1
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(x, name, value)
    else:
        with pytest.raises(TypeError):
            hash(x)
        for name, value in fields.items():
            setattr(y, name, value)
        assert y == x


def test_equality_is_class_sensitive():
    assert ast.Atom("x") != ast.Var("x")
    assert ast.And(A, B) != ast.Or(A, B)
    assert ast.Or(A, B) != ast.Diff(A, B)
    assert ast.Named("x") != ast.Atom("x")
    assert ast.Some() != ast.Only() and ast.ExactlyOne() == ast.ExactlyOne()
    assert verdict.Disproved("r") != verdict.Unknown("r")
    assert len({ast.Atom("x"), ast.Var("x"), ast.Atom("x")}) == 2


def test_repr_bytes():
    assert repr(parse_description("<actor: User>")) == (
        "Slot(slot='actor', modifier=ExactlyOne(), filler=Atom(name='User'))")
    assert repr(parse_description("<age: >=3 Class | {a}> - B.s")) == (
        "Diff(left=Slot(slot='age', modifier=AtLeast(n=3), filler=Or("
        "left=Atom(name='Class'), right=Enum(members=('a',)))), "
        "right=Proj(base=Atom(name='B'), slot='s'))")
    assert repr(parse_description("<has_value_in: [0, 5 Sec]>")) == (
        "Slot(slot='has_value_in', modifier=ExactlyOne(), filler=Region("
        "expr=Interval(lo=Fraction(0, 1), hi=Fraction(5, 1), unit='Sec')))")
    decls = parse_model_file("fg FG1 = Search <actor: User>.\n").declarations
    assert repr(decls) == (
        "[ElementDecl(kind='fg', ident='FG1', body=DescBody(desc=And("
        "left=Atom(name='Search'), right=Slot(slot='actor', "
        "modifier=ExactlyOne(), filler=Atom(name='User')))), "
        "span=Span(line=1, col=1))]")


def test_defaults_and_keywords():
    assert ast.Interval(Fraction(1), None) == ast.Interval(
        lo=Fraction(1), hi=None, unit=None)
    e = model.Element("goal", "G1", syn.NLBody("t"), None, origin="declared")
    assert (e.origin, e.relaxations, e.active) == ("declared", {}, True)
    assert e.relaxations is not model.Element(
        "goal", "G2", syn.NLBody("t"), None).relaxations
    assert interp.Interpretation(2) == interp.Interpretation(2, (), {}, {},
                                                             {}, {})
    ctx = normal.ReasonerContext(axioms=[(A, B)], disjoints=[("A", "C")])
    assert ctx.max_dnf == normal.DEFAULT_MAX_DNF
    assert ctx.told["A"] is not None and ctx.disjoint_pairs == {
        frozenset(("A", "C"))}
    assert syn.ModelFileAst() == syn.ModelFileAst([], [])
    assert query.QueryResult(["x"], []).diagnostics == []


def test_a_long_chain_hashes_without_recursion():
    """Each node's hash is computed once, from its children's, so hashing
    a chain far deeper than the recursion limit reads one slot."""
    chain = A
    for i in range(5000):
        chain = ast.And(chain, ast.Atom(f"A{i}"))
    assert hash(chain) == hash((chain.left, chain.right))
    assert chain in {chain}
