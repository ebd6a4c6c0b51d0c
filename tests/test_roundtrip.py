"""Render -> parse round-trip properties."""
from fractions import Fraction

from hypothesis import given, settings

from desiree.syntax import ast
from desiree.syntax.parser import parse_description
from desiree.syntax.render import render_description

from gen_strategies import descriptions


@settings(max_examples=300, deadline=None)
@given(descriptions())
def test_roundtrip_structural_equality(d):
    text = render_description(d)
    assert parse_description(text) == d


def test_roundtrip_specific_shapes():
    cases = [
        ast.Atom("User"),
        ast.Slot("when", ast.ExactlyOne(),
                 ast.Or(ast.Atom("Weekday"), ast.Enum(("Sat",)))),
        # Right-nested And needs parentheses to survive.
        ast.And(ast.Atom("A"), ast.And(ast.Atom("B"), ast.Atom("C"))),
        ast.Diff(ast.Atom("A"), ast.Diff(ast.Atom("B"), ast.Atom("C"))),
        ast.Proj(ast.Enum(("F1",)), "object"),
        ast.Slot("age", ast.ExactlyOne(),
                 ast.Region(ast.Interval(Fraction(20), None))),
        ast.Slot("q", ast.Only(),
                 ast.Region(ast.Named("Nearly Fast"))),
        # A value set outside region context is marked, not an enumeration.
        ast.Region(ast.ValueSet(("3/2", "Mon"))),
        ast.And(ast.Region(ast.Interval(Fraction(0), Fraction(5))),
                ast.Region(ast.ValueSet(("5",)))),
    ]
    for d in cases:
        assert parse_description(render_description(d)) == d


def test_fraction_percent_filler():
    d = ast.Slot("s", ast.ExactlyOne(),
                 ast.Region(ast.Percent(Fraction(1, 3), Fraction(1, 3))))
    assert parse_description(render_description(d)) == d


def test_render_examples():
    assert render_description(ast.Atom("User")) == "User"
    d = ast.Slot("when", ast.ExactlyOne(),
                 ast.Or(ast.Atom("Weekday"), ast.Enum(("Sat",))))
    assert render_description(d) == "<when: Weekday | {Sat}>"
    d = ast.Region(ast.ValueSet(("3", "Mon")))
    assert render_description(d) == ":: {3, Mon}"
