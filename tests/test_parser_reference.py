"""The precedence-climbing parser against the recursive-descent parser it
replaced (`reference_parser.py`).

On drawn descriptions and model files, rendered and then mutated token
by token, both must give the same ASTs, the same ParseError code, span
and message, and the same `parse_model_file` diagnostics after recovery.
Two differences are allowed, both faults of the reference:

- its quality-form probe re-reads a `:<` token it overwrote (the glued
  colon);
- it reads a deuniversalize pattern with a parser of its own, so after a
  ParseError in the pattern, recovery starts again at the pattern's
  start.

Every input is also run through the reference with both faults mended
(`_MendedParser` and `_pattern_read_in_place`), which must agree with
the new parser everywhere.
"""
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_parser
from desiree.syntax import ast
from desiree.syntax import parser as syn
from desiree.syntax.lexer import LexError, tokenize
from desiree.syntax.parser import ParseError, parse_description, parse_model_file
from desiree.syntax.render import render_declaration, render_description

from gen_strategies import descriptions, fractions, regions

IDS = ("G1", "G2", "Q1", "F1")
GLUED_PROBE = "goal G1 = A (<object:<actor: B>>).\n"
# `parse_unit` takes the spaced dot, so a recovery that starts at the
# pattern stops there
PATTERN_ERROR = ("deuniversalize(?X, G1, <a: >=3 (Sec .)> <b: ]>, 5%) [s] = {}."
                 "\nf F1 = A.\n")


class _MendedParser(reference_parser._Parser):
    """The reference parser, except that moving back puts back the `:<`
    tokens that `expect_colon` overwrote past the new position."""

    def __init__(self, tokens, allow_var=False):
        self.overwritten = {}
        self._pos = 0
        super().__init__(tokens, allow_var)

    @property
    def pos(self):
        return self._pos

    @pos.setter
    def pos(self, i):
        if i < self._pos:
            for j in [j for j in self.overwritten if j >= i]:
                self.tokens[j] = self.overwritten.pop(j)
        self._pos = i

    def expect_colon(self):
        if self.cur.is_sym(":<"):
            self.overwritten.setdefault(self.pos, self.cur)
        super().expect_colon()


_REFERENCE_APPLICATION = reference_parser._parse_application


def _pattern_read_in_place(p):
    """The reference's `_parse_application`, except that a deuniversalize
    pattern is read by p itself, so a ParseError in the pattern leaves p
    at the error for recovery."""
    def the_same_parser(tokens, allow_var):
        p.allow_var = allow_var
        return p

    try:
        with mock.patch.object(reference_parser, "_Parser", the_same_parser):
            return _REFERENCE_APPLICATION(p)
    finally:
        p.allow_var = False


def _outcome(parse, text, **kw):
    try:
        result = parse(text, **kw)
    except ParseError as e:
        return ("ParseError", e.code, e.span, e.message)
    except LexError as e:
        return ("LexError", e.span, e.message)
    if isinstance(result, syn.ModelFileAst):
        return (result.declarations,
                [(d.code, d.span, d.message) for d in result.diagnostics])
    return result


def _reference(name, text, colon=False, pattern=False, **kw):
    """The reference's outcome, with the glued-colon fault mended when
    colon, and the pattern recovery fault when pattern."""
    with ExitStack() as mends:
        if colon:
            mends.enter_context(mock.patch.object(
                reference_parser, "_Parser", _MendedParser))
        if pattern:
            mends.enter_context(mock.patch.object(
                reference_parser, "_parse_application",
                _pattern_read_in_place))
        return _outcome(getattr(reference_parser, name), text, **kw)


def _glued_probe_fault(outcome):
    """Whether the reference reported a ':<' it overwrote as a '<'."""
    if outcome[0] == "ParseError":
        return outcome[3] == "expected ':', found '<'"
    return any(message == "expected ':', found '<'"
               for _code, _span, message in outcome[1])


def assert_same(name, text, **kw):
    new = _outcome(getattr(syn, name), text, **kw)
    assert new == _reference(name, text, colon=True, pattern=True, **kw)
    plain = _reference(name, text, **kw)
    if new != plain:
        assert name == "parse_model_file"
        assert (_glued_probe_fault(plain)
                or _reference(name, text, pattern=True, **kw) != plain)


# -- drawn inputs ----------------------------------------------------------

idents = st.sampled_from(IDS)
members = st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True)
concept_descs = descriptions(max_depth=2)


@st.composite
def bodies(draw):
    pick = draw(st.integers(0, 3))
    if pick == 0:
        return syn.NLBody(draw(st.sampled_from(("Fast", 'say "hi"', "a\\b"))))
    if pick == 1:
        return syn.DescBody(draw(concept_descs))
    if pick == 2:
        return syn.SubsumptionBody(draw(concept_descs), draw(concept_descs))
    return syn.QualityBody(draw(st.sampled_from(("Speed", "Cost"))),
                           draw(concept_descs), draw(regions),
                           draw(st.none() | concept_descs))


@st.composite
def applications(draw):
    op = draw(st.sampled_from(reference_parser.OPERATOR_NAMES))
    first = draw(idents)
    inputs, args = (first,), None
    if op == "deuniversalize":
        pattern = ast.Slot("inheres_in", ast.ExactlyOne(), ast.Var("X"))
        if draw(st.booleans()):
            pattern = ast.And(draw(concept_descs), pattern)
        pct = min(draw(fractions(max_value=1)), Fraction(1))
        args = syn.DeUniversalizeSyntax("X", pattern, pct)
    elif op == "observe":
        args = syn.ObserveSyntax(draw(concept_descs))
    elif op == "focus":
        args = syn.FocusTargets(tuple(draw(members)))
    elif op in ("scaleup", "scaledown"):
        args = draw(st.builds(syn.ScaleQuantitative, fractions(), fractions())
                    | st.builds(syn.ScaleQualitative, st.just("Fac")))
    else:
        inputs = tuple(draw(members))
    return syn.ApplicationDecl(op, inputs, args, draw(st.sampled_from("swe")),
                               tuple(draw(st.lists(idents, max_size=2))), None)


declarations = st.one_of(
    st.builds(syn.ElementDecl, st.sampled_from(syn.ELEMENT_KINDS), idents,
              bodies(), st.none()),
    st.builds(syn.AxiomDecl, concept_descs, concept_descs, st.none()),
    st.builds(syn.DisjointDecl, concept_descs, concept_descs, st.none()),
    st.builds(syn.HierarchyDecl, st.sampled_from(("dimension", "part")),
              idents, idents, st.none()),
    st.builds(syn.FactorDecl, idents,
              st.sampled_from(("strengthens", "weakens")), st.none()),
    st.builds(syn.ConflictDecl, members.map(tuple), st.none()),
    applications(),
)
model_texts = st.lists(declarations.map(render_declaration),
                       max_size=4).map("\n".join)

# Tokens a mutation may insert, and that token soups are made of: every
# symbol, keywords, and words, numbers, strings and a variable.
_PIECES = ("< > : :< :: <= >= { } ( ) [ ] , . | & - = % /".split()
           + "goal f qg axiom disjoint part of factor weakens conflict".split()
           + "reduce deuniversalize observe focus scaleup s".split()
           + "A B G1 Q1 Sec SOME ONLY observed_by has_value_in".split()
           + ["0", "3", "1.5", '"Fast"', "?X"])
blanks = st.sampled_from((" ", " ", "", "\n"))


@st.composite
def joined(draw, words):
    """The words with a drawn blank, or none, after each."""
    return "".join(w + draw(blanks) for w in words)


@st.composite
def mutated(draw, texts):
    """A drawn text, lexed, changed at a few tokens and joined again."""
    words = list(tokenize(draw(texts)).texts[:-1])
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(words)))
        action = draw(st.sampled_from(("delete", "insert", "swap")))
        if action == "insert" or not words:
            words.insert(at, draw(st.sampled_from(_PIECES)))
        elif action == "delete":
            del words[min(at, len(words) - 1)]
        elif at + 1 < len(words):
            words[at], words[at + 1] = words[at + 1], words[at]
    return draw(joined(words))


soups = st.lists(st.sampled_from(_PIECES), max_size=30).flatmap(joined)


@settings(max_examples=300, deadline=None)
@given(st.one_of(concept_descs.map(render_description),
                 mutated(concept_descs.map(render_description)), soups),
       st.booleans())
@example("<inheres_in:<run_of: ?X>> - A", True)
@example("A . B", False)
@example("A 3% | B", False)
@example("<s: 100/3%> <t: 5%> <u: >=2 (Sec)> <v: <=1 A>", False)
def test_descriptions_parse_as_in_the_reference(text, allow_var):
    assert_same("parse_description", text, allow_var=allow_var)


@settings(max_examples=300, deadline=None)
@given(st.one_of(model_texts, mutated(model_texts), soups))
@example(GLUED_PROBE)
@example(". f F1 = A.")
@example("goal G1 = A & (<object:<actor: B>>).\nqg Q1 = Speed(<a:<b: A>>) :: Fast.")
@example(PATTERN_ERROR)
@example("qg Q1 = Speed(A) :: [1, 2 Sec.] <observed_by:<a: B>>.\n"
         "qg Q2 = Speed(A) :: Fast <a: B>.")
def test_model_files_parse_as_in_the_reference(text):
    assert_same("parse_model_file", text)


def test_the_glued_colon_probe_differs_from_the_reference():
    assert _reference("parse_model_file", GLUED_PROBE)[1] == [
        ("E-PARSE-001", (1, 22), "expected ':', found '<'")]
    decls, diags = _outcome(parse_model_file, GLUED_PROBE)
    assert diags == []
    assert decls[0].body == syn.DescBody(ast.And(
        ast.Atom("A"),
        ast.Slot("object", ast.ExactlyOne(),
                 ast.Slot("actor", ast.ExactlyOne(), ast.Atom("B")))))


def test_recovery_resumes_at_an_error_in_a_deuniversalize_pattern():
    assert _reference("parse_model_file", PATTERN_ERROR)[1] == [
        ("E-PARSE-001", (1, 45), "expected description, found ']'"),
        ("E-PARSE-001", (1, 38), "expected declaration, found ')'")]
    decls, diags = _outcome(parse_model_file, PATTERN_ERROR)
    assert diags == [
        ("E-PARSE-001", (1, 45), "expected description, found ']'")]
    assert decls == [syn.ElementDecl("f", "F1", syn.DescBody(ast.Atom("A")),
                                     (2, 1))]


@pytest.mark.parametrize("opening, closing", [
    ("(", ")"), ("<s: ", ">"), ("<s:", ">")])
@pytest.mark.parametrize("depth", [64, 65])
def test_nesting_limit_as_in_the_reference(opening, closing, depth):
    text = opening * depth + "A" + closing * depth
    assert_same("parse_description", text)
    outcome = _outcome(parse_description, text)
    if depth == 64:
        assert not isinstance(outcome, tuple)
    else:
        assert outcome[:2] == ("ParseError", "E-PARSE-003")
        assert outcome[2] == (1, len(opening) * 64 + 1)
    assert_same("parse_model_file", f"f F1 = {text}.")
