"""Recursive-descent parser for descriptions and model files.

Precedence, loosest to tightest: Diff < Or < And (juxtaposition) < Proj.
Parentheses override. Declarations end at a dot that is not glued on both
sides (glued dots belong to projections like `F1.object`).

The `<=n` / `>=n` forms are context-sensitive by design: followed by a
description they are cardinality modifiers (`<register_for: >=3 Class>`);
followed by the closing delimiter they are one-sided interval regions
(`<age: >=20>`); and in region context (after `::`, inside `[...]`, or as
the filler of the reserved relation `has_value_in`) a trailing identifier
is a unit (`<has_value_in: <=5 Sec>`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from desiree.diagnostics import (
    Diagnostic,
    E_DUP,
    E_NESTING,
    E_NOT_SUPPORTED,
    E_PARSE,
    ERROR,
    Span,
)
from desiree.syntax import ast
from desiree.syntax.lexer import (
    EOF,
    IDENT,
    NUMBER,
    STRING,
    SYM,
    VAR,
    LexError,
    Token,
    tokenize,
)

ELEMENT_KINDS = ("goal", "fg", "qg", "ctg", "f", "fc", "qc", "sc", "da")
OPERATOR_NAMES = ("reduce", "interpret", "focus", "scaleup", "scaledown",
                  "deuniversalize", "resolve", "operationalize", "observe")
STRENGTH_TAGS = ("s", "w", "e")

# Slots whose fillers always parse in region context.
REGION_SLOTS = ("has_value_in",)

# Deepest nesting of parentheses and slot fillers a description may have.
# Deeper input is rejected with E-PARSE-003, so on nested input the parser
# and every recursive walker after it (renderer, normaliser, compiler,
# evaluator) stay well inside Python's recursion limit.
MAX_NESTING = 64


class ParseError(Exception):
    def __init__(self, span: Span, message: str, code: str = E_PARSE):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message
        self.code = code


# ---------------------------------------------------------------------------
# Declaration AST.


@dataclass(frozen=True)
class NLBody:
    text: str


@dataclass(frozen=True)
class DescBody:
    desc: ast.Description


@dataclass(frozen=True)
class SubsumptionBody:
    lhs: ast.Description
    rhs: ast.Description


@dataclass(frozen=True)
class QualityBody:
    quality: str
    subject: ast.Description
    region: ast.RegionExpr
    observer: ast.Description | None = None


Body = NLBody | DescBody | SubsumptionBody | QualityBody


@dataclass(frozen=True)
class ElementDecl:
    kind: str
    ident: str
    body: Body
    span: Span


@dataclass(frozen=True)
class AxiomDecl:
    lhs: ast.Description
    rhs: ast.Description
    span: Span


@dataclass(frozen=True)
class DisjointDecl:
    left: ast.Description
    right: ast.Description
    span: Span


@dataclass(frozen=True)
class HierarchyDecl:
    edge: str  # "dimension" or "part"
    child: str
    parent: str
    span: Span


@dataclass(frozen=True)
class FactorDecl:
    name: str
    direction: str  # "strengthens" or "weakens"
    span: Span


@dataclass(frozen=True)
class ConflictDecl:
    ids: tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class ScaleQuantitative:
    f_lo: Fraction
    f_hi: Fraction


@dataclass(frozen=True)
class ScaleQualitative:
    factor: str


@dataclass(frozen=True)
class FocusTargets:
    targets: tuple[str, ...]


@dataclass(frozen=True)
class DeUniversalizeSyntax:
    var: str
    pattern: ast.Description
    pct: Fraction


@dataclass(frozen=True)
class ObserveSyntax:
    observer: ast.Description


AppArgs = (ScaleQuantitative | ScaleQualitative | FocusTargets
           | DeUniversalizeSyntax | ObserveSyntax | None)


@dataclass(frozen=True)
class ApplicationDecl:
    op: str
    inputs: tuple[str, ...]
    args: AppArgs
    strength: str  # "s" | "w" | "e"
    outputs: tuple[str, ...]
    span: Span


Declaration = (ElementDecl | AxiomDecl | DisjointDecl | HierarchyDecl
               | FactorDecl | ConflictDecl | ApplicationDecl)


@dataclass
class ModelFileAst:
    declarations: list[Declaration] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser.


_DESC_START_SYMS = ("<", "{", "(", "[", "<=", ">=")


class _Parser:
    def __init__(self, tokens: list[Token], allow_var: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.allow_var = allow_var
        self.depth = 0  # open parentheses and slot fillers

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, k: int = 1) -> Token:
        j = min(self.pos + k, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def expect_sym(self, s: str) -> Token:
        if not self.cur.is_sym(s):
            raise ParseError(self.cur.span, f"expected {s!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.cur.kind != IDENT:
            raise ParseError(self.cur.span, f"expected {what}, found {self.cur.text!r}")
        return self.advance()

    def at_desc_start(self) -> bool:
        tok = self.cur
        if tok.kind in (IDENT, VAR, STRING):
            return True
        if self._at_percent_number():
            return True  # a bare percent region like 80%
        return tok.kind == SYM and tok.text in _DESC_START_SYMS

    def _at_percent_number(self) -> bool:
        # 80%, or the exact-fraction form 100/3%
        if self.cur.kind != NUMBER:
            return False
        if self.peek().is_sym("%"):
            return True
        return (self.peek().is_sym("/") and self.peek(2).kind == NUMBER
                and self.peek(3).is_sym("%"))

    # Accept a ':' where the source may glue it to a following '<'
    # (the lexer max-munches ':<'); splits the token when needed.
    def expect_colon(self) -> None:
        if self.cur.is_sym(":"):
            self.advance()
            return
        if self.cur.is_sym(":<"):
            span = self.cur.span
            self.tokens[self.pos] = Token(SYM, "<", Span(span.line, span.col + 1),
                                          glued_right=self.cur.glued_right)
            return
        raise ParseError(self.cur.span, f"expected ':', found {self.cur.text!r}")

    # -- numbers -----------------------------------------------------------

    def parse_number(self) -> Fraction:
        if self.cur.kind != NUMBER:
            if self.cur.kind == IDENT and self.peek().is_sym("("):
                raise ParseError(self.cur.span,
                                 "computed bounds are not supported; use a numeric literal",
                                 code=E_NOT_SUPPORTED)
            raise ParseError(self.cur.span, f"expected number, found {self.cur.text!r}")
        num = self.advance().value
        if self.cur.is_sym("/") and self.peek().kind == NUMBER:
            self.advance()
            den = self.advance().value
            if den == 0:
                raise ParseError(self.cur.span, "zero denominator")
            num = num / den
        return num

    def parse_pct(self) -> Fraction:
        span = self.cur.span
        num = self.parse_number()
        self.expect_sym("%")
        pct = num / 100
        if pct < 0 or pct > 1:
            raise ParseError(span, f"percentage {num}% out of [0%, 100%]")
        return pct

    # -- regions -----------------------------------------------------------

    def parse_unit(self, bare_ok: bool) -> str | None:
        """Optional unit: parenthesized `(Sec.)` anywhere, bare ident in region context."""
        if self.cur.is_sym("("):
            self.advance()
            name = self.expect_ident("unit").text
            if self.cur.is_sym("."):
                self.advance()
            self.expect_sym(")")
            return name
        if bare_ok and self.cur.kind == IDENT:
            name = self.advance().text
            if self.cur.is_sym(".") and self.peek().is_sym("]"):
                self.advance()
            return name
        return None

    def parse_bracket_region(self) -> ast.RegionExpr:
        """`[lo, hi]`, `[lo, hi (Unit)]`, or `[lo%, hi%]`."""
        span = self.cur.span
        self.expect_sym("[")
        lo = self.parse_number()
        lo_pct = self.cur.is_sym("%")
        if lo_pct:
            self.advance()
        self.expect_sym(",")
        hi = self.parse_number()
        hi_pct = self.cur.is_sym("%")
        if hi_pct:
            self.advance()
        if lo_pct != hi_pct:
            raise ParseError(span, "percent interval needs '%' on both bounds")
        if lo_pct:
            self.expect_sym("]")
            lo, hi = lo / 100, hi / 100
            if not (0 <= lo <= hi <= 1):
                raise ParseError(span, "percent interval out of [0%, 100%] or reversed")
            return ast.Percent(lo, hi)
        unit = self.parse_unit(bare_ok=True)
        self.expect_sym("]")
        if lo > hi:
            raise ParseError(span, f"interval bounds reversed: [{lo}, {hi}]")
        return ast.Interval(lo, hi, _trim_unit(unit))

    def parse_region(self) -> ast.RegionExpr:
        """A region in region context (QGC `::` tail, has_value_in filler)."""
        tok = self.cur
        if tok.is_sym("["):
            return self.parse_bracket_region()
        if tok.is_sym("{"):
            self.advance()
            values = [self._value_literal()]
            while self.cur.is_sym(","):
                self.advance()
                values.append(self._value_literal())
            self.expect_sym("}")
            return ast.ValueSet(tuple(values))
        if tok.is_sym("<=") or tok.is_sym(">=") or tok.kind == NUMBER:
            return self._region_literal(bare_ok=True)
        if tok.kind == IDENT:
            return ast.Named(self.advance().text)
        if tok.kind == STRING:
            return ast.Named(self.advance().value)
        raise ParseError(tok.span, f"expected region, found {tok.text!r}")

    def _region_literal(self, bare_ok: bool) -> ast.RegionExpr:
        """A one-sided region `<= n` / `>= n` with `%` or an optional
        unit, or a point percent `n%`. A bare unit name is read only
        where bare_ok (region context)."""
        tok = self.cur
        op = self.advance().text if tok.kind == SYM else None
        num = self.parse_number()
        if op is None or self.cur.is_sym("%"):
            self.expect_sym("%")
            p = num / 100
            if not 0 <= p <= 1:
                raise ParseError(tok.span, "percentage out of range")
            if op is None:
                return ast.Percent(p, p)
            return ast.Percent(Fraction(0), p) if op == "<=" else ast.Percent(p, Fraction(1))
        unit = _trim_unit(self.parse_unit(bare_ok))
        if op == "<=":
            return ast.Interval(Fraction(0), num, unit)
        return ast.Interval(num, None, unit)

    def _value_literal(self) -> str:
        if self.cur.kind == IDENT:
            return self.advance().text
        if self.cur.kind == NUMBER:
            return str(self.advance().value)
        raise ParseError(self.cur.span, f"expected value literal, found {self.cur.text!r}")

    # -- descriptions ------------------------------------------------------

    def parse_description(self) -> ast.Description:
        return self._diff()

    def _nested_description(self, span: Span) -> ast.Description:
        """A description one nesting level down from the construct at span."""
        if self.depth == MAX_NESTING:
            raise ParseError(span, f"nested more than {MAX_NESTING} levels deep",
                             code=E_NESTING)
        self.depth += 1
        try:
            return self._diff()
        finally:
            self.depth -= 1

    def _diff(self) -> ast.Description:
        left = self._or()
        region = _is_region_desc(left)
        while self.cur.is_sym("-"):
            op = self.advance()
            right = self._or()
            self._check_region_mix(region, right, op)
            left = ast.Diff(left, right)
        return left

    def _or(self) -> ast.Description:
        left = self._and()
        region = _is_region_desc(left)
        while self.cur.is_sym("|"):
            op = self.advance()
            right = self._and()
            self._check_region_mix(region, right, op)
            left = ast.Or(left, right)
        return left

    def _and(self) -> ast.Description:
        left = self._postfix()
        region = _is_region_desc(left)
        while True:
            # juxtaposition has no operator: the right operand's first
            # token stands for it
            op = self.cur
            if op.is_sym("&"):
                self.advance()
            elif not self.at_desc_start():
                break
            right = self._postfix()
            self._check_region_mix(region, right, op)
            left = ast.And(left, right)
        return left

    def _postfix(self) -> ast.Description:
        node = self._primary()
        while (self.cur.is_sym(".") and self.cur.glued_left and self.cur.glued_right
               and self.peek().kind == IDENT):
            self.advance()
            slot = self.advance().text
            node = ast.Proj(node, slot)
        return node

    def _primary(self) -> ast.Description:
        tok = self.cur
        if tok.kind == IDENT:
            return ast.Atom(self.advance().text)
        if tok.kind == VAR:
            if not self.allow_var:
                raise ParseError(tok.span, "variables are only allowed in "
                                           "de-universalization arguments")
            return ast.Var(self.advance().value)
        if tok.is_sym("<"):
            return self._slot()
        if tok.is_sym("{"):
            self.advance()
            members = [self.expect_ident("individual").text]
            while self.cur.is_sym(","):
                self.advance()
                members.append(self.expect_ident("individual").text)
            self.expect_sym("}")
            if len(set(members)) != len(members):
                raise ParseError(tok.span, "duplicate enumeration member")
            return ast.Enum(tuple(members))
        if tok.is_sym("("):
            self.advance()
            inner = self._nested_description(tok.span)
            self.expect_sym(")")
            return inner
        if tok.is_sym("["):
            return ast.Region(self.parse_bracket_region())
        if tok.is_sym("<=") or tok.is_sym(">=") or self._at_percent_number():
            # A region literal in plain description position (no bare units).
            return ast.Region(self._region_literal(bare_ok=False))
        if tok.kind == STRING:
            # A quoted name in description position is a named region;
            # bare identifiers stay concept atoms.
            return ast.Region(ast.Named(self.advance().value))
        raise ParseError(tok.span, f"expected description, found {tok.text!r}")

    def _slot(self) -> ast.Description:
        open_span = self.cur.span
        self.expect_sym("<")
        slot = self.expect_ident("slot name").text
        self.expect_colon()
        region_ctx = slot in REGION_SLOTS
        modifier: ast.CardModifier = ast.ExactlyOne()
        filler: ast.Description | None = None

        tok = self.cur
        if tok.kind == IDENT and tok.text in ("SOME", "ONLY"):
            self.advance()
            modifier = ast.Some() if tok.text == "SOME" else ast.Only()
        elif tok.is_sym("=") and self.peek().kind == NUMBER:
            self.advance()
            n = self.parse_number()
            modifier = _int_modifier(ast.Exactly, n, tok.span, minimum=1)
        elif tok.is_sym("=") and self.peek().kind == IDENT and self.peek(2).is_sym("("):
            raise ParseError(self.peek().span,
                             "computed bounds are not supported; use a numeric literal",
                             code=E_NOT_SUPPORTED)
        elif tok.is_sym("<=") or tok.is_sym(">="):
            start = self.pos
            self.advance()
            num = self.parse_number()
            if (not region_ctx and self.at_desc_start()
                    and not self._at_unit_then_close()):
                cls = ast.AtMost if tok.text == "<=" else ast.AtLeast
                modifier = _int_modifier(cls, num, tok.span,
                                         minimum=0 if tok.text == "<=" else 1)
            else:
                # not a cardinality bound: read it again as a region
                self.pos = start
                filler = ast.Region(self._region_literal(bare_ok=region_ctx))

        if filler is None:
            if region_ctx:
                filler = ast.Region(self.parse_region())
            else:
                filler = self._nested_description(open_span)
        if not self.cur.is_sym(">"):
            raise ParseError(open_span, f"slot <{slot}: ...> is not closed")
        self.advance()
        return ast.Slot(slot, modifier, filler)

    def _at_unit_then_close(self) -> bool:
        """True at `(Ident)` or `(Ident.)` immediately followed by `>`.

        Disambiguates the unit of a one-sided interval (`<s: >=0 (Sec)>`)
        from a parenthesized filler after a cardinality bound; a redundantly
        parenthesized single atom in that position reads as a unit, which
        the canonical renderer never emits.
        """
        if not self.cur.is_sym("("):
            return False
        j = 1
        if self.peek(j).kind != IDENT:
            return False
        j += 1
        if self.peek(j).is_sym("."):
            j += 1
        if not self.peek(j).is_sym(")"):
            return False
        return self.peek(j + 1).is_sym(">")

    @staticmethod
    def _check_region_mix(region: bool, right: ast.Description,
                          op: Token) -> None:
        if region != _is_region_desc(right):
            raise ParseError(op.span, "cannot combine a region with a concept")


def _int_modifier(cls, n: Fraction, span: Span, minimum: int):
    if n.denominator != 1 or n < minimum:
        raise ParseError(span, f"cardinality bound must be an integer >= {minimum}")
    return cls(int(n))


def _is_region_desc(d: ast.Description) -> bool:
    # The parser joins only operands that agree (_check_region_mix), so
    # every And/Or/Diff it builds is a region exactly when its right
    # operand is. The right spine of a chain is short: chains nest to the
    # left.
    while isinstance(d, (ast.And, ast.Or, ast.Diff)):
        d = d.right
    return isinstance(d, ast.Region)


def _trim_unit(unit: str | None) -> str | None:
    if unit is None:
        return None
    return unit.rstrip(".")


# ---------------------------------------------------------------------------
# Public entry points.


def parse_description(source: str | list[Token], allow_var: bool = False) -> ast.Description:
    """Parse a single description; raises ParseError / LexError."""
    tokens = tokenize(source) if isinstance(source, str) else list(source)
    p = _Parser(tokens, allow_var=allow_var)
    d = p.parse_description()
    if p.cur.kind != EOF:
        raise ParseError(p.cur.span, f"unexpected trailing input: {p.cur.text!r}")
    return d


def parse_model_file(text: str) -> ModelFileAst:
    """Parse a whole model file, aggregating diagnostics and keeping a
    partial AST on declaration-level errors."""
    out = ModelFileAst()
    try:
        tokens = tokenize(text)
    except LexError as e:
        out.diagnostics.append(Diagnostic(ERROR, "E-LEX-001", e.span, e.message))
        return out
    p = _Parser(tokens)
    seen_ids: dict[str, Span] = {}
    while p.cur.kind != EOF:
        start = p.pos
        try:
            decl = _parse_declaration(p)
        except ParseError as e:
            out.diagnostics.append(Diagnostic(ERROR, e.code, e.span, e.message))
            _recover(p, start)
            continue
        if isinstance(decl, ElementDecl):
            if decl.ident in seen_ids:
                out.diagnostics.append(Diagnostic(
                    ERROR, E_DUP, decl.span,
                    f"duplicate identifier {decl.ident!r} "
                    f"(first declared at {seen_ids[decl.ident]})"))
            else:
                seen_ids[decl.ident] = decl.span
        out.declarations.append(decl)
    return out


def _recover(p: _Parser, start: int) -> None:
    """Skip past the next declaration-terminating dot."""
    if p.pos == start:
        p.advance()
    while p.cur.kind != EOF:
        tok = p.advance()
        if tok.is_sym(".") and not (tok.glued_left and tok.glued_right):
            return


def _expect_decl_dot(p: _Parser) -> None:
    tok = p.cur
    if tok.is_sym(".") and not (tok.glued_left and tok.glued_right):
        p.advance()
        return
    raise ParseError(tok.span, f"expected '.' to end the declaration, found {tok.text!r}")


def _parse_declaration(p: _Parser) -> Declaration:
    tok = p.cur
    if tok.kind != IDENT:
        raise ParseError(tok.span, f"expected declaration, found {tok.text!r}")
    word = tok.text
    if word in ELEMENT_KINDS:
        return _parse_element(p)
    if word == "axiom":
        span = p.advance().span
        lhs = p.parse_description()
        p.expect_sym(":<")
        rhs = p.parse_description()
        _expect_decl_dot(p)
        return AxiomDecl(lhs, rhs, span)
    if word == "disjoint":
        span = p.advance().span
        left = p.parse_description()
        p.expect_sym(",")
        right = p.parse_description()
        _expect_decl_dot(p)
        return DisjointDecl(left, right, span)
    if word in ("dimension", "part"):
        span = p.advance().span
        child = p.expect_ident().text
        kw = p.expect_ident("'of'")
        if kw.text != "of":
            raise ParseError(kw.span, f"expected 'of', found {kw.text!r}")
        parent = p.expect_ident().text
        _expect_decl_dot(p)
        return HierarchyDecl(word, child, parent, span)
    if word == "factor":
        span = p.advance().span
        name = p.expect_ident("factor name").text
        direction = p.expect_ident("'strengthens' or 'weakens'")
        if direction.text not in ("strengthens", "weakens"):
            raise ParseError(direction.span,
                             f"expected 'strengthens' or 'weakens', found {direction.text!r}")
        _expect_decl_dot(p)
        return FactorDecl(name, direction.text, span)
    if word == "conflict":
        span = p.advance().span
        p.expect_sym("{")
        ids = [p.expect_ident().text]
        while p.cur.is_sym(","):
            p.advance()
            ids.append(p.expect_ident().text)
        p.expect_sym("}")
        _expect_decl_dot(p)
        return ConflictDecl(tuple(ids), span)
    if word in OPERATOR_NAMES:
        return _parse_application(p)
    raise ParseError(tok.span, f"unknown declaration keyword {word!r}")


def _parse_element(p: _Parser) -> ElementDecl:
    kind_tok = p.advance()
    ident = p.expect_ident("element identifier").text
    p.expect_sym("=")
    body = _parse_body(p)
    _expect_decl_dot(p)
    return ElementDecl(kind_tok.text, ident, body, kind_tok.span)


def _parse_body(p: _Parser) -> Body:
    if p.cur.kind == STRING:
        return NLBody(p.advance().value)
    # Quality form: IDENT '(' subject ')' '::' region [<observed_by: D>].
    if p.cur.kind == IDENT and p.peek().is_sym("("):
        snapshot = p.pos
        quality = p.advance().text
        p.advance()  # '('
        try:
            subject = p.parse_description()
            if not p.cur.is_sym(")") or not p.peek().is_sym("::"):
                raise ParseError(p.cur.span, "not a quality form")
        except ParseError:
            p.pos = snapshot
        else:
            p.advance()  # ')'
            p.advance()  # '::'
            region = p.parse_region()
            observer = None
            if p.cur.is_sym("<") and p.peek().kind == IDENT \
                    and p.peek().text == "observed_by":
                p.advance()
                p.advance()
                p.expect_colon()
                observer = p.parse_description()
                p.expect_sym(">")
            return QualityBody(quality, subject, region, observer)
    lhs = p.parse_description()
    if p.cur.is_sym(":<"):
        p.advance()
        rhs = p.parse_description()
        return SubsumptionBody(lhs, rhs)
    return DescBody(lhs)


def _parse_application(p: _Parser) -> ApplicationDecl:
    op_tok = p.advance()
    op = op_tok.text
    p.expect_sym("(")
    inputs: list[str] = []
    args: AppArgs = None

    if op == "deuniversalize":
        if p.cur.kind != VAR:
            raise ParseError(p.cur.span, "deuniversalize expects a ?variable first")
        var = p.advance().value
        p.expect_sym(",")
        inputs.append(p.expect_ident("input element").text)
        p.expect_sym(",")
        sub = _Parser(p.tokens, allow_var=True)
        sub.pos = p.pos
        pattern = sub.parse_description()
        p.pos = sub.pos
        p.expect_sym(",")
        pct = p.parse_pct()
        args = DeUniversalizeSyntax(var, pattern, pct)
    elif op == "observe":
        inputs.append(p.expect_ident("input element").text)
        p.expect_sym(",")
        args = ObserveSyntax(p.parse_description())
    elif op == "focus":
        inputs.append(p.expect_ident("input element").text)
        p.expect_sym(",")
        p.expect_sym("{")
        targets = [p.expect_ident("focus target").text]
        while p.cur.is_sym(","):
            p.advance()
            targets.append(p.expect_ident("focus target").text)
        p.expect_sym("}")
        args = FocusTargets(tuple(targets))
    elif op in ("scaleup", "scaledown"):
        inputs.append(p.expect_ident("input element").text)
        p.expect_sym(",")
        if p.cur.is_sym("("):
            p.advance()
            f_lo = p.parse_number()
            p.expect_sym(",")
            f_hi = p.parse_number()
            p.expect_sym(")")
            args = ScaleQuantitative(f_lo, f_hi)
        else:
            args = ScaleQualitative(p.expect_ident("scale factor").text)
    else:  # reduce / interpret / operationalize / resolve
        inputs.append(p.expect_ident("input element").text)
        while p.cur.is_sym(","):
            p.advance()
            inputs.append(p.expect_ident("input element").text)

    p.expect_sym(")")
    p.expect_sym("[")
    tag = p.expect_ident("strength tag")
    if tag.text not in STRENGTH_TAGS:
        raise ParseError(tag.span, f"expected strength tag s|w|e, found {tag.text!r}")
    p.expect_sym("]")
    p.expect_sym("=")
    p.expect_sym("{")
    outputs: list[str] = []
    if p.cur.kind == IDENT:
        outputs.append(p.advance().text)
        while p.cur.is_sym(","):
            p.advance()
            outputs.append(p.expect_ident("output element").text)
    p.expect_sym("}")
    _expect_decl_dot(p)
    return ApplicationDecl(op, tuple(inputs), args, tag.text, tuple(outputs),
                           op_tok.span)
