"""Parser for descriptions and model files.

The parser walks the lexer's flat lists (`Tokens.kinds`, `Tokens.texts`)
with an index and builds no object per token: a Span is made for a
declaration or a diagnostic, a value for a number, string or variable
when one is read. A symbol is matched by its text alone, since no other
kind of token has a symbol's text.

A description is read by one precedence-climbing loop, `_Parser._expr`
(Pratt, "Top down operator precedence", POPL 1973). Binding power,
loosest to tightest: Diff `-` < Or `|` < And `&`, where juxtaposition is
an implicit `&`; all three associate to the left. Projection
(`F1.object`) is a postfix on an operand, and parentheses override.
Declarations end at a dot that the lexer did not read as a projection
`DOT` (one glued to non-blanks on both sides).

The `<=n` / `>=n` forms are context-sensitive by design: followed by a
description they are cardinality modifiers (`<register_for: >=3 Class>`);
followed by the closing delimiter they are one-sided interval regions
(`<age: >=20>`); and in region context (after `::`, inside `[...]`, or as
the filler of the reserved relation `has_value_in`) a trailing identifier
is a unit (`<has_value_in: <=5 Sec>`).

A region is a description in its own right: wherever one stands (a
quoted name, `[...]`, a percentage, `:: R`, a `has_value_in` filler or
a quality's `::` tail) the parser returns the region node itself. An
operator joins two regions or two concepts, never one of each.

The token lists are never written. A slot colon glued to a nested slot
(`<a:<b: X>>`) lexes as one `:<` token; the parser takes its ':' and
reads the rest as '<' (`_Parser.split`), so the quality-form probe in
`_parse_body` can back off and read the same tokens again.
"""
from __future__ import annotations

from fractions import Fraction

from desiree.diagnostics import (
    Diagnostic,
    E_DUP,
    E_LEX,
    E_NESTING,
    E_NOT_SUPPORTED,
    E_PARSE,
    ERROR,
    Span,
)
from desiree.records import Frozen, Record, init_field
from desiree.syntax import ast
from desiree.syntax.lexer import (
    DOT,
    EOF,
    IDENT,
    NUMBER,
    STRING,
    SYM,
    VAR,
    LexError,
    Tokens,
    tokenize,
)

ELEMENT_KINDS = ("goal", "fg", "qg", "ctg", "f", "fc", "qc", "sc", "da")
OPERATOR_NAMES = ("reduce", "interpret", "focus", "scaleup", "scaledown",
                  "deuniversalize", "resolve", "operationalize", "observe")
STRENGTH_TAGS = ("s", "w", "e")

# Slots whose fillers always parse in region context.
REGION_SLOTS = ("has_value_in",)

# Deepest nesting of parentheses and slot fillers a description may have.
# Deeper input is rejected with E-PARSE-003, which keeps nested input within
# Python's recursion limit. A flat chain such as `A0 & A1 & … A2999`
# nests nothing and has no bound: hashing, comparing, normalising and
# evaluating a description walk the left spine of a chain in a loop.
MAX_NESTING = 64


class ParseError(Exception):
    def __init__(self, span: Span, message: str, code: str = E_PARSE):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message
        self.code = code


# ---------------------------------------------------------------------------
# Declaration AST.


class NLBody(Frozen):
    __slots__ = ("text",)

    def __init__(self, text: str):
        init_field(self, "text", text)


class DescBody(Frozen):
    __slots__ = ("desc",)

    def __init__(self, desc: ast.Description):
        init_field(self, "desc", desc)


class SubsumptionBody(Frozen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: ast.Description, rhs: ast.Description):
        init_field(self, "lhs", lhs)
        init_field(self, "rhs", rhs)


class QualityBody(Frozen):
    __slots__ = ("quality", "subject", "region", "observer")

    def __init__(self, quality: str, subject: ast.Description,
                 region: ast.RegionExpr,
                 observer: ast.Description | None = None):
        init_field(self, "quality", quality)
        init_field(self, "subject", subject)
        init_field(self, "region", region)
        init_field(self, "observer", observer)


Body = NLBody | DescBody | SubsumptionBody | QualityBody


class ElementDecl(Frozen):
    __slots__ = ("kind", "ident", "body", "span")

    def __init__(self, kind: str, ident: str, body: Body, span: Span):
        init_field(self, "kind", kind)
        init_field(self, "ident", ident)
        init_field(self, "body", body)
        init_field(self, "span", span)


class AxiomDecl(Frozen):
    __slots__ = ("lhs", "rhs", "span")

    def __init__(self, lhs: ast.Description, rhs: ast.Description, span: Span):
        init_field(self, "lhs", lhs)
        init_field(self, "rhs", rhs)
        init_field(self, "span", span)


class DisjointDecl(Frozen):
    __slots__ = ("left", "right", "span")

    def __init__(self, left: ast.Description, right: ast.Description,
                 span: Span):
        init_field(self, "left", left)
        init_field(self, "right", right)
        init_field(self, "span", span)


class HierarchyDecl(Frozen):
    __slots__ = ("edge", "child", "parent", "span")

    def __init__(self, edge: str, child: str, parent: str, span: Span):
        init_field(self, "edge", edge)  # "dimension" or "part"
        init_field(self, "child", child)
        init_field(self, "parent", parent)
        init_field(self, "span", span)


class FactorDecl(Frozen):
    __slots__ = ("name", "direction", "span")

    def __init__(self, name: str, direction: str, span: Span):
        init_field(self, "name", name)
        init_field(self, "direction", direction)  # "strengthens" or "weakens"
        init_field(self, "span", span)


class ConflictDecl(Frozen):
    __slots__ = ("ids", "span")

    def __init__(self, ids: tuple[str, ...], span: Span):
        init_field(self, "ids", ids)
        init_field(self, "span", span)


class ScaleQuantitative(Frozen):
    __slots__ = ("f_lo", "f_hi")

    def __init__(self, f_lo: Fraction, f_hi: Fraction):
        init_field(self, "f_lo", f_lo)
        init_field(self, "f_hi", f_hi)


class ScaleQualitative(Frozen):
    __slots__ = ("factor",)

    def __init__(self, factor: str):
        init_field(self, "factor", factor)


class FocusTargets(Frozen):
    __slots__ = ("targets",)

    def __init__(self, targets: tuple[str, ...]):
        init_field(self, "targets", targets)


class DeUniversalizeSyntax(Frozen):
    __slots__ = ("var", "pattern", "pct")

    def __init__(self, var: str, pattern: ast.Description, pct: Fraction):
        init_field(self, "var", var)
        init_field(self, "pattern", pattern)
        init_field(self, "pct", pct)


class ObserveSyntax(Frozen):
    __slots__ = ("observer",)

    def __init__(self, observer: ast.Description):
        init_field(self, "observer", observer)


AppArgs = (ScaleQuantitative | ScaleQualitative | FocusTargets
           | DeUniversalizeSyntax | ObserveSyntax | None)


class ApplicationDecl(Frozen):
    __slots__ = ("op", "inputs", "args", "strength", "outputs", "span")

    def __init__(self, op: str, inputs: tuple[str, ...], args: AppArgs,
                 strength: str, outputs: tuple[str, ...], span: Span):
        init_field(self, "op", op)
        init_field(self, "inputs", inputs)
        init_field(self, "args", args)
        init_field(self, "strength", strength)  # "s" | "w" | "e"
        init_field(self, "outputs", outputs)
        init_field(self, "span", span)


Declaration = (ElementDecl | AxiomDecl | DisjointDecl | HierarchyDecl
               | FactorDecl | ConflictDecl | ApplicationDecl)


class ModelFileAst(Record):
    __slots__ = ("declarations", "diagnostics")

    def __init__(self, declarations: list[Declaration] | None = None,
                 diagnostics: list[Diagnostic] | None = None):
        self.declarations = [] if declarations is None else declarations
        self.diagnostics = [] if diagnostics is None else diagnostics


# ---------------------------------------------------------------------------
# Parser.


# Binding power of each binary operator and the node it builds; all three
# associate to the left. Juxtaposition binds like `&`.
_BINARY = {"-": 1, "|": 2, "&": 3}
_AND = _BINARY["&"]
_NODES = (None, ast.Diff, ast.Or, ast.And)

# What a description can start with, besides a percent region like 80%.
_DESC_START_KINDS = frozenset((IDENT, VAR, STRING))
_DESC_START_SYMS = frozenset(("<", "{", "(", "[", "<=", ">=", "::"))


class _Parser:
    def __init__(self, tokens: Tokens, allow_var: bool = False):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.end = len(tokens.kinds) - 1  # the EOF token
        self.pos = 0
        self.allow_var = allow_var
        self.depth = 0  # open parentheses and slot fillers
        # The `:<` token whose ':' a slot has taken; it reads as '<'.
        self.split = -1

    # -- token plumbing ----------------------------------------------------

    def span(self, i: int) -> Span:
        return self.tokens.span(i, 1 if i == self.split else 0)

    def text(self, i: int) -> str:
        return "<" if i == self.split else self.texts[i]

    def advance(self) -> int:
        """Move past the current token, unless it is EOF; return its index."""
        i = self.pos
        if i < self.end:
            self.pos = i + 1
        return i

    def accept(self, s: str) -> bool:
        """Take the current token if it is the symbol s."""
        if self.texts[self.pos] == s:
            self.pos += 1
            return True
        return False

    def error(self, what: str) -> ParseError:
        i = self.pos
        return ParseError(self.span(i), f"expected {what}, found {self.text(i)!r}")

    def expect_sym(self, s: str) -> int:
        i = self.pos
        if self.texts[i] != s:
            raise self.error(repr(s))
        self.pos = i + 1
        return i

    def expect_ident(self, what: str = "identifier") -> str:
        i = self.pos
        if self.kinds[i] != IDENT:
            raise self.error(what)
        self.pos = i + 1
        return self.texts[i]

    def at_desc_start(self) -> bool:
        i = self.pos
        return (self.kinds[i] in _DESC_START_KINDS
                or self.texts[i] in _DESC_START_SYMS
                or self._at_percent_number())

    def _at_percent_number(self) -> bool:
        # 80%, or the exact-fraction form 100/3%
        i = self.pos
        if self.kinds[i] != NUMBER:
            return False
        texts = self.texts
        if texts[i + 1] == "%":
            return True
        return (texts[i + 1] == "/" and self.kinds[i + 2] == NUMBER
                and texts[i + 3] == "%")

    def expect_colon(self) -> None:
        """Take a slot's ':'. The lexer reads the ':<' of `<a:<b: X>>` as
        one token; then only its ':' is taken, and the token reads as '<'
        from here on (`split`). The token lists are never written, so a
        parse that backs off reads the same tokens again."""
        i = self.pos
        text = self.texts[i]
        if text == ":":
            self.pos = i + 1
        elif text == ":<":
            self.split = i
        else:
            raise self.error("':'")

    # -- numbers -----------------------------------------------------------

    def parse_number(self) -> Fraction:
        i = self.pos
        if self.kinds[i] != NUMBER:
            if self.kinds[i] == IDENT and self.texts[i + 1] == "(":
                raise ParseError(self.span(i),
                                 "computed bounds are not supported; use a numeric literal",
                                 code=E_NOT_SUPPORTED)
            raise self.error("number")
        num = self.tokens.value(i)
        if self.texts[i + 1] == "/" and self.kinds[i + 2] == NUMBER:
            self.pos = i + 3
            den = self.tokens.value(i + 2)
            if den == 0:
                raise ParseError(self.span(i + 2), "zero denominator")
            return num / den
        self.pos = i + 1
        return num

    def parse_pct(self) -> Fraction:
        i = self.pos
        num = self.parse_number()
        self.expect_sym("%")
        return self._percent(num, i)

    def _percent(self, num: Fraction, at: int) -> Fraction:
        """num% as a fraction of one; out of [0%, 100%], an error at token
        `at`."""
        if not 0 <= num <= 100:
            raise ParseError(self.span(at), f"percentage {num}% out of [0%, 100%]")
        return num / 100

    def _int_modifier(self, cls, n: Fraction, i: int, minimum: int):
        if n.denominator != 1 or n < minimum:
            raise ParseError(self.span(i),
                             f"cardinality bound must be an integer >= {minimum}")
        return cls(int(n))

    # -- regions -----------------------------------------------------------

    def parse_unit(self, bare_ok: bool) -> str | None:
        """Optional unit: parenthesized `(Sec.)` anywhere, bare ident in region context."""
        if self.accept("("):
            name = self.expect_ident("unit")
            self.accept(".")
            self.expect_sym(")")
            return name
        i = self.pos
        if bare_ok and self.kinds[i] == IDENT:
            self.pos = i + 1
            if self.texts[i + 1] == "." and self.texts[i + 2] == "]":
                self.pos = i + 2
            return self.texts[i]
        return None

    def parse_bracket_region(self) -> ast.RegionExpr:
        """`[lo, hi]`, `[lo, hi (Unit)]`, or `[lo%, hi%]`."""
        start = self.expect_sym("[")
        lo = self.parse_number()
        lo_pct = self.accept("%")
        self.expect_sym(",")
        hi = self.parse_number()
        hi_pct = self.accept("%")
        if lo_pct != hi_pct:
            raise ParseError(self.span(start), "percent interval needs '%' on both bounds")
        unit = None if lo_pct else self.parse_unit(bare_ok=True)
        self.expect_sym("]")
        if lo_pct:
            region = ast.Percent(self._percent(lo, start),
                                 self._percent(hi, start))
        else:
            region = ast.Interval(lo, hi, _trim_unit(unit))
        if lo > hi:
            mark = "%" if lo_pct else ""
            raise ParseError(self.span(start),
                             f"interval bounds reversed: [{lo}{mark}, {hi}{mark}]")
        return region

    def parse_region(self) -> ast.RegionExpr:
        """A region in region context (QGC `::` tail, has_value_in filler)."""
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if text == "[":
            return self.parse_bracket_region()
        if text == "{":
            self.pos = i + 1
            values = [self._value_literal()]
            while self.accept(","):
                values.append(self._value_literal())
            self.expect_sym("}")
            return ast.ValueSet(tuple(values))
        if text in ("<=", ">=") or kind == NUMBER:
            return self._region_literal(bare_ok=True)
        if kind == IDENT:
            self.pos = i + 1
            return ast.Named(text)
        if kind == STRING:
            self.pos = i + 1
            return ast.Named(self.tokens.value(i))
        raise self.error("region")

    def _region_literal(self, bare_ok: bool) -> ast.RegionExpr:
        """A one-sided region `<= n` / `>= n` with `%` or an optional
        unit, or a point percent `n%`. A bare unit name is read only
        where bare_ok (region context)."""
        i = self.pos
        op = None
        if self.kinds[i] == SYM:
            op = self.texts[i]
            self.pos = i + 1
        num = self.parse_number()
        if op is None or self.texts[self.pos] == "%":
            self.expect_sym("%")
            p = self._percent(num, i)
            if op is None:
                return ast.Percent(p, p)
            return ast.Percent(Fraction(0), p) if op == "<=" else ast.Percent(p, Fraction(1))
        unit = _trim_unit(self.parse_unit(bare_ok))
        if op == "<=":
            return ast.Interval(Fraction(0), num, unit)
        return ast.Interval(num, None, unit)

    def _value_literal(self) -> str:
        i = self.pos
        if self.kinds[i] == IDENT:
            self.pos = i + 1
            return self.texts[i]
        if self.kinds[i] == NUMBER:
            return str(self.parse_number())
        raise self.error("value literal")

    # -- descriptions ------------------------------------------------------

    def parse_description(self) -> ast.Description:
        return self._expr(1)

    def _nested_description(self, opened: int, shift: int) -> ast.Description:
        """A description one nesting level down from the construct that
        starts `shift` characters into token `opened`."""
        if self.depth == MAX_NESTING:
            raise ParseError(self.tokens.span(opened, shift),
                             f"nested more than {MAX_NESTING} levels deep",
                             code=E_NESTING)
        self.depth += 1
        try:
            return self._expr(1)
        finally:
            self.depth -= 1

    def _expr(self, min_bp: int) -> ast.Description:
        """Operands joined by binary operators that bind at least as
        tightly as min_bp, by precedence climbing."""
        left = self._operand()
        region = _is_region_desc(left)
        while True:
            op = self.pos
            bp = _BINARY.get(self.texts[op])
            if bp is None:
                # juxtaposition has no operator: the right operand's
                # first token stands for it
                if not self.at_desc_start():
                    return left
                bp = _AND
            elif bp < min_bp:
                return left
            else:
                self.pos = op + 1
            right = self._operand() if bp == _AND else self._expr(bp + 1)
            if _is_region_desc(right) != region:
                raise ParseError(self.span(op), "cannot combine a region with a concept")
            left = _NODES[bp](left, right)

    def _operand(self) -> ast.Description:
        """A primary description and the projections after it."""
        kinds, texts = self.kinds, self.texts
        i = self.pos
        kind, text = kinds[i], texts[i]
        if kind == IDENT:
            self.pos = i + 1
            node = ast.Atom(text)
        elif text == "<" or i == self.split:
            node = self._slot()
        elif kind == VAR:
            if not self.allow_var:
                raise ParseError(self.span(i), "variables are only allowed in "
                                               "de-universalization arguments")
            self.pos = i + 1
            node = ast.Var(self.tokens.value(i))
        elif text == "{":
            self.pos = i + 1
            members = [self.expect_ident("individual")]
            while self.accept(","):
                members.append(self.expect_ident("individual"))
            self.expect_sym("}")
            if len(set(members)) != len(members):
                raise ParseError(self.span(i), "duplicate enumeration member")
            node = ast.Enum(tuple(members))
        elif text == "(":
            self.pos = i + 1
            node = self._nested_description(i, 0)
            self.expect_sym(")")
        elif text == "[":
            node = self.parse_bracket_region()
        elif text in ("<=", ">=") or self._at_percent_number():
            # A region literal in plain description position (no bare units).
            node = self._region_literal(bare_ok=False)
        elif kind == STRING:
            # A quoted name in description position is a named region;
            # bare identifiers stay concept atoms.
            self.pos = i + 1
            node = ast.Named(self.tokens.value(i))
        elif text == "::":
            # `:: R` reads R in region context, so `:: {3, Mon}` is a
            # value set where `{3, Mon}` would be an enumeration.
            self.pos = i + 1
            node = self.parse_region()
        else:
            raise self.error("description")
        i = self.pos
        while kinds[i] == DOT and kinds[i + 1] == IDENT:
            node = ast.Proj(node, texts[i + 1])
            i += 2
        self.pos = i
        return node

    def _slot(self) -> ast.Description:
        opened = self.pos
        shift = 1 if opened == self.split else 0  # a split ':<' opens at its '<'
        self.pos = opened + 1
        slot = self.expect_ident("slot name")
        self.expect_colon()
        region_ctx = slot in REGION_SLOTS
        modifier: ast.CardModifier = ast.ExactlyOne()
        filler: ast.Description | None = None

        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == IDENT and text in ("SOME", "ONLY"):
            self.pos = i + 1
            modifier = ast.Some() if text == "SOME" else ast.Only()
        elif text == "=" and self.kinds[i + 1] == NUMBER:
            self.pos = i + 1
            n = self.parse_number()
            modifier = self._int_modifier(ast.Exactly, n, i, minimum=1)
        elif text == "=" and self.kinds[i + 1] == IDENT and self.texts[i + 2] == "(":
            raise ParseError(self.span(i + 1),
                             "computed bounds are not supported; use a numeric literal",
                             code=E_NOT_SUPPORTED)
        elif text in ("<=", ">="):
            self.pos = i + 1
            num = self.parse_number()
            if (not region_ctx and self.at_desc_start()
                    and not self._at_unit_then_close()):
                cls = ast.AtMost if text == "<=" else ast.AtLeast
                modifier = self._int_modifier(cls, num, i,
                                              minimum=0 if text == "<=" else 1)
            else:
                # not a cardinality bound: read it again as a region
                self.pos = i
                filler = self._region_literal(bare_ok=region_ctx)

        if filler is None:
            if region_ctx:
                filler = self.parse_region()
            else:
                filler = self._nested_description(opened, shift)
        if not self.accept(">"):
            raise ParseError(self.tokens.span(opened, shift),
                             f"slot <{slot}: ...> is not closed")
        return ast.Slot(slot, modifier, filler)

    def _at_unit_then_close(self) -> bool:
        """True at `(Ident)` or `(Ident.)` immediately followed by `>`.

        Disambiguates the unit of a one-sided interval (`<s: >=0 (Sec)>`)
        from a parenthesized filler after a cardinality bound; a redundantly
        parenthesized single atom in that position reads as a unit, which
        the canonical renderer never emits.
        """
        texts = self.texts
        i = self.pos
        if texts[i] != "(" or self.kinds[i + 1] != IDENT:
            return False
        j = i + 2
        if texts[j] == ".":
            j += 1
        return texts[j] == ")" and texts[j + 1] == ">"

    def at_decl_dot(self) -> bool:
        """At a dot that ends a declaration: one the lexer did not read
        as a projection dot."""
        i = self.pos
        return self.texts[i] == "." and self.kinds[i] != DOT


def _is_region_desc(d: ast.Description) -> bool:
    # The parser joins only operands that agree, so every And/Or/Diff it
    # builds is a region exactly when its right operand is. The right
    # spine of a chain is short: chains nest to the left.
    while isinstance(d, (ast.And, ast.Or, ast.Diff)):
        d = d.right
    return isinstance(d, ast.REGIONS)


def _trim_unit(unit: str | None) -> str | None:
    if unit is None:
        return None
    return unit.rstrip(".")


# ---------------------------------------------------------------------------
# Public entry points.


def parse_description(text: str, allow_var: bool = False) -> ast.Description:
    """Parse a single description; raises ParseError / LexError."""
    p = _Parser(tokenize(text), allow_var=allow_var)
    d = p.parse_description()
    if p.kinds[p.pos] != EOF:
        raise ParseError(p.span(p.pos), f"unexpected trailing input: {p.text(p.pos)!r}")
    return d


def parse_model_file(text: str) -> ModelFileAst:
    """Parse a whole model file, aggregating diagnostics and keeping a
    partial AST on declaration-level errors."""
    out = ModelFileAst()
    try:
        tokens = tokenize(text)
    except LexError as e:
        out.diagnostics.append(Diagnostic(ERROR, E_LEX, e.span, e.message))
        return out
    p = _Parser(tokens)
    seen_ids: dict[str, Span] = {}
    while p.kinds[p.pos] != EOF:
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
    while p.kinds[p.pos] != EOF:
        dot = p.at_decl_dot()
        p.advance()
        if dot:
            return


def _expect_decl_dot(p: _Parser) -> None:
    if not p.at_decl_dot():
        raise p.error("'.' to end the declaration")
    p.pos += 1


def _parse_declaration(p: _Parser) -> Declaration:
    i = p.pos
    if p.kinds[i] != IDENT:
        raise p.error("declaration")
    word = p.texts[i]
    if word in ELEMENT_KINDS:
        return _parse_element(p)
    if word in OPERATOR_NAMES:
        return _parse_application(p)
    if word == "axiom":
        p.pos = i + 1
        lhs = p.parse_description()
        p.expect_sym(":<")
        rhs = p.parse_description()
        _expect_decl_dot(p)
        return AxiomDecl(lhs, rhs, p.span(i))
    if word == "disjoint":
        p.pos = i + 1
        left = p.parse_description()
        p.expect_sym(",")
        right = p.parse_description()
        _expect_decl_dot(p)
        return DisjointDecl(left, right, p.span(i))
    if word in ("dimension", "part"):
        p.pos = i + 1
        child = p.expect_ident()
        j = p.pos
        if p.expect_ident("'of'") != "of":
            raise ParseError(p.span(j), f"expected 'of', found {p.texts[j]!r}")
        parent = p.expect_ident()
        _expect_decl_dot(p)
        return HierarchyDecl(word, child, parent, p.span(i))
    if word == "factor":
        p.pos = i + 1
        name = p.expect_ident("factor name")
        j = p.pos
        direction = p.expect_ident("'strengthens' or 'weakens'")
        if direction not in ("strengthens", "weakens"):
            raise ParseError(p.span(j),
                             f"expected 'strengthens' or 'weakens', found {direction!r}")
        _expect_decl_dot(p)
        return FactorDecl(name, direction, p.span(i))
    if word == "conflict":
        p.pos = i + 1
        p.expect_sym("{")
        ids = [p.expect_ident()]
        while p.accept(","):
            ids.append(p.expect_ident())
        p.expect_sym("}")
        _expect_decl_dot(p)
        return ConflictDecl(tuple(ids), p.span(i))
    raise ParseError(p.span(i), f"unknown declaration keyword {word!r}")


def _parse_element(p: _Parser) -> ElementDecl:
    i = p.advance()
    ident = p.expect_ident("element identifier")
    p.expect_sym("=")
    body = _parse_body(p)
    _expect_decl_dot(p)
    return ElementDecl(p.texts[i], ident, body, p.span(i))


def _parse_body(p: _Parser) -> Body:
    i = p.pos
    if p.kinds[i] == STRING:
        p.pos = i + 1
        return NLBody(p.tokens.value(i))
    # Quality form: IDENT '(' subject ')' '::' region [<observed_by: D>].
    # Anything else is read again from the start as a description.
    if p.kinds[i] == IDENT and p.texts[i + 1] == "(":
        p.pos = i + 2
        try:
            subject = p.parse_description()
        except ParseError:
            subject = None
        if subject is not None and p.texts[p.pos] == ")" and p.texts[p.pos + 1] == "::":
            p.pos += 2
            region = p.parse_region()
            observer = None
            j = p.pos
            if p.texts[j] == "<" and p.texts[j + 1] == "observed_by":
                p.pos = j + 2
                p.expect_colon()
                observer = p.parse_description()
                p.expect_sym(">")
            return QualityBody(p.texts[i], subject, region, observer)
        p.pos = i
        p.split = -1
    lhs = p.parse_description()
    if p.accept(":<"):
        return SubsumptionBody(lhs, p.parse_description())
    return DescBody(lhs)


def _parse_application(p: _Parser) -> ApplicationDecl:
    i = p.advance()
    op = p.texts[i]
    p.expect_sym("(")
    inputs: list[str] = []
    args: AppArgs = None

    if op == "deuniversalize":
        j = p.pos
        if p.kinds[j] != VAR:
            raise ParseError(p.span(j), "deuniversalize expects a ?variable first")
        p.pos = j + 1
        var = p.tokens.value(j)
        p.expect_sym(",")
        inputs.append(p.expect_ident("input element"))
        p.expect_sym(",")
        p.allow_var = True
        try:
            pattern = p.parse_description()
        finally:
            p.allow_var = False
        p.expect_sym(",")
        pct = p.parse_pct()
        args = DeUniversalizeSyntax(var, pattern, pct)
    elif op == "observe":
        inputs.append(p.expect_ident("input element"))
        p.expect_sym(",")
        args = ObserveSyntax(p.parse_description())
    elif op == "focus":
        inputs.append(p.expect_ident("input element"))
        p.expect_sym(",")
        p.expect_sym("{")
        targets = [p.expect_ident("focus target")]
        while p.accept(","):
            targets.append(p.expect_ident("focus target"))
        p.expect_sym("}")
        args = FocusTargets(tuple(targets))
    elif op in ("scaleup", "scaledown"):
        inputs.append(p.expect_ident("input element"))
        p.expect_sym(",")
        if p.accept("("):
            f_lo = p.parse_number()
            p.expect_sym(",")
            f_hi = p.parse_number()
            p.expect_sym(")")
            args = ScaleQuantitative(f_lo, f_hi)
        else:
            args = ScaleQualitative(p.expect_ident("scale factor"))
    else:  # reduce / interpret / operationalize / resolve
        inputs.append(p.expect_ident("input element"))
        while p.accept(","):
            inputs.append(p.expect_ident("input element"))

    p.expect_sym(")")
    p.expect_sym("[")
    j = p.pos
    tag = p.expect_ident("strength tag")
    if tag not in STRENGTH_TAGS:
        raise ParseError(p.span(j), f"expected strength tag s|w|e, found {tag!r}")
    p.expect_sym("]")
    p.expect_sym("=")
    p.expect_sym("{")
    outputs: list[str] = []
    if p.kinds[p.pos] == IDENT:
        outputs.append(p.expect_ident())
        while p.accept(","):
            outputs.append(p.expect_ident("output element"))
    p.expect_sym("}")
    _expect_decl_dot(p)
    return ApplicationDecl(op, tuple(inputs), args, tag, tuple(outputs), p.span(i))
