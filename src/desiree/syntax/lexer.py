"""Tokenizer for the model language.

Tokens carry 1-based source spans. `//` comments run to end of line.
A dot token records whether it was glued to its neighbours, which is how
the parser tells projection dots (`F1.object`) from declaration
terminators (`... .`).

The scan is one compiled regex, `_TOKEN_RE`, with one named group per
kind of match, tried in order at each position: newline runs, other
whitespace and comments, identifiers, symbols (longest first), numbers,
strings, an unterminated string's quote, `?`-variables, and a
one-character catch-all. The name of the group that matched
(`Match.lastgroup`) is the token kind; a catch-all match raises the
LexError the grammar calls for at that place.

Only newline runs move the line count: strings and comments cannot hold
a newline, so a token's column is its offset from the start of its
line, plus one.

Whitespace is exactly space, tab, carriage return and newline. An
identifier starts with a character for which `str.isalpha()` holds, or
`_`, and goes on with `str.isalnum()` characters or `_` (regex `\\w` is
exactly that). Regex `[^\\W\\d]` also takes numeric characters that are
neither letters nor decimal digits, such as `½` and `²`, so an
identifier match that starts with one is an unexpected character. A
number starts with a Unicode decimal digit (category Nd, regex `\\d`: the
digits `Fraction` reads); other digits such as `²` are unexpected
characters.
"""
from __future__ import annotations

import re
from fractions import Fraction

from desiree.diagnostics import Span

# Token kinds.
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
VAR = "VAR"
SYM = "SYM"  # punctuation; the text field holds the symbol itself
EOF = "EOF"

_TOKEN_RE = re.compile(r"""
    (?P<NEWLINE>\n+)
  | (?P<SPACE>(?:[ \t\r]|//[^\n]*)+)      # whitespace and comments
  | (?P<IDENT>[^\W\d]\w*)                 # also `½x`: see tokenize
  | (?P<SYM>::|:<|<=|>=|[<>:{}()\[\],.|&\-=%/])
  | (?P<NUMBER>\d+(?:\.\d+)?)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<UNTERMINATED>")
  | (?P<VAR>\?(?:[^\W\d]\w*)?)           # also a bare `?`: see tokenize
  | (?P<BAD>.)
""", re.VERBOSE)

_ESCAPE_RE = re.compile(r'\\(["\\])')
_UNGLUED = frozenset(("", " ", "\t", "\r", "\n"))


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class Token:
    """One token: kind, text, span, value (a Fraction for NUMBER, the
    unescaped str for STRING) and the two glue flags.

    `span` may be given as a Span or any (line, col) pair. A token keeps
    the two ints and builds its Span when `span` is read; the parser
    reads about one span in seven tokens. A Span per token doubled the
    objects the cyclic garbage collector tracks while a model is lexed,
    and the collector's pauses came to nearly half of the lexer's time.
    """

    __slots__ = ("kind", "text", "_line", "_col", "value", "glued_left",
                 "glued_right")

    def __init__(self, kind: str, text: str, span: tuple[int, int],
                 value: object = None, glued_left: bool = False,
                 glued_right: bool = False):
        self.kind = kind
        self.text = text
        self._line, self._col = span
        self.value = value
        self.glued_left = glued_left
        self.glued_right = glued_right

    @property
    def span(self) -> Span:
        return Span(self._line, self._col)

    def _astuple(self) -> tuple:
        return (self.kind, self.text, self._line, self._col, self.value,
                self.glued_left, self.glued_right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, text={self.text!r}, "
                f"span={self.span!r}, value={self.value!r}, "
                f"glued_left={self.glued_left!r}, "
                f"glued_right={self.glued_right!r})")

    def is_sym(self, s: str) -> bool:
        return self.kind == SYM and self.text == s


def tokenize(text: str) -> list[Token]:
    """Tokenize `text`, raising LexError on malformed input."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        start = m.start()
        lit = m[0]
        if kind == "NEWLINE":
            line += len(lit)
            line_start = start + len(lit)
            continue
        col = start - line_start + 1
        if kind == IDENT:
            if not (lit[0].isalpha() or lit[0] == "_"):
                raise LexError(Span(line, col),
                               f"unexpected character {lit[0]!r}")
            append(Token(IDENT, lit, (line, col)))
        elif kind == SYM:
            end = start + len(lit)
            append(Token(SYM, lit, (line, col), None,
                         text[start - 1:start] not in _UNGLUED,
                         text[end:end + 1] not in _UNGLUED))
        elif kind == NUMBER:
            append(Token(NUMBER, lit, (line, col), Fraction(lit)))
        elif kind == STRING:
            body = lit[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(r"\1", body)
            append(Token(STRING, lit, (line, col), body))
        elif kind == VAR:
            if len(lit) == 1 or not (lit[1].isalpha() or lit[1] == "_"):
                raise LexError(Span(line, col),
                               "expected identifier after '?'")
            append(Token(VAR, lit, (line, col), lit[1:]))
        elif kind == "UNTERMINATED":
            raise LexError(Span(line, col), "unterminated string")
        else:
            raise LexError(Span(line, col),
                           f"unexpected character {lit!r}")
    append(Token(EOF, "", (line, len(text) - line_start + 1)))
    return tokens
