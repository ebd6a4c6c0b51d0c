"""Tokenizer for the model language.

`tokenize` makes one `finditer` pass of a master regex, `_TOKEN_RE`.
Each match swallows the whitespace and `//` comments before a token,
then matches the token itself in one named group per kind: identifiers,
projection dots, symbols (longest first), numbers, strings,
`?`-variables, the end of the text, and the malformed cases. The name
of the group that matched (`Match.lastgroup`) is the token kind. The
pass builds no object per token: it fills three flat parallel lists,
`Tokens.kinds`, `Tokens.texts` and `Tokens.offsets` (the token's start
in the text). The parser walks those lists by index.

Everything else is read from the text only when it is asked for: a
token's 1-based line and column come from its offset, a NUMBER's value
is `Fraction(text)` and a STRING's value is its unescaped body.

A dot with a non-blank character on both sides is a DOT token, any other
dot a SYM. That is how the parser tells projection dots (`F1.object`)
from declaration terminators (`... .`).

Whitespace is exactly space, tab, carriage return and newline. An
identifier starts with a character for which `str.isalpha()` holds, or
`_`, and goes on with `str.isalnum()` characters or `_` (regex `\\w` is
exactly that). Regex `[^\\W\\d]` also takes numeric characters that are
neither letters nor decimal digits, such as `½` and `²`, so an
identifier that starts outside ASCII is checked, and one that starts
with such a character is an unexpected character. A number starts with
a Unicode decimal digit (category Nd, regex `\\d`: the digits `Fraction`
reads); other digits such as `²` are unexpected characters.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

from desiree.diagnostics import Span

# Token kinds.
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
VAR = "VAR"
DOT = "DOT"  # a dot glued to non-blanks on both sides, as in F1.object
SYM = "SYM"  # punctuation; the text field holds the symbol itself
EOF = "EOF"

# Groups up to EOF are tokens as matched; the ones after it are checked.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|//[^\n]*)*            # whitespace and comments before
    (?:
      (?P<IDENT>[A-Za-z_]\w*)
    | (?P<DOT>(?<=[^ \t\r\n])\.(?=[^ \t\r\n]))
    | (?P<SYM>::|:<|<=|>=|[<>:{}()\[\],.|&\-=%/])
    | (?P<NUMBER>\d+(?:\.\d+)?)
    | (?P<STRING>"(?:[^"\\\n]|\\.)*")
    | (?P<EOF>\Z)
    | (?P<WORD>[^\W\d]\w*)              # a non-ASCII start, or `½x`
    | (?P<VAR>\?(?:[^\W\d]\w*)?)        # also a bare `?`
    | (?P<UNTERMINATED>")
    | (?P<BAD>.)
    )
""", re.VERBOSE)
_CHECKED = _TOKEN_RE.groupindex["EOF"]

_ESCAPE_RE = re.compile(r'\\(["\\])')
_NEWLINE_RE = re.compile(r"\n")


class LexError(Exception):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class Tokens:
    """A lexed text: flat parallel lists of kinds, texts and offsets,
    ending with one EOF token.

    `span` and `value` read one token's other fields from the text; `len`
    counts the tokens.
    """

    def __init__(self, source: str, kinds: list[str], texts: list[str],
                 offsets: list[int]):
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self._line_starts: list[int] | None = None

    def span(self, i: int, shift: int = 0) -> Span:
        """Token i's span, or that of the character `shift` places on."""
        return self.position(self.offsets[i] + shift)

    def position(self, offset: int) -> Span:
        """The line and column of the character at `offset` in the text."""
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0] + [
                m.end() for m in _NEWLINE_RE.finditer(self.source)]
        line = bisect_right(starts, offset)
        return Span(line, offset - starts[line - 1] + 1)

    def value(self, i: int) -> object:
        kind, text = self.kinds[i], self.texts[i]
        if kind == NUMBER:
            # Fraction(str) runs a regex; an integer literal goes through
            # int() at a third of the cost, to the same value.
            return Fraction(text) if "." in text else Fraction(int(text))
        if kind == STRING:
            body = text[1:-1]
            return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body
        if kind == VAR:
            return text[1:]
        return None

    def __len__(self) -> int:
        return len(self.kinds)



def tokenize(text: str) -> Tokens:
    """Tokenize `text`, raising LexError on malformed input."""
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    tokens = Tokens(text, kinds, texts, offsets)
    add_kind, add_text, add_offset = kinds.append, texts.append, offsets.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        add_kind(group if m.lastindex <= _CHECKED
                 else _checked(tokens, m, group))
        add_text(m[group])
        add_offset(m.start(group))
        if group == EOF:  # after blanks at the end, an empty match follows
            break
    return tokens


def _checked(tokens: Tokens, m: re.Match, group: str) -> str:
    """The kind of a match past the EOF group, or the LexError it is."""
    lit = m[group]
    span = tokens.position(m.start(group))
    if group == "WORD":
        if lit[0].isalpha():
            return IDENT
        raise LexError(span, f"unexpected character {lit[0]!r}")
    if group == VAR:
        if len(lit) == 1 or not (lit[1].isalpha() or lit[1] == "_"):
            raise LexError(span, "expected identifier after '?'")
        return VAR
    if group == "UNTERMINATED":
        raise LexError(span, "unterminated string")
    raise LexError(span, f"unexpected character {lit!r}")
