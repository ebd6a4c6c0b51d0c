"""Diagnostics shared by the parser, loader, checkers, and CLI.

Codes are stable strings; the CLI sorts output by (file order, code) so
identical inputs always print identical diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

# Severity levels.
ERROR = "Error"
WARNING = "Warning"
INFO = "Info"

# Stable diagnostic codes. Never renumber.
E_LEX = "E-LEX-001"          # lexical error
E_PARSE = "E-PARSE-001"      # syntax error
E_NOT_SUPPORTED = "E-PARSE-002"  # recognized but unsupported construct (MathExpr bound)
E_NESTING = "E-PARSE-003"    # description nested deeper than the parser's limit
E_DUP = "E-DUP-001"          # duplicate identifier
E_KIND = "E-KIND-001"        # kind/body incompatibility
E_REGION_KIND = "E-KIND-002"  # region kind not allowed for the element kind
E_RESERVED_SLOT = "E-KIND-003"  # reserved slot name used in a description
E_REF = "E-REF-001"          # dangling reference
E_SIG_IN = "E-SIG-001"       # input arity violation
E_SIG_OUT = "E-SIG-002"      # output arity violation
E_SIG_KIND = "E-SIG-003"     # input/output kind violation
E_SIG_CATEGORY = "E-SIG-004"  # goal/specification category violation
E_SIG_DROPPED = "E-SIG-005"  # dropped element used as input
E_SIG_ARGS = "E-SIG-006"     # malformed or out-of-range operator arguments
E_STR_ADMIT = "E-STR-001"    # declared strength tag inadmissible for the operator
E_STR_FALSE = "E-STR-002"    # declared strength tag contradicted by the reasoner
W_UNKNOWN = "W-UNK-001"      # strength claim could not be verified or refuted
E_CONS = "E-CONS-001"        # consistency clash
E_QUERY = "E-QRY-001"        # unknown relation in a query
W_DNF = "W-DNF-001"          # normal form disjunct cap exceeded
E_IO = "E-IO-001"            # unreadable file / usage problem


class Span(NamedTuple):
    """1-based source position of a token or construct.

    A tuple, so it unpacks as (line, col) like the plain pairs the lexer
    hands to its tokens (see `syntax.lexer.Token`).
    """

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass
class Diagnostic:
    severity: str
    code: str
    span: Span | None
    message: str
    related: tuple[str, ...] = field(default_factory=tuple)

    def format(self) -> str:
        where = str(self.span) if self.span else "-"
        rel = f" [{', '.join(self.related)}]" if self.related else ""
        return f"{self.severity.lower()}: {self.code} {where} {self.message}{rel}"


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diags)
