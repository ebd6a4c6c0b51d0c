"""AST node types for descriptions and their region expressions.

All nodes are immutable and compare structurally, which is what the parser
round-trip property and the reasoner's fast equality paths rely on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

# ---------------------------------------------------------------------------
# Cardinality modifiers for slot-description pairs.


@dataclass(frozen=True)
class ExactlyOne:
    """Default modifier: exactly one filler in the described set."""


@dataclass(frozen=True)
class AtMost:
    n: int  # >= 0


@dataclass(frozen=True)
class AtLeast:
    n: int  # >= 1


@dataclass(frozen=True)
class Exactly:
    n: int  # >= 1


@dataclass(frozen=True)
class Some:
    """At least one filler."""


@dataclass(frozen=True)
class Only:
    """Every filler lies in the described set."""


CardModifier = Union[ExactlyOne, AtMost, AtLeast, Exactly, Some, Only]


# ---------------------------------------------------------------------------
# Region expressions.


@dataclass(frozen=True)
class Named:
    """A vague region referred to by name, e.g. Fast or "Nearly Fast"."""

    name: str


@dataclass(frozen=True)
class Interval:
    """Closed numeric interval [lo, hi]; hi None means unbounded above.

    The unit is an opaque label; a trailing period is trimmed at parse time
    so "Sec." and "Sec" denote the same unit.
    """

    lo: Fraction
    hi: Fraction | None
    unit: str | None = None


@dataclass(frozen=True)
class ValueSet:
    """A finite set of literal values (identifiers or numbers-as-text)."""

    values: tuple[str, ...]


@dataclass(frozen=True)
class Percent:
    """A percentage interval with bounds in [0, 1]."""

    lo: Fraction
    hi: Fraction


RegionExpr = Union[Named, Interval, ValueSet, Percent]


# ---------------------------------------------------------------------------
# Descriptions.


@dataclass(frozen=True)
class Atom:
    """A concept name. `Nothing` and `Anything` are reserved."""

    name: str


@dataclass(frozen=True)
class Slot:
    """A slot-description pair `<s: D>` with a cardinality modifier."""

    slot: str
    modifier: CardModifier
    filler: "Description"


@dataclass(frozen=True)
class Enum:
    """An enumeration of individuals, e.g. {Mon, Wed, Fri}."""

    members: tuple[str, ...]


@dataclass(frozen=True)
class Proj:
    """Inverse-slot projection `D.s`: the s-fillers of members of D."""

    base: "Description"
    slot: str


@dataclass(frozen=True)
class And:
    left: "Description"
    right: "Description"


@dataclass(frozen=True)
class Or:
    left: "Description"
    right: "Description"


@dataclass(frozen=True)
class Diff:
    left: "Description"
    right: "Description"


@dataclass(frozen=True)
class Region:
    """A region expression used in description position."""

    expr: RegionExpr


@dataclass(frozen=True)
class Var:
    """A ?X variable; legal only inside de-universalization arguments."""

    name: str


Description = Union[Atom, Slot, Enum, Proj, And, Or, Diff, Region, Var]

NOTHING = Atom("Nothing")
ANYTHING = Atom("Anything")


def modifier_bounds(mod: CardModifier) -> tuple[int, int | None]:
    """Map a cardinality modifier to inclusive (min, max); max None = unbounded."""
    if isinstance(mod, ExactlyOne):
        return (1, 1)
    if isinstance(mod, AtMost):
        return (0, mod.n)
    if isinstance(mod, AtLeast):
        return (mod.n, None)
    if isinstance(mod, Exactly):
        return (mod.n, mod.n)
    if isinstance(mod, Some):
        return (1, None)
    raise ValueError(f"no count bounds for modifier {mod!r}")


def and_parts(d: Description) -> list[Description]:
    """Flatten nested And into a conjunct list (left to right)."""
    out = []
    stack = [d]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def walk(d: Description):
    """Yield every node of a description, preorder, left to right."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Slot):
            stack.append(node.filler)
        elif isinstance(node, Proj):
            stack.append(node.base)
        elif isinstance(node, (And, Or, Diff)):
            stack.append(node.right)
            stack.append(node.left)
