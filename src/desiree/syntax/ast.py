"""AST node types for descriptions and their region expressions.

Every node is an immutable `records.Frozen` record. Its fields are the
public names in its `__slots__`, and assigning to one raises
AttributeError. Two nodes are equal when they are of the same class and
their fields are equal, so `Atom("x") != Var("x")` and
`And(a, b) != Or(a, b)`. A node hashes as the tuple of its fields; each
`__init__` computes that hash once, from its children's cached hashes,
and keeps it in the `_hash` slot. Neither hashing nor comparing a long
chain of And, Or or Diff nodes recurses down it. The parser round-trip
property and the reasoner's memo tables rely on this structural
equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from desiree.records import Frozen, init_field

# ---------------------------------------------------------------------------
# Cardinality modifiers for slot-description pairs.


class ExactlyOne(Frozen):
    """Default modifier: exactly one filler in the described set."""

    __slots__ = ()


class AtMost(Frozen):
    __slots__ = ("n", "_hash")  # >= 0

    def __init__(self, n: int):
        init_field(self, "n", n)
        init_field(self, "_hash", hash((n,)))


class AtLeast(Frozen):
    __slots__ = ("n", "_hash")  # >= 1

    def __init__(self, n: int):
        init_field(self, "n", n)
        init_field(self, "_hash", hash((n,)))


class Exactly(Frozen):
    __slots__ = ("n", "_hash")  # >= 1

    def __init__(self, n: int):
        init_field(self, "n", n)
        init_field(self, "_hash", hash((n,)))


class Some(Frozen):
    """At least one filler."""

    __slots__ = ()


class Only(Frozen):
    """Every filler lies in the described set."""

    __slots__ = ()


CardModifier = Union[ExactlyOne, AtMost, AtLeast, Exactly, Some, Only]


# ---------------------------------------------------------------------------
# Region expressions.


class Named(Frozen):
    """A vague region referred to by name, e.g. Fast or "Nearly Fast"."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        init_field(self, "name", name)
        init_field(self, "_hash", hash((name,)))


class Interval(Frozen):
    """Closed numeric interval [lo, hi]; hi None means unbounded above.

    The unit is an opaque label; a trailing period is trimmed at parse time
    so "Sec." and "Sec" denote the same unit.
    """

    __slots__ = ("lo", "hi", "unit", "_hash")

    def __init__(self, lo: Fraction, hi: Fraction | None,
                 unit: str | None = None):
        init_field(self, "lo", lo)
        init_field(self, "hi", hi)
        init_field(self, "unit", unit)
        init_field(self, "_hash", hash((lo, hi, unit)))


class ValueSet(Frozen):
    """A finite set of literal values (identifiers or numbers-as-text)."""

    __slots__ = ("values", "_hash")

    def __init__(self, values: tuple[str, ...]):
        init_field(self, "values", values)
        init_field(self, "_hash", hash((values,)))


class Percent(Frozen):
    """A percentage interval with bounds in [0, 1]."""

    __slots__ = ("lo", "hi", "_hash")

    def __init__(self, lo: Fraction, hi: Fraction):
        init_field(self, "lo", lo)
        init_field(self, "hi", hi)
        init_field(self, "_hash", hash((lo, hi)))


RegionExpr = Union[Named, Interval, ValueSet, Percent]


# ---------------------------------------------------------------------------
# Descriptions.


class Atom(Frozen):
    """A concept name. `Nothing` and `Anything` are reserved."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        init_field(self, "name", name)
        init_field(self, "_hash", hash((name,)))


class Slot(Frozen):
    """A slot-description pair `<s: D>` with a cardinality modifier."""

    __slots__ = ("slot", "modifier", "filler", "_hash")

    def __init__(self, slot: str, modifier: CardModifier,
                 filler: Description):
        init_field(self, "slot", slot)
        init_field(self, "modifier", modifier)
        init_field(self, "filler", filler)
        init_field(self, "_hash", hash((slot, modifier, filler)))


class Enum(Frozen):
    """An enumeration of individuals, e.g. {Mon, Wed, Fri}."""

    __slots__ = ("members", "_hash")

    def __init__(self, members: tuple[str, ...]):
        init_field(self, "members", members)
        init_field(self, "_hash", hash((members,)))


class Proj(Frozen):
    """Inverse-slot projection `D.s`: the s-fillers of members of D."""

    __slots__ = ("base", "slot", "_hash")

    def __init__(self, base: Description, slot: str):
        init_field(self, "base", base)
        init_field(self, "slot", slot)
        init_field(self, "_hash", hash((base, slot)))


class _Chain(Frozen):
    """The binary operators And, Or and Diff, which the parser nests to
    the left without bound (`A0 & A1 & … A2999`). So equality walks the
    left spine in a loop, and rejects first on the cached hashes."""

    __slots__ = ()

    def __init__(self, left: Description, right: Description):
        init_field(self, "left", left)
        init_field(self, "right", right)
        init_field(self, "_hash", hash((left, right)))

    def __eq__(self, other):
        a, b = self, other
        while a.__class__ is b.__class__:
            if a is b:
                return True
            if a._hash != b._hash or a.right != b.right:
                return False
            a, b = a.left, b.left
            if not isinstance(a, _Chain):
                return a == b
        return NotImplemented if a is self else False


class And(_Chain):
    __slots__ = ("left", "right", "_hash")


class Or(_Chain):
    __slots__ = ("left", "right", "_hash")


class Diff(_Chain):
    __slots__ = ("left", "right", "_hash")


class Region(Frozen):
    """A region expression used in description position."""

    __slots__ = ("expr", "_hash")

    def __init__(self, expr: RegionExpr):
        init_field(self, "expr", expr)
        init_field(self, "_hash", hash((expr,)))


class Var(Frozen):
    """A ?X variable; legal only inside de-universalization arguments."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        init_field(self, "name", name)
        init_field(self, "_hash", hash((name,)))


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


def left_spine(d: Description) -> tuple[Description, list[Description]]:
    """A chain of And, Or and Diff nodes nested to the left, as its
    innermost left operand and the nodes above it, innermost first: a
    loop over them meets the operands left to right."""
    nodes = []
    while isinstance(d, _Chain):
        nodes.append(d)
        d = d.left
    nodes.reverse()
    return d, nodes


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
