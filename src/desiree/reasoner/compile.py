"""Compilation of descriptions into the bounded search's programs.

A bounded interpretation lives over a universe of k individuals (indices
0..k-1) followed by grid points (indices k..k+gamma-1). A description
evaluates to a mask with one bit per universe element. Its program is a
tuple of postfix instructions (op, a, b, c) in the form the kernel runs
(kernels module docstring), with every symbol numbered by the kernel's
fields (kernels.field_bases):
  PUSH_ATOM  the field of an atom or a named region
  PUSH_FIXED the full mask for Anything, 0 for Nothing, the grid points
             inside a concrete region
  PUSH_ENUM  the tuple of the members' fields
  SLOT_COUNT, SLOT_ONLY, PROJ  the field of the slot's first row
"""
from __future__ import annotations

from desiree.reasoner.interp import GridPoint
from desiree.reasoner.kernels import (
    OP_AND,
    OP_DIFF,
    OP_OR,
    OP_PROJ,
    OP_PUSH_ATOM,
    OP_PUSH_ENUM,
    OP_PUSH_FIXED,
    OP_SLOT_COUNT,
    OP_SLOT_ONLY,
    field_bases,
)
from desiree.reasoner.semantics import point_in_region
from desiree.records import Record
from desiree.syntax import ast


class SymbolTable(Record):
    """Index assignment for every symbol a bounded search will vary."""

    __slots__ = ("k", "grid", "atoms", "slots", "named", "inds")

    def __init__(self, k: int, grid: tuple[GridPoint, ...],
                 atoms: dict[str, int], slots: dict[str, int],
                 named: dict[str, int], inds: dict[str, int]):
        self.k = k
        self.grid = grid
        self.atoms = atoms
        self.slots = slots
        self.named = named
        self.inds = inds

    @property
    def gamma(self) -> int:
        return len(self.grid)


class CompileError(Exception):
    pass


def _fixed_mask(r: ast.RegionExpr, table: SymbolTable) -> int:
    mask = 0
    for i, g in enumerate(table.grid):
        if point_in_region(r, g):
            mask |= 1 << (table.k + i)
    return mask


def _leaf(d, table: SymbolTable, atom0: int, ind0: int, full: int):
    """The push instruction of an atom, a region or an enum."""
    if isinstance(d, ast.Atom):
        if d.name == "Anything":
            return (OP_PUSH_FIXED, full, 0, 0)
        if d.name == "Nothing":
            return (OP_PUSH_FIXED, 0, 0, 0)
        return (OP_PUSH_ATOM, atom0 + table.atoms[d.name], 0, 0)
    if isinstance(d, ast.Region):
        if isinstance(d.expr, ast.Named):
            return (OP_PUSH_ATOM, table.named[d.expr.name], 0, 0)
        return (OP_PUSH_FIXED, _fixed_mask(d.expr, table), 0, 0)
    if isinstance(d, ast.Enum):
        fields = tuple(ind0 + table.inds[name] for name in d.members)
        return (OP_PUSH_ENUM, fields, 0, 0)
    if isinstance(d, ast.Var):
        raise CompileError("variables have no extension")
    raise CompileError(f"cannot compile {d!r}")


# The instruction of each binary node, shared by every program.
_BINARY = {ast.And: (OP_AND, 0, 0, 0), ast.Or: (OP_OR, 0, 0, 0),
           ast.Diff: (OP_DIFF, 0, 0, 0)}


def assemble(
    descriptions: list[ast.Description],
    table: SymbolTable,
) -> tuple[tuple[tuple, ...], ...]:
    """One program per description, over the fields of table's search."""
    k = table.k
    slot0, atom0, ind0 = field_bases(k, len(table.named), len(table.slots),
                                     len(table.atoms))
    full = (1 << (k + table.gamma)) - 1
    programs = []
    for desc in descriptions:
        out = []
        todo = [desc]  # nodes still to emit, and the instructions after them
        while todo:
            d = todo.pop()
            if isinstance(d, tuple):
                out.append(d)
            elif isinstance(d, (ast.Slot, ast.Proj)):
                first = slot0 + table.slots[d.slot] * k
                if isinstance(d, ast.Proj):
                    todo += [(OP_PROJ, first, 0, 0), d.base]
                elif isinstance(d.modifier, ast.Only):
                    todo += [(OP_SLOT_ONLY, first, 0, 0), d.filler]
                else:
                    lo, hi = ast.modifier_bounds(d.modifier)
                    hi = -1 if hi is None else hi
                    todo += [(OP_SLOT_COUNT, first, lo, hi), d.filler]
            elif type(d) in _BINARY:
                todo += [_BINARY[type(d)], d.right, d.left]
            else:
                out.append(_leaf(d, table, atom0, ind0, full))
        programs.append(tuple(out))
    return tuple(programs)
