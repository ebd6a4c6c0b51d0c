"""Bit-mask compilation of descriptions for the bounded model search.

A bounded interpretation lives over a universe of k individuals (indices
0..k-1) followed by grid points (indices k..k+gamma-1). A description
evaluates to a mask with one bit per universe element. Programs are
postfix instruction arrays so the kernel can run them without recursion.

Instruction layout: four int64 fields (op, a, b, c).
  PUSH_ATOM  a=atom index
  PUSH_FIXED a=precomputed mask (concrete region over the grid)
  PUSH_NAMED a=named-region index
  PUSH_ENUM  a=offset into the member table, b=member count
  PUSH_ALL / PUSH_NONE
  AND / OR / DIFF pop two masks
  SLOT_COUNT a=slot index, b=min count, c=max count (-1 for unbounded)
  SLOT_ONLY  a=slot index (pops the filler mask)
  PROJ       a=slot index (pops the base mask)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from desiree.reasoner.interp import GridPoint
from desiree.reasoner.semantics import point_in_region
from desiree.syntax import ast

OP_PUSH_ATOM = 0
OP_PUSH_FIXED = 1
OP_PUSH_NAMED = 2
OP_PUSH_ENUM = 3
OP_PUSH_ALL = 4
OP_PUSH_NONE = 5
OP_AND = 6
OP_OR = 7
OP_DIFF = 8
OP_SLOT_COUNT = 9
OP_SLOT_ONLY = 10
OP_PROJ = 11

MAX_STACK = 64


@dataclass
class SymbolTable:
    """Index assignment for every symbol a bounded search will vary."""

    k: int
    grid: tuple[GridPoint, ...]
    atoms: dict[str, int]
    slots: dict[str, int]
    named: dict[str, int]
    inds: dict[str, int]

    @property
    def gamma(self) -> int:
        return len(self.grid)

    @property
    def universe_size(self) -> int:
        return self.k + self.gamma


class CompileError(Exception):
    pass


def _fixed_mask(r: ast.RegionExpr, table: SymbolTable) -> int:
    mask = 0
    for i, g in enumerate(table.grid):
        if point_in_region(r, g):
            mask |= 1 << (table.k + i)
    return mask


def compile_desc(
    d: ast.Description,
    table: SymbolTable,
    enum_table: list[int],
) -> list[tuple[int, int, int, int]]:
    """Postfix instructions for one description.

    Enum member indices are appended to the shared enum_table; the
    instruction stores (offset, count) into it.
    """
    out: list[tuple[int, int, int, int]] = []
    _emit(d, table, enum_table, out)
    if _depth(out) > MAX_STACK:
        raise CompileError("description too deep for the evaluation stack")
    return out


def _emit(d, table, enum_table, out) -> None:
    if isinstance(d, ast.Atom):
        if d.name == "Anything":
            out.append((OP_PUSH_ALL, 0, 0, 0))
        elif d.name == "Nothing":
            out.append((OP_PUSH_NONE, 0, 0, 0))
        else:
            out.append((OP_PUSH_ATOM, table.atoms[d.name], 0, 0))
    elif isinstance(d, ast.Region):
        if isinstance(d.expr, ast.Named):
            out.append((OP_PUSH_NAMED, table.named[d.expr.name], 0, 0))
        else:
            out.append((OP_PUSH_FIXED, _fixed_mask(d.expr, table), 0, 0))
    elif isinstance(d, ast.Enum):
        offset = len(enum_table)
        for name in d.members:
            enum_table.append(table.inds[name])
        out.append((OP_PUSH_ENUM, offset, len(d.members), 0))
    elif isinstance(d, ast.Slot):
        _emit(d.filler, table, enum_table, out)
        s = table.slots[d.slot]
        if isinstance(d.modifier, ast.Only):
            out.append((OP_SLOT_ONLY, s, 0, 0))
        else:
            lo, hi = ast.modifier_bounds(d.modifier)
            out.append((OP_SLOT_COUNT, s, lo, -1 if hi is None else hi))
    elif isinstance(d, ast.Proj):
        _emit(d.base, table, enum_table, out)
        out.append((OP_PROJ, table.slots[d.slot], 0, 0))
    elif isinstance(d, ast.And):
        _emit(d.left, table, enum_table, out)
        _emit(d.right, table, enum_table, out)
        out.append((OP_AND, 0, 0, 0))
    elif isinstance(d, ast.Or):
        _emit(d.left, table, enum_table, out)
        _emit(d.right, table, enum_table, out)
        out.append((OP_OR, 0, 0, 0))
    elif isinstance(d, ast.Diff):
        _emit(d.left, table, enum_table, out)
        _emit(d.right, table, enum_table, out)
        out.append((OP_DIFF, 0, 0, 0))
    elif isinstance(d, ast.Var):
        raise CompileError("variables have no extension")
    else:
        raise CompileError(f"cannot compile {d!r}")


def _depth(instrs) -> int:
    depth = peak = 0
    for op, _a, _b, _c in instrs:
        if op in (OP_AND, OP_OR, OP_DIFF):
            depth -= 1
        elif op in (OP_SLOT_COUNT, OP_SLOT_ONLY, OP_PROJ):
            pass  # pop one push one
        else:
            depth += 1
        peak = max(peak, depth)
    return peak


def assemble(
    descriptions: list[ast.Description],
    table: SymbolTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compile several descriptions into one flat program block.

    Returns (progs, bounds, enum_table): progs is (n, 4) int64, bounds
    row i is the [start, end) instruction range of description i.
    """
    enum_table: list[int] = []
    rows: list[tuple[int, int, int, int]] = []
    bounds = []
    for d in descriptions:
        start = len(rows)
        rows.extend(compile_desc(d, table, enum_table))
        bounds.append((start, len(rows)))
    progs = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    return (
        progs,
        np.array(bounds, dtype=np.int64).reshape(len(bounds), 2),
        np.array(enum_table, dtype=np.int64),
    )
