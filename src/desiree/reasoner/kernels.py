"""Interpretation-enumeration kernels: a jit path and a numpy path.

Both walk interpretation indices in ascending order and return the
smallest index whose interpretation satisfies every axiom yet puts some
element in d1 outside d2 (-1 when the range is clean). Setting
DESIREE_PURE_NUMPY=1 forces the vectorized numpy path; otherwise the
numba path is used when numba imports.

Index layout, least significant first: individual assignments (radix k),
named-region bits (gamma per region), slot bits (k+gamma per source, per
slot), atom bits (k per atom). The decoder in oracle.py mirrors this.

The numpy path scans chunks of consecutive indices, each index read as
hi * lanes + lo. The low part is a whole number of low digits: radix-k
individual digits first, then stream bits once every individual digit
is in, at most MAX_LANES indices in all. Its fields are decoded once
per search. Within a chunk, every field wholly above the split is a
scalar and at most one field straddles it, so a program over symbols
that the chunk shares costs scalar operations, and an axiom that fails
on such symbols rejects the whole chunk at once.
"""
from __future__ import annotations

import os

import numpy as np

from desiree.reasoner.compile import (
    OP_AND,
    OP_DIFF,
    OP_OR,
    OP_PROJ,
    OP_PUSH_ALL,
    OP_PUSH_ATOM,
    OP_PUSH_ENUM,
    OP_PUSH_FIXED,
    OP_PUSH_NAMED,
    OP_PUSH_NONE,
    OP_SLOT_COUNT,
    OP_SLOT_ONLY,
)

# Indices per numpy chunk. An early witness wastes less of a small chunk
# and a chunk's arrays (64 KiB each) stay in cache; much below 2^12 the
# per-chunk work in Python dominates instead. Of 2^11 to 2^15, 2^13 ran
# the searches of perfbench's three workloads fastest.
MAX_LANES = 1 << 13

POPCNT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is normally installed
    HAVE_NUMBA = False


def backend_name() -> str:
    if os.environ.get("DESIREE_PURE_NUMPY") == "1" or not HAVE_NUMBA:
        return "numpy"
    return "numba"


def find_violation(
    total: int,
    k: int,
    gamma: int,
    n_atoms: int,
    n_slots: int,
    n_named: int,
    n_inds: int,
    n_axioms: int,
    progs: np.ndarray,
    bounds: np.ndarray,
    enum_table: np.ndarray,
) -> int:
    args = (k, gamma, n_atoms, n_slots, n_named, n_inds, n_axioms,
            progs, bounds, enum_table)
    if backend_name() == "numba":
        return int(_search_jit(0, total, *args, POPCNT))
    return _search_numpy(total, *args)


# ---------------------------------------------------------------- numpy

class _Chunks:
    """The split of every index into hi * lanes + lo, lo < lanes.

    fields(hi) gives the symbols of the chunk hi: each one is a
    lanes-long int64 array when it varies with lo and a numpy int64
    scalar when the whole chunk shares it. The arrays that depend on lo
    alone are decoded here, once per search.
    """

    def __init__(self, total, k, gamma, n_atoms, n_slots, n_named, n_inds):
        self.k, self.n_inds, self.n_named = k, n_inds, n_named
        self.n_rel = n_slots * k
        # The low part: whole individual digits while they fit, then,
        # once every individual digit is in, stream bits while they fit.
        # total is k ** n_inds times a power of two, so lanes divides it.
        self.lo_inds, self.lanes, lo_bits = 0, 1, 0
        while self.lo_inds < n_inds and self.lanes * k <= MAX_LANES:
            self.lo_inds += 1
            self.lanes *= k
        while (self.lo_inds == n_inds
               and 2 * self.lanes <= min(total, MAX_LANES)):
            self.lanes *= 2
            lo_bits += 1
        rest = np.arange(self.lanes, dtype=np.int64)
        self.lo_assign = []
        for _ in range(self.lo_inds):
            self.lo_assign.append(rest % k)
            rest = rest // k
        # Bit fields in stream order: (offset, width, shift into the mask);
        # field ids: named region j, then slot s's row x at s * k + x,
        # then atom a.
        u = k + gamma
        fields = [(j * gamma, gamma, k) for j in range(n_named)]
        off = n_named * gamma
        fields += [(off + i * u, u, 0) for i in range(self.n_rel)]
        off += self.n_rel * u
        fields += [(off + a * k, k, 0) for a in range(n_atoms)]
        self.lo_vals = []     # fields wholly below the split
        self.straddle = None  # (low part, shift of its high part, high mask)
        self.hi_fields = []   # (offset above the split, mask, shift)
        for off, width, shift in fields:
            mask = (1 << width) - 1
            if off + width <= lo_bits:
                self.lo_vals.append(((rest >> off) & mask) << shift)
            elif off >= lo_bits:
                self.hi_fields.append((off - lo_bits, mask, shift))
            else:
                self.straddle = ((rest >> off) << shift,
                                 lo_bits - off + shift,
                                 (1 << (off + width - lo_bits)) - 1)
        self.n_varying = len(self.lo_vals) + (self.straddle is not None)

    def fields(self, hi):
        assign = list(self.lo_assign)
        for _ in range(self.lo_inds, self.n_inds):
            assign.append(np.int64(hi % self.k))
            hi //= self.k
        vals = list(self.lo_vals)
        if self.straddle is not None:
            part, shift, mask = self.straddle
            vals.append(part | np.int64((hi & mask) << shift))
        for off, mask, shift in self.hi_fields:
            vals.append(np.int64(((hi >> off) & mask) << shift))
        named = vals[:self.n_named]
        slot_rel = vals[self.n_named:self.n_named + self.n_rel]
        atoms = vals[self.n_named + self.n_rel:]
        return atoms, slot_rel, named, assign

    def varies(self, row, progs, bounds, enum_table) -> bool:
        """Whether the program at row reads a symbol that varies with lo."""
        for op, a, b, _c in progs[bounds[row, 0]:bounds[row, 1]]:
            if op == OP_PUSH_ATOM:
                field = self.n_named + self.n_rel + a
            elif op == OP_PUSH_NAMED:
                field = a
            elif op in (OP_SLOT_COUNT, OP_SLOT_ONLY, OP_PROJ):
                field = self.n_named + a * self.k
            elif op == OP_PUSH_ENUM:
                if (enum_table[a:a + b] < self.lo_inds).any():
                    return True
                continue
            else:
                continue
            if field < self.n_varying:
                return True
        return False


def _eval_numpy(row, progs, bounds, enum_table, atoms, slot_rel, named,
                assign, k, full, grid_mask):
    """Run one program over a chunk by broadcasting: a symbol constant
    over the chunk is a scalar, and so is every result built only from
    such symbols. slot_rel[s * k + x] is slot s's row for individual x.
    """
    stack = []
    for pi in range(bounds[row, 0], bounds[row, 1]):
        op, a, b, c = progs[pi]
        if op == OP_PUSH_ATOM:
            stack.append(atoms[a])
        elif op == OP_PUSH_FIXED:
            stack.append(a)
        elif op == OP_PUSH_NAMED:
            stack.append(named[a])
        elif op == OP_PUSH_ENUM:
            res = np.int64(0)
            for j in range(a, a + b):
                res = res | np.int64(1) << assign[enum_table[j]]
            stack.append(res)
        elif op == OP_PUSH_ALL:
            stack.append(full)
        elif op == OP_PUSH_NONE:
            stack.append(np.int64(0))
        elif op == OP_AND:
            y = stack.pop()
            stack.append(stack.pop() & y)
        elif op == OP_OR:
            y = stack.pop()
            stack.append(stack.pop() | y)
        elif op == OP_DIFF:
            y = stack.pop()
            stack.append(stack.pop() & ~y & full)
        elif op == OP_SLOT_COUNT:
            filler = stack.pop()
            res = grid_mask if b == 0 else np.int64(0)
            for x in range(k):
                cnt = POPCNT[slot_rel[a * k + x] & filler]
                ok = cnt >= b
                if c >= 0:
                    ok = ok & (cnt <= c)
                res = res | ok.astype(np.int64) << x
            stack.append(res)
        elif op == OP_SLOT_ONLY:
            filler = stack.pop()
            res = grid_mask
            for x in range(k):
                ok = (slot_rel[a * k + x] & ~filler & full) == 0
                res = res | ok.astype(np.int64) << x
            stack.append(res)
        else:  # OP_PROJ
            base = stack.pop()
            res = np.int64(0)
            for x in range(k):
                res = res | (-((base >> x) & 1) & slot_rel[a * k + x])
            stack.append(res & full)
    return stack[0]


def _search_numpy(total, k, gamma, n_atoms, n_slots, n_named, n_inds,
                  n_axioms, progs, bounds, enum_table):
    full = np.int64((1 << (k + gamma)) - 1)
    grid_mask = full & ~np.int64((1 << k) - 1)
    chunks = _Chunks(total, k, gamma, n_atoms, n_slots, n_named, n_inds)
    # Axioms constant over a chunk go first, so one that fails rejects
    # the chunk before any array is computed.
    order = sorted(range(n_axioms), key=lambda ai: any(
        chunks.varies(row, progs, bounds, enum_table)
        for row in (2 + 2 * ai, 3 + 2 * ai)))
    for hi in range(total // chunks.lanes):
        fields = chunks.fields(hi)

        def ev(row):
            return _eval_numpy(row, progs, bounds, enum_table, *fields, k,
                               full, grid_mask)

        ok = np.True_
        for ai in order:
            ok = ok & ((ev(2 + 2 * ai) & ~ev(3 + 2 * ai) & full) == 0)
            if not ok.any():
                break
        else:
            hit = ok & ((ev(0) & ~ev(1) & full) != 0)
            if hit.any():
                return hi * chunks.lanes + int(np.argmax(hit))
    return -1


# ----------------------------------------------------------------- jit

if HAVE_NUMBA:

    @njit(cache=True)
    def _eval_jit(row, progs, bounds, enum_table, atoms, slot_rel, named,
                  assign, k, full, grid_mask, popcnt, stack):
        sp = 0
        for pi in range(bounds[row, 0], bounds[row, 1]):
            op = progs[pi, 0]
            a = progs[pi, 1]
            b = progs[pi, 2]
            c = progs[pi, 3]
            if op == OP_PUSH_ATOM:
                stack[sp] = atoms[a]
                sp += 1
            elif op == OP_PUSH_FIXED:
                stack[sp] = a
                sp += 1
            elif op == OP_PUSH_NAMED:
                stack[sp] = named[a]
                sp += 1
            elif op == OP_PUSH_ENUM:
                m = 0
                for j in range(a, a + b):
                    m |= 1 << assign[enum_table[j]]
                stack[sp] = m
                sp += 1
            elif op == OP_PUSH_ALL:
                stack[sp] = full
                sp += 1
            elif op == OP_PUSH_NONE:
                stack[sp] = 0
                sp += 1
            elif op == OP_AND:
                sp -= 1
                stack[sp - 1] = stack[sp - 1] & stack[sp]
            elif op == OP_OR:
                sp -= 1
                stack[sp - 1] = stack[sp - 1] | stack[sp]
            elif op == OP_DIFF:
                sp -= 1
                stack[sp - 1] = stack[sp - 1] & ~stack[sp] & full
            elif op == OP_SLOT_COUNT:
                filler = stack[sp - 1]
                res = 0
                for x in range(k):
                    cnt = popcnt[slot_rel[a, x] & filler]
                    if cnt >= b and (c < 0 or cnt <= c):
                        res |= 1 << x
                if b == 0:
                    res |= grid_mask
                stack[sp - 1] = res
            elif op == OP_SLOT_ONLY:
                filler = stack[sp - 1]
                res = grid_mask
                for x in range(k):
                    if slot_rel[a, x] & ~filler & full == 0:
                        res |= 1 << x
                stack[sp - 1] = res
            else:  # OP_PROJ
                base = stack[sp - 1]
                res = 0
                for x in range(k):
                    if base & (1 << x):
                        res |= slot_rel[a, x]
                stack[sp - 1] = res & full
        return stack[0]

    @njit(cache=True)
    def _search_jit(start, stop, k, gamma, n_atoms, n_slots, n_named,
                    n_inds, n_axioms, progs, bounds, enum_table, popcnt):
        u = k + gamma
        full = (1 << u) - 1
        grid_mask = full & ~((1 << k) - 1)
        kbits = (1 << k) - 1
        gbits = (1 << gamma) - 1
        atoms = np.zeros(max(n_atoms, 1), np.int64)
        slot_rel = np.zeros((max(n_slots, 1), k), np.int64)
        named = np.zeros(max(n_named, 1), np.int64)
        assign = np.zeros(max(n_inds, 1), np.int64)
        stack = np.zeros(64, np.int64)
        for idx in range(start, stop):
            rest = idx
            for i in range(n_inds):
                assign[i] = rest % k
                rest //= k
            for j in range(n_named):
                named[j] = (rest & gbits) << k
                rest >>= gamma
            for s in range(n_slots):
                for x in range(k):
                    slot_rel[s, x] = rest & full
                    rest >>= u
            for a in range(n_atoms):
                atoms[a] = rest & kbits
                rest >>= k
            ok = True
            for ai in range(n_axioms):
                lhs = _eval_jit(2 + 2 * ai, progs, bounds, enum_table,
                                atoms, slot_rel, named, assign, k, full,
                                grid_mask, popcnt, stack)
                rhs = _eval_jit(3 + 2 * ai, progs, bounds, enum_table,
                                atoms, slot_rel, named, assign, k, full,
                                grid_mask, popcnt, stack)
                if lhs & ~rhs & full != 0:
                    ok = False
                    break
            if not ok:
                continue
            m1 = _eval_jit(0, progs, bounds, enum_table, atoms, slot_rel,
                           named, assign, k, full, grid_mask, popcnt, stack)
            m2 = _eval_jit(1, progs, bounds, enum_table, atoms, slot_rel,
                           named, assign, k, full, grid_mask, popcnt, stack)
            if m1 & ~m2 & full != 0:
                return idx
        return -1
