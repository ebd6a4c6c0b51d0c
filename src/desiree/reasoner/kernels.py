"""The interpretation-enumeration kernel.

find_violation walks interpretation indices in ascending order and
returns the smallest index whose interpretation satisfies every axiom
yet puts some element in d1 outside d2 (-1 when the range is clean).

Index layout, least significant first: individual assignments (radix k),
named-region bits (gamma per region), slot bits (k+gamma per source, per
slot), atom bits (k per atom). The decoder in oracle.py mirrors this.

The search scans chunks of consecutive indices, each index read as
hi * lanes + lo. The low part is a whole number of low digits: radix-k
individual digits first, then stream bits once every individual digit
is in, at most MAX_LANES indices in all. Every field (an individual's
digit, a named region, a slot row, an atom) then reads only lo
(invariant: the same lane array in every chunk), only hi (chunk-constant:
one value per chunk) or, for at most one bit field, both (it straddles
the split).

Each search is specialised once, before the chunk loop. Each program is
walked once, and every maximal sub-expression that reads no
chunk-constant field is computed then and replaced by its value. The
axioms that read nothing else are ANDed into one base lane mask, and an
empty base ends the search without visiting a chunk. AND, OR and DIFF
with 0 or the full mask as an operand are folded away, and an axiom
whose left side folds to 0 is dropped. What remains runs per chunk:
chunk-constant values are plain Python ints, and the lane arrays use
the narrowest unsigned dtype that holds k + gamma bits, so an axiom
over chunk-constant fields costs a few integer operations and rejects
the whole chunk when it fails. Every mask is a subset of the full mask,
so a complement is `y ^ full` and no negative int meets an unsigned
array. Chunks are visited in order and argmax takes the first hit, so
the smallest violating index is returned.
"""
from __future__ import annotations

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

# Indices per chunk. An early witness wastes less of a small chunk and a
# chunk's arrays stay in cache; much below 2^12 the per-chunk work in
# Python dominates instead. Replaying the searches of perfbench's
# corpus-query with caps from 2^11 to 2^16, 2^13 was fastest.
MAX_LANES = 1 << 13

POPCNT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

# What a value reads: lo fields, hi fields, both (mixed) or neither.
LO, HI = 1, 2


def backend_name() -> str:
    """The kernel's name, for environment stamps."""
    return "numpy"


class _Split:
    """The split of every index into hi * lanes + lo, lo < lanes.

    Field ids: named region j, then slot s's row x at s * k + x, then
    atom a, then individual i (its value is the bit of its element).
    `reads[f]` says whether field f depends on lo, hi or both; `env0`
    holds the lane arrays of the fields that depend on lo alone, decoded
    once per search, and fields(hi) completes it for one chunk.
    """

    def __init__(self, total, k, gamma, n_atoms, n_slots, n_named, n_inds):
        self.k, self.n_inds = k, n_inds
        self.full = (1 << (k + gamma)) - 1
        self.dtype = np.uint8 if k + gamma <= 8 else np.uint16
        self.slot0 = n_named
        self.atom0 = self.slot0 + n_slots * k
        self.ind0 = self.atom0 + n_atoms
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
        rest = np.arange(self.lanes, dtype=np.uint16)  # lanes <= 2^16
        self.env0, self.reads = [], []
        lo_assign = []
        for _ in range(self.lo_inds):
            lo_assign.append((1 << rest % k).astype(self.dtype))
            rest = rest // k
        # Bit fields in stream order: (offset, width, shift into the mask).
        u = k + gamma
        fields = [(j * gamma, gamma, k) for j in range(n_named)]
        off = n_named * gamma
        fields += [(off + i * u, u, 0) for i in range(n_slots * k)]
        off += n_slots * k * u
        fields += [(off + a * k, k, 0) for a in range(n_atoms)]
        self.straddle = None  # (field, low part, shift of hi, hi mask)
        self.hi_fields = []   # (field, offset above the split, mask, shift)
        for f, (off, width, shift) in enumerate(fields):
            mask = (1 << width) - 1
            value = None
            if off + width <= lo_bits:
                value = (((rest >> off) & mask) << shift).astype(self.dtype)
                self.reads.append(LO)
            elif off >= lo_bits:
                self.hi_fields.append((f, off - lo_bits, mask, shift))
                self.reads.append(HI)
            else:
                part = ((rest >> off) << shift).astype(self.dtype)
                self.straddle = (f, part, lo_bits - off + shift,
                                 (1 << (off + width - lo_bits)) - 1)
                self.reads.append(LO | HI)
            self.env0.append(value)
        self.env0 += lo_assign + [None] * (n_inds - self.lo_inds)
        self.reads += [LO] * self.lo_inds + [HI] * (n_inds - self.lo_inds)

    def fields(self, hi):
        """The value of every field in chunk hi."""
        env = list(self.env0)
        for i in range(self.ind0 + self.lo_inds, self.ind0 + self.n_inds):
            env[i] = 1 << hi % self.k
            hi //= self.k
        if self.straddle is not None:
            f, part, shift, mask = self.straddle
            env[f] = part | (hi & mask) << shift
        for f, off, mask, shift in self.hi_fields:
            env[f] = ((hi >> off) & mask) << shift
        return env


def _run(code, env, k, full, dtype):
    """Run one specialised program over a field environment.

    Values are lane arrays or plain ints. PUSH_FIXED pushes its value,
    PUSH_ATOM field a, PUSH_ENUM the union of the fields in a; the slot
    operations read the k rows from field a on.
    """
    stack = []
    for op, a, b, c in code:
        if op == OP_PUSH_ATOM:
            stack.append(env[a])
        elif op == OP_PUSH_FIXED:
            stack.append(a)
        elif op == OP_AND:
            y = stack.pop()
            stack.append(stack.pop() & y)
        elif op == OP_OR:
            y = stack.pop()
            stack.append(stack.pop() | y)
        elif op == OP_DIFF:
            y = stack.pop()
            stack.append(stack.pop() & (y ^ full))
        elif op == OP_PUSH_ENUM:
            res = 0
            for f in a:
                res = res | env[f]
            stack.append(res)
        elif op == OP_SLOT_COUNT:
            filler = stack.pop()
            res = full ^ ((1 << k) - 1) if b == 0 else 0
            for x in range(k):
                cnt = POPCNT[env[a + x] & filler]
                ok = cnt >= b
                if c >= 0:
                    ok = ok & (cnt <= c)
                res = res | ok.astype(dtype) << x
            stack.append(res)
        elif op == OP_SLOT_ONLY:
            outside = stack.pop() ^ full
            res = full ^ ((1 << k) - 1)
            for x in range(k):
                ok = np.equal(env[a + x] & outside, 0)
                res = res | ok.astype(dtype) << x
            stack.append(res)
        else:  # OP_PROJ
            base = stack.pop()
            res = 0
            for x in range(k):
                res = res | ((base >> x) & 1) * env[a + x]
            stack.append(res)
    return stack[0]


def _specialise(instrs, enum_table, split):
    """One program of compile.py, ready for the chunk loop: (code, reads).

    Every maximal sub-expression that reads no hi field is computed here
    and replaced by one PUSH_FIXED of its value, so a program that reads
    no hi field becomes a single PUSH_FIXED. Fields are renumbered as in
    _Split, and AND, OR and DIFF are folded where an operand is 0 or the
    full mask.
    """
    k, full = split.k, split.full
    code = []
    operands = []  # per stack entry: (its first instruction, what it reads)

    def fold(start, stop):
        value = _run(code[start:stop], split.env0, k, full, split.dtype)
        code[start:stop] = [(OP_PUSH_FIXED, value, 0, 0)]

    def as_int(start, stop):
        op, value = code[start][:2]
        if stop - start == 1 and op == OP_PUSH_FIXED and type(value) is int:
            return value
        return None

    for op, a, b, c in instrs:
        if op in (OP_AND, OP_OR, OP_DIFF):
            (s1, r1), (s2, r2) = operands[-2:]
            del operands[-2:]
            if (r1 | r2) & HI:
                if not r2 & HI:
                    fold(s2, len(code))
                if not r1 & HI:
                    fold(s1, s2)
                    s2 = s1 + 1
                short = _shortcut(op, as_int(s1, s2), as_int(s2, len(code)),
                                  full)
                if short == "x":
                    del code[s2:]
                    operands.append((s1, r1))
                    continue
                if short == "y":
                    del code[s1:s2]
                    operands.append((s1, r2))
                    continue
                if short is not None:
                    code[s1:] = [(OP_PUSH_FIXED, short, 0, 0)]
                    operands.append((s1, 0))
                    continue
            operands.append((s1, r1 | r2))
            code.append((op, 0, 0, 0))
            continue
        if op in (OP_PUSH_ATOM, OP_PUSH_NAMED):
            fields = (a if op == OP_PUSH_NAMED else split.atom0 + a,)
            instr = (OP_PUSH_ATOM, fields[0], 0, 0)
        elif op == OP_PUSH_ENUM:
            fields = tuple(split.ind0 + i for i in enum_table[a:a + b])
            instr = (OP_PUSH_ENUM, fields, 0, 0)
        elif op in (OP_PUSH_FIXED, OP_PUSH_ALL, OP_PUSH_NONE):
            fields = ()
            value = {OP_PUSH_FIXED: a, OP_PUSH_ALL: full, OP_PUSH_NONE: 0}[op]
            instr = (OP_PUSH_FIXED, value, 0, 0)
        else:  # a slot operation on the k rows of slot a
            first = split.slot0 + a * k
            fields = tuple(range(first, first + k))
            instr = (op, first, b, c)
        start, r = len(code), 0
        for f in fields:
            r |= split.reads[f]
        if op in (OP_SLOT_COUNT, OP_SLOT_ONLY, OP_PROJ):
            start, r1 = operands.pop()
            if r & HI and not r1 & HI:
                fold(start, len(code))
            r |= r1
        operands.append((start, r))
        code.append(instr)
    (_, r), = operands
    if not r & HI:
        fold(0, len(code))
    return code, r


def _shortcut(op, x, y, full):
    """x op y when one operand decides it: a value, or "x" or "y" for the
    operand it equals; None otherwise. x and y are ints, or None when
    not known before the chunk loop."""
    if op == OP_DIFF:
        if x == 0 or y == full:
            return 0
        return "x" if y == 0 else None
    absorbing, unit = (0, full) if op == OP_AND else (full, 0)
    if absorbing in (x, y):
        return absorbing
    if x == unit:
        return "y"
    if y == unit:
        return "x"
    return None


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
    """The smallest index below total that violates the search, or -1."""
    split = _Split(total, k, gamma, n_atoms, n_slots, n_named, n_inds)
    progs, bounds = progs.tolist(), bounds.tolist()
    enum_table = enum_table.tolist()

    def violation(row):
        """The elements of description row outside description row + 1."""
        (a0, a1), (b0, b1) = bounds[row], bounds[row + 1]
        instrs = progs[a0:a1] + progs[b0:b1] + [(OP_DIFF, 0, 0, 0)]
        return _specialise(instrs, enum_table, split)

    base = True
    checks = []
    for ai in range(n_axioms):
        code, reads = violation(2 + 2 * ai)
        if reads & HI:
            checks.append((reads, code))
        else:
            base = base & (code[0][1] == 0)
    if not np.any(base):
        return -1
    # Axioms over chunk-constant fields alone go first: one that fails
    # rejects the chunk before any array is computed.
    checks = [code for _r, code in sorted(checks, key=lambda rc: rc[0] & LO)]
    goal, _reads = violation(0)
    args = k, split.full, split.dtype
    for hi in range(total // split.lanes):
        env = split.fields(hi)
        ok = base
        for code in checks:
            viol = _run(code, env, *args)
            if isinstance(viol, np.ndarray):
                ok = ok & (viol == 0)
                if not ok.any():
                    break
            elif viol:
                break
        else:
            hit = ok & (_run(goal, env, *args) != 0)
            if np.any(hit):
                return hi * split.lanes + int(np.argmax(hit))
    return -1
