"""The bounded search's program format, index layout and kernel.

find_violation walks interpretation indices in ascending order and
returns the smallest index whose interpretation satisfies every axiom
yet puts some element in d1 outside d2 (-1 when the range is clean).

A program (compile.assemble) is a tuple of postfix instructions
(op, a, b, c) over fields: the kernel runs it without recursion or
translation. Every field holds a mask over the universe, one bit per
element: k individuals, then gamma grid points.
  PUSH_ATOM  a=field of an atom or a named region
  PUSH_FIXED a=the mask itself
  PUSH_ENUM  a=tuple of the members' fields
  AND / OR / DIFF pop two masks
  SLOT_COUNT a=field of the slot's first row, b=min count, c=max count
             (-1 for unbounded); pops the filler mask
  SLOT_ONLY  a=field of the slot's first row; pops the filler mask
  PROJ       a=field of the slot's first row; pops the base mask

Index layout, least significant first: individual assignments (radix k),
then the bit fields in field order. field_bases numbers the fields:
named region j (gamma bits, over the grid), slot s's row x (k + gamma
bits, the targets of individual x), atom a (k bits), then individual i,
whose value is the bit of its element. decode_interpretation reads one
index as an Interpretation.

The kernel is bit-sliced (Biham, "A fast new DES implementation in
software", FSE 1997): it evaluates a block of consecutive indices at
once, one lane per index, with lane i the block's first index plus i.
A mask over a block is a list of u = k + gamma Python ints, its planes:
bit i of plane e is set when element e is in the mask at lane i. AND,
OR and DIFF work plane by plane; the slot operations combine the planes
of the slot's rows, and SLOT_COUNT counts with threshold planes, one per
count (plane t: at least t targets so far). The lanes that break an
axiom are the OR over the planes of its left side minus its right; the
block's hits are the lanes where the pair separates and no axiom
breaks, and the lowest set bit is the first hit.

Every field's planes are periodic bit patterns of the lane number: a
digit of an individual, or one bit of the bit-field value. Blocks hold
every individual assignment of a range of bit-field values: first
[0, 2^FIRST_BITS), then [2^m, 2^(m+1)) for each m after that. Inside
block m, bit m of the value is one, the bits above it are zero and the
bits below it run through the same patterns as the lanes of [0, 2^m),
so each block's patterns are the previous ones doubled (p | p << lanes),
never divided out of big ints. Blocks are visited in index order, so
the first hit is the smallest index; a witness at index i costs at most
about 2i lanes beyond the first block, and an exhaustive scan takes one
block per bit of the space, each block as many big-int operations as
the programs have instructions.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from desiree.reasoner.interp import Interpretation

if TYPE_CHECKING:
    from desiree.reasoner.compile import SymbolTable

OP_PUSH_ATOM = 0
OP_PUSH_FIXED = 1
OP_PUSH_ENUM = 2
OP_AND = 3
OP_OR = 4
OP_DIFF = 5
OP_SLOT_COUNT = 6
OP_SLOT_ONLY = 7
OP_PROJ = 8

_DIFF = ((OP_DIFF, 0, 0, 0),)

# The first block covers the bit-field values [0, 2^FIRST_BITS). Most
# searches are no larger and take one block; a larger one takes one more
# block per bit. Replaying the searches of perfbench's corpus-query and
# entail-search with 2^4 to 2^13 values, 2^12 was fastest.
FIRST_BITS = 12

# The patterns of a first block are cached when they hold at most
# CACHED_BITS bits in all. The cache keeps at most 128 first blocks, so
# it stays below 4 MB.
CACHED_BITS = 1 << 18


def backend_name() -> str:
    """The kernel's name, for environment stamps.

    perfbench compares only runs whose stamps agree, so the name has
    stayed that of the vectorised kernel this one replaced.
    """
    return "numpy"


def field_bases(k, n_named, n_slots, n_atoms):
    """The first field of the slot rows, the atoms and the individuals.

    Named region j is field j; row x of slot s is slot0 + s * k + x,
    atom a is atom0 + a and individual i is ind0 + i.
    """
    slot0 = n_named
    atom0 = slot0 + n_slots * k
    return slot0, atom0, atom0 + n_atoms


def _bit_fields(k, gamma, n_named, n_slots, n_atoms):
    """(offset, width, shift into the mask) of every bit field, in field
    order; offsets count from the first bit above the individual digits."""
    slot0, atom0, ind0 = field_bases(k, n_named, n_slots, n_atoms)
    kinds = ([(gamma, k)] * slot0 + [(k + gamma, 0)] * (atom0 - slot0)
             + [(k, 0)] * (ind0 - atom0))
    out, off = [], 0
    for width, shift in kinds:
        out.append((off, width, shift))
        off += width
    return out


def _members(mask: int) -> frozenset[int]:
    """The elements of a mask, visiting its set bits only."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def decode_interpretation(idx: int, table: SymbolTable) -> Interpretation:
    """The explicit interpretation at one enumeration index."""
    k = table.k
    slot0, atom0, _ind0 = field_bases(k, len(table.named), len(table.slots),
                                      len(table.atoms))
    individuals = {name: idx // k ** i % k for name, i in table.inds.items()}
    bits = idx // k ** len(table.inds)
    masks = [((bits >> off) & ((1 << width) - 1)) << shift
             for off, width, shift in _bit_fields(
                 k, table.gamma, len(table.named), len(table.slots),
                 len(table.atoms))]
    named = {name: _members(masks[j]) for name, j in table.named.items()}
    slots = {name: frozenset((x, y) for x in range(k)
                             for y in _members(masks[slot0 + s * k + x]))
             for name, s in table.slots.items()}
    atoms = {name: _members(masks[atom0 + a])
             for name, a in table.atoms.items()}
    return Interpretation(k, table.grid, atoms, slots, named, individuals)


def _periodic(step, radix, digit, lanes):
    """The lanes where digit (i // step) % radix of lane i is `digit`, as
    an int of `lanes` bits, built by doubling one period."""
    p = ((1 << step) - 1) << (digit * step)
    width = step * radix
    while width < lanes:
        p |= p << width
        width *= 2
    return p & ((1 << lanes) - 1)


@lru_cache(maxsize=128)
def _prefix(k, n_inds, m):
    """(lanes, bits, digits) of the bit-field values [0, 2^m): bits[b]
    is the pattern of bit b of the value, digits[i * k + e] that of
    individual i at element e."""
    ways = k ** n_inds
    lanes = ways << m
    bits = tuple(_periodic(ways << b, 2, 1, lanes) for b in range(m))
    digits = tuple(_periodic(k ** i, k, e, lanes)
                   for i in range(n_inds) for e in range(k))
    return lanes, bits, digits


def _blocks(k, n_inds, n_bits):
    """(first index, lanes, bits, digits) of each block, in index order.

    bits[b] is the pattern of bit b of the bit-field value over the
    block's lanes, for every b < n_bits; digits[i * k + e] that of
    individual i at element e.
    """
    m = min(FIRST_BITS, n_bits)
    size = (k ** n_inds << m) * (m + k * n_inds)
    prefix = _prefix if size <= CACHED_BITS else _prefix.__wrapped__
    lanes, bits, digits = prefix(k, n_inds, m)
    yield 0, lanes, [*bits, *[0] * (n_bits - m)], digits
    while m < n_bits:
        # Block m holds the values [2^m, 2^(m+1)): the lanes of [0, 2^m)
        # with bit m set. Its first index is the prefix's lane count.
        ones = (1 << lanes) - 1
        yield lanes, lanes, [*bits, ones, *[0] * (n_bits - m - 1)], digits
        m += 1
        if m < n_bits:
            bits = [p | p << lanes for p in bits] + [ones << lanes]
            digits = [p | p << lanes for p in digits]
            lanes *= 2


def _run(code, env, k, u, ones):
    """The planes of one program over one block.

    env holds the planes of every field. PUSH_FIXED sets the planes of
    its members to ones, PUSH_ENUM ORs its fields' planes; the slot
    operations read the k rows from field a on. Individual x is in a
    slot operation's result on plane x; a grid point has no targets, so
    it is in ONLY always and in a count exactly when the minimum is 0.
    """
    stack = []
    for op, a, b, c in code:
        if op == OP_PUSH_ATOM:
            stack.append(env[a])
        elif op == OP_AND:
            y = stack.pop()
            stack.append([p & q for p, q in zip(stack.pop(), y)])
        elif op == OP_OR:
            y = stack.pop()
            stack.append([p | q for p, q in zip(stack.pop(), y)])
        elif op == OP_DIFF:
            y = stack.pop()
            stack.append([p & ~q for p, q in zip(stack.pop(), y)])
        elif op == OP_PUSH_FIXED:
            stack.append([ones if a >> e & 1 else 0 for e in range(u)])
        elif op == OP_PUSH_ENUM:
            planes = env[a[0]]
            for f in a[1:]:
                planes = [p | q for p, q in zip(planes, env[f])]
            stack.append(planes)
        elif op == OP_SLOT_COUNT:
            filler = stack.pop()
            # at[t]: the lanes with at least t targets in the filler; a
            # count beyond u cannot happen, so thresholds stop at u + 1.
            hi = c + 1 if 0 <= c < u else None
            top = min(max(b, hi or 0), u + 1)
            res = []
            for x in range(k):
                at = [ones] + [0] * top
                for p, q in zip(env[a + x], filler):
                    hit = p & q
                    if hit:
                        for t in range(top, 0, -1):
                            at[t] |= at[t - 1] & hit
                ok = at[b] if b <= top else 0
                res.append(ok & ~at[hi] if hi is not None else ok)
            stack.append(res + [0 if b else ones] * (u - k))
        elif op == OP_SLOT_ONLY:
            filler = stack.pop()
            res = []
            for x in range(k):
                bad = 0
                for p, q in zip(env[a + x], filler):
                    bad |= p & ~q
                res.append(ones ^ bad)
            stack.append(res + [ones] * (u - k))
        else:  # OP_PROJ
            base = stack.pop()
            res = [0] * u
            for x in range(k):
                if base[x]:
                    res = [r | base[x] & p for r, p in zip(res, env[a + x])]
            stack.append(res)
    return stack[0]


def _union(planes):
    """The lanes where a mask is nonempty: the OR of its planes."""
    out = 0
    for p in planes:
        out |= p
    return out


def find_violation(
    total: int,
    k: int,
    gamma: int,
    n_atoms: int,
    n_slots: int,
    n_named: int,
    n_inds: int,
    programs: tuple,
) -> int:
    """The smallest index below total that violates the search, or -1.

    programs holds the programs of d1 and d2, then the left and right
    side of each axiom.
    """
    u = k + gamma
    n_bits = (total // k ** n_inds).bit_length() - 1
    # Each field's planes as positions in a block's pattern list
    # [0, bit 0, bit 1, ..., individual 0 at element 0, ...].
    sources = [[1 + off + e - shift if 0 <= e - shift < width else 0
                for e in range(u)]
               for off, width, shift in _bit_fields(k, gamma, n_named,
                                                    n_slots, n_atoms)]
    first_digit = 1 + n_bits
    sources += [[first_digit + i * k + e if e < k else 0 for e in range(u)]
                for i in range(n_inds)]
    goal = programs[0] + programs[1] + _DIFF
    checks = [programs[row] + programs[row + 1] + _DIFF
              for row in range(2, len(programs), 2)]
    for start, lanes, bits, digits in _blocks(k, n_inds, n_bits):
        ones = (1 << lanes) - 1
        patterns = [0, *bits, *digits]
        env = [[patterns[j] for j in src] for src in sources]
        live = _union(_run(goal, env, k, u, ones))
        for code in checks:
            if not live:
                break
            live &= ~_union(_run(code, env, k, u, ones))
        if live:
            return start + (live & -live).bit_length() - 1
    return -1
