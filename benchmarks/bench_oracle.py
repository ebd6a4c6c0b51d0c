#!/usr/bin/env python3
"""Time the enumeration kernel on oracle workloads.

Two workload groups show where the kernel's time goes. Exhaustive
pairs hold, so the counterexample search scans every bounded
interpretation; the kernel pays its Python work once per block, and an
exhaustive scan takes one block per bit of the space. Early-witness
pairs fail quickly; the kernel pays for the first block and for every
block up to the witness's.

Each group reports interpretations per second: the indices the kernel
visits at each k it tries, smallest first (through the first hit, or all
of them), over the whole search time, axiom selection and compilation
included. Then single kernel calls at one k, best of REPS runs: the
largest exhaustive scans and a witness at index 4096 of 2^21.

    PYTHONPATH=src python3 benchmarks/bench_oracle.py
"""

import time

from desiree.reasoner import kernels
from desiree.reasoner.oracle import (
    build_problems,
    oracle_disprove,
    select_axioms,
)
from desiree.syntax.parser import parse_description

D = parse_description

# Subsumptions that hold: the scan runs to exhaustion (about 1M, 2M and
# 1K interpretations respectively; the middle one carries an axiom).
EXHAUSTIVE = [
    ("Student Employee <takes: Course> <at: Desk>",
     "Student <takes: Course>",
     []),
    ("Book <object: SOME Airline_ticket>",
     "Book <object: SOME Ticket>",
     [("Airline_ticket", "Ticket")]),
    ("Paper <by: Student <at: Lab>> <in: Venue>",
     "Paper <by: Student> <in: Venue>",
     []),
]

# Subsumptions that fail with a witness in the first few thousand
# indices of a much larger space.
EARLY_WITNESS = [
    ("Alpha", "Beta <s: Gamma>", []),
    ("A <s: B>", "A <s: B> <t: C>", []),
]

# Single kernel calls: (label, d1, d2, k).
_ATOMS = [f"A{i:02d}" for i in range(21)]
KERNEL_CALLS = [
    ("exhaustive, k = 2", EXHAUSTIVE[0][0], EXHAUSTIVE[0][1], 2),
    ("exhaustive, k = 3", "A B C D E F G", "A", 3),
    # only A12 set: bit 12 of the index
    ("witness at 4096", "A12 - (" + " | ".join(_ATOMS[:12]) + ")",
     " | ".join(_ATOMS[13:]), 1),
]

REPS = 3


def parse_pairs(rows):
    out = []
    for d1, d2, axioms in rows:
        out.append((D(d1), D(d2), [(D(a), D(b)) for a, b in axioms]))
    return out


def run_once(pairs):
    for d1, d2, axioms in pairs:
        oracle_disprove(d1, d2, axioms)


def scanned(pairs):
    """Interpretations the kernel visits at each k, smallest first:
    through the first hit, or all of them. Each search's problem is built
    from the index entries that select_axioms returns."""
    n = 0
    for d1, d2, axioms in pairs:
        entries = select_axioms(d1, d2, axioms)
        for table, total, programs in build_problems(d1, d2, entries):
            idx = kernels.find_violation(
                total, table.k, table.gamma, len(table.atoms),
                len(table.slots), len(table.named), len(table.inds),
                programs)
            n += total if idx < 0 else idx + 1
            if idx >= 0:
                break
    return n


def time_group(pairs):
    run_once(pairs)  # warm-up: caches
    start = time.perf_counter()
    for _ in range(REPS):
        run_once(pairs)
    return (time.perf_counter() - start) / REPS


def time_call(d1, d2, k):
    """(index, space, best seconds) of one kernel call at k."""
    for table, total, programs in build_problems(D(d1), D(d2), []):
        if table.k == k:
            args = (total, table.k, table.gamma, len(table.atoms),
                    len(table.slots), len(table.named), len(table.inds),
                    programs)
    best = None
    for _ in range(REPS):
        start = time.perf_counter()
        idx = kernels.find_violation(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return idx, args[0], best


def main():
    groups = [("exhaustive", parse_pairs(EXHAUSTIVE)),
              ("early witness", parse_pairs(EARLY_WITNESS))]
    print(f"kernel: {kernels.backend_name()}; mean of {REPS} runs")
    for label, pairs in groups:
        elapsed = time_group(pairs)
        n = scanned(pairs)
        print(f"{label:14s} ({len(pairs)} searches, {n:>9,} interps)  "
              f"{elapsed * 1000:8.2f} ms {n / elapsed:12,.0f} interps/s")
    for label, d1, d2, k in KERNEL_CALLS:
        idx, total, elapsed = time_call(d1, d2, k)
        print(f"{label:18s} index {idx:>5} of {total:>9,}  "
              f"{elapsed * 1000:8.3f} ms")


if __name__ == "__main__":
    main()
