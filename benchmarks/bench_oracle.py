#!/usr/bin/env python3
"""Time the enumeration kernel on oracle workloads.

Two workload groups show where the kernel's time goes. Exhaustive
pairs hold, so the counterexample search scans every bounded
interpretation; the kernel pays its per-chunk Python work once per
chunk of up to kernels.MAX_LANES indices. Early-witness pairs fail
quickly; the kernel still pays for specialising the search and for the
rest of the witness's chunk.

Each group reports interpretations per second: the indices the kernel
visits (through the first hit, or all of them) over the whole search
time, axiom selection and compilation included.
"""

import time

from desiree.reasoner import kernels
from desiree.reasoner.oracle import (
    build_problem,
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
    """Interpretations the kernel visits: through the first hit, or all."""
    n = 0
    for d1, d2, axioms in pairs:
        selected = select_axioms(d1, d2, axioms)
        table, total, progs, bounds, enum_table = build_problem(
            d1, d2, selected)
        idx = kernels.find_violation(
            total, table.k, table.gamma, len(table.atoms), len(table.slots),
            len(table.named), len(table.inds), len(selected), progs, bounds,
            enum_table)
        n += total if idx < 0 else idx + 1
    return n


def time_group(pairs):
    run_once(pairs)  # warm-up: caches
    start = time.perf_counter()
    for _ in range(REPS):
        run_once(pairs)
    return (time.perf_counter() - start) / REPS


def main():
    groups = [("exhaustive", parse_pairs(EXHAUSTIVE)),
              ("early witness", parse_pairs(EARLY_WITNESS))]
    print(f"kernel: {kernels.backend_name()}; mean of {REPS} runs")
    for label, pairs in groups:
        elapsed = time_group(pairs)
        n = scanned(pairs)
        print(f"{label:14s} ({len(pairs)} searches, {n:>9,} interps)  "
              f"{elapsed * 1000:8.2f} ms {n / elapsed:12,.0f} interps/s")


if __name__ == "__main__":
    main()
