#!/usr/bin/env python3
"""Compare the jit and numpy enumeration kernels on oracle workloads.

Two workload groups show the trade-off between the kernels. Exhaustive
pairs hold, so the counterexample search scans every bounded
interpretation; the numpy path pays its per-chunk Python work once per
chunk of up to kernels.MAX_LANES indices. Early-witness pairs fail
quickly; the jit path stops at the first hit while the numpy path still
pays for the rest of the witness's chunk.

Each group also reports interpretations per second: the indices the
kernel visits (through the first hit, or all of them) over the whole
search time, axiom selection and compilation included.

Both paths are timed in one process: the kernel dispatcher re-reads
DESIREE_PURE_NUMPY on every call, so flipping the flag between runs
switches backends without a restart.
"""

import os
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
    results = []
    for d1, d2, axioms in pairs:
        w = oracle_disprove(d1, d2, axioms)
        results.append(None if w is None else w.to_json())
    return results


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
    run_once(pairs)  # warm-up: jit compilation, caches
    results = None
    start = time.perf_counter()
    for _ in range(REPS):
        results = run_once(pairs)
    elapsed = (time.perf_counter() - start) / REPS
    return elapsed, results


def use_backend(name):
    if name == "numpy":
        os.environ["DESIREE_PURE_NUMPY"] = "1"
    else:
        os.environ.pop("DESIREE_PURE_NUMPY", None)
    assert kernels.backend_name() == name


def main():
    backends = ["numba", "numpy"] if kernels.HAVE_NUMBA else ["numpy"]
    groups = [("exhaustive", parse_pairs(EXHAUSTIVE)),
              ("early witness", parse_pairs(EARLY_WITNESS))]

    print(f"backends: {', '.join(backends)}; mean of {REPS} runs")
    for label, pairs in groups:
        timings = {}
        outputs = {}
        for backend in backends:
            use_backend(backend)
            timings[backend], outputs[backend] = time_group(pairs)
        os.environ.pop("DESIREE_PURE_NUMPY", None)
        if len(outputs) == 2 and outputs["numba"] != outputs["numpy"]:
            raise SystemExit(f"kernel mismatch on {label}: {outputs}")
        n = scanned(pairs)
        line = "  ".join(f"{b} {timings[b] * 1000:8.2f} ms "
                         f"{n / timings[b]:12,.0f} interps/s"
                         for b in backends)
        print(f"{label:14s} ({len(pairs)} searches, {n:>9,} interps)  {line}")
        if len(timings) == 2:
            ratio = timings["numpy"] / timings["numba"]
            print(f"{'':14s} numpy/numba time ratio {ratio:5.1f}x")
    if not kernels.HAVE_NUMBA:
        print("numba not importable; numpy fallback only")


if __name__ == "__main__":
    main()
