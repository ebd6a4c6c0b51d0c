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

Last, the searches of perfbench's corpus-query workload (each query of
CORPUS_QUERIES once through `desiree query`, in-process) split by
stage, in ms per pass, median of PASSES passes: select (select_axioms),
census + compile (build_problems), kernel (kernels.find_violation),
decode + replay (decode_interpretation, violates_subsumption and
satisfies_axioms) and the rest of oracle_disprove (the pair's signature,
the memo, the witness, and the wrappers' own cost). Each stage is timed
by wrapping its function, so the split shows the search's glue without
perfbench's tracer.

    PYTHONPATH=src python3 benchmarks/bench_oracle.py
"""

import contextlib
import io
import statistics
import sys
import time
from importlib import resources
from pathlib import Path

from desiree import cli
from desiree.reasoner import kernels, oracle, subsume
from desiree.reasoner.oracle import (
    build_problems,
    oracle_disprove,
    select_axioms,
    signature,
)
from desiree.syntax.parser import parse_description

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CORPUS_QUERIES  # noqa: E402

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
PASSES = 5
CORPUS = str(resources.files("desiree") / "corpus" / "meeting_scheduler.dsr")


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
        sigma = set(signature(d1) | signature(d2))
        entries = select_axioms(d1, d2, axioms, sigma)
        for table, total, programs in build_problems(d1, d2, entries,
                                                     sigma):
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
    d1, d2 = D(d1), D(d2)
    sigma = signature(d1) | signature(d2)
    for table, total, programs in build_problems(d1, d2, [], sigma):
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


STAGES = ("select", "census + compile", "kernel", "decode + replay",
          "rest of the search")


def _timed(clock, stage, fn):
    def timed(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            clock[stage] += time.perf_counter() - start
    return timed


def _timed_problems(clock, build):
    """build_problems, timing each step of the generator: the census and
    grid at the first, one compilation at each."""
    def timed(*args):
        problems = build(*args)
        while True:
            start = time.perf_counter()
            try:
                problem = next(problems, None)
            finally:
                clock["census + compile"] += time.perf_counter() - start
            if problem is None:
                return
            yield problem
    return timed


def corpus_stages():
    """(searches per pass, {stage: median ms per pass})."""
    clock = dict.fromkeys(STAGES + ("search",), 0.0)
    searches = []
    wrapped = [
        (oracle, "select_axioms", _timed(clock, "select",
                                         oracle.select_axioms)),
        (oracle, "build_problems", _timed_problems(clock,
                                                   oracle.build_problems)),
        (kernels, "find_violation", _timed(clock, "kernel",
                                           kernels.find_violation)),
        (kernels, "decode_interpretation", _timed(
            clock, "decode + replay", kernels.decode_interpretation)),
        (oracle, "violates_subsumption", _timed(
            clock, "decode + replay", oracle.violates_subsumption)),
        (oracle, "satisfies_axioms", _timed(
            clock, "decode + replay", oracle.satisfies_axioms)),
        (subsume, "oracle_disprove", _timed(
            clock, "search", lambda *args: searches.append(1)
            or oracle.oracle_disprove(*args))),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in wrapped]
    per_pass = {stage: [] for stage in STAGES}
    try:
        for owner, name, fn in wrapped:
            setattr(owner, name, fn)
        for _ in range(PASSES + 1):  # the first pass warms up
            for stage in clock:
                clock[stage] = 0.0
            searches.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                for query, _, _ in CORPUS_QUERIES:
                    cli.main(["query", CORPUS, query])
            clock["rest of the search"] = clock["search"] - sum(
                clock[stage] for stage in STAGES[:-1])
            for stage in STAGES:
                per_pass[stage].append(clock[stage] * 1000)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return len(searches), {stage: statistics.median(ms[1:])
                           for stage, ms in per_pass.items()}


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
    searches, stages = corpus_stages()
    print(f"corpus-query searches ({searches} per pass), "
          f"ms per pass, median of {PASSES}:")
    for stage, ms in stages.items():
        print(f"  {stage:20s} {ms:8.2f}")
    print(f"  {'search total':20s} {sum(stages.values()):8.2f}")


if __name__ == "__main__":
    main()
