#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (copies of
`.perfbench_out/results/`). Runs are compared per workload and per
tracing mode, and only when their environment stamps agree: the same
Python, numpy, kernel backend, processor count and run length, and the
same seeds with the same input hashes on both sides. The commit and
source digest are shown, not compared: they are what differs. Exit
status 2 means the stamps differ and nothing was compared; 1 means a
run on either side was not correct, the new side failed a larger share
of operations than the base, or an end-to-end metric got worse by more
than its bound in BENCHMARK.json.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "kernel_backend", "nproc", "seconds")


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> details."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        st = doc["stamp"]
        trace = int(path.stem.endswith("trace1"))
        runs[(st["workload"], trace)][st["seed"]] = doc
    return runs


def stamp_mismatch(base: dict, new: dict) -> str | None:
    """Why two groups of runs may not be compared, or None."""
    if set(base) != set(new):
        return f"seeds differ: {sorted(base)} vs {sorted(new)}"
    envs = {tuple(d["stamp"][k] for k in ENV_KEYS)
            for d in list(base.values()) + list(new.values())}
    if len(envs) > 1:
        return f"environments differ ({', '.join(ENV_KEYS)}): {sorted(envs)}"
    for seed in base:
        if base[seed]["stamp"]["inputs"] != new[seed]["stamp"]["inputs"]:
            return f"inputs differ on seed {seed}"
    return None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({k: m["better"] for k, m in bounds.items()})
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        why = stamp_mismatch(base[key], new[key])
        if why:
            print(f"{workload} trace={trace}: refused, {why}")
            return 2
        commits = {side: sorted({d["stamp"]["commit"] or d["stamp"][
            "source_sha256"][:12] for d in runs[key].values()})
                   for side, runs in (("base", base), ("new", new))}
        print(f"\n{workload} (trace={trace}, {len(base[key])} seeds) "
              f"base {commits['base']} new {commits['new']}")
        names = next(iter(base[key].values()))["result"]["metrics"]
        for name in names:
            b = [d["result"]["metrics"][name]["value"]
                 for d in base[key].values()]
            n = [d["result"]["metrics"][name]["value"]
                 for d in new[key].values()]
            b1, b2, b3 = quartiles(b)
            n1, n2, n3 = quartiles(n)
            change = (n2 - b2) / b2 if b2 else 0.0
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds:
                spread = (b3 - b1) / b2 if b2 else 0.0
                if worse > bounds[name]["bound"]:
                    verdict, status = "WORSE than bound", 1
                elif spread > bounds[name]["bound"]:
                    verdict = "unresolved (spread above bound)"
                else:
                    verdict = "within bound"
            print(f"  {name:42s} {b2:12.5g} [{b1:.4g}, {b3:.4g}] -> "
                  f"{n2:12.5g} [{n1:.4g}, {n3:.4g}] {change:+7.1%} {verdict}")
        worst = {}
        for side, runs in (("base", base), ("new", new)):
            worst[side] = max(d["fail_ratio"] for d in runs[key].values())
            wrong = sorted(seed for seed, d in runs[key].items()
                           if not d["result"]["correct"])
            print(f"  fail_ratio {side}: max {worst[side]:.4g}")
            if wrong:
                print(f"  NOT CORRECT on the {side} side, seeds {wrong}")
                status = 1
        if worst["new"] > worst["base"]:
            print("  new side fails more operations than the base")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
