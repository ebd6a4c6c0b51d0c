#!/usr/bin/env python3
"""Time desiree's start-up in fresh interpreters, two source trees side by side.

Each tree is a checkout root holding `src/desiree`. Its package is copied
into a temporary directory without any `__pycache__`, so both sides
start from the same bytecode-cache state whatever their checkouts hold.
Two commands are timed, each as a whole child process:

- `import`: `python -c "import desiree.cli"`;
- `check`: `desiree check` on the tree's own bundled
  `meeting_scheduler.dsr`, called as the `desiree` console script calls
  it (import `desiree.cli`, then `main()`).

Each runs in two cache states:

- `cold`: `PYTHONDONTWRITEBYTECODE=1` and no desiree bytecode anywhere,
  so every run compiles desiree's source (the standard library is read
  from its installed caches);
- `warm`: `PYTHONPYCACHEPREFIX` points at a per-side directory in the
  temporary directory, filled by one untimed run of each command first,
  so every run reads desiree and the standard library from bytecode.

The runs alternate between the sides, the first side switching every
round, for RUNS rounds (at least 20). It prints one JSON object: per
state, command and side, the median and quartiles in milliseconds, and
the number of rounds in which the second tree was faster. A run that
exits with another status than the first run of its command stops the
script. Run from anywhere:

    python3 benchmarks/bench_startup.py PARENT_TREE CHANGE_TREE [--runs N]
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CORPUS = Path("desiree") / "corpus" / "meeting_scheduler.dsr"
COMMANDS = {
    "import": ["-c", "import desiree.cli"],
    "check": ["-c", "import sys; from desiree.cli import main; "
              "sys.exit(main())", "check", str(CORPUS)],
}


def run_once(src: Path, argv: list[str], env: dict) -> tuple[float, int]:
    """Wall time in seconds and exit status of one child interpreter."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=src, env=env,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, done.returncode


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": round(median * 1e3, 1), "q1_ms": round(q1 * 1e3, 1),
            "q3_ms": round(q3 * 1e3, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path)
    ap.add_argument("--runs", type=int, default=20)
    args = ap.parse_args(argv)
    if args.runs < 20:
        ap.error("--runs must be at least 20")
    for tree in args.trees:
        if not (tree / "src" / "desiree").is_dir():
            ap.error(f"{tree} holds no src/desiree")
    with tempfile.TemporaryDirectory(prefix="desiree-startup-") as tmp:
        tmp = Path(tmp)
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
        base["PYTHONDONTWRITEBYTECODE"] = "1"
        sides = []
        for i, tree in enumerate(args.trees):
            src = tmp / f"tree{i}"
            shutil.copytree(tree / "src" / "desiree", src / "desiree",
                            ignore=shutil.ignore_patterns("__pycache__"))
            cold = {**base, "PYTHONPATH": str(src)}
            warm = {**cold, "PYTHONPYCACHEPREFIX": str(tmp / f"pyc{i}")}
            filling = {k: v for k, v in warm.items()
                       if k != "PYTHONDONTWRITEBYTECODE"}
            for cmd in COMMANDS.values():
                run_once(src, cmd, filling)
            sides.append((src, {"cold": cold, "warm": warm}))
        results = {}
        for state in ("cold", "warm"):
            for name, cmd in COMMANDS.items():
                times = ([], [])
                status = None
                for r in range(args.runs):
                    for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                        src, envs = sides[side]
                        t, code = run_once(src, cmd, envs[state])
                        if status is None:
                            status = code
                        elif code != status:
                            print(f"{state} {name} on tree {side} exited "
                                  f"{code}, first run {status}",
                                  file=sys.stderr)
                            return 1
                        times[side].append(t)
                results.setdefault(state, {})[name] = {
                    "exit_status": status,
                    "parent": summary(times[0]),
                    "change": summary(times[1]),
                    "change_faster_rounds": sum(
                        b < a for a, b in zip(*times)),
                }
    print(json.dumps({
        "trees": {"parent": str(args.trees[0]),
                  "change": str(args.trees[1])},
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "runs_per_side": args.runs,
        "results": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
