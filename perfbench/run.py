#!/usr/bin/env python3
"""desiree's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-query --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src`.
One client in one thread sends each operation after the previous one
returns (closed loop). A run is:

1. set-up time: fresh interpreters that import `desiree.cli` (and, for
   entail-search, load the theory), timed from outside (skipped when
   tracing);
2. a warm-up pass under a tracer that counts but keeps no spans, which
   fills caches, counts decided verdicts and checks every answer against
   its planted or hand-checked truth;
3. timed passes of the same operations until `--seconds` have gone by
   (at least MIN_PASSES), each output compared byte for byte with the
   warm-up pass. With `--trace 1` untraced and traced passes take
   turns; the per-layer metrics come from the traced ones, and
   trace.overhead_ratio is the ratio of their median pass times.

The last line of standard output is the result as JSON; the details
(environment stamp, input hashes, tail percentile used, failures) go to
`.perfbench_out/results/`, and traced spans to `.perfbench_out/traces/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 5
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "desiree" / "__init__.py").is_file():
        print(f"error: no desiree sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import desiree
    if Path(desiree.__file__).resolve().parent != (src / "desiree").resolve():
        print(f"error: imported desiree from {desiree.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    work = OUT / "inputs"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    run = Run(wl, args)
    result = run.execute()
    print(json.dumps(result))
    return 0


class Run:
    def __init__(self, wl, args):
        self.wl = wl
        self.args = args
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[str | None] = []

    # -- operations ----------------------------------------------------------

    def one(self, op) -> tuple[float, str | None]:
        """Run and time one operation; None output when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(op)
        except (Exception, SystemExit) as exc:  # counted, never fatal
            dt = time.perf_counter() - t0
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return dt, None
        return time.perf_counter() - t0, out

    def timed_pass(self) -> tuple[float, list[float]]:
        """One pass; returns its wall time and per-operation latencies."""
        self.wl.begin_pass()
        lat, outs = [], []
        t0 = time.perf_counter()
        for op in self.wl.ops:
            dt, out = self.one(op)
            lat.append(dt)
            outs.append(out)
        wall = time.perf_counter() - t0
        for i, out in enumerate(outs):
            if out is not None and out != self.reference[i]:
                self.failures.append(
                    f"op {i}: output differs from the first pass")
        return wall, lat

    def warmup(self) -> tuple[int, int]:
        """Checked first pass, with the tracer counting but keeping no
        spans; returns (decided, asked)."""
        from tracer import Tracer

        tracer = Tracer(keep_spans=False)
        self.wl.begin_pass()
        tracer.install()
        outputs = []
        try:
            for op in self.wl.ops:
                before = tracer.counts.copy()
                _, out = self.one(op)
                self.reference.append(out)
                if out is None:
                    continue
                outputs.append(out)
                try:
                    reason = self.wl.check(op, out, tracer.counts - before)
                except (ValueError, KeyError, IndexError) as exc:
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
                if reason is not None:
                    self.failures.append(reason)
        finally:
            tracer.uninstall()
        return self.wl.census(tracer.counts, outputs)

    def passes(self, seconds: float, minimum: int):
        walls, lats = [], []
        start = time.perf_counter()
        while len(walls) < minimum or time.perf_counter() - start < seconds:
            wall, lat = self.timed_pass()
            walls.append(wall)
            lats.extend(lat)
        return walls, lats

    def alternate(self, tracer, seconds: float):
        """Untraced and traced passes in turn, at least two of each."""
        walls, traced = [], []
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < seconds:
            walls.append(self.timed_pass()[0])
            tracer.install()
            try:
                traced.append(self.timed_pass()[0])
            finally:
                tracer.uninstall()
        return walls, traced

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        from tracer import Tracer, layer_metrics

        args, wl = self.args, self.wl
        details: dict = {"stamp": stamp(args, wl)}
        setup = None if args.trace else measure_setup(wl.setup_code)
        decided, asked = self.warmup()
        consistent = True

        if args.trace:
            tracer = Tracer()
            walls, traced_walls = self.alternate(tracer, args.seconds)
            layers = layer_metrics(tracer, len(traced_walls))
            overhead = (statistics.median(traced_walls)
                        / statistics.median(walls))
            layers["trace.overhead_ratio"] = (overhead, "ratio")
            consistent = tracer.self_times_consistent()
            details["self_times_consistent"] = consistent
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(str(traces / f"{wl.name}-seed{args.seed}.jsonl"))
            details["spans"] = len(tracer.spans)
            details["traced_pass_walls_s"] = traced_walls
            metrics = layers
        else:
            walls, lats = self.passes(args.seconds, MIN_PASSES)
            tail, pct, beyond = tail_latency(
                lats, MIN_PASSES * len(wl.ops))
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "op_p50_ms": (statistics.median(lats) * 1000.0, "ms"),
                "op_tail_ms": (tail * 1000.0, "ms"),
                "decided_ratio": (decided / asked if asked else 0.0, "ratio"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            details["setup_samples_s"] = setup
            details["op_tail"] = {"percentile": pct, "samples": len(lats),
                                  "beyond": beyond}

        failed = len(self.failures)  # at most one per operation
        details.update({
            "pass_walls_s": walls,
            "ops_per_pass": len(wl.ops),
            "decided": decided,
            "asked": asked,
            "fail_ratio": failed / self.attempted,
            "failures": self.failures[:50],
        })
        result = {
            "correct": failed == 0 and consistent,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
        details["result"] = result
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
        print(f"{wl.name} seed {args.seed}: {len(walls)} passes, "
              f"{self.attempted} ops, {failed} failed, details in {path}",
              file=sys.stderr)
        for reason in self.failures[:10]:
            print(f"  failure: {reason}", file=sys.stderr)
        if not consistent:
            print("  span self times add up to more than a parent's duration",
                  file=sys.stderr)
        return result


# ---------------------------------------------------------------------------
# Measurements.


def measure_setup(code: str) -> list[float]:
    """Wall time of fresh interpreters running `code`, in seconds.

    The wait blocks until the child exits: `Popen.wait` with a timeout
    polls in steps of up to 50 ms, which would round every sample up to
    that grid. A timer kills a child that hangs instead.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                 env=env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            status = child.wait()
        finally:
            timer.cancel()
        samples.append(time.perf_counter() - t0)
        if status != 0:
            raise RuntimeError(f"set-up exited with status {status}")
    return samples


def percentile(xs: list[float], p: float) -> float:
    """Linear-interpolation percentile of sorted xs."""
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_latency(lats: list[float], guaranteed: int
                 ) -> tuple[float, float, int]:
    """The op_tail percentile of lats: (value, percentile, samples beyond).

    The percentile is the highest in TAIL_LADDER that leaves TAIL_BEYOND
    samples above it in a run of `guaranteed` samples, the fewest a run
    can take. It depends on the workload only, so every run and every
    commit report the same percentile.
    """
    for p in TAIL_LADDER:
        if guaranteed - 1 - int(p / 100.0 * (guaranteed - 1)) >= TAIL_BEYOND:
            break
    xs = sorted(lats)
    v = percentile(xs, p)
    return v, p, sum(x > v for x in xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Environment stamp. compare.py refuses runs whose stamps differ.


def stamp(args, wl) -> dict:
    import numpy
    from desiree.reasoner import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "desiree"),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": wl.inputs,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".dsr", ".json") and path.is_file():
            h.update(str(path.relative_to(pkg)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
