#!/usr/bin/env python3
"""Time desiree's front end: the lexer and the model-file parser.

The front-end counterpart of `bench_oracle.py`. For each input group it
reports, best of REPS runs:

- `tokenize`: microseconds per token and tokens per second;
- `parse_model_file` (which lexes too): declarations per second;
- the parser alone: `parse_model_file` minus `tokenize`, per token, so
  the lexer/parser split can be read without the tracer.

The groups are the two bundled corpus files and the synth-check models
of the benchmark (`perfbench/`): the size ladder `SYNTH_LADDER`, made by
`perfbench/synth.py` from the seed. The models are written to a
temporary directory, read back and deleted; nothing in the checkout
changes. Run from anywhere:

    python3 benchmarks/bench_syntax.py [--seed N] [--reps N]
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from desiree.syntax.lexer import tokenize  # noqa: E402
from desiree.syntax.parser import parse_model_file  # noqa: E402
import synth  # noqa: E402
from workloads import SYNTH_LADDER  # noqa: E402

CORPUS_DIR = ROOT / "src" / "desiree" / "corpus"
CORPORA = [CORPUS_DIR / "meeting_scheduler.dsr",
           CORPUS_DIR / "meeting_scheduler_clean.dsr"]


def synth_texts(seed: int) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="desiree-bench-syntax-") as tmp:
        paths = []
        for i, (groups, variant) in enumerate(SYNTH_LADDER):
            path = Path(tmp) / f"synth-{seed}-{i}-{groups}-{variant}.dsr"
            path.write_text(synth.synth_model(seed, groups, variant).text,
                            encoding="utf-8")
            paths.append(path)
        return [p.read_text(encoding="utf-8") for p in paths]


def best_of(reps: int, fn, texts: list[str]) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for text in texts:
            fn(text)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)

    groups = [("corpus", [p.read_text(encoding="utf-8") for p in CORPORA]),
              (f"synth-check seed {args.seed}", synth_texts(args.seed))]
    print(f"best of {args.reps} runs")
    for label, texts in groups:
        tokens = sum(len(tokenize(t)) for t in texts)
        decls = 0
        for text in texts:
            parsed = parse_model_file(text)
            if parsed.diagnostics:
                raise SystemExit(f"{label}: {parsed.diagnostics[0].format()}")
            decls += len(parsed.declarations)
        lex_s = best_of(args.reps, tokenize, texts)
        parse_s = best_of(args.reps, parse_model_file, texts)
        own_s = parse_s - lex_s
        print(f"{label} ({len(texts)} files, {tokens:,} tokens, "
              f"{decls:,} decls)\n"
              f"  tokenize         {lex_s * 1000:8.2f} ms "
              f"{lex_s / tokens * 1e6:6.2f} us/token "
              f"{tokens / lex_s:10,.0f} tokens/s\n"
              f"  parse_model_file {parse_s * 1000:8.2f} ms "
              f"{parse_s / tokens * 1e6:6.2f} us/token "
              f"{decls / parse_s:10,.0f} decls/s\n"
              f"  parser alone     {own_s * 1000:8.2f} ms "
              f"{own_s / tokens * 1e6:6.2f} us/token")
    return 0


if __name__ == "__main__":
    sys.exit(main())
