#!/usr/bin/env python3
"""One digest over desiree's command-line output on a fixed command set.

A change that must not alter any output (a refactor, a speed-up) can be
checked by running this script at both commits and comparing the line
it prints. It runs, in-process through `desiree.cli.main`:

- `check`, `check --json`, `stats --json`, `export --format json` and
  `fmt` on both bundled corpus files and on every extra model path
  given on the command line;
- `query` and `query --lenient --json` on both corpus files, for each
  query of `CORPUS_QUERIES` in `perfbench/workloads.py`;
- `entail --json` on both corpus files, for every ordered pair of
  element ids.

It prints the number of commands and one sha256 over the
(argv, exit status, stdout, stderr) of each, in order. A second line
does the same for the normal-form cap: `check --json` on every model
path and `entail --json` on every ordered pair of each corpus file, each
under `--max-dnf 1`, `2` and `3`. Every model path is written relative
to the checkout root when it lies inside it, else as its file name
alone, so the digests do not depend on where the checkout lies or on
the directory the script runs from. Run from anywhere:

    python3 benchmarks/golden_outputs.py [EXTRA.dsr ...]

For example, the front-end gate compares the digest over the 11 seed-1
synth-check models and the seed-1 entail-search theory (the files that
`perfbench/run.py` writes to `.perfbench_out/inputs/`) at two commits.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from desiree import cli  # noqa: E402
from desiree.model import load_model  # noqa: E402
from workloads import CORPUS_QUERIES  # noqa: E402

CORPUS_DIR = ROOT / "src" / "desiree" / "corpus"
CORPORA = [CORPUS_DIR / "meeting_scheduler.dsr",
           CORPUS_DIR / "meeting_scheduler_clean.dsr"]
MODEL_COMMANDS = [["check"], ["check", "--json"], ["stats", "--json"],
                  ["export", "--format", "json"], ["fmt"]]
MAX_DNF_CAPS = ("1", "2", "3")


def shown(path: Path) -> str:
    path = path.resolve()
    if path.is_relative_to(ROOT):
        return str(path.relative_to(ROOT))
    return path.name


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def pairs(path: Path):
    """Every ordered pair of the model's element ids."""
    ids = list(load_model(path.read_text(encoding="utf-8")).elements)
    return [(a, b) for a in ids for b in ids]


def commands(extra: list[Path]):
    """(model path, argv after the command name's file argument) pairs."""
    for path in CORPORA + extra:
        for cmd in MODEL_COMMANDS:
            yield path, cmd[:1] + [str(path)] + cmd[1:]
    for path in CORPORA:
        for query, _proved, _holds in CORPUS_QUERIES:
            yield path, ["query", str(path), query]
            yield path, ["query", str(path), query, "--lenient", "--json"]
        for a, b in pairs(path):
            yield path, ["entail", str(path), a, b, "--json"]


def capped_commands(extra: list[Path]):
    """The commands of the second line, one cap at a time."""
    for cap in MAX_DNF_CAPS:
        for path in CORPORA + extra:
            yield path, ["check", str(path), "--json", "--max-dnf", cap]
        for path in CORPORA:
            for a, b in pairs(path):
                yield path, ["entail", str(path), a, b, "--json",
                             "--max-dnf", cap]


def digest(cmds) -> str:
    """'N commands sha256 H' over the outputs of (path, argv) commands."""
    h = hashlib.sha256()
    count = 0
    for path, cmd in cmds:
        status, out, err = run(cmd)
        full, rel = str(path), shown(path)
        record = [[rel if a == full else a for a in cmd], status,
                  out.replace(full, rel), err.replace(full, rel)]
        h.update(json.dumps(record).encode("utf-8") + b"\n")
        count += 1
    return f"{count} commands sha256 {h.hexdigest()}"


def main(argv: list[str]) -> int:
    extra = [Path(p) for p in argv]
    print(digest(commands(extra)))
    print(digest(capped_commands(extra)) + " under --max-dnf "
          + ", ".join(MAX_DNF_CAPS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
