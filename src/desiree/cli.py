"""Command-line front door: check, entail, query, stats, export, fmt.

Output is deterministic: identical inputs print identical bytes, so the
commands are safe to diff in CI. Diagnostics go to stderr, results to
stdout. Exit codes: 0 clean, 1 error-level diagnostics, 2 usage or IO
failure, 3 internal error (a defect in desiree, reported on one stderr
line, never as a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .diagnostics import (
    Diagnostic,
    E_CONS,
    E_IO,
    ERROR,
    WARNING,
    has_errors,
)
from .model import load_model
from .query import run_query
from .reasoner.entail import entails
from .reasoner.interp import witness_to_dict
from .reasoner.normal import DEFAULT_MAX_DNF
from .reasoner.verdict import Disproved, Proved, Unknown
from .syntax.lexer import LexError
from .syntax.parser import ELEMENT_KINDS, ParseError, parse_model_file
from .syntax.render import render_model_file

_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def _use_color() -> bool:
    return os.environ.get("DESIREE_COLOR") == "1"


def _print_diag(d: Diagnostic, file=None):
    line = d.format()
    if _use_color():
        tint = _RED if d.severity == ERROR else _YELLOW
        line = f"{tint}{line}{_RESET}"
    print(line, file=file if file is not None else sys.stderr)


def _diag_dict(d: Diagnostic) -> dict:
    return {
        "severity": d.severity,
        "code": d.code,
        "span": str(d.span) if d.span else None,
        "message": d.message,
    }


def _emit_json(doc):
    print(json.dumps(doc, indent=2))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise UsageError(f"{E_IO} cannot read {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise UsageError(
            f"{E_IO} cannot read {path}: not UTF-8 at byte {err.start}")


class UsageError(Exception):
    pass


def _load(args):
    return load_model(_read(args.file), max_dnf=args.max_dnf)


# ---------------------------------------------------------------------------
# Commands.


def cmd_check(args) -> int:
    m = _load(args)
    clashes = m.clashes() if m.ok else []
    diags = list(m.diagnostics)
    for c in clashes:
        diags.append(Diagnostic(ERROR, E_CONS, None, c.render()))
    errors = sum(d.severity == ERROR for d in diags)
    warnings = sum(d.severity == WARNING for d in diags)
    if args.json:
        _emit_json({
            "ok": errors == 0,
            "diagnostics": [_diag_dict(d) for d in diags],
            "clashes": [{
                "anchor": c.anchor,
                "pair": list(c.pair),
                "chains": list(c.chains),
                "fact": c.fact,
            } for c in clashes],
        })
    else:
        for d in diags:
            _print_diag(d, file=sys.stdout)
        print(f"{errors} errors, {warnings} warnings, "
              f"{len(clashes)} inconsistencies")
    return 1 if errors else 0


def cmd_entail(args) -> int:
    m = _load(args)
    for d in m.diagnostics:
        _print_diag(d)
    for ident in (args.id1, args.id2):
        if ident not in m.elements:
            raise UsageError(f"unknown element {ident!r}")
    v = entails(m.elements[args.id1], m.elements[args.id2], m.context())
    status = 1 if has_errors(m.diagnostics) else 0
    if args.json:
        doc = {"verdict": type(v).__name__.lower()}
        if isinstance(v, Disproved):
            doc["witness"] = witness_to_dict(v.witness)
        elif isinstance(v, Unknown):
            doc["reason"] = v.reason
        _emit_json(doc)
        return status
    if isinstance(v, Proved):
        print("Proved")
    elif isinstance(v, Disproved):
        w = v.witness
        print("Disproved")
        print(f"  element {w.x} falls under: {w.d1_text}")
        print(f"  but not under: {w.d2_text}")
        print(f"  witness: {w.to_json()}")
    else:
        print(f"Unknown: {v.reason}")
    return status


def cmd_query(args) -> int:
    m = _load(args)
    for d in m.diagnostics:
        _print_diag(d)
    try:
        result = run_query(m, args.query)
    except (LexError, ParseError) as err:
        raise UsageError(f"bad query: {err}")
    for d in result.diagnostics:
        _print_diag(d)
    if args.json:
        _emit_json({
            "sure": result.sure,
            "tentative": result.tentative,
            "diagnostics": [_diag_dict(d) for d in result.diagnostics],
        })
    else:
        for ident in result.sure:
            print(ident)
        if args.lenient:
            for ident in result.tentative:
                print(f"{ident} # tentative")
    bad = has_errors(m.diagnostics) or has_errors(result.diagnostics)
    return 1 if bad else 0


def cmd_stats(args) -> int:
    m = _load(args)
    for d in m.diagnostics:
        _print_diag(d)
    stats = m.stats()
    if args.json:
        _emit_json(stats)
        return 1 if not m.ok else 0
    active = {k: 0 for k in ELEMENT_KINDS}
    dropped = {k: 0 for k in ELEMENT_KINDS}
    for e in m.elements.values():
        (active if e.active else dropped)[e.kind] += 1
    print("kind     total  active  dropped")
    for kind in ELEMENT_KINDS:
        total = stats["elements"]["by_kind"][kind]
        print(f"{kind:<8} {total:>5} {active[kind]:>7} {dropped[kind]:>8}")
    el = stats["elements"]
    print(f"elements {el['total']} ({el['active']} active, "
          f"{el['dropped']} dropped, {el['constructed']} constructed)")
    by_v = stats["applications"]["by_verdict"]
    verdicts = ", ".join(f"{k} {v}" for k, v in by_v.items())
    print(f"applications {stats['applications']['total']} ({verdicts})")
    th = stats["theory"]
    print(f"theory: axioms {th['axioms']}, disjoint {th['disjoint_pairs']}, "
          f"hierarchy {th['hierarchy_edges']}, factors {th['factors']}")
    cf = stats["conflicts"]
    print(f"conflicts: declared {cf['declared']}, resolved {cf['resolved']}")
    return 1 if not m.ok else 0


def cmd_export(args) -> int:
    m = _load(args)
    for d in m.diagnostics:
        _print_diag(d)
    if args.format == "dot":
        sys.stdout.write(m.to_dot())
    else:
        _emit_json(m.to_json_dict())
    return 1 if not m.ok else 0


def cmd_fmt(args) -> int:
    text = _read(args.file)
    tree = parse_model_file(text)
    if has_errors(tree.diagnostics):
        for d in tree.diagnostics:
            _print_diag(d)
        return 1
    formatted = render_model_file(tree)
    if args.write:
        with open(args.file, "w", encoding="utf-8") as fh:
            fh.write(formatted)
    else:
        sys.stdout.write(formatted)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


# The options each flag is declared with, and each command's arguments:
# a command declares only the flags it reads.
_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--lenient": dict(action="store_true",
                      help="also report tentative (unproved) matches"),
    "--max-dnf": dict(type=int, default=DEFAULT_MAX_DNF, metavar="N",
                      help="normal form disjunct cap for the reasoner"),
    "--format": dict(choices=("dot", "json"), default="json"),
    "--write": dict(action="store_true", help="rewrite the file in place"),
}

_COMMANDS = [
    ("check", cmd_check, "validate a model and report inconsistencies",
     ("file", "--json", "--max-dnf")),
    ("entail", cmd_entail, "decide whether one element entails another",
     ("file", "id1", "id2", "--json", "--max-dnf")),
    ("query", cmd_query, "answer an interrelation query",
     ("file", "query", "--json", "--lenient", "--max-dnf")),
    ("stats", cmd_stats, "print model statistics",
     ("file", "--json", "--max-dnf")),
    ("export", cmd_export, "export the model as dot or json",
     ("file", "--max-dnf", "--format")),
    ("fmt", cmd_fmt, "reprint a model file in canonical form",
     ("file", "--write")),
]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built at the first `main` call and
    reused by every later one in the process."""
    top = argparse.ArgumentParser(
        prog="desiree",
        description="Check, reason about, query, and format "
                    "requirement models.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, func, help_text, params in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for param in params:
            p.add_argument(param, **_FLAGS.get(param, {}))
        p.set_defaults(func=func, parser=p)
    return top


def main(argv=None) -> int:
    """Run one command; the exit status is 0 clean, 1 model errors,
    2 usage or IO failure, 3 internal error."""
    args, extra = _parser().parse_known_args(argv)
    if extra:  # reported with the command's own usage line
        args.parser.error("unrecognized arguments: " + " ".join(extra))
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        message = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
