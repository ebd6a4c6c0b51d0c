"""Outside-in tracer: spans around desiree's public functions.

desiree imports its functions by name (`from .subsume import subsumes`),
so wrapping a function in its home module alone would miss most calls.
`Tracer.install` therefore finds every binding site of each traced
function, in every loaded `desiree` module, and replaces each with a
wrapper; `uninstall` puts the originals back. The program itself is not
changed.

Spans are kept in memory as [id, parent id, name, start, end] with
`time.perf_counter` times; counts are kept in a Counter at the same
boundaries. A span's self time is its duration minus the durations of
its direct children. Nothing is written until `write` is called at the
end of a run. A Tracer made with keep_spans=False only counts, so it
holds no memory that grows with the number of calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

_clock = time.perf_counter

# Clock readings are floats; sums of differences may drift by rounding.
_EPS = 1e-9


class Tracer:
    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # records of the open spans
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, on_result=None, on_error=None,
             outermost=False):
        """Wrap fn in a span; hooks see (tracer, args, result/exception).

        With outermost=True a call made directly inside a span of the
        same name is passed through untraced (for recursive functions).
        """
        spans, stack, keep = self.spans, self._stack, self.keep_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1][0] if stack else -1, name,
                   _clock(), 0.0]
            if keep:
                spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = _clock()
                stack.pop()
                if on_error is not None:
                    on_error(self, args, exc)
                raise
            rec[4] = _clock()
            stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def counting(self, fn, on_result):
        """Wrap fn with a count hook only, no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(self, args, result)
            return result

        return counted

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, _, _, t0, t1), c in zip(self.spans, child)]

    def self_times_consistent(self) -> bool:
        """Children's self times never add up to more than the parent."""
        selfs = self.self_times()
        child_self = [0.0] * len(self.spans)
        for (_, parent, _, _, _), s in zip(self.spans, selfs):
            if parent >= 0:
                child_self[parent] += s
        return all(cs <= t1 - t0 + _EPS and s >= -_EPS
                   for (_, _, _, t0, t1), cs, s
                   in zip(self.spans, child_self, selfs))

    def totals(self) -> tuple[Counter, Counter]:
        """Total duration and total self time per span name, in seconds."""
        dur, own = Counter(), Counter()
        for (_, _, name, t0, t1), s in zip(self.spans, self.self_times()):
            dur[name] += t1 - t0
            own[name] += s
        return dur, own

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for (idx, parent, name, t0, t1), s in zip(self.spans,
                                                     self.self_times()):
                fh.write(json.dumps({"id": idx, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "self": s}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding site of every function in LAYERS."""
        for owner_name, attr, make in LAYERS:
            owner = _resolve(owner_name)
            original = getattr(owner, attr)
            for module, name in binding_sites(original):
                hook = SITE_HOOKS.get((module.__name__, name))
                self._patch(module, name, make(self, original, hook))
            if isinstance(owner, type):
                self._patch(owner, attr, make(self, original, None))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)


def _resolve(dotted: str):
    module, _, cls = dotted.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def binding_sites(fn) -> list[tuple[object, str]]:
    """(module, name) for every desiree module attribute that is fn."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "desiree"
                                  or mod_name.startswith("desiree.")):
            continue
        for name, value in vars(module).items():
            if value is fn:
                sites.append((module, name))
    return sites


# ---------------------------------------------------------------------------
# What is traced. Each entry: (owner, attribute, wrapper factory). The
# factory gets the tracer, the original function and a per-site hook.


def _count(key, measure=lambda args, result: 1):
    def hook(tr, args, result):
        tr.counts[key] += measure(args, result)
    return hook


def _both(*hooks):
    hooks = [h for h in hooks if h is not None]

    def hook(tr, args, result):
        for h in hooks:
            h(tr, args, result)
    return hook


def _spanned(name, on_result=None, on_error=None, outermost=False):
    def make(tr, fn, site_hook):
        return tr.span(name, fn, _both(on_result, site_hook), on_error,
                       outermost)
    return make


def _counted(on_result):
    def make(tr, fn, site_hook):
        return tr.counting(fn, _both(on_result, site_hook))
    return make


def _verdict_key(result) -> str:
    return type(result).__name__.lower()  # proved / disproved / unknown


def _on_structural(tr, args, result):
    tr.counts["structural.calls"] += 1
    tr.counts["structural.proved"] += bool(result)


def _on_structural_error(tr, args, exc):
    tr.counts["structural.calls"] += 1
    if type(exc).__name__ == "DnfOverflow":
        tr.counts["structural.dnf_overflows"] += 1


def _on_context(tr, args, result):
    tr.counts["context.builds"] += 1
    tr.counts["context.axioms_scanned"] += len(args[0].axioms)


def _on_claim(tr, args, result):
    tr.counts["strength.claims"] += 1
    tr.counts["strength." + result[0]] += 1


def _on_search(tr, args, result):
    tr.counts["oracle.searches"] += 1
    tr.counts["oracle.witnesses"] += result is not None


def _on_search_error(tr, args, exc):
    tr.counts["oracle.searches"] += 1
    if type(exc).__name__ == "BoundsExceeded":
        tr.counts["oracle.bounds_exceeded"] += 1


def _on_kernel(tr, args, idx):
    total = args[0]
    tr.counts["kernels.calls"] += 1
    tr.counts["kernels.interps_space"] += total
    tr.counts["kernels.interps_scanned"] += total if idx < 0 else idx + 1
    tr.counts["kernels.exhaustive"] += idx < 0


def _on_subsume(tr, args, result):
    tr.counts["subsume.calls"] += 1
    tr.counts["subsume." + _verdict_key(result)] += 1


def _on_query_match(tr, args, result):
    tr.counts["query.match.subsumes_calls"] += 1
    tr.counts["query.match.tentative"] += _verdict_key(result) == "unknown"


LAYERS = [
    ("desiree.syntax.lexer", "tokenize",
     _spanned("syntax.lexer",
              _count("lexer.tokens", lambda a, r: len(r)))),
    ("desiree.syntax.parser", "parse_model_file",
     _spanned("syntax.parser",
              _count("parser.decls", lambda a, r: len(r.declarations)))),
    ("desiree.syntax.parser", "parse_description",
     _spanned("syntax.parser")),
    ("desiree.model", "load_model",
     _spanned("model.load",
              _count("model.applications",
                     lambda a, r: len(r.applications)))),
    ("desiree.reasoner.normal:ReasonerContext", "__post_init__",
     _spanned("reasoner.normal.context", _on_context)),
    ("desiree.reasoner.normal", "structural_subsumes",
     _spanned("reasoner.normal.structural", _on_structural,
              _on_structural_error, outermost=True)),
    ("desiree.reasoner.strength", "verify_claim",
     _spanned("reasoner.strength", _on_claim)),
    ("desiree.reasoner.entail", "entails",
     _spanned("reasoner.entail", _count("entail.calls"))),
    ("desiree.reasoner.subsume", "subsumes",
     _spanned("reasoner.subsume", _on_subsume)),
    ("desiree.reasoner.oracle", "oracle_disprove",
     _spanned("reasoner.oracle", _on_search, _on_search_error)),
    ("desiree.reasoner.oracle", "select_axioms",
     _counted(_count("oracle.axioms_selected", lambda a, r: len(r)))),
    ("desiree.reasoner.compile", "assemble",
     _spanned("reasoner.compile")),
    ("desiree.reasoner.kernels", "find_violation",
     _spanned("reasoner.kernels", _on_kernel)),
    ("desiree.reasoner.semantics", "violates_subsumption",
     _spanned("reasoner.semantics")),
    ("desiree.reasoner.semantics", "satisfies_axioms",
     _spanned("reasoner.semantics")),
    ("desiree.reasoner.consistency", "check_consistency",
     _spanned("reasoner.consistency",
              _count("consistency.clashes", lambda a, r: len(r)))),
    ("desiree.query", "extract_facts",
     _spanned("query.extract",
              _count("query.nodes", lambda a, r: len(r.nodes)))),
    ("desiree.query", "eval_query", _spanned("query.eval")),
    ("desiree.cli", "main", _spanned("cli")),
]

# Hooks that apply at one binding site only: the query matcher's calls
# into subsumes are its node matches.
SITE_HOOKS = {
    ("desiree.query", "subsumes"): _on_query_match,
}


def layer_metrics(tr: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass: name -> (value, unit)."""
    dur, own = tr.totals()
    c = tr.counts
    n = max(passes, 1)

    def ms(total):
        return total * 1000.0 / n

    def per(key):
        return c[key] / n

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    kernel_s = dur["reasoner.kernels"]
    return {
        "syntax.lexer.ms": (ms(dur["syntax.lexer"]), "ms"),
        "syntax.lexer.tokens": (per("lexer.tokens"), "count"),
        "syntax.parser.self_ms": (ms(own["syntax.parser"]), "ms"),
        "syntax.parser.decls": (per("parser.decls"), "count"),
        "model.load.self_ms": (ms(own["model.load"]), "ms"),
        "model.applications": (per("model.applications"), "count"),
        "reasoner.normal.context_builds": (per("context.builds"), "count"),
        "reasoner.normal.context_ms": (
            ms(dur["reasoner.normal.context"]), "ms"),
        "reasoner.normal.context_axioms_scanned": (
            per("context.axioms_scanned"), "count"),
        "reasoner.normal.structural_calls": (
            per("structural.calls"), "count"),
        "reasoner.normal.structural_ms": (
            ms(dur["reasoner.normal.structural"]), "ms"),
        "reasoner.normal.structural_proved_ratio": (
            ratio("structural.proved", "structural.calls"), "ratio"),
        "reasoner.normal.dnf_overflows": (
            per("structural.dnf_overflows"), "count"),
        "reasoner.strength.claims": (per("strength.claims"), "count"),
        "reasoner.strength.self_ms": (ms(own["reasoner.strength"]), "ms"),
        "reasoner.strength.verified": (per("strength.verified"), "count"),
        "reasoner.strength.violated": (per("strength.violated"), "count"),
        "reasoner.strength.unknown": (per("strength.unknown"), "count"),
        "reasoner.entail.calls": (per("entail.calls"), "count"),
        "reasoner.entail.self_ms": (ms(own["reasoner.entail"]), "ms"),
        "reasoner.subsume.calls": (per("subsume.calls"), "count"),
        "reasoner.subsume.proved": (per("subsume.proved"), "count"),
        "reasoner.subsume.disproved": (per("subsume.disproved"), "count"),
        "reasoner.subsume.unknown": (per("subsume.unknown"), "count"),
        "reasoner.subsume.self_ms": (ms(own["reasoner.subsume"]), "ms"),
        "reasoner.oracle.searches": (per("oracle.searches"), "count"),
        "reasoner.oracle.self_ms": (ms(own["reasoner.oracle"]), "ms"),
        "reasoner.oracle.witness_ratio": (
            ratio("oracle.witnesses", "oracle.searches"), "ratio"),
        "reasoner.oracle.bounds_exceeded": (
            per("oracle.bounds_exceeded"), "count"),
        "reasoner.oracle.axioms_selected": (
            per("oracle.axioms_selected"), "count"),
        "reasoner.compile.ms": (ms(dur["reasoner.compile"]), "ms"),
        "reasoner.kernels.ms": (ms(kernel_s), "ms"),
        "reasoner.kernels.interps_space": (
            per("kernels.interps_space"), "count"),
        "reasoner.kernels.interps_scanned": (
            per("kernels.interps_scanned"), "count"),
        "reasoner.kernels.interps_per_s": (
            c["kernels.interps_scanned"] / kernel_s if kernel_s else 0.0,
            "1/s"),
        "reasoner.kernels.exhaustive_ratio": (
            ratio("kernels.exhaustive", "kernels.calls"), "ratio"),
        "reasoner.semantics.replay_ms": (
            ms(dur["reasoner.semantics"]), "ms"),
        "reasoner.consistency.ms": (ms(dur["reasoner.consistency"]), "ms"),
        "reasoner.consistency.clashes": (
            per("consistency.clashes"), "count"),
        "query.extract.ms": (ms(dur["query.extract"]), "ms"),
        "query.nodes": (per("query.nodes"), "count"),
        "query.eval.self_ms": (ms(own["query.eval"]), "ms"),
        "query.match.subsumes_calls": (
            per("query.match.subsumes_calls"), "count"),
        "query.match.tentative": (per("query.match.tentative"), "count"),
        "cli.self_ms": (ms(own["cli"]), "ms"),
    }
