"""Self-tests for the benchmark. Run: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, binding_sites  # noqa: E402


# ---------------------------------------------------------------------------
# The generators are pure functions of their seed.


@pytest.mark.parametrize("variant", ["clash", "refuted", "clean"])
def test_synth_model_is_deterministic(variant):
    a = synth.synth_model(7, 12, variant)
    b = synth.synth_model(7, 12, variant)
    assert a.text == b.text and a.sha256 == b.sha256
    assert (a.clash_anchors, a.claims, a.exit_status) == (
        b.clash_anchors, b.claims, b.exit_status)
    assert synth.synth_model(8, 12, variant).text != a.text


def test_synth_ladder_top_rung_has_2k_elements():
    groups, variant = max(workloads.SYNTH_LADDER)
    assert synth.synth_model(1, groups, variant).elements >= 2000


def test_entail_theory_is_deterministic():
    a, b = synth.entail_theory(3, pairs=60), synth.entail_theory(3, pairs=60)
    assert a.text == b.text and a.sha256 == b.sha256
    assert a.pairs == b.pairs
    assert synth.entail_theory(4, pairs=60).sha256 != a.sha256


def test_synth_model_plants_every_truth_class():
    sm = synth.synth_model(3, 6, "refuted")
    truths = set(sm.claims.values())
    assert truths == {synth.PROVED, synth.HOLDS, synth.REFUTED}
    assert sm.exit_status == 1 and sm.clash_anchors == []
    clean = synth.synth_model(3, 6, "clean")
    assert synth.REFUTED not in clean.claims.values()
    assert clean.exit_status == 0


def test_entail_mix_is_fixed_per_block():
    pairs = synth.entail_theory(5, pairs=200).pairs
    planted = [p.planted for p in pairs]
    assert planted.count(synth.REFUTED) == 150
    assert planted.count(synth.HOLDS) == 20
    assert planted.count(synth.PROVED) == 30


def test_synth_model_diagnostics_sit_on_planted_claims():
    from desiree.model import load_model

    sm = synth.synth_model(2, 6, "refuted")
    m = load_model(sm.text)
    for d in m.diagnostics:
        assert d.span.line in sm.claims
        if d.code == workloads.REFUTED_CLAIM:
            assert sm.claims[d.span.line] == synth.REFUTED


# ---------------------------------------------------------------------------
# The answer checks reject wrong answers.


@pytest.fixture(scope="module")
def entail_wl(tmp_path_factory):
    wl = workloads.EntailSearch(HERE.parent, tmp_path_factory.mktemp("in"), 9)
    wl.begin_pass()
    return wl


def _first(wl, planted):
    return next(p for p in wl.ops if p.planted == planted)


def test_entail_check_accepts_the_real_answers(entail_wl):
    for op in entail_wl.ops[:40]:
        assert entail_wl.check(op, entail_wl.run(op)) is None


def test_entail_check_rejects_forged_verdicts(entail_wl):
    proved = _first(entail_wl, synth.PROVED)
    refuted = _first(entail_wl, synth.REFUTED)
    holds = _first(entail_wl, synth.HOLDS)
    witness = entail_wl.run(refuted)
    assert entail_wl.check(refuted, "proved") is not None
    assert entail_wl.check(proved, witness) is not None
    assert entail_wl.check(holds, witness) is not None
    assert entail_wl.check(proved, "maybe") is not None
    # Unknown is never wrong, and proving a true pair is always right.
    for op in (proved, refuted, holds):
        assert entail_wl.check(op, "unknown forged") is None
    assert entail_wl.check(holds, "proved") is None


def test_entail_check_rejects_a_witness_that_does_not_replay(entail_wl):
    op = _first(entail_wl, synth.REFUTED)
    out = entail_wl.run(op)
    assert entail_wl.check(op, out) is None
    doc = json.loads(out.split(" ", 1)[1])
    doc["atoms"] = {a: [] for a in doc["atoms"]}  # nothing in d1 any more
    forged = "disproved " + json.dumps(doc, sort_keys=True)
    assert entail_wl.check(op, forged) == (
        f"{op.left} => {op.right} ({op.planted}): witness does not replay")


def test_corpus_check_rejects_a_wrong_answer(tmp_path):
    wl = workloads.CorpusQuery(HERE.parent, tmp_path, 1)
    op = next(o for o in wl.ops if o[0] == "<object: Product>")
    assert wl.check(op, wl.run(op)) is None
    assert wl.check(op, json.dumps([0, "F1\nF_book\n", ""])) is not None
    assert wl.check(op, json.dumps([1, "F1\n", ""])) is not None
    assert wl.check(op, json.dumps([0, "", ""])) is None  # undecided


def test_corpus_check_accepts_true_answers_only(tmp_path):
    wl = workloads.CorpusQuery(HERE.parent, tmp_path, 1)
    query, proved, holds, _ = next(
        o for o in wl.ops if o[0] == "<is_object_of: F_book2>")
    strict, lenient = (query, proved, holds, False), (query, proved, holds,
                                                      True)
    out = wl.run(lenient)
    assert wl.check(lenient, out) is None
    # A sound prover may make the true answers sure, never Product.
    sure = "".join(f"{a}\n" for a in sorted(proved + holds))
    assert wl.check(strict, json.dumps([0, sure, ""])) is None
    forged = "".join(f"{a}\n" for a in sorted(proved + ["Product"]))
    assert wl.check(strict, json.dumps([0, forged, ""])) is not None
    # With --lenient, a true answer may not go missing.
    assert wl.check(lenient, json.dumps([0, "Airline_ticket\n", ""])) \
        is not None


def _with_diagnostics(output, diagnostics, status=None):
    old_status, out, err = json.loads(output)
    doc = json.loads(out)
    doc["diagnostics"] = diagnostics
    status = old_status if status is None else status
    doc["ok"] = status == 0
    return json.dumps([status, json.dumps(doc), err])


def test_synth_check_rejects_wrong_claim_verdicts(tmp_path):
    wl = workloads.SynthCheck(HERE.parent, tmp_path, 1)
    op = next(i for i, (_, sm) in enumerate(wl.models)
              if synth.REFUTED in sm.claims.values())
    sm = wl.models[op][1]
    out = wl.run(op)
    assert wl.check(op, out) is None
    status, _, _ = json.loads(out)
    assert wl.check(op, json.dumps([1 - status] + json.loads(out)[1:])) \
        is not None
    diags = json.loads(json.loads(out)[1])["diagnostics"]
    by_line = {int(d["span"].split(":")[0]): d for d in diags}
    refuted = [ln for ln, t in sm.claims.items() if t == synth.REFUTED]
    proved = [ln for ln, t in sm.claims.items() if t == synth.PROVED]
    holds = [ln for ln, t in sm.claims.items() if t == synth.HOLDS]
    # Verifying a refuted claim is wrong.
    dropped = [d for ln, d in by_line.items() if ln != refuted[0]]
    assert wl.check(op, _with_diagnostics(out, dropped)) is not None
    # Refuting a true claim is wrong.
    forged = diags + [dict(by_line[refuted[0]], span=f"{proved[0]}:1")]
    assert wl.check(op, _with_diagnostics(out, forged)) is not None
    # Verifying a claim that holds is right, though undecided today.
    kept = [d for ln, d in by_line.items() if ln != holds[0]]
    assert wl.check(op, _with_diagnostics(out, kept)) is None
    # Leaving a refuted claim undecided is not wrong; with every one left
    # undecided the model has no error any more.
    undecided = [dict(d, code=workloads.UNDECIDED_CLAIM) for d in diags]
    assert wl.check(op, _with_diagnostics(out, undecided)) is not None
    assert wl.check(op, _with_diagnostics(out, undecided, status=0)) is None


def test_synth_check_ties_the_output_to_the_strength_tally(tmp_path):
    from collections import Counter

    wl = workloads.SynthCheck(HERE.parent, tmp_path, 1)
    op = min(wl.ops)
    sm = wl.models[op][1]
    out = wl.run(op)
    undecided = sum(t == synth.HOLDS for t in sm.claims.values())
    tally = Counter({"strength.claims": len(sm.claims),
                     "strength.unknown": undecided})
    assert wl.check(op, out, tally) is None
    tally["strength.unknown"] -= 1
    assert wl.check(op, out, tally) is not None


# ---------------------------------------------------------------------------
# Tracer arithmetic and installation.


def _tree(spans):
    tr = Tracer()
    tr.spans.extend([list(s) for s in spans])
    return tr


def test_self_time_arithmetic_on_a_hand_built_tree():
    tr = _tree([(0, -1, "a", 0.0, 10.0),
                (1, 0, "b", 1.0, 4.0),
                (2, 1, "c", 2.0, 3.0),
                (3, 0, "d", 5.0, 9.0)])
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert tr.self_times_consistent()
    dur, own = tr.totals()
    assert dur["a"] == 10.0 and own["a"] == 3.0 and own["b"] == 2.0


def test_self_time_check_catches_overlapping_children():
    tr = _tree([(0, -1, "a", 0.0, 4.0),
                (1, 0, "b", 0.0, 3.0),
                (2, 0, "c", 1.0, 4.0)])
    assert not tr.self_times_consistent()


def test_install_wraps_every_binding_site_and_uninstall_restores():
    import desiree.cli  # noqa: F401  loads every module that binds
    from desiree import query
    from desiree.reasoner import entail, kernels, oracle, strength, subsume

    original, find = subsume.subsumes, kernels.find_violation
    sites = {(m.__name__, n) for m, n in binding_sites(original)}
    assert {("desiree.query", "subsumes"),
            ("desiree.reasoner.strength", "subsumes"),
            ("desiree.reasoner.entail", "subsumes")} <= sites
    tr = Tracer()
    tr.install()
    try:
        for module in (query, strength, entail, subsume):
            assert module.subsumes is not original
        assert oracle.kernels.find_violation is not find
        assert binding_sites(original) == []
    finally:
        tr.uninstall()
    assert query.subsumes is original and strength.subsumes is original
    assert kernels.find_violation is find


def test_traced_query_counts_node_matches():
    from desiree.model import load_model
    from desiree.query import run_query

    m = load_model((HERE.parent / workloads.CORPUS).read_text())
    tr = Tracer()
    tr.install()
    try:
        import desiree.query as q
        q.run_query(m, "<object: Product>")
    finally:
        tr.uninstall()
    assert tr.counts["query.match.subsumes_calls"] > 0
    assert tr.counts["query.match.subsumes_calls"] == tr.counts["subsume.calls"]
    assert tr.self_times_consistent()
    assert run_query(m, "<object: Product>").sure == ["F1"]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    lats = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail_latency(lats, 100)
    assert pct == 90.0 and beyond == 10
    assert value == pytest.approx(90.1)


def test_tail_percentile_depends_on_the_guaranteed_count_only():
    lats = [float(i) for i in range(1, 301)]
    assert run.tail_latency(lats, 55)[1] == 80.0
    assert run.tail_latency(lats, 1000)[1] == 99.0
    assert run.tail_latency(lats, 100)[2] == 30


# ---------------------------------------------------------------------------
# compare.py refuses incorrect runs.


def _result_dir(path, correct, fail_ratio, wall):
    path.mkdir()
    stamp = {"python": "3", "numpy": "1", "kernel_backend": "numpy",
             "nproc": 2, "seconds": 1, "workload": "entail-search",
             "seed": 1, "inputs": {"x": "0"}, "commit": None,
             "source_sha256": "0" * 64}
    doc = {"stamp": stamp, "fail_ratio": fail_ratio,
           "result": {"correct": correct,
                      "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}
    (path / "entail-search-seed1-trace0.json").write_text(json.dumps(doc))
    return str(path)


def test_compare_refuses_incorrect_runs(tmp_path):
    import compare

    base = _result_dir(tmp_path / "base", True, 0.0, 1.0)
    same = _result_dir(tmp_path / "same", True, 0.0, 1.01)
    wrong = _result_dir(tmp_path / "wrong", False, 0.01, 0.5)
    assert compare.main([base, same]) == 0
    assert compare.main([base, wrong]) == 1
    assert compare.main([wrong, same]) == 1
