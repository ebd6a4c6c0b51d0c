"""Acceptance checklist: one test per shipped guarantee.

Each criterion is a single test so a verbose run reads as a checklist;
every test also prints its own [PASS] line for -s runs. Timing bounds
are part of the contract and asserted directly.
"""

import json
import random
import time
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

from desiree.model import load_model
from desiree.operators import scale_region
from desiree.query import run_query
from desiree.reasoner.entail import entails
from desiree.reasoner.normal import (
    DnfOverflow,
    ReasonerContext,
    structural_subsumes,
)
from desiree.reasoner.oracle import BoundsExceeded, oracle_disprove
from desiree.reasoner.semantics import replay_witness
from desiree.reasoner.strength import admissible_strengths
from desiree.reasoner.verdict import is_proved
from desiree.syntax import ast
from desiree.syntax.parser import (
    QualityBody,
    ScaleQuantitative,
    parse_description,
    parse_model_file,
)
from desiree.syntax.render import render_description, render_model_file

F = Fraction

CORPUS = (resources.files("desiree") / "corpus"
          / "meeting_scheduler.dsr").read_text()


def report(n, label):
    print(f"[PASS] criterion {n}: {label}")


# ---------------------------------------------------------------------------
# 1. Region scaling is exact rational arithmetic.


def test_criterion_1_region_scaling_exact():
    base = ast.Interval(F(0), F(30), "Sec")
    t0 = time.perf_counter()
    widened, _ = scale_region(base, ScaleQuantitative(F(1), F(6, 5)),
                              "down", {})
    tightened, _ = scale_region(base, ScaleQuantitative(F(1), F(2, 3)),
                                "up", {})
    elapsed = time.perf_counter() - t0
    assert widened == ast.Interval(F(0), F(36), "Sec")
    assert tightened == ast.Interval(F(0), F(20), "Sec")
    assert isinstance(widened.hi, Fraction)
    assert isinstance(tightened.hi, Fraction)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    report(1, "interval scaling reproduces [0,36] and [0,20] exactly")


# ---------------------------------------------------------------------------
# 2. Relaxation-rate entailment is monotone in the retained fraction.


def _relaxed(body, pct):
    return SimpleNamespace(kind="qc", body=body, relaxations={
        "observed_by": pct})


def test_criterion_2_relaxation_rate_monotonicity():
    rng = random.Random(23)
    qualities = ("Speed", "Style", "Accuracy", "Response_time")
    subjects = ("F0", "The_system", "The_interface")
    t0 = time.perf_counter()
    for _ in range(100):
        if rng.random() < 0.5:
            region = ast.Named(rng.choice(("Fast", "Good", "Simple")))
        else:
            lo = F(rng.randint(0, 10))
            region = ast.Interval(lo, lo + rng.randint(1, 30), "Sec")
        body = QualityBody(rng.choice(qualities),
                           ast.Atom(rng.choice(subjects)), region)
        lo_pct = F(rng.randint(1, 98), 100)
        hi_pct = lo_pct + F(rng.randint(1, 100 - lo_pct.numerator), 100)
        assert is_proved(entails(_relaxed(body, hi_pct),
                                 _relaxed(body, lo_pct)))
        assert is_proved(entails(_relaxed(body, hi_pct),
                                 _relaxed(body, hi_pct)))
        assert not is_proved(entails(_relaxed(body, lo_pct),
                                     _relaxed(body, hi_pct)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(2, "100 relaxation pairs: higher retained rate entails lower")


# ---------------------------------------------------------------------------
# 3. Structural proofs never contradict the bounded search.


ATOMS3 = ("A", "B", "C", "D")
SLOTS3 = ("s", "t", "u")
INDS3 = ("a", "b", "c")


def _random_description(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.40:
        if rng.random() < 0.8:
            return ast.Atom(rng.choice(ATOMS3))
        return ast.Enum(tuple(sorted(rng.sample(INDS3, rng.randint(1, 2)))))
    if roll < 0.70:
        mods = [ast.ExactlyOne(), ast.Some(), ast.Only(),
                ast.AtMost(rng.randint(0, 2)),
                ast.AtLeast(rng.randint(1, 2)),
                ast.Exactly(rng.randint(1, 2))]
        return ast.Slot(rng.choice(SLOTS3), rng.choice(mods),
                        _random_description(rng, depth + 1))
    if roll < 0.78:
        return ast.Proj(ast.Atom(rng.choice(ATOMS3)), rng.choice(SLOTS3))
    ctor = (ast.And, ast.Or, ast.Diff)[rng.randrange(3)]
    return ctor(_random_description(rng, depth + 1),
                _random_description(rng, depth + 1))


def test_criterion_3_soundness_against_the_search():
    rng = random.Random(2024)
    checked = proofs = witnesses = 0
    t0 = time.perf_counter()
    while checked < 500:
        d1 = _random_description(rng)
        d2 = _random_description(rng)
        ctx = ReasonerContext()
        try:
            proved = structural_subsumes(d1, d2, ctx)
        except DnfOverflow:
            continue
        try:
            w = oracle_disprove(d1, d2, ctx)
        except BoundsExceeded:
            continue
        checked += 1
        if proved:
            proofs += 1
            assert w is None, (
                f"proved yet refuted: {render_description(d1)} vs "
                f"{render_description(d2)}: {w.to_json()}")
        if w is not None:
            witnesses += 1
            assert replay_witness(w)
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert proofs >= 20, "generator stopped producing provable pairs"
    assert witnesses >= 100, "generator stopped producing refutable pairs"
    assert elapsed < 60, f"took {elapsed:.1f} s"
    report(3, f"500 random pairs, {proofs} proofs, {witnesses} replayed "
              "counterexamples, no contradictions")


# ---------------------------------------------------------------------------
# 4. The worked corpus: exactly three inconsistencies, frozen statistics.


def test_criterion_4_corpus_inconsistencies_and_stats():
    m = load_model(CORPUS)
    assert m.diagnostics == []
    clashes = m.clashes()
    assert [c.anchor for c in clashes] == [
        "Meeting_room", "Room_equipment", "User"]
    frozen = json.loads((resources.files("desiree") / "corpus"
                         / "meeting_scheduler.stats.json").read_text())
    assert m.stats() == frozen
    report(4, "corpus yields exactly 3 clashes and the frozen statistics")


# ---------------------------------------------------------------------------
# 5. Operator signatures: every operator accepts and rejects.


GOOD_APPLICATIONS = [
    ("interpret",
     'goal G = "g".\nfg FG = Search <actor: User>.\n'
     "interpret(G) [e] = {FG}."),
    ("reduce",
     'goal G = "g".\ngoal G1 = "h".\ngoal G2 = "i".\n'
     "reduce(G) [s] = {G1, G2}."),
    ("operationalize fg->f",
     "fg FG = Search <actor: User>.\n"
     "f F1 = Search <actor: User> <target: T>.\n"
     "operationalize(FG) [s] = {F1}."),
    ("operationalize qg->qc",
     "qg QG = Speed (F0) :: Good.\nqc QC = Speed (F0) :: [0, 9 Sec].\n"
     "operationalize(QG) [s] = {QC}."),
    ("operationalize ctg->sc",
     "ctg CTG = Meeting :< <room: SOME Room>.\n"
     "sc SC = Meeting :< <room: Room>.\n"
     "operationalize(CTG) [s] = {SC}."),
    ("operationalize goal->da",
     'goal G = "share".\nda DA = Publish :< System_function.\n'
     "operationalize(G) [w] = {DA}."),
    ("resolve",
     'goal Ga = "a".\ngoal Gb = "b".\nresolve(Ga, Gb) [w] = {Gb}.'),
    ("focus",
     "qg QG = Security ({the_system}) :: Good.\npart p of the_system.\n"
     "focus(QG, {p}) [w] = {QG_p}."),
    ("scaleup",
     "qc QC = Speed ({sys}) :: [0, 30 Sec].\n"
     "scaleup(QC, (1, 2/3)) [s] = {QC_t}."),
    ("scaledown",
     "qc QC = Speed ({sys}) :: [0, 30 Sec].\n"
     "scaledown(QC, (1, 6/5)) [w] = {QC_r}."),
    ("deuniversalize",
     "qc QC = Style ({ui}) :: Simple <observed_by: User>.\n"
     "deuniversalize(?S, QC, <observed_by: ?S>, 80%) [w] = {QC_80}."),
    ("observe",
     "qg QG = Style ({ui}) :: Simple.\n"
     "observe(QG, Surveyed_user) [s] = {QC_s}."),
]

BAD_APPLICATIONS = [
    ("interpret output count",
     'goal G = "g".\ngoal G2 = "h".\ngoal G3 = "i".\n'
     "interpret(G) [e] = {G2, G3}.",
     "E-SIG-002"),
    ("reduce input count",
     'goal G = "g".\ngoal G2 = "h".\ngoal G3 = "i".\n'
     "reduce(G, G2) [s] = {G3}.",
     "E-SIG-001"),
    ("operationalize goal->f",
     'goal G = "g".\nf F1 = Search.\noperationalize(G) [s] = {F1}.',
     "E-SIG-004"),
    ("operationalize fg->sc",
     "fg FG = Search <actor: User>.\nsc SC = Meeting :< <room: Room>.\n"
     "operationalize(FG) [s] = {SC}.",
     "E-SIG-004"),
    ("resolve input count",
     'goal G = "g".\nresolve(G) [w] = {G}.',
     "E-SIG-001"),
    ("resolve foreign output",
     'goal G = "g".\ngoal G2 = "h".\ngoal G3 = "i".\n'
     "resolve(G, G2) [w] = {G3}.",
     "E-SIG-002"),
    ("focus on a plain goal",
     'goal G = "g".\npart p of the_system.\nfocus(G, {p}) [w] = {G_p}.',
     "E-SIG-003"),
    ("scaleup that widens",
     "qc QC = Speed ({sys}) :: [0, 30 Sec].\n"
     "scaleup(QC, (1, 6/5)) [s] = {QC_t}.",
     "E-SIG-006"),
    ("scaledown that narrows",
     "qc QC = Speed ({sys}) :: [0, 30 Sec].\n"
     "scaledown(QC, (1, 2/3)) [w] = {QC_t}.",
     "E-SIG-006"),
    ("deuniversalize foreign variable",
     "qc QC = Style ({ui}) :: Simple <observed_by: User>.\n"
     "deuniversalize(?S, QC, <observed_by: ?T>, 80%) [w] = {QC_80}.",
     "E-SIG-006"),
    ("observe a function",
     "f F1 = Search.\nobserve(F1, Surveyed_user) [s] = {QC_x}.",
     "E-SIG-003"),
]


def test_criterion_5_operator_signatures():
    for label, src in GOOD_APPLICATIONS:
        m = load_model(src)
        assert [d.code for d in m.diagnostics] == [], label
        assert all(a.verdict != "invalid" for a in m.applications), label
    for label, src, code in BAD_APPLICATIONS:
        m = load_model(src)
        assert code in [d.code for d in m.diagnostics], label
    report(5, f"{len(GOOD_APPLICATIONS)} accepted and "
              f"{len(BAD_APPLICATIONS)} rejected applications, "
              "all four operationalize target families covered")


# ---------------------------------------------------------------------------
# 6. Strength admissibility: the full operator/tag table.


def test_criterion_6_strength_admissibility():
    table = {
        "reduce": "swe",
        "interpret": "se",
        "focus": "we",
        "scaleup": "se",
        "scaledown": "we",
        "deuniversalize": "w",
        "resolve": "w",
        "observe": "s",
    }
    for op, tags in table.items():
        assert admissible_strengths(op) == frozenset(tags), op
    assert admissible_strengths("deuniversalize",
                                pct=F(1)) == frozenset("we")
    assert admissible_strengths("operationalize",
                                output_kinds=("f", "da")) == frozenset("s")
    assert admissible_strengths("operationalize",
                                output_kinds=("da",)) == frozenset("w")

    # the two declared-tag rejections
    m = load_model("qc QC = Style ({ui}) :: Simple <observed_by: User>.\n"
                   "deuniversalize(?S, QC, <observed_by: ?S>, 80%) "
                   "[s] = {QC_80}.")
    assert "E-STR-001" in [d.code for d in m.diagnostics]
    m = load_model("qg QG = Style ({ui}) :: Simple.\n"
                   "observe(QG, Surveyed_user) [w] = {QC_s}.")
    assert "E-STR-001" in [d.code for d in m.diagnostics]

    # structured strengthening is proved, not merely recorded
    m = load_model("axiom Airline_ticket :< Ticket.\n"
                   "f F_book = Book <object: Ticket>.\n"
                   "f F_book2 = Book <object: Airline_ticket>.\n"
                   "reduce(F_book) [s] = {F_book2}.")
    assert m.diagnostics == []
    assert m.applications[0].verdict == "verified"
    report(6, "admissibility table, both rejections, and the verified "
              "ticket reduction")


# ---------------------------------------------------------------------------
# 7. Rendering and parsing are inverse; formatting is idempotent.


IDENTS7 = ("A", "B", "Student", "Data_set")
SLOTS7 = ("s", "actor", "when")
INDS7 = ("a", "the_system", "Mon")


def _random_region(rng, with_values=False):
    roll = rng.randrange(4 if with_values else 3)
    if roll == 0:
        return ast.Named(rng.choice(("Fast", "Good", "Nearly Fast")))
    if roll == 1:
        lo = F(rng.randint(0, 40), rng.randint(1, 4))
        hi = None if rng.random() < 0.3 else lo + rng.randint(0, 30)
        return ast.Interval(lo, hi, rng.choice((None, "Sec", "MB")))
    if roll == 2:
        lo = F(rng.randint(0, 100), 100)
        return ast.Percent(lo, min(lo + F(rng.randint(0, 50), 100), F(1)))
    values = rng.sample(("Mon", "Wed", "3", "5"), rng.randint(1, 3))
    return ast.ValueSet(tuple(values))


def _random_ast(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        if rng.random() < 0.6:
            return ast.Atom(rng.choice(IDENTS7))
        return ast.Enum(tuple(rng.sample(INDS7, rng.randint(1, 2))))
    if roll < 0.45:
        return ast.Slot("has_value_in", ast.ExactlyOne(),
                        _random_region(rng, with_values=True))
    if roll < 0.65:
        mods = [ast.ExactlyOne(), ast.Some(), ast.Only(),
                ast.AtMost(rng.randint(0, 3)),
                ast.AtLeast(rng.randint(1, 3)),
                ast.Exactly(rng.randint(1, 3))]
        filler = (_random_region(rng) if rng.random() < 0.25
                  else _random_ast(rng, depth + 1))
        return ast.Slot(rng.choice(SLOTS7), rng.choice(mods), filler)
    if roll < 0.72:
        base = (ast.Atom(rng.choice(IDENTS7)) if rng.random() < 0.5
                else ast.Enum(tuple(rng.sample(INDS7, rng.randint(1, 2)))))
        return ast.Proj(base, rng.choice(SLOTS7))
    ctor = (ast.And, ast.Or, ast.Diff)[rng.randrange(3)]
    return ctor(_random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_criterion_7_round_trip_and_idempotent_formatting():
    rng = random.Random(41)
    t0 = time.perf_counter()
    for i in range(1000):
        d = _random_ast(rng)
        text = render_description(d)
        assert parse_description(text) == d, f"case {i}: {text}"
    once = render_model_file(parse_model_file(CORPUS))
    assert render_model_file(parse_model_file(once)) == once
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"took {elapsed:.1f} s"
    report(7, "1000 rendered syntax trees re-parse equal; corpus "
              "formatting is a fixed point")


# ---------------------------------------------------------------------------
# 8. Interrelation queries on the worked corpus.


def test_criterion_8_query_suite():
    m = load_model(CORPUS)
    assert m.diagnostics == []

    def sure(text):
        return run_query(m, text).sure

    assert sure("<has_quality: Processing_time>") == ["F1"]
    assert sure("<inheres_in: {the_product}>") == ["Appearance@the_product"]
    assert sure("<is_actor_of: F1>") == ["User"]
    assert sure("<is_object_of: F1>") == ["Product"]
    assert sure("<object: Product>") == ["F1"]

    fast_enough = "<has_quality: Processing_time <has_value_in: <=5 Sec>>"
    assert run_query(m, fast_enough).sure == []
    tightened = load_model(
        CORPUS + "\nscaleup(QC1, (1, 1/6)) [s] = {QC2}.\n")
    assert tightened.diagnostics == []
    assert run_query(tightened, fast_enough).sure == ["F1"]
    report(8, "five interrelation queries plus the tightening scenario")
