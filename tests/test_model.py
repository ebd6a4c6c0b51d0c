"""Model loading: signatures, construction, verdicts, and the corpus."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from desiree.model import load_model
from desiree.reasoner.entail import entails
from desiree.reasoner.normal import ReasonerContext
from desiree.reasoner.verdict import Disproved
from desiree.syntax import ast

F = Fraction


def corpus(name):
    return (resources.files("desiree") / "corpus" / name).read_text()


def load(text):
    return load_model(text)


def codes(m):
    return [d.code for d in m.diagnostics]


# ---------------------------------------------------------------------------
# Declarations.


def test_kind_body_mismatch():
    m = load('qg QG = Search <actor: User>.')
    assert codes(m) == ["E-KIND-001"]
    assert "QG" not in m.elements


def test_fc_requires_subsumption_body():
    m = load("fc FC1 = Search <actor: User>.")
    assert codes(m) == ["E-KIND-001"]


def test_reserved_effect_slot():
    m = load("f F1 = Search <effect: Booked>.")
    assert codes(m) == ["E-KIND-003"]


def test_reserved_effect_slot_in_axiom():
    m = load("axiom Search :< <effect: Anything>.")
    assert codes(m) == ["E-KIND-003"]


def test_disjoint_needs_concept_names():
    m = load("disjoint <actor: User>, Real_world_entity.")
    assert codes(m) == ["E-KIND-001"]
    assert m.disjoints == []


def test_conflict_names_must_resolve():
    m = load("conflict {G_a, G_b}.")
    assert codes(m) == ["E-REF-001", "E-REF-001"]


def test_duplicate_identifier_reported_once():
    m = load('goal G = "one".\ngoal G = "two".')
    assert codes(m) == ["E-DUP-001"]


# ---------------------------------------------------------------------------
# Application signatures.


def test_unknown_input():
    m = load("reduce(G_missing) [s] = {G_b}.")
    assert "E-REF-001" in codes(m)
    assert m.applications[0].verdict == "invalid"


def test_unknown_output():
    m = load('goal G = "g".\nreduce(G) [s] = {G_b}.')
    assert "E-REF-001" in codes(m)


def test_resolve_needs_two_inputs():
    m = load('goal G = "g".\nresolve(G) [w] = {G}.')
    assert "E-SIG-001" in codes(m)


def test_reduce_takes_one_input():
    m = load('goal G = "g".\ngoal H = "h".\ngoal K = "k".\n'
             "reduce(G, H) [s] = {K}.")
    assert "E-SIG-001" in codes(m)


def test_da_is_not_refinable():
    m = load("da D1 = User :< Person.\nda D2 = User :< Agent.\n"
             "reduce(D1) [s] = {D2}.")
    assert "E-SIG-003" in codes(m)


def test_focus_rejects_goal_input():
    m = load('goal G = "g".\nfocus(G, {Confidentiality}) [w] = {G_c}.')
    assert "E-SIG-003" in codes(m)


def test_resolve_rejects_mixed_categories():
    m = load('goal G = "g".\nf F1 = Search.\nresolve(G, F1) [w] = {G}.')
    assert "E-SIG-004" in codes(m)


def test_dropped_element_cannot_be_reused():
    m = load('goal G_a = "a".\ngoal G_b = "b".\n'
             "resolve(G_a, G_b) [w] = {G_a}.\n"
             "reduce(G_b) [s] = {G_a}.")
    assert "E-SIG-005" in codes(m)
    assert not m.elements["G_b"].active


def test_resolve_output_outside_inputs():
    m = load('goal G_a = "a".\ngoal G_b = "b".\ngoal G_c = "c".\n'
             "resolve(G_a, G_b) [w] = {G_c}.")
    assert "E-SIG-002" in codes(m)


# ---------------------------------------------------------------------------
# Declared-output rules per operator.


def test_reduce_keeps_kind():
    m = load("qg QG = Speed (F1) :: Good.\nf F1 = Search.\n"
             "reduce(QG) [s] = {F1}.")
    assert "E-SIG-002" in codes(m)  # no output of the input's kind
    assert "E-SIG-004" in codes(m)  # and a cross-kind output


def test_reduce_tolerates_domain_assumptions():
    m = load('goal G = "g".\ngoal G_1 = "g1".\nda D1 = User :< Person.\n'
             "reduce(G) [s] = {G_1, D1}.")
    assert "E-SIG" not in "".join(codes(m))


def test_interpret_single_output():
    m = load('goal G = "g".\nfg FG_1 = Search.\nfg FG_2 = Browse.\n'
             "interpret(G) [e] = {FG_1, FG_2}.")
    assert "E-SIG-002" in codes(m)


def test_interpret_goal_to_any_goal_kind():
    m = load('goal G = "g".\nqg QG = Speed (F1) :: Good.\n'
             "interpret(G) [e] = {QG}.")
    assert codes(m) == []


def test_interpret_keeps_kind_otherwise():
    m = load("fg FG = Search.\nqg QG = Speed (F1) :: Good.\n"
             "interpret(FG) [e] = {QG}.")
    assert "E-SIG-004" in codes(m)


@pytest.mark.parametrize("kind,body,out_kind,out_body", [
    ("fg", "Search <actor: User>", "f", "Search <actor: User> <target: T>"),
    ("fg", "Search <actor: User>", "fc", "Search :< <actor: ONLY User>"),
    ("qg", "Speed (F0) :: Good", "qc", "Speed (F0) :: [0, 9 (Sec)]"),
    ("qg", "Speed (F0) :: Good", "f", "Cache <object: Result>"),
    ("ctg", "Meeting :< <room: SOME Room>", "sc", "Meeting :< <room: Room>"),
    ("goal", '"share results"', "da", "Publish :< System_function"),
])
def test_operationalize_overloads(kind, body, out_kind, out_body):
    m = load(f"{kind} IN = {body}.\n{out_kind} OUT = {out_body}.\n"
             "operationalize(IN) [s] = {OUT}."
             if out_kind != "da" else
             f"{kind} IN = {body}.\n{out_kind} OUT = {out_body}.\n"
             "operationalize(IN) [w] = {OUT}.")
    assert codes(m) == []
    assert m.applications[0].verdict == "asserted"


def test_operationalize_rejects_wrong_output_kind():
    m = load("ctg CTG = Meeting :< <room: SOME Room>.\nf F1 = Search.\n"
             "operationalize(CTG) [s] = {F1}.")
    assert "E-SIG-004" in codes(m)


def test_operationalize_of_plain_goal_only_assumptions():
    m = load('goal G = "g".\nf F1 = Search.\n'
             "operationalize(G) [s] = {F1}.")
    assert "E-SIG-004" in codes(m)


def test_operationalize_rejects_specification_input():
    m = load("f F1 = Search.\nf F2 = Browse.\n"
             "operationalize(F1) [s] = {F2}.")
    assert "E-SIG-003" in codes(m)


# ---------------------------------------------------------------------------
# Strength admissibility and verification.


def test_inadmissible_strength_tag():
    m = load("qg QG = Speed ({sys}) :: [0, 30 Sec].\n"
             "scaleup(QG, (1, 2/3)) [w] = {QG_t}.")
    assert "E-STR-001" in codes(m)
    assert "QG_t" not in m.elements  # nothing committed on failure


def test_deuniversalize_equivalence_needs_full_rate():
    m = load("qc QC = Style ({ui}) :: Simple <observed_by: User>.\n"
             "deuniversalize(?S, QC, <observed_by: ?S>, 80%) [e] = {QC_80}.")
    assert "E-STR-001" in codes(m)


def test_refuted_strengthening_is_an_error():
    m = load("goal G = Alpha Fast.\ngoal G_w = Alpha.\n"
             "reduce(G) [s] = {G_w}.")
    assert "E-STR-002" in codes(m)
    assert m.applications[0].verdict == "violated"


def test_undecided_claim_is_a_warning():
    m = load("qg QG_a = Color (F1) :: Good.\nqg QG_b = Speed (F1) :: Good.\n"
             "reduce(QG_a) [s] = {QG_b}.")
    assert codes(m) == ["W-UNK-001"]
    assert m.ok  # warnings do not fail the model
    assert m.applications[0].verdict == "unknown"


def test_verified_reduction():
    m = load("axiom Airline_ticket :< Ticket.\n"
             "f F_book = Book <object: Ticket>.\n"
             "f F_book2 = Book <object: Airline_ticket>.\n"
             "reduce(F_book) [s] = {F_book2}.")
    assert codes(m) == []
    assert m.applications[0].verdict == "verified"


# ---------------------------------------------------------------------------
# Constructive applications.


def test_scaleup_constructs_tightened_constraint():
    m = load("qc QC = Response_time ({sys}) :: [0, 30 Sec].\n"
             "scaleup(QC, (1, 2/3)) [s] = {QC_t}.")
    assert codes(m) == []
    built = m.elements["QC_t"]
    assert built.origin == "op:scaleup"
    assert built.body.region == ast.Interval(F(0), F(20), "Sec")
    assert m.applications[0].verdict == "verified"


def test_scaledown_constructs_relaxed_constraint():
    m = load("qc QC = Response_time ({sys}) :: [0, 30 Sec].\n"
             "scaledown(QC, (1, 6/5)) [w] = {QC_r}.")
    assert codes(m) == []
    assert m.elements["QC_r"].body.region == ast.Interval(F(0), F(36), "Sec")
    assert m.applications[0].verdict == "verified"


def test_qualitative_scaling_adds_region_axiom():
    m = load("qg QG = Processing_time (F1) :: Fast.\n"
             "scaledown(QG, Nearly) [w] = {QG_n}.")
    assert codes(m) == []
    assert m.elements["QG_n"].body.region == ast.Named("Nearly Fast")
    assert (ast.Named("Fast"),
            ast.Named("Nearly Fast")) in m.axioms
    assert m.applications[0].verdict == "verified"


def count_contexts(monkeypatch):
    """A list that gets one entry per ReasonerContext built."""
    built = []
    post_init = ReasonerContext.__post_init__

    def counted(self, *args):
        built.append(len(self.axioms))
        post_init(self, *args)

    monkeypatch.setattr(ReasonerContext, "__post_init__", counted)
    return built


def test_context_outlives_constructive_applications(monkeypatch):
    built = count_contexts(monkeypatch)
    m = load("qc QC = Response_time ({sys}) :: [0, 30 Sec].\n"
             "scaleup(QC, (1, 2/3)) [s] = {QC_t}.\n"
             "scaledown(QC, (1, 6/5)) [w] = {QC_r}.\n"
             "reduce(QC_t) [s] = {QC_r}.")
    assert [a.verdict for a in m.applications] == ["verified"] * 2 + [
        "violated"]
    assert built == [0]


def test_implied_region_axiom_renews_the_context(monkeypatch):
    # The scaleup claim builds the context before the implied
    # Fast :< Nearly Fast edge exists; both claims after it need the edge.
    built = count_contexts(monkeypatch)
    m = load("qg QG = Processing_time (F1) :: Fast.\n"
             'qg QG_b = Processing_time (F1) :: "Nearly Fast".\n'
             "qc QC = Response_time ({sys}) :: [0, 30 Sec].\n"
             "scaleup(QC, (1, 2/3)) [s] = {QC_t}.\n"
             "scaledown(QG, Nearly) [w] = {QG_n}.\n"
             "reduce(QG) [w] = {QG_b}.")
    assert codes(m) == []
    assert [a.verdict for a in m.applications] == ["verified"] * 3
    assert built == [0, 1]


SCALED_BASE = (
    "qg QG = Processing_time (F1) :: Fast.\n"
    'qg QG_b = Processing_time (F1) :: "Nearly Fast".\n'
    "qg QG_g = Processing_time (F1) :: Good.\n"
    "qc QC = Response_time ({sys}) :: [0, 30 Sec].\n"
    "da DA = Run :< Process.\n"
    "disjoint Run, Walk.\n"
    "goal G_f = Run <has_value_in: SOME Fast>.\n"
    'goal G_nf = Run <has_value_in: SOME "Nearly Fast">.\n'
    "scaleup(QC, (1, 2/3)) [s] = {QC_t}.\n")
SCALED_LATER = (
    "reduce(QG) [w] = {QG_b}.\n"
    "reduce(QG) [s] = {QG_b}.\n"
    "reduce(QG_n) [e] = {QG_b}.\n"
    "reduce(QG_g) [w] = {QG_n}.\n"
    "scaleup(QG_n, Very) [s] = {QG_vn}.\n"
    "reduce(QG_vn) [s] = {QG}.\n"
    "reduce(G_f) [s] = {G_nf}.\n"
    "reduce(G_f) [w] = {G_nf}.\n"
    "reduce(G_nf) [s] = {G_f}.\n"
    "reduce(G_nf) [w] = {G_f}.\n")


def _outcome(verdict):
    if isinstance(verdict, Disproved):
        return "disproved", verdict.witness.to_json()
    return type(verdict).__name__, getattr(verdict, "reason", None)


def test_an_implied_axiom_decides_as_a_stated_one():
    # The scaleup claim builds the context first, so the implied
    # Fast :< Nearly Fast grows it and comes after the domain assumption,
    # where the stated axiom comes before it.
    implied = load(SCALED_BASE + "scaledown(QG, Nearly) [w] = {QG_n}.\n"
                   + SCALED_LATER)
    stated = load(SCALED_BASE + 'axiom "Fast" :< "Nearly Fast".\n'
                  'qg QG_n = Processing_time (F1) :: "Nearly Fast".\n'
                  + SCALED_LATER)
    assert codes(implied) == codes(stated)
    fast, nearly, very = (ast.Named(name) for name in
                          ("Fast", "Nearly Fast", "Very Nearly Fast"))
    da = (ast.Atom("Run"), ast.Atom("Process"))
    assert implied.context().axioms == [da, (fast, nearly), (very, nearly)]
    assert stated.context().axioms == [(fast, nearly), da, (very, nearly)]
    later = [(a.op, a.inputs, a.verdict, a.note)
             for a in implied.applications[2:]]
    assert later == [(a.op, a.inputs, a.verdict, a.note)
                     for a in stated.applications[1:]]
    assert {a[2] for a in later} == {"verified", "violated", "unknown"}
    for e1 in implied.elements:
        for e2 in implied.elements:
            assert _outcome(entails(implied.elements[e1],
                                    implied.elements[e2],
                                    implied.context())) == _outcome(
                entails(stated.elements[e1], stated.elements[e2],
                        stated.context())), (e1, e2)


def test_corpus_builds_at_most_two_contexts(monkeypatch):
    built = count_contexts(monkeypatch)
    m = load(corpus("meeting_scheduler.dsr"))
    assert m.ok
    assert 1 <= len(built) <= 2


def test_construction_rejects_taken_name():
    m = load('goal G = "g".\nqc QC = Style ({ui}) :: Simple.\n'
             "observe(QC, User) [s] = {G}.")
    assert "E-DUP-001" in codes(m)


def test_focus_output_count_must_match():
    m = load("dimension Confidentiality of Security.\n"
             "dimension Integrity of Security.\n"
             "qg QG = Security ({sys}) :: Good.\n"
             "focus(QG, {Confidentiality, Integrity}) [w] = {QG_c}.")
    assert "E-SIG-002" in codes(m)


def test_focus_equivalence_requires_cover():
    m = load("dimension Confidentiality of Security.\n"
             "dimension Integrity of Security.\n"
             "qg QG = Security ({sys}) :: Good.\n"
             "focus(QG, {Confidentiality}) [e] = {QG_c}.")
    assert "E-STR-002" in codes(m)
    assert m.applications[0].verdict == "violated"


def test_constructive_ops_need_measured_body():
    m = load('qg QG = "fast enough".\nscaleup(QG, (1, 2/3)) [s] = {QG_t}.')
    assert "E-SIG-003" in codes(m)


def test_deuniversalize_tracks_relaxation():
    m = load("qc QC = Style ({ui}) :: Simple <observed_by: User>.\n"
             "deuniversalize(?S, QC, <observed_by: ?S>, 80%) [w] = {QC_80}.")
    assert codes(m) == []
    assert m.elements["QC_80"].relaxations == {"observed_by": F(4, 5)}
    assert m.applications[0].verdict == "verified"


def test_observe_strengthens():
    m = load("qg QG = Style ({ui}) :: Simple.\n"
             "observe(QG, Surveyed_user) [s] = {QC_o}.")
    assert codes(m) == []
    built = m.elements["QC_o"]
    assert built.kind == "qc"
    assert built.body.observer == ast.Atom("Surveyed_user")
    assert m.applications[0].verdict == "verified"


# ---------------------------------------------------------------------------
# The worked corpus.


@pytest.fixture(scope="module")
def scheduler():
    return load(corpus("meeting_scheduler.dsr"))


def test_corpus_loads_clean(scheduler):
    assert scheduler.diagnostics == []


def test_corpus_stats_frozen(scheduler):
    frozen = json.loads(corpus("meeting_scheduler.stats.json"))
    assert scheduler.stats() == frozen


def test_corpus_verdicts(scheduler):
    got = [(a.op, a.strength, a.verdict) for a in scheduler.applications]
    assert got == [
        ("interpret", "e", "asserted"),
        ("operationalize", "s", "asserted"),
        ("operationalize", "s", "asserted"),
        ("operationalize", "s", "asserted"),
        ("reduce", "s", "asserted"),
        ("reduce", "s", "verified"),
        ("resolve", "w", "verified"),
        ("focus", "w", "verified"),
        ("focus", "e", "verified"),
        ("scaledown", "w", "verified"),
        ("scaleup", "s", "verified"),
        ("scaledown", "w", "verified"),
        ("observe", "s", "verified"),
        ("deuniversalize", "w", "verified"),
    ]


def test_corpus_clashes(scheduler):
    clashes = scheduler.clashes()
    assert [c.anchor for c in clashes] == ["Meeting_room", "Room_equipment",
                                           "User"]
    for c in clashes:
        assert set(c.pair) == {"Information_entity", "Real_world_entity"}
        assert c.chains  # every clash explains itself


def test_corpus_clean_variant_has_no_clashes():
    m = load(corpus("meeting_scheduler_clean.dsr"))
    assert m.diagnostics == []
    assert m.clashes() == []


def test_corpus_constructions(scheduler):
    assert scheduler.elements["QC_resp_rel"].body.region == ast.Interval(
        F(0), F(36), "Sec")
    assert scheduler.elements["QC_resp_tight"].body.region == ast.Interval(
        F(0), F(20), "Sec")
    assert scheduler.elements["QG_fast_nearly"].body.region == ast.Named(
        "Nearly Fast")
    assert scheduler.elements["QC_ui80"].relaxations == {
        "observed_by": F(4, 5)}
    assert not scheduler.elements["G_cert"].active


def test_corpus_json_round(scheduler):
    doc = scheduler.to_json_dict()
    json.dumps(doc)  # serializable as-is
    by_id = {e["id"]: e for e in doc["elements"]}
    assert by_id["QC_ui80"]["relaxations"] == {"observed_by": "4/5"}
    assert by_id["G_cert"]["active"] is False
    assert by_id["QG_conf"]["origin"] == "op:focus"


def test_corpus_dot(scheduler):
    dot = scheduler.to_dot()
    assert dot.startswith("digraph model {")
    assert '"QG_fast" -> "F1" [style=dotted, label="inheres_in"];' in dot
    assert '"G_sched" -> "G_collect" [label="reduce[s]"];' in dot
