"""Fact extraction and interrelation queries over the worked corpus."""

import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desiree.query
import reference_query
from desiree.model import load_model
from desiree.query import eval_query, extract_facts, run_query
from desiree.syntax import ast
from desiree.syntax.parser import parse_description

from gen_strategies import descriptions, graph_queries, slot_names

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CORPUS_QUERIES  # noqa: E402

CORPUS_DIR = resources.files("desiree") / "corpus"
CORPUS = (CORPUS_DIR / "meeting_scheduler.dsr").read_text()


@pytest.fixture(scope="module")
def model():
    m = load_model(CORPUS)
    assert m.diagnostics == []
    return m


@pytest.fixture(scope="module")
def graph(model):
    return extract_facts(model)


# ---------------------------------------------------------------------------
# Extraction.


def test_empty_model_empty_graph():
    g = extract_facts(load_model(""))
    assert g.nodes == {}
    assert g.edges == {} and g.regions == {}


def test_function_slots_become_facts(graph):
    assert graph.edges["actor"]["F1"] == ["User"]
    assert graph.edges["object"]["F1"] == ["Product"]
    assert graph.edges["target"]["F1"] == ["the_system"]


def test_inverses_materialized(graph):
    assert "F1" in graph.edges["is_actor_of"]["User"]
    assert graph.edges["is_object_of"]["Product"] == ["F1"]


def test_a_relation_named_like_an_inverse_is_inverted_once():
    g = extract_facts(load_model("f F1 = Act <is_actor_of: User>."))
    assert g.edges == {"is_actor_of": {"F1": ["User"]},
                       "is_is_actor_of_of": {"User": ["F1"]}}


def test_node_count(graph):
    # `len(nodes)` is the node count that perfbench's tracer reports.
    assert len(graph.nodes) == 30


def test_quality_instances_keyed_by_subject(graph):
    assert graph.nodes["Processing_time@F1"] == ast.Atom("Processing_time")
    assert graph.edges["inheres_in"]["Processing_time@F1"] == ["F1"]
    assert graph.edges["has_quality"]["F1"] == ["Processing_time@F1"]


def test_regions_merge_per_instance(graph):
    regions = graph.regions["Processing_time@F1"]
    assert ast.Named("Fast") in regions
    assert ast.Interval(0, 30, "Sec") in regions
    assert ast.Named("Nearly Fast") in regions  # from the scaledown


def test_observers_become_facts(graph):
    inst = "Style@the_interface"
    assert graph.edges["observed_by"][inst] == ["Surveyed_user"]


def test_dropped_elements_contribute_nothing():
    m = load_model("qg QG_a = Speed ({x}) :: Good.\n"
                   "qg QG_b = Color ({x}) :: Good.\n"
                   "resolve(QG_a, QG_b) [w] = {QG_b}.")
    g = extract_facts(m)
    assert "Speed@x" not in g.nodes
    assert "Color@x" in g.nodes


def test_only_and_optional_slots_assert_nothing():
    m = load_model("f F9 = Assign <room: ONLY Small_room> <note: <=2 Tag>.")
    g = extract_facts(m)
    assert "room" not in g.edges
    assert "note" not in g.edges


# ---------------------------------------------------------------------------
# The Meeting-Scheduler query suite.


def sure(model, text):
    return run_query(model, text).sure


def test_q1_subjects_of_a_quality(model):
    assert sure(model, "<has_quality: Processing_time>") == ["F1"]


def test_q2_qualities_of_a_subject(model):
    assert sure(model, "<inheres_in: {the_product}>") == [
        "Appearance@the_product"]


def test_q3_who_performs(model):
    assert sure(model, "<is_actor_of: F1>") == ["User"]


def test_q4_operates_on(model):
    assert sure(model, "<is_object_of: F1>") == ["Product"]


def test_q5_functions_involving_an_object(model):
    assert sure(model, "<object: Product>") == ["F1"]


def test_complex_query_before_and_after_tightening(model):
    q = "<has_quality: Processing_time <has_value_in: <=5 Sec>>"
    assert run_query(model, q).sure == []
    tightened = load_model(CORPUS + "\nscaleup(QC1, (1, 1/6)) [s] = {QC2}.\n")
    assert tightened.diagnostics == []
    assert run_query(tightened, q).sure == ["F1"]


def test_matching_uses_subsumption(model):
    # Registered_user :< User, so F_add answers an actor query for User.
    assert sure(model, "<actor: User>") == ["F1", "F_add", "F_bookr",
                                            "F_reserve"]


def test_projection(model):
    assert sure(model, "F1.object") == ["Product"]
    assert sure(model, "F1.actor") == ["User"]


def test_only_modifier_closes_over_recorded_facts(model):
    assert "F_register" not in sure(model, "<actor: ONLY User>")
    assert "F1" in sure(model, "<actor: ONLY User>")


def test_count_modifiers_are_honored():
    m = load_model("f F2 = Assign <room: Projector>.")
    assert run_query(m, "<room: =2 Projector>").sure == []
    assert run_query(m, "<room: Projector>").sure == ["F2"]


def test_union_and_difference(model):
    both = sure(model, "<object: Product> | <object: Ticket>")
    # F_book2's object is Airline_ticket, a declared kind of Ticket.
    assert both == ["F1", "F_book", "F_book2"]
    assert sure(model, "<actor: User> - <target: {the_system}>") == [
        "F_add", "F_bookr", "F_reserve"]


def test_unknown_relation_diagnostic(model):
    r = run_query(model, "<performed_by: F1>")
    assert r.sure == []
    assert [d.code for d in r.diagnostics] == ["E-QRY-001"]
    assert "performed_by" in r.diagnostics[0].message


def test_region_containment_is_tentative(model):
    q = "<has_value_in: [0, 40 Sec]>"
    r = run_query(model, q)
    assert r.sure == []  # nothing declares [0, 40] itself
    assert "Processing_time@F1" in r.tentative
    assert "Response_time@the_system" in r.tentative


def test_strict_region_match_needs_equality(model):
    r = run_query(model, "<has_value_in: [0, 30 Sec]>")
    assert r.sure == ["Processing_time@F1", "Response_time@the_system"]


def test_named_region_query(model):
    r = run_query(model, "<has_value_in: Fast>")
    assert r.sure == ["Processing_time@F1"]


# ---------------------------------------------------------------------------
# Structural properties.


FORWARD = ("actor", "object", "target", "inheres_in", "observed_by")


def test_inverse_coherence(model, graph):
    for relation in FORWARD:
        inverse = ("has_quality" if relation == "inheres_in"
                   else f"is_{relation}_of")
        for subject, targets in graph.edges[relation].items():
            for target in targets:
                fwd = eval_query(model, ast.Slot(
                    relation, ast.ExactlyOne(), ast.Enum((target,))), graph)
                assert subject in fwd.sure
                back = eval_query(model, ast.Slot(
                    inverse, ast.ExactlyOne(), ast.Enum((subject,))), graph)
                assert target in back.sure


@settings(max_examples=30, deadline=None)
@given(q=descriptions(), slot=slot_names, filler=descriptions())
def test_adding_a_slot_never_enlarges_answers(model, graph, q, slot, filler):
    base = eval_query(model, q, graph)
    narrowed = eval_query(model, ast.And(q, ast.Slot(slot, ast.ExactlyOne(),
                                                     filler)), graph)
    assert set(narrowed.sure) <= set(base.sure)
    assert set(narrowed.sure) | set(narrowed.tentative) <= (
        set(base.sure) | set(base.tentative))


# ---------------------------------------------------------------------------
# Demand: atoms are matched only where the answer can still change.


@pytest.fixture
def matched(monkeypatch):
    """The node types the query evaluator asks `subsumes` about."""
    asked = []
    subsumes = desiree.query.subsumes

    def counting(sub, sup, ctx):
        asked.append(sub)
        return subsumes(sub, sup, ctx)

    monkeypatch.setattr(desiree.query, "subsumes", counting)
    return asked


def test_slot_filler_is_matched_on_edge_targets_only(model, graph, matched):
    assert sure(model, "<actor: User>") == ["F1", "F_add", "F_bookr",
                                            "F_reserve"]
    targets = {t for ts in graph.edges["actor"].values() for t in ts}
    # `User` itself is answered by name, without a match.
    assert sorted(map(repr, matched)) == sorted(
        repr(graph.nodes[t]) for t in targets - {"User"})


def test_corpus_queries_ask_few_node_matches(model, graph, matched):
    for query, _proved, _holds in CORPUS_QUERIES:
        eval_query(model, parse_description(query), graph)
    # Matching every atom against all 30 nodes asked 647.
    assert len(matched) <= 209


@pytest.mark.parametrize("text, answers", [
    # A projection's base is asked about each subject with some target
    # among the left side's possible answers, also when its other
    # targets are not: User here, the_system below.
    ("<target: {the_system}> & User.is_actor_of", ["F1"]),
    ("Security & the_system.has_quality", ["Security@the_system"]),
    # A union's right side is asked wherever the left is not sure, so
    # also where the left is tentative (the clash puts F1 under Nothing).
    ("Nothing | F1", ["F1"]),
])
def test_narrowed_operands_answer_as_the_reference(model, graph, text,
                                                   answers):
    q = parse_description(text)
    got = eval_query(model, q, graph)
    want = reference_query.eval_query(model, q, graph)
    assert got.sure == want.sure == answers
    assert got.tentative == want.tentative


@pytest.fixture(scope="module", params=["meeting_scheduler.dsr",
                                        "meeting_scheduler_clean.dsr"])
def corpus(request):
    m = load_model((CORPUS_DIR / request.param).read_text())
    g = extract_facts(m)
    return m, g, graph_queries(g)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_demand_driven_evaluation_matches_the_reference(corpus, data):
    m, g, queries = corpus
    q = data.draw(queries)
    got = eval_query(m, q, g)
    want = reference_query.eval_query(m, q, g)
    assert (got.sure, got.tentative, got.diagnostics) == (
        want.sure, want.tentative, want.diagnostics)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_result_is_exact_on_its_candidate_set(corpus, data):
    m, g, queries = corpus
    q = data.draw(queries)
    cand = data.draw(st.sets(st.sampled_from(sorted(g.nodes))))
    ctx = m.context()
    got = desiree.query._eval(g, q, ctx, [], cand)
    want = reference_query._eval(g, q, ctx, [])
    assert [r & cand for r in got] == [r & cand for r in want]
