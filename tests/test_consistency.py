"""Clash detection: concept-level squeezes and instance-level role
restrictions colliding with declared disjointness."""

import functools

from hypothesis import given, settings, strategies as st

import reference_consistency
from desiree.reasoner import consistency
from desiree.reasoner.consistency import _closure as closure
from desiree.reasoner.consistency import check_consistency
from desiree.syntax import ast
from desiree.syntax.parser import parse_description

D = parse_description


def sub(label, text):
    lhs, rhs = text.split(":<")
    return (label, D(lhs.strip()), D(rhs.strip()))


BASE = [
    sub("axiom", "System_function :< <object: ONLY Information_entity>"),
    sub("DA_sf3", "Register :< System_function"),
    sub("DA_user", "User :< Real_world_entity"),
]
DISJOINT = [("Information_entity", "Real_world_entity")]


def test_instance_level_clash():
    facts = [("F_register", D("Register <actor: Guest> <object: User>"))]
    clashes = check_consistency(BASE, DISJOINT, facts)
    assert len(clashes) == 1
    c = clashes[0]
    assert c.anchor == "User"
    assert c.pair == ("Information_entity", "Real_world_entity")
    assert c.fact == "F_register"
    rendered = c.render()
    assert "DA_user" in rendered
    assert "System_function" in rendered


def test_no_assumption_no_clash():
    sources = [s for s in BASE if s[0] != "DA_user"]
    facts = [("F_register", D("Register <object: User>"))]
    assert check_consistency(sources, DISJOINT, facts) == []


def test_concept_level_clash():
    sources = [sub("axiom", "Alpha :< Payload"),
               sub("axiom", "Alpha :< Metadata")]
    clashes = check_consistency(sources, [("Payload", "Metadata")], [])
    assert len(clashes) == 1
    assert clashes[0].anchor == "Alpha"
    assert clashes[0].fact is None


def test_chains_cross_multiple_steps():
    sources = BASE + [sub("DA_sched", "Schedule :< Scheduler_function"),
                      sub("axiom", "Scheduler_function :< System_function")]
    facts = [("F_add", D("Schedule <object: User>"))]
    clashes = check_consistency(sources, DISJOINT, facts)
    assert len(clashes) == 1
    rendered = clashes[0].render()
    assert "Scheduler_function" in rendered
    assert "DA_sched" in rendered


def test_optional_roles_assert_nothing():
    facts = [("F_maybe", D("Register <object: <=3 User>")),
             ("F_univ", D("Register <object: ONLY User>"))]
    assert check_consistency(BASE, DISJOINT, facts) == []


def test_three_distinct_clashes_sorted():
    sources = BASE + [sub("DA_sf4", "Book_room :< System_function"),
                      sub("DA_sf5", "Reserve :< System_function"),
                      sub("DA_room", "Meeting_room :< Real_world_entity"),
                      sub("DA_equip", "Room_equipment :< Real_world_entity")]
    facts = [("F_register", D("Register <object: User>")),
             ("F_bookr", D("Book_room <object: Meeting_room>")),
             ("F_reserve", D("Reserve <object: Room_equipment>"))]
    clashes = check_consistency(sources, DISJOINT, facts)
    assert [c.anchor for c in clashes] == [
        "Meeting_room", "Room_equipment", "User"]


def test_duplicate_routes_reported_once():
    sources = BASE + [sub("axiom", "Register :< System_function")]
    facts = [("F_register", D("Register <object: User>")),
             ("F_again", D("Register <object: =2 User>"))]
    clashes = check_consistency(sources, DISJOINT, facts)
    assert len(clashes) == 1


# ---------------------------------------------------------------------------
# The parent-pointer closures against the reference clash finder.

NAMES = ("A", "B", "C", "D", "Nothing")
atoms = st.sampled_from(NAMES).map(ast.Atom)


def conj(parts):
    return functools.reduce(ast.And, parts)


def slots(*modifiers):
    return st.builds(ast.Slot, st.sampled_from(("object", "actor")),
                     st.sampled_from(modifiers),
                     st.lists(atoms, min_size=1, max_size=3).map(conj))


only_slots = slots(ast.Only())
any_slots = slots(ast.ExactlyOne(), ast.AtLeast(1), ast.Exactly(2),
                  ast.AtMost(3), ast.Some(), ast.Only())
right_sides = st.lists(st.one_of(atoms, only_slots, any_slots), min_size=1,
                       max_size=3).map(conj)
# Verbs, then role fillers: a fact with no verb asserts nothing.
fact_bodies = st.builds(lambda verbs, roles: conj(verbs + roles),
                        st.lists(atoms, max_size=3),
                        st.lists(any_slots, min_size=1, max_size=3))
labels = st.sampled_from(("axiom", "DA1", "DA2", "F1", "F2"))


@settings(max_examples=300, deadline=None)
@given(sources=st.lists(st.tuples(labels, st.one_of(atoms, atoms, any_slots),
                                  right_sides), max_size=12),
       disjoints=st.lists(st.tuples(st.sampled_from(NAMES),
                                    st.sampled_from(NAMES)), max_size=4),
       facts=st.lists(st.tuples(labels, fact_bodies), max_size=4))
def test_clashes_match_the_reference(sources, disjoints, facts):
    # Small name pools give cycles, repeated edges, several ONLY rules on
    # one slot, facts with several verbs and fillers, and a class paired
    # with itself.
    assert (check_consistency(sources, disjoints, facts)
            == reference_consistency.check_consistency(
                sources, disjoints, facts))


def test_a_class_paired_with_itself_clashes_on_its_own():
    sources = [sub("axiom", "Alpha :< Beta")]
    clashes = check_consistency(sources, [("Beta", "Beta")], [])
    assert [c.render() for c in clashes] == [
        "Alpha falls under both Beta and Beta: Alpha :< Beta (axiom) | "
        "Alpha :< Beta (axiom)"]


def test_the_first_only_rule_in_source_order_names_the_chain():
    sources = [sub("axiom", "Verb :< Base"),
               sub("DA_2", "Base :< <object: ONLY Info>"),
               sub("DA_1", "Verb :< <object: ONLY Info>"),
               sub("DA_3", "User :< Real")]
    facts = [("F1", D("Verb <object: User>"))]
    [clash] = check_consistency(sources, [("Info", "Real")], facts)
    assert clash.chains == (
        "Verb :< Base (axiom); the object of F1 must fall under Info "
        "(ONLY object on Base, DA_2)", "User :< Real (DA_3)")


def told_chain_work(n, monkeypatch):
    """Classes reached over all closures of a clash search on a told
    chain A0 :< ... :< An, two disjoint pairs and one fact."""
    reached = []

    def counted(seeds, edges):
        out = closure(seeds, edges)
        reached.append(len(out))
        return out

    monkeypatch.setattr(consistency, "_closure", counted)
    sources = [("axiom", ast.Atom(f"A{i}"), ast.Atom(f"A{i + 1}"))
               for i in range(n)]
    sources.append(sub("DA_v", "Verb :< <object: ONLY Info>"))
    facts = [("F1", D("Verb <object: A0>"))]
    clashes = check_consistency(sources, [(f"A{n}", "Info"), ("B", "C")],
                                facts)
    assert [(c.anchor, c.fact) for c in clashes] == [("A0", "F1")]
    assert clashes[0].chains[0].count(" :< ") == n
    return sum(reached)


def test_work_on_a_told_chain_grows_linearly(monkeypatch):
    assert told_chain_work(400, monkeypatch) <= 2 * told_chain_work(
        200, monkeypatch)
