"""Hand-computed extensions on small explicit interpretations."""
from fractions import Fraction

import pytest

from desiree.reasoner.interp import Interpretation, Witness, witness_from_json
from desiree.reasoner.semantics import (
    eval_desc,
    replay_witness,
    satisfies_axioms,
    violates_subsumption,
)
from desiree.syntax import ast
from desiree.syntax.parser import parse_description


def fs(*xs):
    return frozenset(xs)


# Universe: 0=a search instance, 1=a user, 2..3=products (3 is the_system's
# referent too), grid 4=15, 5=45, 6="Mon", 7=1/4.
BASE = Interpretation(
    k=4,
    grid=(Fraction(15), Fraction(45), "Mon", Fraction(1, 4)),
    atoms={"Search": fs(0), "User": fs(1), "Product": fs(2, 3)},
    slots={"actor": fs((0, 1)), "object": fs((0, 2), (0, 3))},
    named_regions={"Fast": fs(4)},
    individuals={"the_system": 3},
)


def ev(text, interp=BASE):
    return eval_desc(parse_description(text), interp)


def test_atoms():
    assert ev("Search") == fs(0)
    assert ev("Product") == fs(2, 3)
    assert ev("Unheard_of") == fs()
    assert ev("Nothing") == fs()
    assert ev("Anything") == BASE.universe


def test_slot_counts():
    assert ev("<actor: User>") == fs(0)
    assert ev("<actor: Product>") == fs()
    # every other element has zero object edges, so AtMost passes them
    assert ev("<object: <=2 Product>") == BASE.universe
    assert ev("<object: >=2 Product>") == fs(0)
    assert ev("<object: =2 Product>") == fs(0)
    assert ev("<object: SOME Product>") == fs(0)
    assert ev("<object: <=1 Product>") == BASE.universe - fs(0)


def test_slot_only():
    assert ev("<object: ONLY Product>") == BASE.universe
    assert ev("<object: ONLY User>") == BASE.universe - fs(0)


def test_enum_and_projection():
    assert ev("{the_system}") == fs(3)
    assert ev("Search.object") == fs(2, 3)
    assert ev("Search.actor") == fs(1)
    assert ev("Product.actor") == fs()


def test_enum_unknown_individual():
    with pytest.raises(KeyError):
        ev("{the_building}")


def test_boolean_ops():
    assert ev("Search <actor: User>") == fs(0)
    assert ev("Search | User") == fs(0, 1)
    assert ev("Product - {the_system}") == fs(2)
    assert ev("Product & User") == fs()


def test_regions():
    assert ev("<has_value_in: [0, 30 (Sec.)]>.has_value_in") == fs()
    # the evaluator is unit-blind: 1/4 at index 7 falls in [0, 30] too
    i = ast.Interval(Fraction(0), Fraction(30), "Sec")
    assert eval_desc(i, BASE) == fs(4, 7)
    assert eval_desc(ast.Interval(Fraction(20), None, None), BASE) == fs(5)
    assert eval_desc(ast.ValueSet(("Mon", "Tue")), BASE) == fs(6)
    assert eval_desc(ast.ValueSet(("45",)), BASE) == fs(5)
    assert eval_desc(ast.Named("Fast"), BASE) == fs(4)
    assert eval_desc(ast.Named("Slow"), BASE) == fs()
    pct = ast.Percent(Fraction(0), Fraction(1, 2))
    assert eval_desc(pct, BASE) == fs(7)


def test_region_slot():
    i = Interpretation(
        k=1,
        grid=(Fraction(15), Fraction(45)),
        atoms={"Processing_time": fs(0)},
        slots={"has_value_in": fs((0, 1))},
    )
    fast = "<has_value_in: [0, 30 (Sec.)]>"
    slow = "<has_value_in: [40, 60 (Sec.)]>"
    # grid points have no outgoing edges, so ExactlyOne excludes them too
    assert ev(fast, i) == fs(0)
    assert ev(slow, i) == fs()


def test_var_rejected():
    with pytest.raises(TypeError):
        eval_desc(ast.Var("S"), BASE)


def test_axioms():
    i = Interpretation(k=2, atoms={"A": fs(0), "B": fs(0, 1)})
    ax_ok = [(ast.Atom("A"), ast.Atom("B"))]
    ax_bad = [(ast.Atom("B"), ast.Atom("A"))]
    assert satisfies_axioms(i, ax_ok)
    assert not satisfies_axioms(i, ax_bad)
    assert satisfies_axioms(i, [])


def test_some_vs_only_witness():
    # 0 has one A-filler and one stray filler: SOME holds, ONLY fails
    i = Interpretation(k=3, atoms={"A": fs(1)}, slots={"s": fs((0, 1), (0, 2))})
    some = parse_description("<s: SOME A>")
    only = parse_description("<s: ONLY A>")
    assert violates_subsumption(i, some, only) == fs(0)
    w = Witness(i, 0, "<s: SOME A>", "<s: ONLY A>")
    assert replay_witness(w)
    assert not replay_witness(Witness(i, 1, "<s: SOME A>", "<s: ONLY A>"))
    # json round trip preserves the replay
    assert replay_witness(witness_from_json(w.to_json()))


def test_reflexive_never_violated():
    d = parse_description("Search <actor: User> <object: <=2 Product>")
    assert violates_subsumption(BASE, d, d) == fs()


GRID = (Fraction(1), "Mon")  # with k = 1: individual 0, grid points 1, 2


@pytest.mark.parametrize("fields, fault", [
    # It would satisfy `"A" :< B` and separate "A" from B, which the
    # bounded search, whose atoms hold individuals only, never shows.
    (dict(k=0, grid=(0,), atoms={"B": {0}},
          named_regions={"A": {0}, "B": set()}),
     r"atom 'B' holds \[0\], outside range\(0, 0\)"),
    (dict(k=1, grid=GRID, atoms={"A": fs(0, 2)}), r"atom 'A' holds \[0, 2\]"),
    (dict(k=1, grid=GRID, slots={"s": fs((1, 0))}),
     r"slot 's' holds \(1, 0\)"),
    (dict(k=1, grid=GRID, slots={"s": fs((0, 3))}),
     r"slot 's' holds \(0, 3\)"),
    (dict(k=1, grid=GRID, named_regions={"Fast": fs(0, 1)}),
     r"named region 'Fast' holds \[0, 1\]"),
    (dict(k=1, grid=GRID, individuals={"a": 2}), r"individual 'a' is 2"),
], ids=["grid point in an atom", "atom", "slot source", "slot target",
        "named region", "individual"])
def test_members_stay_in_their_part_of_the_universe(fields, fault):
    with pytest.raises(ValueError, match=fault):
        Interpretation(**fields)


def test_a_witness_with_a_grid_point_in_an_atom_is_refused():
    w = Witness(Interpretation(k=1, grid=(Fraction(5),), atoms={"A": fs(0)}),
                0, "A", "B")
    doc = w.to_json().replace('"A": [0]', '"A": [0, 1]')
    assert '"A": [0, 1]' in doc
    with pytest.raises(ValueError, match=r"atom 'A' holds \[0, 1\], outside"):
        witness_from_json(doc)
