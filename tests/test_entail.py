"""Element-level entailment: function refinement, quality constraint
alignment, relaxed universals, and subsumption-form constraints."""

from fractions import Fraction
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from desiree.reasoner.entail import (
    constraint_entails,
    entails,
    function_refines,
    quality_entails,
)
from desiree.reasoner.normal import (
    Conjunct,
    ReasonerContext,
    structural_subsumes,
)
from desiree.reasoner.oracle import (
    BoundsExceeded,
    oracle_disprove,
    select_axioms,
    signature,
)
from desiree.reasoner.semantics import replay_witness, satisfies_axioms
from desiree.reasoner.subsume import subsumes
from desiree.reasoner.verdict import Disproved, Unknown, is_proved
from desiree.syntax import ast
from desiree.syntax.parser import (
    DescBody,
    NLBody,
    QualityBody,
    SubsumptionBody,
    parse_description,
)

D = parse_description


def elem(kind, body, relax=None):
    return SimpleNamespace(kind=kind, body=body, relaxations=relax or {})


def ctx_with(*axiom_texts, disjoints=()):
    axioms = []
    for line in axiom_texts:
        lhs, rhs = line.split(":<")
        axioms.append((D(lhs.strip()), D(rhs.strip())))
    return ReasonerContext(axioms=axioms, disjoints=list(disjoints))


# ---------------------------------------------------------------------------
# Function refinement.


class TestFunctionRule:
    CTX = None

    def setup_method(self):
        self.ctx = ctx_with("Airline_ticket :< Ticket")

    def test_object_narrowing_proved(self):
        v = function_refines(D("Book <object: Airline_ticket>"),
                             D("Book <object: Ticket>"), self.ctx)
        assert is_proved(v)

    def test_object_widening_unknown_never_disproved(self):
        v = function_refines(D("Book <object: Ticket>"),
                             D("Book <object: Airline_ticket>"), self.ctx)
        assert isinstance(v, Unknown)

    def test_raw_subsumption_rejects_the_same_narrowing(self):
        # The very pair the dedicated rule exists for: under exact-count
        # slot semantics a model can add a second Ticket edge, so the raw
        # check is refuted while the function reading holds.
        v = subsumes(D("Book <object: Airline_ticket>"),
                     D("Book <object: Ticket>"), self.ctx)
        assert isinstance(v, Disproved)
        assert replay_witness(v.witness)

    def test_verb_specialization(self):
        ctx = ctx_with("Express_book :< Book")
        v = function_refines(D("Express_book <object: Ticket>"),
                             D("Book <object: Ticket>"), ctx)
        assert is_proved(v)

    def test_extra_role_on_refiner_is_fine(self):
        ctx = ctx_with("Friday :< Weekday")
        v = function_refines(D("Backup <object: User_files> <when: Friday>"),
                             D("Backup <when: Weekday>"), ctx)
        assert is_proved(v)
        # Raw semantics again refuses: a second Weekday edge is possible.
        raw = subsumes(D("Backup <object: User_files> <when: Friday>"),
                       D("Backup <when: Weekday>"), ctx)
        assert isinstance(raw, Disproved)

    def test_missing_role_unknown(self):
        v = function_refines(D("Book"), D("Book <object: Ticket>"), self.ctx)
        assert isinstance(v, Unknown)
        assert "object" in v.reason

    def test_count_tightening(self):
        ctx = ReasonerContext()
        ok = function_refines(D("Ship <crate: =2 Box>"),
                              D("Ship <crate: <=3 Box>"), ctx)
        assert is_proved(ok)
        short = function_refines(D("Ship <crate: =2 Box>"),
                                 D("Ship <crate: >=3 Box>"), ctx)
        assert isinstance(short, Unknown)

    def test_only_roles(self):
        ctx = ctx_with("Registered_user :< User")
        ok = function_refines(D("Search <actor: ONLY Registered_user>"),
                              D("Search <actor: ONLY User>"), ctx)
        assert is_proved(ok)
        miss = function_refines(D("Search <actor: Registered_user>"),
                                D("Search <actor: ONLY User>"), ctx)
        assert isinstance(miss, Unknown)

    def test_non_function_shape_unknown(self):
        v = function_refines(D("Book | Reserve"), D("Book"), ReasonerContext())
        assert isinstance(v, Unknown)


# ---------------------------------------------------------------------------
# Quality constraints.


def qb(quality, subject, region, observer=None):
    return QualityBody(quality, D(subject), region,
                       D(observer) if observer else None)


SEC = "Sec"


def interval(lo, hi, unit=SEC):
    return ast.Interval(Fraction(lo), None if hi is None else Fraction(hi),
                        unit)


class TestQualityRule:
    def test_region_tightening_proved(self):
        v = quality_entails(qb("Processing_time", "F1", interval(0, 20)),
                            qb("Processing_time", "F1", interval(0, 30)),
                            ReasonerContext())
        assert is_proved(v)

    def test_region_widening_disproved_with_replay(self):
        v = quality_entails(qb("Processing_time", "F1", interval(0, 30)),
                            qb("Processing_time", "F1", interval(0, 20)),
                            ReasonerContext())
        assert isinstance(v, Disproved)
        assert replay_witness(v.witness)

    def test_region_wholly_above_disproved_with_replay(self):
        # the witness lies in the first region: 10, not a point past 5
        v = quality_entails(qb("Processing_time", "F1", interval(10, None)),
                            qb("Processing_time", "F1", interval(0, 5)),
                            ReasonerContext())
        assert isinstance(v, Disproved)
        assert v.witness.interp.grid == (Fraction(10),)
        assert replay_witness(v.witness)

    def test_quality_contravariant(self):
        ctx = ctx_with("Indexing_time :< Processing_time")
        v = quality_entails(qb("Processing_time", "F1", interval(0, 20)),
                            qb("Indexing_time", "F1", interval(0, 30)), ctx)
        assert is_proved(v)
        back = quality_entails(qb("Indexing_time", "F1", interval(0, 20)),
                               qb("Processing_time", "F1", interval(0, 30)),
                               ctx)
        assert isinstance(back, Unknown)

    def test_subject_contravariant(self):
        ctx = ctx_with("Fast_search :< Search_function")
        v = quality_entails(
            qb("Processing_time", "Search_function", interval(0, 20)),
            qb("Processing_time", "Fast_search", interval(0, 30)), ctx)
        assert is_proved(v)

    def test_observer_on_strong_side_only(self):
        simple = ast.Named("Simple")
        v = quality_entails(
            qb("Style", "{the_interface}", simple, "Surveyed_user"),
            qb("Style", "{the_interface}", simple), ReasonerContext())
        assert is_proved(v)

    def test_observer_on_weak_side_only(self):
        simple = ast.Named("Simple")
        v = quality_entails(
            qb("Style", "{the_interface}", simple),
            qb("Style", "{the_interface}", simple, "Surveyed_user"),
            ReasonerContext())
        assert is_proved(v)

    def test_both_observers_contravariant(self):
        ctx = ctx_with("Expert_user :< Surveyed_user")
        simple = ast.Named("Simple")
        v = quality_entails(
            qb("Style", "{the_interface}", simple, "Surveyed_user"),
            qb("Style", "{the_interface}", simple, "Expert_user"), ctx)
        assert is_proved(v)
        back = quality_entails(
            qb("Style", "{the_interface}", simple, "Expert_user"),
            qb("Style", "{the_interface}", simple, "Surveyed_user"), ctx)
        assert isinstance(back, Unknown)

    def test_named_region_via_axiom(self):
        ctx = ctx_with('"Fast" :< "Nearly Fast"')
        v = quality_entails(
            qb("Processing_time", "F1", ast.Named("Fast")),
            qb("Processing_time", "F1", ast.Named("Nearly Fast")), ctx)
        assert is_proved(v)

    def test_frame_mismatch_without_gap_is_unknown(self):
        v = quality_entails(qb("Color", "F1", interval(0, 20)),
                            qb("Processing_time", "F1", interval(0, 30)),
                            ReasonerContext())
        assert isinstance(v, Unknown)
        assert "quality" in v.reason


# ---------------------------------------------------------------------------
# Relaxed universals.


class TestRelaxations:
    def setup_method(self):
        body = qb("Style", "{the_interface}", ast.Named("Simple"),
                  "Surveyed_user")
        self.full = elem("qc", body)
        self.r80 = elem("qc", body, {"observed_by": Fraction(80, 100)})
        self.r90 = elem("qc", body, {"observed_by": Fraction(90, 100)})

    def test_universal_entails_relaxed(self):
        assert is_proved(entails(self.full, self.r80))

    def test_relaxed_does_not_entail_universal(self):
        v = entails(self.r80, self.full)
        assert isinstance(v, Unknown)
        assert "observed_by" in v.reason

    def test_higher_rate_entails_lower(self):
        assert is_proved(entails(self.r90, self.r80))
        assert isinstance(entails(self.r80, self.r90), Unknown)

    def test_equal_rates_entail(self):
        assert is_proved(entails(self.r80, elem("qc", self.full.body,
                                                {"observed_by":
                                                 Fraction(80, 100)})))

    def test_extra_relaxed_path_blocks(self):
        stray = elem("qc", self.full.body, {"when": Fraction(90, 100)})
        v = entails(stray, self.r80)
        assert isinstance(v, Unknown)
        assert "when" in v.reason

    def test_counterexamples_lapse_under_relaxation(self):
        wide = elem("qc", qb("Processing_time", "F1", interval(0, 30)),
                    {"observed_by": Fraction(80, 100)})
        tight = elem("qc", qb("Processing_time", "F1", interval(0, 20)))
        v = entails(wide, tight)
        assert isinstance(v, Unknown)
        # Without the relaxation the same pair is plainly refuted.
        plain = entails(elem("qc", wide.body), tight)
        assert isinstance(plain, Disproved)


# ---------------------------------------------------------------------------
# Subsumption-form constraints.


def sb(text):
    lhs, rhs = text.split(":<")
    return SubsumptionBody(D(lhs.strip()), D(rhs.strip()))


class TestConstraintRule:
    def test_rhs_widening(self):
        ctx = ctx_with("Registered_user :< User")
        v = constraint_entails(sb("Search :< <actor: ONLY Registered_user>"),
                               sb("Search :< <actor: ONLY User>"), ctx)
        assert is_proved(v)

    def test_lhs_narrowing_chain(self):
        ctx = ctx_with("Advanced_search :< Search")
        v = constraint_entails(
            sb("Search :< <actor: ONLY Registered_user>"),
            sb("Advanced_search :< <actor: ONLY Registered_user>"), ctx)
        assert is_proved(v)

    def test_unrelated_constraint_disproved(self):
        v = constraint_entails(sb("Alpha :< Beta"), sb("Alpha :< Gamma"),
                               ReasonerContext())
        assert isinstance(v, Disproved)
        assert replay_witness(v.witness)

    def test_vacuous_constraint_always_follows(self):
        v = constraint_entails(sb("Alpha :< Beta"), sb("Nothing :< Gamma"),
                               ReasonerContext())
        assert is_proved(v)

    def test_element_wrapper(self):
        ctx = ctx_with("Registered_user :< User")
        e1 = elem("fc", sb("Search :< <actor: ONLY Registered_user>"))
        e2 = elem("fc", sb("Search :< <actor: ONLY User>"))
        assert is_proved(entails(e1, e2, ctx))

    def test_chain_proves_under_a_complex_assumption(self):
        # The assumed left side is no atom, so the assumption never joins
        # the told consequences: only the chain proves the claim.
        ctx = ReasonerContext()
        b1 = sb("Search <actor: User> :< Logged")
        b2 = sb("Search <actor: User> Fast :< Logged | Audited")
        ctx2 = ctx.assuming((b1.lhs, b1.rhs))
        assert not structural_subsumes(b2.lhs, b2.rhs, ctx2)
        assert is_proved(constraint_entails(b1, b2, ctx))

    def test_overflowing_chain_is_unknown(self):
        b1, b2 = sb("A | B :< C"), sb("A | B :< C | D")
        assert is_proved(constraint_entails(b1, b2, ReasonerContext()))
        v = constraint_entails(b1, b2, ReasonerContext(max_dnf=1))
        assert v == Unknown("normal form too large; no bounded counterexample")

    def test_true_but_unproved_is_unknown(self):
        # U :< R | Q holds, but the prover does not split told
        # disjunctions and the search finds nothing to refute.
        v = constraint_entails(sb("P :< R"), sb("U :< R | Q"),
                               ctx_with("U :< P | Q"))
        assert v == Unknown("no structural proof; no bounded counterexample")


# ---------------------------------------------------------------------------
# Assumption contexts.


class TestAssuming:
    def test_cached_per_axiom_and_sharing_the_search_memo(self):
        ctx = ctx_with("Advanced_search :< Search", disjoints=[("A", "B")])
        ax = (D("Search"), D("<actor: ONLY User>"))
        ctx2 = ctx.assuming(ax)
        assert ctx.assuming(ax) is ctx2
        assert ctx.assuming((D("Search"), D("Fast"))) is not ctx2
        assert ctx2.axioms == ctx.axioms + [ax]
        assert ctx2.disjoints == ctx.disjoints
        assert ctx2.search_memo is ctx.search_memo
        pair = D("Advanced_search"), D("<actor: ONLY User>")
        selected = select_axioms(*pair, ctx2)
        assert selected == select_axioms(
            *pair, ReasonerContext(ctx.axiom_pairs() + [ax]))
        # the parent's first axiom and the assumed one, after the
        # disjointness axiom at position 1
        assert selected == [(i, a, signature(a[0]) | signature(a[1]))
                            for i, a in [(0, ctx.axioms[0]), (2, ax)]]

    def test_tables_extend_the_parents(self):
        ctx = ctx_with("Advanced_search :< Search", "Search :< Function",
                       '"Fast" :< "Good"', disjoints=[("A", "B")])
        ax = (D("Search"), D("Fast_function"))
        child = ctx.assuming(ax)
        fresh = ReasonerContext(ctx.axioms + [ax], ctx.disjoints)
        assert child.told == fresh.told
        assert child.disjoint_pairs == fresh.disjoint_pairs
        assert child.told["Search"] == Conjunct(
            atoms={"Function", "Fast_function"})
        # the parent is left as it was, and shares every entry the
        # assumed axiom does not extend; a region axiom lands under the
        # named region, an atom axiom under the bare name only
        fast = ast.Named("Fast")
        assert ctx.told == {"Advanced_search": Conjunct(atoms={"Search"}),
                            "Search": Conjunct(atoms={"Function"}),
                            fast: Conjunct(regions={ast.Named("Good")})}
        assert child.told["Advanced_search"] is ctx.told["Advanced_search"]
        assert child.told[fast] is ctx.told[fast]
        assert ast.Named("Search") not in child.told

    def test_one_context_per_distinct_assumption(self, monkeypatch):
        ctx = ctx_with("Advanced_search :< Search")
        built = []
        post_init = ReasonerContext.__post_init__

        def counted(self, *args):
            built.append(len(self.axioms))
            post_init(self, *args)

        monkeypatch.setattr(ReasonerContext, "__post_init__", counted)
        firsts = [sb("Search :< <actor: ONLY Registered_user>"),
                  sb("Alpha :< Beta")]
        seconds = [sb("Advanced_search :< <actor: ONLY Registered_user>"),
                   sb("Alpha :< Gamma"), sb("Nothing :< Gamma")]
        for _ in range(2):
            for b1 in firsts:
                for b2 in seconds:
                    constraint_entails(b1, b2, ctx)
        assert built == [2, 2]


constraint_sides = st.recursive(
    st.sampled_from("ABCD").map(ast.Atom),
    lambda sub: st.one_of(
        st.builds(ast.And, sub, sub),
        st.builds(ast.Or, sub, sub),
        st.builds(ast.Diff, sub, sub),
        st.builds(ast.Slot, st.just("s"), st.just(ast.ExactlyOne()), sub)),
    max_leaves=3)
constraints = st.builds(SubsumptionBody, constraint_sides, constraint_sides)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(constraint_sides, constraint_sides), max_size=4),
       st.booleans(), constraints, constraints)
def test_constraint_entailment_agrees_with_the_search(axioms, disjoint,
                                                      b1, b2):
    ctx = ReasonerContext(axioms=axioms,
                          disjoints=[("A", "B")] if disjoint else [])
    theory = ctx.axiom_pairs() + [(b1.lhs, b1.rhs)]
    v = constraint_entails(b1, b2, ctx)
    if is_proved(v):
        try:
            w = oracle_disprove(b2.lhs, b2.rhs, ReasonerContext(theory))
        except BoundsExceeded:
            w = None
        assert w is None, f"proved yet refuted: {w.to_json()}"
    if isinstance(v, Disproved):
        assert replay_witness(v.witness)
        assert satisfies_axioms(v.witness.interp, theory)
    # the cached assumption context answers the same when asked again
    assert constraint_entails(b1, b2, ctx) == v


# ---------------------------------------------------------------------------
# Dispatch.


class TestDispatch:
    def test_natural_language_is_unknown(self):
        v = entails(elem("goal", NLBody("support meeting scheduling")),
                    elem("goal", DescBody(D("Schedule"))))
        assert isinstance(v, Unknown)
        assert "natural-language" in v.reason

    def test_mixed_forms_unknown(self):
        v = entails(elem("f", DescBody(D("Search"))),
                    elem("fc", sb("Search :< <actor: ONLY User>")))
        assert isinstance(v, Unknown)

    def test_plain_descriptions_use_subsumption(self):
        e1 = elem("goal", DescBody(D("Fast Cheap")))
        e2 = elem("goal", DescBody(D("Fast")))
        assert is_proved(entails(e1, e2))
        back = entails(e2, e1)
        assert isinstance(back, Disproved)
        assert replay_witness(back.witness)
