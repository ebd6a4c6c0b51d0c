"""Hypothesis strategies for description ASTs and model-level value types."""
from fractions import Fraction

from hypothesis import strategies as st

from desiree.syntax import ast

IDENTS = ("A", "B", "C", "D", "Student", "User", "Data_set", "x1")
SLOTS = ("s", "t", "actor", "object", "when")
INDIVIDUALS = ("a", "b", "the_system", "Mon")
UNIT_NAMES = (None, "Sec", "MB")

idents = st.sampled_from(IDENTS)
slot_names = st.sampled_from(SLOTS)


def fractions(min_value=0, max_value=60):
    return st.builds(
        Fraction,
        st.integers(min_value=min_value, max_value=max_value),
        st.integers(min_value=1, max_value=4),
    )


@st.composite
def intervals(draw):
    lo = draw(fractions())
    if draw(st.booleans()):
        hi = None
    else:
        hi = lo + draw(fractions(min_value=0, max_value=30))
    return ast.Interval(lo, hi, draw(st.sampled_from(UNIT_NAMES)))


@st.composite
def percents(draw):
    lo = draw(fractions(max_value=1))
    lo = min(lo, Fraction(1))
    hi = min(lo + draw(fractions(max_value=1)), Fraction(1))
    return ast.Percent(lo, hi)


value_sets = st.lists(
    st.sampled_from(("Mon", "Wed", "Fri", "3", "5")),
    min_size=1, max_size=3, unique=True,
).map(lambda vs: ast.ValueSet(tuple(vs)))

named_regions = st.sampled_from(("Fast", "Good", "Nearly Fast")).map(ast.Named)

regions = st.one_of(named_regions, intervals(), value_sets, percents())

modifiers = st.one_of(
    st.just(ast.ExactlyOne()),
    st.integers(min_value=0, max_value=3).map(ast.AtMost),
    st.integers(min_value=1, max_value=3).map(ast.AtLeast),
    st.integers(min_value=1, max_value=3).map(ast.Exactly),
    st.just(ast.Some()),
    st.just(ast.Only()),
)

enums = st.lists(st.sampled_from(INDIVIDUALS), min_size=1, max_size=3,
                 unique=True).map(lambda ms: ast.Enum(tuple(ms)))

atoms = idents.map(ast.Atom)


def descriptions(max_depth: int = 3):
    """Concept-position descriptions (regions only appear as slot fillers).

    In description position braces read as enumerations; a value-set
    region there is written `:: {...}`.
    """

    def extend(children):
        fillers = st.one_of(children, regions.map(ast.Region))
        return st.one_of(
            st.builds(ast.Slot, slot_names, modifiers, fillers),
            st.builds(ast.Slot, st.just("has_value_in"),
                      st.just(ast.ExactlyOne()), regions.map(ast.Region)),
            st.builds(ast.And, children, children),
            st.builds(ast.Or, children, children),
            st.builds(ast.Diff, children, children),
            st.builds(ast.Proj, st.one_of(atoms, enums), slot_names),
        )

    return st.recursive(st.one_of(atoms, enums), extend, max_leaves=8)


def graph_queries(graph, max_leaves: int = 8):
    """Queries in the vocabulary of one fact graph.

    Atoms and one-member enumerations name its nodes; slots and
    projections use its relations, forward, inverse and built-in, and
    the unknown relation `bogus`, and often name a node at the far end
    of one of the relation's edges; `has_value_in` asks for the regions
    the graph declares or a drawn one; `&`, `|` and `-` come as chains
    of up to four operands.
    """
    names = st.sampled_from(sorted(graph.nodes))
    relations = st.sampled_from(sorted(graph.relations) + ["bogus"])
    declared = sorted({r for rs in graph.regions.values() for r in rs},
                      key=repr)
    region_fillers = st.one_of(st.sampled_from(declared),
                               regions).map(ast.Region)
    operators = st.sampled_from((ast.And, ast.Or, ast.Diff))

    def chain(first, rest):
        for op, right in rest:
            first = op(first, right)
        return first

    def near(children, ends):
        ends = sorted(ends)
        if not ends:
            return children
        return st.one_of(children, st.sampled_from(ends).map(ast.Atom))

    def slot(children, relation):
        by_subject = graph.edges.get(relation, {})
        targets = {t for ts in by_subject.values() for t in ts}
        return st.builds(ast.Slot, st.just(relation), modifiers,
                         near(children, targets))

    def proj(children, relation):
        return near(children, graph.edges.get(relation, {})).map(
            lambda base: ast.Proj(base, relation))

    def extend(children):
        return st.one_of(
            relations.flatmap(lambda r: slot(children, r)),
            st.builds(ast.Slot, st.just("has_value_in"),
                      st.just(ast.ExactlyOne()), region_fillers),
            relations.flatmap(lambda r: proj(children, r)),
            st.builds(chain, children,
                      st.lists(st.tuples(operators, children),
                               min_size=1, max_size=3)),
        )

    leaves = st.one_of(names.map(ast.Atom),
                       names.map(lambda n: ast.Enum((n,))))
    return st.recursive(leaves, extend, max_leaves=max_leaves)
