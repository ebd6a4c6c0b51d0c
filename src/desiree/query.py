"""Fact graph extraction and description-shaped interrelation queries.

The graph holds a node per function element, referenced concept,
enumerated individual, and quality instance (keyed quality@subject).
Query strings are ordinary descriptions; atoms are matched against node
types by structural subsumption, so axioms sharpen query answers the
same way they sharpen entailment. Matching is three-valued: a node is
in the answer only on a Proved match, and Unknown matches are kept
aside as tentative for lenient callers.

Evaluation is demand-driven: each subquery gets the set of candidate
nodes on which its caller reads the result, and is exact there only.
The whole query's candidates are all nodes; a slot's filler gets the
targets of that relation's edges from the slot's candidates, a
projection's base the subjects with a target among them, the right
side of `&` and `-` the left side's possible answers, and the right
side of `|` the nodes the left does not surely answer. So an atom is
matched against a node only where the match can change the answer.
"""

from __future__ import annotations

from .diagnostics import E_QUERY, ERROR, Diagnostic
from .reasoner.normal import structural_subsumes
from .reasoner.subsume import subsumes
from .reasoner.verdict import Unknown, is_proved
from .records import Record
from .syntax import ast
from .syntax.parser import DescBody, QualityBody, parse_description

# Relations that exist independently of any recorded fact.
BUILTIN_RELATIONS = frozenset(
    {"inheres_in", "has_quality", "observed_by", "has_value_in"})


class FactGraph(Record):
    __slots__ = ("nodes", "edges", "regions")

    def __init__(self, nodes: dict[str, ast.Description] | None = None,
                 edges: dict[str, dict[str, list[str]]] | None = None,
                 regions: dict[str, list[ast.RegionExpr]] | None = None):
        self.nodes = {} if nodes is None else nodes
        # relation -> subject -> target ids, deduplicated, in file order
        self.edges = {} if edges is None else edges
        # quality instance -> declared regions, deduplicated
        self.regions = {} if regions is None else regions

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(self.edges) | BUILTIN_RELATIONS

    def add_node(self, ident: str, type_desc: ast.Description) -> str:
        self.nodes.setdefault(ident, type_desc)
        return ident

    def add_edge(self, subject: str, relation: str, target: str):
        targets = self.edges.setdefault(relation, {}).setdefault(subject, [])
        if target not in targets:
            targets.append(target)

    def add_region(self, instance: str, region: ast.RegionExpr):
        rs = self.regions.setdefault(instance, [])
        if region not in rs:
            rs.append(region)


def _inverse(relation: str) -> str:
    if relation == "inheres_in":
        return "has_quality"
    if relation == "has_quality":
        return "inheres_in"
    return f"is_{relation}_of"


# ---------------------------------------------------------------------------
# Extraction.


def extract_facts(model) -> FactGraph:
    """Read the active elements of a model into a fact graph."""
    g = FactGraph()
    actives = model.active_elements()
    # Functions first, so a quality subject naming one reuses its node.
    for e in actives:
        if e.kind == "f" and isinstance(e.body, DescBody):
            g.add_node(e.ident, e.body.desc)
    for e in actives:
        if e.kind == "f" and isinstance(e.body, DescBody):
            _function_facts(g, e)
    for e in actives:
        if e.kind in ("qg", "qc") and isinstance(e.body, QualityBody):
            _quality_facts(g, e)
    # Forward edges only: a relation named `is_actor_of` is not inverted.
    forward = [(relation, subject, target)
               for relation, by_subject in g.edges.items()
               for subject, targets in by_subject.items()
               for target in targets]
    for relation, subject, target in forward:
        g.add_edge(target, _inverse(relation), subject)
    return g


def _function_facts(g: FactGraph, e):
    for part in ast.and_parts(e.body.desc):
        if not isinstance(part, ast.Slot):
            continue
        if isinstance(part.modifier, ast.Only):
            continue  # closure constraints assert no filler
        lo, _ = ast.modifier_bounds(part.modifier)
        if lo < 1:
            continue  # nothing is asserted to exist
        for target in _filler_targets(g, part.filler):
            g.add_edge(e.ident, part.slot, target)


def _filler_targets(g: FactGraph, filler: ast.Description) -> list[str]:
    """Node ids for the filler's top-level concepts and individuals.

    Nested structure below those names is deliberately dropped; queries
    recover it only as far as structural subsumption can prove it.
    """
    out = []
    for part in ast.and_parts(filler):
        if isinstance(part, ast.Atom) and part.name not in ("Anything",
                                                            "Nothing"):
            out.append(g.add_node(part.name, part))
        elif isinstance(part, ast.Enum):
            for member in part.members:
                out.append(g.add_node(member, ast.Enum((member,))))
    return out


def _quality_facts(g: FactGraph, e):
    subject = _subject_node(g, e.body.subject)
    if subject is None:
        return
    instance = g.add_node(f"{e.body.quality}@{subject}",
                          ast.Atom(e.body.quality))
    g.add_edge(instance, "inheres_in", subject)
    g.add_region(instance, e.body.region)
    if e.body.observer is not None:
        for target in _filler_targets(g, e.body.observer):
            g.add_edge(instance, "observed_by", target)


def _subject_node(g: FactGraph, subject: ast.Description) -> str | None:
    if isinstance(subject, ast.Atom):
        return g.add_node(subject.name, subject)
    if isinstance(subject, ast.Enum) and len(subject.members) == 1:
        member = subject.members[0]
        return g.add_node(member, ast.Enum((member,)))
    return None


# ---------------------------------------------------------------------------
# Evaluation.


class QueryResult(Record):
    __slots__ = ("sure", "tentative", "diagnostics")

    def __init__(self, sure: list[str], tentative: list[str],
                 diagnostics: list[Diagnostic] | None = None):
        self.sure = sure
        self.tentative = tentative
        self.diagnostics = [] if diagnostics is None else diagnostics


def run_query(model, text: str) -> QueryResult:
    """Parse and evaluate a query against the model's fact graph.

    Parse failures in the query text raise, like `parse_description`.
    """
    return eval_query(model, parse_description(text))


def eval_query(model, desc: ast.Description,
               graph: FactGraph | None = None) -> QueryResult:
    g = graph if graph is not None else extract_facts(model)
    diags: list[Diagnostic] = []
    sure, maybe = _eval(g, desc, model.context(), diags, set(g.nodes))
    return QueryResult(sorted(sure), sorted(maybe - sure), diags)


def _eval(g, d, ctx, diags, cand):
    """Evaluate to (sure, maybe) node-id sets, exact on the nodes in `cand`.

    A node outside `cand` may be missing from either set or wrongly in
    one, so callers read the result on `cand` only. An operand whose
    candidates are empty is still walked, for its diagnostics.
    """
    if isinstance(d, (ast.And, ast.Or, ast.Diff)):
        d, chain = ast.left_spine(d)
        s1, m1 = _eval(g, d, ctx, diags, cand)
        for node in chain:
            # A union reads its right side only where the left is not
            # sure; an intersection or difference only where the left
            # may hold.
            right = (cand - s1 if isinstance(node, ast.Or)
                     else (s1 | m1) & cand)
            s2, m2 = _eval(g, node.right, ctx, diags, right)
            if isinstance(node, ast.And):
                sure = s1 & s2
                s1, m1 = sure, ((s1 | m1) & (s2 | m2)) - sure
            elif isinstance(node, ast.Or):
                sure = s1 | s2
                s1, m1 = sure, (m1 | m2) - sure
            else:
                sure = s1 - (s2 | m2)
                s1, m1 = sure, (s1 | m1) - s2 - sure
        return s1, m1
    if isinstance(d, ast.Slot):
        return _eval_slot(g, d, ctx, diags, cand)
    if isinstance(d, ast.Proj):
        return _eval_proj(g, d, ctx, diags, cand)
    if isinstance(d, (ast.Atom, ast.Enum)):
        return _match_nodes(g, d, ctx, cand)
    return set(), set()  # regions and variables name no nodes directly


def _match_nodes(g, d, ctx, cand):
    sure, maybe = set(), set()
    for ident, type_desc in g.nodes.items():
        if ident not in cand:
            continue
        if isinstance(d, ast.Atom) and ident == d.name:
            sure.add(ident)
            continue
        if isinstance(d, ast.Enum) and ident in d.members:
            sure.add(ident)
            continue
        v = subsumes(type_desc, d, ctx)
        if is_proved(v):
            sure.add(ident)
        elif isinstance(v, Unknown):
            maybe.add(ident)
    return sure, maybe


def _unknown_relation(diags, slot):
    diags.append(Diagnostic(ERROR, E_QUERY, None,
                            f"unknown relation {slot!r} in query"))


def _query_bounds(mod: ast.CardModifier):
    # A bare <s: D> in a query reads existentially over recorded facts;
    # explicit count modifiers are honored as written.
    if isinstance(mod, ast.ExactlyOne):
        return 1, None
    return ast.modifier_bounds(mod)


def _eval_slot(g, d, ctx, diags, cand):
    if d.slot == "has_value_in":
        return _eval_region_slot(g, d, ctx)
    if d.slot not in g.relations:
        _unknown_relation(diags, d.slot)
        return set(), set()
    edges = {subject: targets
             for subject, targets in g.edges.get(d.slot, {}).items()
             if subject in cand}
    f_sure, f_maybe = _eval(g, d.filler, ctx, diags,
                            {t for targets in edges.values() for t in targets})
    sure, maybe = set(), set()
    for subject, targets in edges.items():
        n_sure = sum(t in f_sure for t in targets)
        n_poss = sum(t in f_sure or t in f_maybe for t in targets)
        if isinstance(d.modifier, ast.Only):
            # Closure over the recorded facts of this subject.
            if n_sure == len(targets):
                sure.add(subject)
            elif n_poss == len(targets):
                maybe.add(subject)
            continue
        lo, hi = _query_bounds(d.modifier)
        if n_sure >= lo and (hi is None or n_poss <= hi):
            sure.add(subject)
        elif n_poss >= lo and (hi is None or n_sure <= hi):
            maybe.add(subject)
    return sure, maybe


def _query_region(filler: ast.Description) -> ast.RegionExpr | None:
    if isinstance(filler, ast.REGIONS):
        return filler
    if isinstance(filler, ast.Atom):
        return ast.Named(filler.name)
    return None


def _eval_region_slot(g, d, ctx):
    """has_value_in is matched strictly: the declared region must equal
    the queried one. Instances whose region provably sits inside the
    queried one are only tentative answers."""
    region = _query_region(d.filler)
    if region is None:
        return set(), set()
    sure, maybe = set(), set()
    for instance, declared in g.regions.items():
        if any(r == region for r in declared):
            sure.add(instance)
        elif any(structural_subsumes(r, region, ctx) for r in declared):
            maybe.add(instance)
    return sure, maybe


def _eval_proj(g, d, ctx, diags, cand):
    if d.slot not in g.relations:
        _unknown_relation(diags, d.slot)
        return set(), set()
    edges = {subject: targets
             for subject, targets in g.edges.get(d.slot, {}).items()
             if any(t in cand for t in targets)}
    base_sure, base_maybe = _eval(g, d.base, ctx, diags, set(edges))
    sure, maybe = set(), set()
    for subject, targets in edges.items():
        if subject in base_sure:
            sure.update(targets)
        elif subject in base_maybe:
            maybe.update(targets)
    return sure, maybe - sure
