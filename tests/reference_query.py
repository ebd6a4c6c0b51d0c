"""The query evaluator that matched every atom against every node, kept
as the reference for the differential test in `test_query.py`.

`desiree.query` passes each operand the set of nodes on which its
caller reads the result and matches atoms only there. This evaluator
passes nothing down: each atom is matched against all of `g.nodes`, so
it asks every node match the new one asks and more. Its answers and
diagnostics must be the same as `desiree.query.eval_query`'s.
"""
from __future__ import annotations

from desiree.diagnostics import Diagnostic
from desiree.query import (
    QueryResult,
    _eval_region_slot,
    _query_bounds,
    _unknown_relation,
    extract_facts,
)
from desiree.reasoner.subsume import subsumes
from desiree.reasoner.verdict import Unknown, is_proved
from desiree.syntax import ast


def eval_query(model, desc: ast.Description, graph=None) -> QueryResult:
    g = graph if graph is not None else extract_facts(model)
    diags: list[Diagnostic] = []
    sure, maybe = _eval(g, desc, model.context(), diags)
    return QueryResult(sorted(sure), sorted(maybe - sure), diags)


def _eval(g, d, ctx, diags):
    """Evaluate to (sure, maybe) node-id sets."""
    if isinstance(d, (ast.And, ast.Or, ast.Diff)):
        d, chain = ast.left_spine(d)
        s1, m1 = _eval(g, d, ctx, diags)
        for node in chain:
            s2, m2 = _eval(g, node.right, ctx, diags)
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
        return _eval_slot(g, d, ctx, diags)
    if isinstance(d, ast.Proj):
        return _eval_proj(g, d, ctx, diags)
    if isinstance(d, (ast.Atom, ast.Enum)):
        return _match_nodes(g, d, ctx)
    return set(), set()  # regions and variables name no nodes directly


def _match_nodes(g, d, ctx):
    sure, maybe = set(), set()
    for ident, type_desc in g.nodes.items():
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


def _eval_slot(g, d, ctx, diags):
    if d.slot == "has_value_in":
        return _eval_region_slot(g, d, ctx)
    if d.slot not in g.relations:
        _unknown_relation(diags, d.slot)
        return set(), set()
    f_sure, f_maybe = _eval(g, d.filler, ctx, diags)
    sure, maybe = set(), set()
    for subject, targets in g.edges.get(d.slot, {}).items():
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


def _eval_proj(g, d, ctx, diags):
    if d.slot not in g.relations:
        _unknown_relation(diags, d.slot)
        return set(), set()
    base_sure, base_maybe = _eval(g, d.base, ctx, diags)
    sure, maybe = set(), set()
    for subject, targets in g.edges.get(d.slot, {}).items():
        if subject in base_sure:
            sure.update(targets)
        elif subject in base_maybe:
            maybe.update(targets)
    return sure, maybe - sure
