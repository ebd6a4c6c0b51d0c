"""Requirement model store: declarations plus operator applications.

`load_model` runs two passes. The first registers every declaration
(elements, axioms, disjointness, hierarchy edges, scale factors,
conflicts) and checks bodies against their element kinds. The second
replays the operator applications in file order: signatures, strength
admissibility, output construction for the constructive operators, and
semantic verification of each strength claim.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import operators as ops
from .diagnostics import (
    E_DUP,
    E_KIND,
    E_REF,
    E_RESERVED_SLOT,
    E_SIG_CATEGORY,
    E_SIG_DROPPED,
    E_SIG_IN,
    E_SIG_KIND,
    E_SIG_OUT,
    E_STR_ADMIT,
    E_STR_FALSE,
    ERROR,
    W_UNKNOWN,
    WARNING,
    Diagnostic,
    Span,
    has_errors,
)
from .reasoner.consistency import Clash, check_consistency
from .reasoner.normal import DEFAULT_MAX_DNF, ReasonerContext
from .reasoner.strength import (
    ASSERTED,
    UNDECIDED,
    VERIFIED,
    VIOLATED,
    admissible_strengths,
    verify_claim,
)
from .records import Record
from .syntax import ast
from .syntax.parser import (
    ApplicationDecl,
    AxiomDecl,
    Body,
    ConflictDecl,
    DescBody,
    DisjointDecl,
    ELEMENT_KINDS,
    ElementDecl,
    FactorDecl,
    HierarchyDecl,
    NLBody,
    QualityBody,
    SubsumptionBody,
    parse_model_file,
)
from .syntax.render import render_body, render_description

INVALID = "invalid"

# Body forms each element kind accepts.
_KIND_BODIES: dict[str, tuple[type, ...]] = {
    "goal": (NLBody, DescBody),
    "fg": (NLBody, DescBody, SubsumptionBody),
    "qg": (NLBody, QualityBody),
    "ctg": (NLBody, DescBody, SubsumptionBody),
    "f": (NLBody, DescBody),
    "fc": (NLBody, SubsumptionBody),
    "qc": (NLBody, QualityBody),
    "sc": (NLBody, DescBody, SubsumptionBody),
    "da": (NLBody, DescBody, SubsumptionBody),
}

_BODY_NAMES = {
    NLBody: "natural language",
    DescBody: "a description",
    SubsumptionBody: "a subsumption constraint",
    QualityBody: "a quality constraint",
}


class Element(Record):
    __slots__ = ("kind", "ident", "body", "span", "origin", "relaxations",
                 "active")

    def __init__(self, kind: str, ident: str, body: Body, span: Span | None,
                 origin: str = "declared",
                 relaxations: dict[str, Fraction] | None = None,
                 active: bool = True):
        self.kind = kind
        self.ident = ident
        self.body = body
        self.span = span
        self.origin = origin
        self.relaxations = {} if relaxations is None else relaxations
        self.active = active


class Application(Record):
    __slots__ = ("op", "inputs", "strength", "outputs", "span", "verdict",
                 "note")

    def __init__(self, op: str, inputs: tuple[str, ...], strength: str,
                 outputs: tuple[str, ...], span: Span | None,
                 verdict: str = INVALID, note: str | None = None):
        self.op = op
        self.inputs = inputs
        self.strength = strength
        self.outputs = outputs
        self.span = span
        self.verdict = verdict
        self.note = note


class Model:
    def __init__(self, max_dnf: int = DEFAULT_MAX_DNF):
        self.elements: dict[str, Element] = {}
        self.applications: list[Application] = []
        self.axioms: list[tuple[ast.Description, ast.Description]] = []
        self.disjoints: list[tuple[str, str]] = []
        self.hierarchy: list[HierarchyDecl] = []
        self.factors: dict[str, str] = dict(ops.BUILTIN_FACTORS)
        self.conflicts: list[tuple[str, ...]] = []
        self.diagnostics: list[Diagnostic] = []
        self.max_dnf = max_dnf
        self._ctx: ReasonerContext | None = None

    # -- diagnostics -------------------------------------------------------

    def error(self, code, span, message):
        self.diagnostics.append(Diagnostic(ERROR, code, span, message))

    def warn(self, code, span, message):
        self.diagnostics.append(Diagnostic(WARNING, code, span, message))

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)

    # -- derived theory ------------------------------------------------

    def context(self) -> ReasonerContext:
        """Reasoning context: axioms, active assumptions, disjointness.
        Built at first use; an axiom implied after that grows it."""
        if self._ctx is None:
            axioms = list(self.axioms)
            for e in self.elements.values():
                if (e.active and e.kind == "da"
                        and isinstance(e.body, SubsumptionBody)):
                    axioms.append((e.body.lhs, e.body.rhs))
            self._ctx = ReasonerContext(axioms=axioms,
                                        disjoints=list(self.disjoints),
                                        max_dnf=self.max_dnf)
        return self._ctx

    def active_elements(self):
        return [e for e in self.elements.values() if e.active]

    def clashes(self) -> list[Clash]:
        sources = [("axiom", lhs, rhs) for lhs, rhs in self.axioms]
        facts = []
        for e in self.active_elements():
            if isinstance(e.body, SubsumptionBody):
                sources.append((e.ident, e.body.lhs, e.body.rhs))
            elif e.kind == "f" and isinstance(e.body, DescBody):
                facts.append((e.ident, e.body.desc))
        return check_consistency(sources, self.disjoints, facts)

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict:
        by_kind = Counter(e.kind for e in self.elements.values())
        verdicts = Counter(a.verdict for a in self.applications)
        resolved = 0
        for ids in self.conflicts:
            if any(a.op == "resolve" and a.verdict != INVALID
                   and set(ids) <= set(a.inputs)
                   for a in self.applications):
                resolved += 1
        return {
            "elements": {
                "by_kind": {k: by_kind.get(k, 0) for k in ELEMENT_KINDS},
                "total": len(self.elements),
                "active": sum(e.active for e in self.elements.values()),
                "dropped": sum(not e.active for e in self.elements.values()),
                "constructed": sum(e.origin != "declared"
                                   for e in self.elements.values()),
            },
            "applications": {
                "total": len(self.applications),
                "by_verdict": {v: verdicts.get(v, 0)
                               for v in (VERIFIED, ASSERTED, VIOLATED,
                                         UNDECIDED, INVALID)},
            },
            "theory": {
                "axioms": len(self.axioms),
                "disjoint_pairs": len(self.disjoints),
                "hierarchy_edges": len(self.hierarchy),
                "factors": len(self.factors),
            },
            "conflicts": {
                "declared": len(self.conflicts),
                "resolved": resolved,
            },
            "diagnostics": {
                "errors": sum(d.severity == ERROR for d in self.diagnostics),
                "warnings": sum(d.severity == WARNING
                                for d in self.diagnostics),
            },
        }

    def to_json_dict(self) -> dict:
        return {
            "elements": [{
                "id": e.ident,
                "kind": e.kind,
                "body": render_body(e.body),
                "origin": e.origin,
                "active": e.active,
                "relaxations": {k: str(v)
                                for k, v in sorted(e.relaxations.items())},
            } for e in self.elements.values()],
            "applications": [{
                "op": a.op,
                "inputs": list(a.inputs),
                "strength": a.strength,
                "outputs": list(a.outputs),
                "verdict": a.verdict,
                "note": a.note,
            } for a in self.applications],
            "axioms": [f"{render_description(l)} :< {render_description(r)}"
                       for l, r in self.axioms],
            "disjoint": [list(p) for p in self.disjoints],
            "hierarchy": [{"edge": h.edge, "child": h.child,
                           "parent": h.parent} for h in self.hierarchy],
            "factors": dict(sorted(self.factors.items())),
            "conflicts": [list(c) for c in self.conflicts],
        }

    def to_dot(self) -> str:
        shape = {"goal": "ellipse", "fg": "ellipse", "qg": "ellipse",
                 "ctg": "ellipse", "f": "box", "fc": "note", "qc": "note",
                 "sc": "note", "da": "folder"}
        lines = ["digraph model {", "  rankdir=LR;"]
        for e in self.elements.values():
            style = ', style=dashed' if not e.active else ""
            lines.append(f'  "{e.ident}" [shape={shape[e.kind]}, '
                         f'label="{e.ident}\\n({e.kind})"{style}];')
        for a in self.applications:
            if a.verdict == INVALID:
                continue
            label = f"{a.op}[{a.strength}]"
            for src in a.inputs:
                for dst in a.outputs:
                    lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        for e in self.elements.values():
            if (e.active and isinstance(e.body, QualityBody)
                    and isinstance(e.body.subject, ast.Atom)
                    and e.body.subject.name in self.elements):
                lines.append(f'  "{e.ident}" -> "{e.body.subject.name}" '
                             '[style=dotted, label="inheres_in"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Loading.


def load_model(text: str, max_dnf: int = DEFAULT_MAX_DNF) -> Model:
    tree = parse_model_file(text)
    m = Model(max_dnf=max_dnf)
    m.diagnostics.extend(tree.diagnostics)

    apps: list[ApplicationDecl] = []
    for decl in tree.declarations:
        if isinstance(decl, ElementDecl):
            _register_declared(m, decl)
        elif isinstance(decl, AxiomDecl):
            _check_reserved(m, decl.lhs, decl.span)
            _check_reserved(m, decl.rhs, decl.span)
            m.axioms.append((decl.lhs, decl.rhs))
        elif isinstance(decl, DisjointDecl):
            _add_disjoint(m, decl)
        elif isinstance(decl, HierarchyDecl):
            m.hierarchy.append(decl)
        elif isinstance(decl, FactorDecl):
            m.factors[decl.name] = decl.direction
        elif isinstance(decl, ConflictDecl):
            m.conflicts.append(decl.ids)
        elif isinstance(decl, ApplicationDecl):
            apps.append(decl)

    for ids in m.conflicts:
        for ident in ids:
            if ident not in m.elements:
                m.error(E_REF, None,
                        f"conflict names unknown element {ident!r}")

    for app in apps:
        _apply(m, app)
    return m


def _register_declared(m: Model, decl: ElementDecl):
    if decl.ident in m.elements:
        return  # the parser already reported the duplicate
    allowed = _KIND_BODIES[decl.kind]
    if not isinstance(decl.body, allowed):
        names = ", ".join(_BODY_NAMES[t] for t in allowed)
        m.error(E_KIND, decl.span,
                f"a {decl.kind} element takes {names}, "
                f"not {_BODY_NAMES[type(decl.body)]}")
        return
    for d in _body_descriptions(decl.body):
        _check_reserved(m, d, decl.span)
    m.elements[decl.ident] = Element(decl.kind, decl.ident, decl.body,
                                     decl.span)


def _body_descriptions(body: Body):
    if isinstance(body, DescBody):
        return [body.desc]
    if isinstance(body, SubsumptionBody):
        return [body.lhs, body.rhs]
    if isinstance(body, QualityBody):
        out = [body.subject]
        if body.observer is not None:
            out.append(body.observer)
        return out
    return []


def _check_reserved(m: Model, d: ast.Description, span):
    for node in ast.walk(d):
        if isinstance(node, (ast.Slot, ast.Proj)) and node.slot == "effect":
            m.error(E_RESERVED_SLOT, span,
                    "the slot name 'effect' is reserved for "
                    "operationalization links")
            return


def _add_disjoint(m: Model, decl: DisjointDecl):
    names = []
    for side in (decl.left, decl.right):
        if isinstance(side, ast.Atom) and side.name not in ("Anything",
                                                            "Nothing"):
            names.append(side.name)
    if len(names) != 2:
        m.error(E_KIND, decl.span,
                "disjointness is declared between two concept names")
        return
    m.disjoints.append((names[0], names[1]))


# ---------------------------------------------------------------------------
# Applications.


def _apply(m: Model, app: ApplicationDecl):
    record = Application(app.op, app.inputs, app.strength, app.outputs,
                         app.span)
    m.applications.append(record)
    problems = []

    def fail(code, message):
        problems.append(message)
        m.error(code, app.span, message)

    ins: list[Element] = []
    for ident in app.inputs:
        e = m.elements.get(ident)
        if e is None:
            fail(E_REF, f"unknown element {ident!r}")
        elif not e.active:
            fail(E_SIG_DROPPED,
                 f"{ident!r} was dropped by an earlier resolve")
        else:
            ins.append(e)
    if problems:
        return

    lo, hi = (2, None) if app.op == "resolve" else (1, 1)
    if len(ins) < lo or (hi is not None and len(ins) > hi):
        fail(E_SIG_IN, f"{app.op} takes "
             + ("at least 2 inputs" if app.op == "resolve" else "1 input")
             + f", got {len(ins)}")
        return
    for e in ins:
        if e.kind not in ops.IN_KINDS[app.op]:
            fail(E_SIG_KIND, f"{app.op} does not apply to a {e.kind} "
                 f"element ({e.ident})")
    if app.op == "resolve":
        if len({ops.category(e.kind) for e in ins}) > 1:
            fail(E_SIG_CATEGORY,
                 "resolve mixes goal-level and specification-level elements")
    if problems:
        return
    prim = ins[0]

    if app.op in ops.CONSTRUCTIVE:
        outs = _construct(m, app, prim, fail)
    else:
        outs = _resolve_declared_outputs(m, app, prim, ins, fail)
    if problems or outs is None:
        return

    pct = app.args.pct if app.op == "deuniversalize" else None
    admitted = admissible_strengths(
        app.op, pct=pct, output_kinds=tuple(o.kind for o in outs))
    if app.strength not in admitted:
        allowed = ",".join(sorted(admitted)) or "none"
        fail(E_STR_ADMIT, f"strength [{app.strength}] is not admissible "
             f"for {app.op} here (allowed: {allowed})")
        return

    _commit(m, app, outs)
    record.verdict, record.note = _verdict(m, app, prim, outs)
    if record.verdict == VIOLATED:
        m.error(E_STR_FALSE, app.span,
                f"claimed [{app.strength}] is refuted: {record.note}")
    elif record.verdict == UNDECIDED:
        m.warn(W_UNKNOWN, app.span,
               f"claimed [{app.strength}] was not decided: {record.note}")


def _resolve_declared_outputs(m, app, prim, ins, fail):
    outs = []
    for ident in app.outputs:
        e = m.elements.get(ident)
        if e is None:
            fail(E_REF, f"unknown output element {ident!r}")
            return None
        outs.append(e)
    if app.op == "reduce":
        if not any(o.kind == prim.kind for o in outs):
            fail(E_SIG_OUT, "reduce needs at least one output of the "
                 f"input's kind ({prim.kind})")
        for o in outs:
            if o.kind not in (prim.kind, "da"):
                fail(E_SIG_CATEGORY, f"reduce of a {prim.kind} cannot "
                     f"produce a {o.kind} ({o.ident})")
    elif app.op == "interpret":
        if len(outs) != 1:
            fail(E_SIG_OUT, f"interpret produces exactly 1 element, "
                 f"got {len(outs)}")
        else:
            allowed = (ops.GOAL_CATEGORY if prim.kind == "goal"
                       else frozenset({prim.kind}))
            if outs[0].kind not in allowed:
                fail(E_SIG_CATEGORY, f"interpret of a {prim.kind} cannot "
                     f"produce a {outs[0].kind}")
    elif app.op == "operationalize":
        if not outs:
            fail(E_SIG_OUT, "operationalize needs at least one output")
        allowed = ops.OPERATIONALIZE_OUT[prim.kind]
        for o in outs:
            if o.kind not in allowed:
                fail(E_SIG_CATEGORY,
                     f"operationalize of a {prim.kind} cannot produce "
                     f"a {o.kind} ({o.ident}); allowed: "
                     + ", ".join(sorted(allowed)))
    else:  # resolve
        input_ids = {e.ident for e in ins}
        for o in outs:
            if o.ident not in input_ids:
                fail(E_SIG_OUT, "resolve keeps a subset of its inputs; "
                     f"{o.ident!r} is not one of them")
    return outs


def _construct(m, app, prim, fail):
    """Build and register the outputs of a constructive application."""
    for ident in app.outputs:
        if ident in m.elements:
            fail(E_DUP, f"output {ident!r} already names an element")
            return None
    if app.op == "focus":
        need = len(app.args.targets)
    else:
        need = 1
    if len(app.outputs) != need:
        fail(E_SIG_OUT,
             f"{app.op} produces {need} element(s), got {len(app.outputs)}")
        return None

    if app.op != "deuniversalize" and not isinstance(prim.body, QualityBody):
        fail(E_SIG_KIND,
             f"{app.op} needs a measured quality body on {prim.ident}")
        return None
    out_kind = prim.kind
    try:
        if app.op == "deuniversalize":
            _check_reserved(m, app.args.pattern, app.span)
            built = [(prim.body, ops.relax(prim.relaxations, app.args))]
        elif app.op == "observe":
            _check_reserved(m, app.args.observer, app.span)
            body = ops.observe_output(prim.body, app.args.observer)
            out_kind = "qc"
            built = [(body, dict(prim.relaxations))]
        elif app.op == "focus":
            bodies, _ = ops.focus_outputs(prim.body, app.args, m.hierarchy)
            built = [(b, dict(prim.relaxations)) for b in bodies]
        else:  # scaleup / scaledown
            direction = "up" if app.op == "scaleup" else "down"
            region, implied = ops.scale_region(prim.body.region, app.args,
                                               direction, m.factors)
            body = QualityBody(prim.body.quality, prim.body.subject,
                               region, prim.body.observer)
            built = [(body, dict(prim.relaxations))]
            if implied is not None:
                m.axioms.append(implied)
                if m._ctx is not None:  # grown, not rebuilt
                    m._ctx = m._ctx.assuming(implied)
    except ops.OperatorError as err:
        fail(err.code, err.message)
        return None

    outs = []
    for ident, (body, relaxations) in zip(app.outputs, built):
        e = Element(out_kind, ident, body, app.span,
                    origin=f"op:{app.op}", relaxations=relaxations)
        outs.append(e)
    return outs


def _commit(m: Model, app: ApplicationDecl, outs: list[Element]):
    # Neither a constructed output nor an input that resolve drops is a
    # domain assumption (operators.REFINABLE excludes "da"), so neither
    # changes the theory that Model.context() reads; the context stays.
    if app.op in ops.CONSTRUCTIVE:
        for e in outs:
            m.elements[e.ident] = e
    elif app.op == "resolve":
        kept = {o.ident for o in outs}
        for ident in app.inputs:
            if ident not in kept:
                m.elements[ident].active = False


def _verdict(m: Model, app: ApplicationDecl, prim: Element,
             outs: list[Element]):
    if app.op == "operationalize":
        return ASSERTED, "operational refinement is recorded, not proved"
    if app.op == "resolve":
        return VERIFIED, "kept elements are a subset of the inputs"
    if app.op == "focus":
        # Construction already validated the targets, so this cannot raise.
        _, complete = ops.focus_outputs(prim.body, app.args, m.hierarchy)
        if app.strength == "e" and not complete:
            return VIOLATED, "the targets do not cover every declared child"
        return VERIFIED, ("complete cover" if complete else "partial cover")
    return verify_claim(app.strength, prim, outs, m.context())
