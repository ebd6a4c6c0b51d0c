"""Seeded synthetic inputs with planted answers.

Two generators, both pure functions of their seed (same seed, same
text, byte for byte):

* `synth_model` writes a requirement model for `desiree check`. It is
  built from independent groups; each group contributes functions, an
  axiom chain, domain assumptions and reduce/interpret/scaleup/scaledown
  claims. The generator knows, by construction, which claims hold and
  which are refuted, which are out of reach of the structural rules, and
  which disjointness clashes exist, so it plants the expected exit
  status, diagnostics and clash anchors next to the text.
* `entail_theory` writes a background theory (atom chains, ONLY
  restrictions, disjointness, a disjunctive axiom) with requirement
  elements, plus element pairs labelled with the answer they must get.

Why the planted answers hold, per shape, is written next to each shape.
Nothing here imports desiree: the answers come from the construction,
not from the program under test.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

# Planted truth of a claim or an entailment pair. The program may always
# answer Unknown (that lowers decided_ratio); a decided answer must agree
# with the planted truth: Proved for PROVED and HOLDS, Disproved for
# REFUTED.
PROVED = "proved"    # true; told-subsumer chains prove it today
HOLDS = "holds"      # true, but outside today's structural rules
REFUTED = "refuted"  # false: a counter-model exists
TRUE = (PROVED, HOLDS)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# synth-check models.


@dataclass
class SynthModel:
    text: str
    elements: int
    exit_status: int                     # when every refuted claim is refuted
    clash_anchors: list[str]             # sorted
    claims: dict[int, str]               # claim line -> planted truth

    @property
    def sha256(self) -> str:
        return digest(self.text)


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.elements = 0

    def add(self, line: str, element: bool = False) -> int:
        self.lines.append(line)
        if element:
            self.elements += 1
        return len(self.lines)  # 1-based line number of this declaration


def synth_model(seed: int, groups: int, variant: str) -> SynthModel:
    """A model of `groups` groups; `variant` picks what makes it fail.

    * "clash": every claim holds, and every group plants one
      disjointness clash, so `check` exits 1 with the clashes listed;
    * "refuted": a seeded half of the groups plant refuted claims, so
      `check` exits 1 on E-STR-002;
    * "clean": every claim holds and there is no clash, so `check`
      exits 0 (with W-UNK-001 warnings for claims it leaves undecided).
    """
    if variant not in ("clash", "refuted", "clean"):
        raise ValueError(f"unknown variant {variant!r}")
    rng = random.Random(f"synth-check/{seed}/{groups}/{variant}")
    w = _Writer()
    claims: dict[int, str] = {}
    anchors: list[str] = []
    w.add(f"// synth-check model: seed {seed}, {groups} groups, {variant}")
    w.add("disjoint Info_entity, Real_entity.")
    refuted_groups = set()
    if variant == "refuted":
        refuted_groups = set(rng.sample(range(groups), max(1, groups // 2)))
    for g in range(groups):
        tag = f"{g}x{rng.randrange(36 ** 3):03x}"
        c = [f"C{tag}_{j}" for j in range(3)]
        verb, actor, room = f"V{tag}", f"A{tag}", f"R{tag}"
        w.add(f"axiom {c[1]} :< {c[0]}.")
        w.add(f"axiom {c[2]} :< {c[1]}.")
        w.add(f"da DA{tag} = {c[0]} :< T{tag}.", element=True)

        # Functions refine slot-wise: C2 is below C0 by the chain, so
        # the narrowed function is proved to strengthen the original.
        w.add(f"f F{tag} = {verb} <actor: {actor}> <object: {c[0]}>.",
              element=True)
        w.add(f"f F{tag}r = {verb} <actor: {actor}> <object: {c[2]}>.",
              element=True)
        claims[w.add(f"reduce(F{tag}) [s] = {{F{tag}r}}.")] = PROVED

        # State constraints: C2<location: R> is within C0<location: R> by
        # the chain. Claiming the converse is refuted by one individual
        # in C0 but not C2 whose single location edge points at itself.
        w.add(f"sc S{tag} = {c[0]} <location: {room}>.", element=True)
        w.add(f"sc S{tag}n = {c[2]} <location: {room}>.", element=True)
        w.add(f"sc S{tag}e = <location: {room}> {c[0]}.", element=True)
        if g in refuted_groups:
            claims[w.add(f"reduce(S{tag}n) [s] = {{S{tag}}}.")] = REFUTED
        else:
            claims[w.add(f"reduce(S{tag}) [s] = {{S{tag}n}}.")] = PROVED
        # Conjunction order does not matter: proved in both directions.
        claims[w.add(f"interpret(S{tag}) [e] = {{S{tag}e}}.")] = PROVED

        # Quality constraints: scaling up by (1, 2/3) shrinks [0, 30] to
        # [0, 20], which strengthens; scaling down by (1, 6/5) enlarges
        # it to [0, 36], which weakens. Claiming [e] for the scale-up is
        # refuted by the grid point 25.
        w.add(f"qc Q{tag} = Response_time ({{sys{tag}}}) :: [0, 30 Sec].",
              element=True)
        if g in refuted_groups:
            line = w.add(f"scaleup(Q{tag}, (1, 2/3)) [e] = {{Q{tag}t}}.")
            claims[line] = REFUTED
        else:
            line = w.add(f"scaleup(Q{tag}, (1, 2/3)) [s] = {{Q{tag}t}}.")
            claims[line] = PROVED
        line = w.add(f"scaledown(Q{tag}, (1, 6/5)) [w] = {{Q{tag}r}}.")
        claims[line] = PROVED
        w.elements += 2  # the two constructed quality constraints

        # U :< P | Q makes U within P | Q, so the claim is true; today's
        # structural rules do not follow disjunctive consequences and no
        # counter-model exists, so it comes back undecided for now.
        u, p, q = f"U{tag}", f"P{tag}", f"Q{tag}_"
        w.add(f"axiom {u} :< {p} | {q}.")
        w.add(f"sc Su{tag} = {p} | {q}.", element=True)
        w.add(f"sc Sv{tag} = {u}.", element=True)
        claims[w.add(f"reduce(Su{tag}) [s] = {{Sv{tag}}}.")] = HOLDS

        # Clash: W's objects must be information entities, but O is a
        # real-world entity by assumption. Only "clash" models plant it.
        if variant == "clash":
            o, wv = f"O{tag}", f"W{tag}"
            w.add(f"axiom {wv} :< <object: ONLY Info_entity>.")
            w.add(f"da DO{tag} = {o} :< Real_entity.", element=True)
            w.add(f"f Fx{tag} = {wv} <object: {o}>.", element=True)
            anchors.append(o)
        w.add("")
    errors = REFUTED in claims.values() or bool(anchors)
    return SynthModel(
        text="\n".join(w.lines),
        elements=w.elements,
        exit_status=1 if errors else 0,
        clash_anchors=sorted(anchors),
        claims=claims,
    )


# ---------------------------------------------------------------------------
# entail-search theory and pairs.


@dataclass
class EntailPair:
    left: str       # element id
    right: str      # element id
    planted: str    # PROVED / HOLDS / REFUTED
    form: str       # "desc" or "constraint"


@dataclass
class EntailTheory:
    text: str
    pairs: list[EntailPair] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return digest(self.text + "\n" + "\n".join(
            f"{p.left} {p.right} {p.planted}" for p in self.pairs))


# Chain lengths (A, B, C) per family. Every shape has 13 atoms in its
# chains, so every family's search space has the same size (the search
# pulls in the whole family); the seed permutes the shapes.
_FAMILY_SHAPES = [(5, 4, 4), (4, 5, 4), (4, 4, 5), (5, 5, 3)]

# Pairs per block of 20, by (form, planted class). Fixed, so the mix of
# early witnesses, exhaustive scans and structural proofs is the same on
# every seed; the seed picks the members.
_BLOCK = ([("desc", REFUTED)] * 10 + [("constraint", REFUTED)] * 5
          + [("desc", HOLDS)] * 2 + [("desc", PROVED)] * 2
          + [("constraint", PROVED)] * 1)


def entail_theory(seed: int, families: int = 8, pairs: int = 200
                  ) -> EntailTheory:
    """A background theory of `families` families and `pairs` pairs.

    Family f has chains A_0 > A_1 > ..., B_0 > ..., C_0 > ..., the
    restriction A_0 :< <r: ONLY B_0>, `disjoint A_0, C_0`, and
    U :< P | Q with P :< A_1. Its elements are
      E_j_m = A_j <r: SOME B_m>   (description bodies)
      K_j_m = A_j :< B_m          (constraint bodies)
      EU = U, EPQ = P | Q.
    """
    rng = random.Random(f"entail-search/{seed}")
    shapes = [_FAMILY_SHAPES[i % len(_FAMILY_SHAPES)] for i in range(families)]
    rng.shuffle(shapes)
    lines = [f"// entail-search theory: seed {seed}, {families} families"]
    fams = []
    for f, (la, lb, lc) in enumerate(shapes):
        tag = f"{f}y{rng.randrange(36 ** 3):03x}"
        a = [f"A{tag}_{j}" for j in range(la)]
        b = [f"B{tag}_{j}" for j in range(lb)]
        cc = [f"C{tag}_{j}" for j in range(lc)]
        for chain in (a, b, cc):
            for j in range(1, len(chain)):
                lines.append(f"axiom {chain[j]} :< {chain[j - 1]}.")
        lines.append(f"axiom {a[0]} :< <r{tag}: ONLY {b[0]}>.")
        lines.append(f"disjoint {a[0]}, {cc[0]}.")
        lines.append(f"axiom U{tag} :< P{tag} | Q{tag}.")
        lines.append(f"axiom P{tag} :< {a[1]}.")
        for j in range(la):
            for m in range(lb):
                lines.append(f"sc E{tag}_{j}_{m} = {a[j]} <r{tag}: SOME {b[m]}>.")
                lines.append(f"sc K{tag}_{j}_{m} = {a[j]} :< {b[m]}.")
        lines.append(f"sc EU{tag} = U{tag}.")
        lines.append(f"sc EPQ{tag} = P{tag} | Q{tag}.")
        lines.append("")
        fams.append((tag, la, lb))

    out: list[EntailPair] = []
    while len(out) < pairs:
        block = list(_BLOCK)
        rng.shuffle(block)
        for form, planted in block:
            tag, la, lb = fams[rng.randrange(len(fams))]
            out.append(_pair(rng, tag, la, lb, form, planted))
    return EntailTheory("\n".join(lines), out[:pairs])


def _pair(rng, tag, la, lb, form, planted) -> EntailPair:
    if planted == HOLDS:
        return EntailPair(f"EU{tag}", f"EPQ{tag}", HOLDS, form)
    j, j2 = rng.randrange(la), rng.randrange(la)
    m, m2 = rng.randrange(lb), rng.randrange(lb)
    if form == "desc":
        name = "E"
        if planted == PROVED:
            # A_j <r: SOME B_m> is within A_j2 <r: SOME B_m2> when both
            # indices only go up the chains: j >= j2 and m >= m2.
            j, j2 = max(j, j2), min(j, j2)
            m, m2 = max(m, m2), min(m, m2)
        else:
            # Refuted when the right side asks for a deeper A or B. A
            # single individual x in A_0..A_j and B_0..B_m with the edge
            # x -r-> x satisfies every axiom (x is in B_0 as ONLY asks,
            # and outside C, U and P) and separates the two.
            while j >= j2 and m >= m2:
                j, j2 = rng.randrange(la), rng.randrange(la)
                m, m2 = rng.randrange(lb), rng.randrange(lb)
    else:
        name = "K"
        if planted == PROVED:
            # Assuming A_j :< B_m, A_j2 :< B_m2 follows for j2 >= j and
            # m2 <= m: A_j2 <= A_j <= B_m <= B_m2 along told edges.
            j, j2 = min(j, j2), max(j, j2)
            m, m2 = max(m, m2), min(m, m2)
        else:
            # Refuted when j2 < j or m2 > m: one individual in
            # A_0..A_j2 (and, forced by the assumption when j2 >= j, in
            # B_0..B_m) but outside B_m2 satisfies the theory plus the
            # assumption and breaks A_j2 :< B_m2.
            while j2 >= j and m2 <= m:
                j, j2 = rng.randrange(la), rng.randrange(la)
                m, m2 = rng.randrange(lb), rng.randrange(lb)
    return EntailPair(f"{name}{tag}_{j}_{m}", f"{name}{tag}_{j2}_{m2}",
                      planted, form)
