"""The three workloads: their inputs, one operation, and its answer check.

Each workload makes its inputs from the seed, writes the model files the
program reads, and exposes one pass: a fixed sequence of operations. An
operation goes through desiree's public entry points only
(`desiree.cli.main` in-process, or `desiree.reasoner.entail.entails`)
and returns its output as text, so a repeat pass can be compared byte
for byte. `check` returns None for a correct output, else the reason.

Answers are three-valued, and the checks follow the program's contract:
Unknown is never a wrong answer (it lowers decided_ratio instead), but
a decided answer must agree with the planted or hand-checked truth, and
a Disproved must come with a witness that replays.

Operations call desiree through module attributes (`cli.main`,
`entail.entails`, `model.load_model`) so the tracer's wrappers see them;
the answer checks hold their own references to the reference evaluator,
so checking a witness is never traced as the program's work.

Import this module only after `src` is on sys.path.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from desiree import cli, model
from desiree.reasoner import entail
from desiree.reasoner.interp import witness_from_json
from desiree.reasoner.semantics import satisfies_axioms, violates_subsumption
from desiree.reasoner.verdict import Disproved, Proved
from desiree.syntax.parser import SubsumptionBody

import synth

CORPUS = Path("src") / "desiree" / "corpus" / "meeting_scheduler.dsr"

# Diagnostic codes of `desiree check --json` read by the answer checks.
CLASH = "E-CONS-001"
REFUTED_CLAIM = "E-STR-002"
UNDECIDED_CLAIM = "W-UNK-001"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """desiree's command line, in-process: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


class Workload:
    """One pass is `ops`, run in order; see the module docstring."""

    name: str
    setup_code: str
    ops: list
    inputs: dict[str, str]

    def begin_pass(self):
        """Untimed preparation before each pass."""

    def run(self, op) -> str:
        raise NotImplementedError

    def check(self, op, output: str, counts=None) -> str | None:
        """None if `output` is right; `counts` are what the tracer
        counted during the operation, when it ran traced."""
        raise NotImplementedError

    def census(self, counts, outputs: list[str]) -> tuple[int, int]:
        """(decided, asked) from the warm-up pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# corpus-query

# Interrelation queries on the bundled corpus with their true answers
# read off its told facts. The corpus functions are
#   F1 = Search <actor: User> <object: Product> <target: {the_system}>
#   F_book = Book <object: Ticket>   F_book2 = Book <object: Airline_ticket>
#   F_register = Register <actor: Guest> <object: User>
#   F_add = Add_meeting <actor: Registered_user> <object: Meeting_record>
#   F_bookr = Book_room <actor: User> <object: Meeting_room>
#   F_reserve = Reserve <actor: User> <object: Room_equipment>
# and the theory says Airline_ticket :< Ticket, Registered_user :< User;
# User, Meeting_room, Room_equipment :< Real_world_entity; Search, Book,
# Register, Book_room, Reserve :< System_function. Each entry is (query,
# answers proved today, answers that are true but not proved today). A
# comment gives the facts behind each answer; every other node has a
# counter-model, so it must never be a sure answer. The first five and
# the sixth are acceptance criterion 8.
#
# The second list comes from the deliberate clash: System_function's
# objects must be information entities, yet F_register, F_bookr and
# F_reserve have real-world objects (User, Meeting_room, Room_equipment).
# No interpretation satisfying the theory has an instance of those three,
# so each of them falls under every concept, and a sound prover that sees
# this may answer them, and what they lead to, for sure.
CORPUS_QUERIES = [
    # Processing_time@F1 (QG_fast, QC1) inheres in F1.
    ("<has_quality: Processing_time>", ["F1"], []),
    # QG_appe: Appearance ({the_product}).
    ("<inheres_in: {the_product}>", ["Appearance@the_product"], []),
    # F1's actor is User; Guest is the actor of F_register, which falls
    # under F1 through the clash.
    ("<is_actor_of: F1>", ["User"], ["Guest"]),
    # F1's object is Product; the others are objects of the three
    # clashing functions.
    ("<is_object_of: F1>", ["Product"],
     ["Meeting_room", "Room_equipment", "User"]),
    # Only F1 has object Product.
    ("<object: Product>", ["F1"], []),
    # Processing_time@F1 is only declared Fast, [0, 30 Sec], Nearly Fast.
    ("<has_quality: Processing_time <has_value_in: <=5 Sec>>", [], []),
    # Actor User (F1, F_bookr, F_reserve) or Registered_user :< User (F_add).
    ("<actor: User>", ["F1", "F_add", "F_bookr", "F_reserve"], []),
    # Object Ticket (F_book) or Airline_ticket :< Ticket (F_book2).
    ("<object: Ticket>", ["F_book", "F_book2"], []),
    # Same as above under SOME.
    ("<object: SOME Ticket>", ["F_book", "F_book2"], []),
    # Verbs told under System_function; Add_meeting is not.
    ("System_function",
     ["F1", "F_book", "F_book2", "F_bookr", "F_register", "F_reserve"], []),
    # Told under Real_world_entity, directly or through User; the three
    # clashing functions fall under it too.
    ("Real_world_entity",
     ["Meeting_room", "Registered_user", "Room_equipment", "User"],
     ["F_bookr", "F_register", "F_reserve"]),
    # Only F_add names Registered_user as actor.
    ("<actor: Registered_user>", ["F_add"], []),
    # F_book2's object; the others as for F1 above.
    ("<is_object_of: F_book2>", ["Airline_ticket"],
     ["Meeting_room", "Room_equipment", "User"]),
    # Objects User, Meeting_room, Room_equipment are real-world entities.
    ("<object: Real_world_entity>", ["F_bookr", "F_register", "F_reserve"],
     []),
    # QG_appe again, from the subject side.
    ("<has_quality: Appearance>", ["the_product"], []),
    # Verb Search or Book, and the three clashing functions.
    ("Search | Book", ["F1", "F_book", "F_book2"],
     ["F_bookr", "F_register", "F_reserve"]),
    # Actor User minus object Room_equipment (F_reserve); the other
    # objects (Product, Meeting_record, Meeting_room) are not told under
    # Room_equipment and each has a one-individual counter-model.
    ("<actor: User> - <object: Room_equipment>", ["F1", "F_add", "F_bookr"], []),
    # Projection: F1's actors, and F_register's (Guest) through the clash.
    ("F1.actor", ["User"], ["Guest"]),
    # QC_ui (observe) and QC_ui80 are observed by Surveyed_user.
    ("<observed_by: Surveyed_user>", ["Style@the_interface"], []),
    # Actors of F_register (Guest), F_bookr and F_reserve (User).
    ("<is_actor_of: <object: Real_world_entity>>", ["Guest", "User"], []),
]

# One query in three runs with --lenient; the seed picks which.
LENIENT_EVERY = 3


class CorpusQuery(Workload):
    name = "corpus-query"
    setup_code = "import desiree.cli"

    def __init__(self, root: Path, work: Path, seed: int):
        rng = random.Random(f"corpus-query/{seed}")
        order = list(range(len(CORPUS_QUERIES)))
        rng.shuffle(order)
        lenient = set(rng.sample(order, len(order) // LENIENT_EVERY))
        self.path = str(root / CORPUS)
        self.ops = [CORPUS_QUERIES[i] + (i in lenient,) for i in order]
        text = (root / CORPUS).read_text(encoding="utf-8")
        self.inputs = {"corpus": synth.digest(text),
                       "queries": synth.digest(json.dumps(self.ops))}

    def run(self, op) -> str:
        query, _, _, lenient = op
        argv = ["query", self.path, query] + (["--lenient"] if lenient else [])
        return json.dumps(run_cli(argv))

    def check(self, op, output: str, counts=None) -> str | None:
        """Every sure answer is true; with --lenient, no true answer is
        left out (without it, a true answer that came back Unknown and
        one that was disproved look the same, so only the first part is
        checked)."""
        query, proved, holds, lenient = op
        status, out, err = json.loads(output)
        if status != 0 or err:
            return f"{query!r}: status {status}, stderr {err.strip()!r}"
        lines = out.splitlines()
        sure = [ln for ln in lines if not ln.endswith(" # tentative")]
        tentative = [ln[:-len(" # tentative")] for ln in lines
                     if ln.endswith(" # tentative")]
        true = set(proved) | set(holds)
        if not set(sure) <= true:
            return f"{query!r}: false sure answers {sorted(set(sure) - true)}"
        if tentative and not lenient:
            return f"{query!r}: tentative answers without --lenient"
        if lenient and not true <= set(sure) | set(tentative):
            missing = sorted(true - set(sure) - set(tentative))
            return f"{query!r}: true answers {missing} disproved"
        if (set(tentative) & set(sure) or tentative != sorted(tentative)
                or sure != sorted(sure)):
            return f"{query!r}: malformed answers {sure} {tentative}"
        return None

    def census(self, counts, outputs) -> tuple[int, int]:
        """Decided over asked node matches in the query matcher."""
        asked = counts["query.match.subsumes_calls"]
        return asked - counts["query.match.tentative"], asked


# ---------------------------------------------------------------------------
# synth-check

# The size ladder, in groups and variant (see synth.synth_model). About
# 11 elements per group, 13 with a clash; the top rung has about 2k.
# The rung counts put the median inside the 40-group band and the 80th
# percentile inside the 80-group band, so neither sits on a boundary
# between rungs of very different cost.
SYNTH_LADDER = [(8, "clean"), (8, "refuted"), (8, "clash"),
                (16, "refuted"), (16, "clash"),
                (40, "clean"), (40, "refuted"), (40, "clash"),
                (80, "refuted"), (80, "clash"),
                (160, "clash")]


class SynthCheck(Workload):
    name = "synth-check"
    setup_code = "import desiree.cli"

    def __init__(self, root: Path, work: Path, seed: int):
        rng = random.Random(f"synth-check-order/{seed}")
        self.models = []
        self.inputs = {}
        for i, (groups, variant) in enumerate(SYNTH_LADDER):
            sm = synth.synth_model(seed, groups, variant)
            path = work / f"synth-{seed}-{i}-{groups}-{variant}.dsr"
            path.write_text(sm.text, encoding="utf-8")
            self.models.append((str(path), sm))
            self.inputs[path.name] = sm.sha256
        self.ops = list(range(len(self.models)))
        rng.shuffle(self.ops)

    def run(self, op) -> str:
        return json.dumps(run_cli(["check", "--json", self.models[op][0]]))

    def check(self, op, output: str, counts=None) -> str | None:
        """Claim verdicts, clashes and exit status against the planted
        ones. A claim's verdict is read off its line: E-STR-002 for
        violated, W-UNK-001 for undecided, nothing for verified."""
        path, sm = self.models[op]
        name = Path(path).name
        status, out, err = json.loads(output)
        doc = json.loads(out)
        verdicts = {}
        for d in doc["diagnostics"]:
            if d["code"] == CLASH:
                continue
            line = int(d["span"].split(":")[0])
            if (d["code"] not in (REFUTED_CLAIM, UNDECIDED_CLAIM)
                    or line not in sm.claims or line in verdicts):
                return f"{name}: unplanted {d['code']} on line {line}"
            verdicts[line] = d["code"]
        for line, truth in sm.claims.items():
            got = verdicts.get(line)
            if got == REFUTED_CLAIM and truth in synth.TRUE:
                return f"{name}: true claim on line {line} refuted"
            if got is None and truth == synth.REFUTED:
                return f"{name}: refuted claim on line {line} verified"
        refuted = sum(code == REFUTED_CLAIM for code in verdicts.values())
        if counts is not None:
            tally = (counts["strength.claims"], counts["strength.violated"],
                     counts["strength.unknown"])
            told = (len(sm.claims), refuted, len(verdicts) - refuted)
            if tally != told:
                return (f"{name}: strength checker counted (claims, violated,"
                        f" unknown) {tally}, output says {told}")
        anchors = sorted(c["anchor"] for c in doc["clashes"])
        if anchors != sm.clash_anchors:
            return f"{name}: clashes {anchors[:5]}..., planted differ"
        n_cons = sum(d["code"] == CLASH for d in doc["diagnostics"])
        if n_cons != len(anchors):
            return f"{name}: {n_cons} clash diagnostics, {len(anchors)} clashes"
        # A model whose refuted claims all came back undecided has no
        # error left but its clashes.
        planted = sm.exit_status
        if not refuted and synth.REFUTED in sm.claims.values():
            planted = int(bool(sm.clash_anchors))
        if status != planted:
            return f"{name}: exit {status}, planted {planted}"
        if doc["ok"] != (status == 0):
            return f"{name}: ok={doc['ok']} with exit {status}"
        return None

    def census(self, counts, outputs) -> tuple[int, int]:
        """Decided over asked strength claim verdicts."""
        decided = counts["strength.verified"] + counts["strength.violated"]
        return decided, counts["strength.claims"]


# ---------------------------------------------------------------------------
# entail-search

ENTAIL_PAIRS = 200


class EntailSearch(Workload):
    name = "entail-search"

    def __init__(self, root: Path, work: Path, seed: int):
        self.theory = synth.entail_theory(seed, pairs=ENTAIL_PAIRS)
        path = work / f"entail-{seed}.dsr"
        path.write_text(self.theory.text, encoding="utf-8")
        self.path = str(path)
        self.inputs = {path.name: self.theory.sha256}
        self.ops = self.theory.pairs
        # What `desiree entail` does before its one decision.
        self.setup_code = (
            "import desiree.cli\n"
            "from desiree.model import load_model\n"
            f"load_model(open({self.path!r}, encoding='utf-8').read())"
            ".context()\n")
        self.model = self.ctx = None

    def begin_pass(self):
        """A fresh model per pass, so no pass reuses another's memo."""
        with open(self.path, encoding="utf-8") as fh:
            self.model = model.load_model(fh.read())
        if not self.model.ok:
            raise RuntimeError(
                f"theory does not load: {self.model.diagnostics[:3]}")
        self.ctx = self.model.context()

    def run(self, op) -> str:
        e1, e2 = self.model.elements[op.left], self.model.elements[op.right]
        v = entail.entails(e1, e2, self.ctx)
        if isinstance(v, Disproved):
            return "disproved " + v.witness.to_json()
        if isinstance(v, Proved):
            return "proved"
        return "unknown " + v.reason

    def check(self, op, output: str, counts=None) -> str | None:
        verdict = output.split(" ", 1)[0]
        pair = f"{op.left} => {op.right} ({op.planted})"
        if verdict not in ("proved", "disproved", "unknown"):
            return f"{pair}: unreadable verdict {verdict!r}"
        if op.planted in synth.TRUE and verdict == "disproved":
            return f"{pair}: disproved a true entailment"
        if op.planted == synth.REFUTED and verdict == "proved":
            return f"{pair}: proved a false entailment"
        if verdict == "disproved" and not self.replays(op, output):
            return f"{pair}: witness does not replay"
        return None

    def replays(self, op, output: str) -> bool:
        """The witness separates the asked pair and satisfies the whole
        theory, not only the axioms the search selected."""
        w = witness_from_json(output.split(" ", 1)[1])
        e1, e2 = self.model.elements[op.left], self.model.elements[op.right]
        axioms = self.ctx.axiom_pairs()
        if isinstance(e2.body, SubsumptionBody):
            d1, d2 = e2.body.lhs, e2.body.rhs
            axioms = axioms + [(e1.body.lhs, e1.body.rhs)]
        else:
            d1, d2 = e1.body.desc, e2.body.desc
        return (w.x in violates_subsumption(w.interp, d1, d2)
                and satisfies_axioms(w.interp, axioms))

    def census(self, counts, outputs) -> tuple[int, int]:
        """Decided over asked pairs."""
        decided = sum(not o.startswith("unknown") for o in outputs)
        return decided, len(outputs)


WORKLOADS = {w.name: w for w in (CorpusQuery, SynthCheck, EntailSearch)}
