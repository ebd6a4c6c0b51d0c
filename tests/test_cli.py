"""CLI behavior: exit codes, output shape, determinism."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from desiree import cli
from desiree.cli import main
from desiree.reasoner.interp import witness_from_json
from desiree.reasoner.semantics import replay_witness

CORPUS = str(resources.files("desiree") / "corpus" / "meeting_scheduler.dsr")
CLEAN = str(resources.files("desiree") / "corpus"
            / "meeting_scheduler_clean.dsr")
STATS = resources.files("desiree") / "corpus" / "meeting_scheduler.stats.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_numpy_out():
    """The CLI and the bounded search start without numpy, and without
    dataclasses and the inspect module it pulls in."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, desiree.cli, desiree.reasoner.oracle; "
            "print([m in sys.modules "
            "for m in ('numpy', 'dataclasses', 'inspect')])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[False, False, False]"


# ---------------------------------------------------------------------------
# check


def test_check_clean_exits_zero(capsys):
    code, out, _ = run(capsys, "check", CLEAN)
    assert code == 0
    assert out == "0 errors, 0 warnings, 0 inconsistencies\n"


def test_check_reports_the_three_clashes(capsys):
    code, out, _ = run(capsys, "check", CORPUS)
    assert code == 1
    assert out.count("E-CONS-001") == 3
    assert out.rstrip().endswith("3 errors, 0 warnings, 3 inconsistencies")
    assert out.index("Meeting_room falls") < out.index("User falls")


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--json", CORPUS)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [c["anchor"] for c in doc["clashes"]] == [
        "Meeting_room", "Room_equipment", "User"]
    assert all(d["code"] == "E-CONS-001" for d in doc["diagnostics"])


def test_check_signature_error(capsys, tmp_path):
    bad = tmp_path / "bad.dsr"
    bad.write_text('goal G1 = "g".\nresolve(G1) [w] = {G1}.\n')
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "E-SIG-001" in out


def test_check_is_deterministic(capsys):
    first = run(capsys, "check", CORPUS)
    second = run(capsys, "check", CORPUS)
    assert first == second


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.dsr")
    assert code == 2
    assert "E-IO-001" in err


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_non_utf8_file_is_usage_error(capsys, tmp_path, command):
    f = tmp_path / "utf16.dsr"
    f.write_bytes(b"\xff\xfeg\x00o\x00a\x00l\x00")
    code, out, err = run(capsys, command, str(f))
    assert code == 2
    assert out == ""
    assert "E-IO-001" in err and "not UTF-8 at byte 0" in err
    assert "Traceback" not in err


def nested_slots(depth: int) -> str:
    return "<s: " * depth + "A" + ">" * depth


def nested_parentheses(depth: int) -> str:
    return "(" * depth + "A" + ")" * depth


# name -> (model text, exit status of `check`)
DEEP_INPUTS = {
    "3000 nested parentheses": ("f F1 = " + nested_parentheses(3000), 1),
    "65 nested parentheses": ("f F1 = " + nested_parentheses(65), 1),
    "64 nested parentheses": ("f F1 = " + nested_parentheses(64), 0),
    "65 nested slots": ("f F1 = " + nested_slots(65), 1),
    "64 nested slots": ("f F1 = " + nested_slots(64), 0),
    "600-term conjunction": (
        "f F1 = " + " and ".join(f"A{i}" for i in range(600)), 0),
    "3000-term chain on an axiom's left side": (
        "axiom " + " & ".join(f"A{i}" for i in range(3000)) + " :< B.\n"
        "goal G1 = C.\ngoal G2 = D", 0),
    "3000-term chain on a told right side": (
        "axiom X :< " + " & ".join(f"A{i}" for i in range(3000)) + ".\n"
        "goal G1 = C.\ngoal G2 = C D.\nreduce(G1) [s] = {G2}", 0),
}


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_deep_input_exit_status(capsys, tmp_path, name):
    # Nesting deeper than the parser's limit is a model error at the
    # construct that goes one level too deep; a long chain nests nothing.
    text, status = DEEP_INPUTS[name]
    f = tmp_path / "deep.dsr"
    f.write_text(text + ".\n")
    code, out, err = run(capsys, "check", str(f))
    assert (code, err) == (status, "")
    if status == 0:
        assert out == "0 errors, 0 warnings, 0 inconsistencies\n"
        return
    col = len("f F1 = ") + 64 * (4 if "slots" in name else 1) + 1
    assert out.startswith(
        f"error: E-PARSE-003 1:{col} nested more than 64 levels deep\n")


def test_glued_slot_colon_after_a_failed_quality_probe(capsys, tmp_path):
    # `A (` opens the quality-form probe, which reads the glued `:<` as a
    # colon and a nested slot; backing off must leave it to be read again.
    f = tmp_path / "glued.dsr"
    f.write_text("goal G1 = A (<object:<actor: B>>).\n")
    assert run(capsys, "check", str(f)) == (
        0, "0 errors, 0 warnings, 0 inconsistencies\n", "")
    assert run(capsys, "fmt", str(f)) == (
        0, "goal G1 = A <object: <actor: B>>.\n", "")


def test_long_axiom_chain_is_searched(capsys, tmp_path):
    # the search's axiom index walks each left side without recursion
    text, _status = DEEP_INPUTS["3000-term chain on an axiom's left side"]
    f = tmp_path / "chain.dsr"
    f.write_text(text + ".\n")
    for goal, verdict in (("G2", "Disproved"), ("G1", "Proved")):
        code, out, err = run(capsys, "entail", str(f), "G1", goal)
        assert (code, out.splitlines()[0], err) == (0, verdict, "")


def nested_conjunction(depth: int) -> str:
    return "A & (" * depth + "A" + ")" * depth


CLAIM = "reduce(G1) [s] = {G2}.\n"
# name -> (model text, exit status per command, the diagnostic a failing
# command prints, the first line `entail G2 G1` prints)
NESTED_CLAIMS = {
    "64 nested slots": (
        f"goal G1 = {nested_slots(64)}.\ngoal G2 = {nested_slots(64)} B.\n",
        {"check": 0, "export": 0, "fmt": 0, "entail": 0, "query": 0},
        None, "Proved"),
    "128 nested slots": (
        f"goal G1 = {nested_slots(128)}.\n"
        f"goal G2 = {nested_slots(128)} B.\n",
        {"check": 1, "export": 1, "fmt": 1, "entail": 2, "query": 1},
        "E-PARSE-003", ""),
    # 65 operands wait on the evaluation stack before the first `&`
    "64 nested conjunctions": (
        f"goal G1 = {nested_conjunction(64)}.\ngoal G2 = B.\n",
        {"check": 1, "export": 1, "fmt": 0, "entail": 1, "query": 1},
        "E-STR-002", "Disproved"),
}


@pytest.mark.parametrize("name", NESTED_CLAIMS)
def test_nesting_limit_under_a_claim(capsys, tmp_path, name):
    # Every command stays inside the exit contract on a deep model whose
    # claim is checked; past the limit the deep elements are not loaded,
    # so `entail` names an unknown element after the parse errors.
    text, statuses, diagnostic, verdict = NESTED_CLAIMS[name]
    f = tmp_path / "deep.dsr"
    f.write_text(text + CLAIM)
    argvs = {"check": ["check", str(f)], "export": ["export", str(f)],
             "fmt": ["fmt", str(f)], "entail": ["entail", str(f), "G2", "G1"],
             "query": ["query", str(f), "A"]}
    for command, argv in argvs.items():
        code, out, err = run(capsys, *argv)
        assert code == statuses[command], command
        assert "internal error" not in err
        if code != 0:
            assert diagnostic in out + err, command
        if command == "entail":
            assert out.partition("\n")[0] == verdict


def test_internal_error_has_its_own_status(capsys, monkeypatch):
    # A defect in desiree, not an error in the model: one line on stderr,
    # no traceback, status 3.
    def broken_loader(*args, **kwargs):
        raise RecursionError("maximum recursion depth\n exceeded")

    monkeypatch.setattr(cli, "load_model", broken_loader)
    code, out, err = run(capsys, "check", CLEAN)
    assert code == 3
    assert out == ""
    assert err == ("internal error: RecursionError: "
                   "maximum recursion depth exceeded\n")


@pytest.mark.parametrize("text,col", [
    ("f F1 = <=150%.", 8),
    ("f F1 = 150%.", 8),
    ("f F1 = 100/3% | 150%.", 17),
    ("f F1 = <has_value_in: <=150%>.", 23),
    ("f F1 = <has_value_in: 150%>.", 23),
    ("f F1 = <s: >=150%>.", 12),
    ("qc QC = Availability ({sys}) :: >=150%.", 33),
    ("qc QC = Availability ({sys}) :: 150%.", 33),
])
def test_percent_out_of_range_in_every_position(capsys, tmp_path, text, col):
    f = tmp_path / "pct.dsr"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "check", str(f))
    assert (code, err) == (1, "")
    assert out.startswith(
        f"error: E-PARSE-001 1:{col} percentage 150% out of [0%, 100%]\n")


@pytest.mark.parametrize("op", [" & ", " | ", " - ", " and ", "."])
def test_long_chain_formats_and_exports(capsys, tmp_path, op):
    # The renderer walks a chain's left spine in a loop, so fmt and
    # export take a chain as long as the parser does. (`and` is an atom:
    # `A0 and A1` is a conjunction of three; `.` chains projections.)
    terms = [f"A{i}" for i in range(10_000)]
    joint = " " if op == " & " else op
    f = tmp_path / "chain.dsr"
    f.write_text(f"f F1 = {op.join(terms)}.\n")
    code, out, err = run(capsys, "fmt", str(f))
    assert (code, err) == (0, "")
    assert out == f"f F1 = {joint.join(terms)}.\n"
    f.write_text(out)
    assert run(capsys, "fmt", str(f)) == (0, out, "")
    code, out, err = run(capsys, "export", str(f), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["elements"][0]["body"] == joint.join(terms)


def chain(op: str, n: int = 3000) -> str:
    return op.join(f"A{i}" for i in range(n))


# name -> (model text, query text); every claim is checked on load
FLAT_CHAINS = {
    f"{name} chain under a claim": (
        f"goal G1 = {chain(op)}.\ngoal G2 = {chain(op)}{op}B.\n" + CLAIM,
        "A0")
    for name, op in (("&", " & "), ("|", " | "), ("-", " - "))
}
FLAT_CHAINS["equal chains built apart"] = (
    f"goal G1 = {chain(' & ')}.\ngoal G2 = {chain(' & ')}.\n"
    "reduce(G1) [e] = {G2}.\n", "A0")
FLAT_CHAINS["| chain as the query"] = ("goal G1 = A.\ngoal G2 = B.\n",
                                      chain(" | "))


@pytest.mark.parametrize("name", FLAT_CHAINS)
def test_flat_chains_stay_in_the_exit_contract(capsys, tmp_path, name):
    # Normalising, evaluating, comparing and querying a chain walk its
    # left spine in a loop, so its length is not bounded by recursion.
    text, query = FLAT_CHAINS[name]
    f = tmp_path / "chain.dsr"
    f.write_text(text)
    for argv in (["check", str(f)], ["stats", str(f)], ["export", str(f)],
                 ["entail", str(f), "G1", "G2"],
                 ["entail", str(f), "G2", "G1"], ["query", str(f), query]):
        first = run(capsys, *argv)
        assert first[0] in (0, 1), argv
        assert "internal error:" not in first[2], argv
        assert run(capsys, *argv) == first, argv


def _alternatives(n: int, *extra: str) -> str:
    return " | ".join([f"A{i}" for i in range(n)] + list(extra))


# name -> (model text, max-dnf flag)
WIDE_FILLERS = {
    "function filler past the cap": (
        f"f F1 = V <s: {_alternatives(17)}>.\n"
        f"f F2 = V <s: {_alternatives(17, 'B')}>.\n"
        "reduce(F1) [s] = {F2}.\n", []),
    "quality subject past the cap": (
        f"qg Q1 = Speed ({_alternatives(17)}) :: Fast.\n"
        f"qg Q2 = Speed ({_alternatives(17)}) :: Fast.\n"
        "reduce(Q1) [s] = {Q2}.\n", []),
    "function filler past a cap of 2": (
        f"f F1 = V <s: {_alternatives(3)}>.\n"
        f"f F2 = V <s: {_alternatives(3, 'B')}>.\n"
        "reduce(F1) [s] = {F2}.\n", ["--max-dnf", "2"]),
}


@pytest.mark.parametrize("name", WIDE_FILLERS)
def test_normal_form_overflow_in_entailment_is_unknown(capsys, tmp_path,
                                                       name):
    # Function and quality entailment read the structural prover alone;
    # a normal form past the cap leaves the claim undecided, with why.
    text, flags = WIDE_FILLERS[name]
    f = tmp_path / "wide.dsr"
    f.write_text(text)
    warning = ("warning: W-UNK-001 3:1 claimed [s] was not decided: "
               "normal form too large\n")
    first, second = ("Q1", "Q2") if "quality" in name else ("F1", "F2")
    assert run(capsys, "check", *flags, str(f)) == (
        0, warning + "0 errors, 1 warnings, 0 inconsistencies\n", "")
    for argv in (["stats", *flags, str(f)], ["export", *flags, str(f)],
                 ["query", *flags, str(f), "V"]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, warning), argv
    assert run(capsys, "entail", *flags, str(f), first, second) == (
        0, "Unknown: normal form too large\n", warning)


def test_non_decimal_digit_is_a_lexical_error(capsys, tmp_path):
    # `²` is a digit to str.isdigit() but not to Fraction.
    f = tmp_path / "sup.dsr"
    f.write_text("goal G1 = A \u00b2.\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(f))
    assert code == 1
    assert out == ("error: E-LEX-001 1:13 unexpected character '\u00b2'\n"
                   "1 errors, 0 warnings, 0 inconsistencies\n")
    assert err == ""


def test_region_mix_points_at_the_operator(capsys, tmp_path):
    # juxtaposition has no operator token: the error points at the
    # operand that starts the mix
    f = tmp_path / "mix.dsr"
    f.write_text("f F1 = A & [0, 3].\nf F2 = [0, 3] - B.\n"
                 "f F3 = A\n  [0, 3].\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 1
    assert out == ("error: E-PARSE-001 1:10 cannot combine a region with a "
                   "concept\n"
                   "error: E-PARSE-001 2:15 cannot combine a region with a "
                   "concept\n"
                   "error: E-PARSE-001 4:3 cannot combine a region with a "
                   "concept\n"
                   "3 errors, 0 warnings, 0 inconsistencies\n")
    assert err == ""


def test_color_env(capsys, monkeypatch):
    monkeypatch.setenv("DESIREE_COLOR", "1")
    _, out, _ = run(capsys, "check", CORPUS)
    assert "\x1b[31m" in out
    monkeypatch.setenv("DESIREE_COLOR", "0")
    _, out, _ = run(capsys, "check", CORPUS)
    assert "\x1b[" not in out


# ---------------------------------------------------------------------------
# entail


def test_entail_proved(capsys):
    code, out, _ = run(capsys, "entail", CORPUS, "F_book2", "F_book")
    assert code == 0
    assert out == "Proved\n"


def test_entail_unknown(capsys):
    code, out, _ = run(capsys, "entail", CORPUS, "F_book", "F_book2")
    assert code == 0
    assert out.startswith("Unknown:")


def test_entail_disproved_prints_witness(capsys):
    code, out, _ = run(capsys, "entail", CORPUS, "QC_resp_rel",
                       "QC_resp_tight")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Disproved"
    assert any(line.strip().startswith("witness:") for line in lines)


def test_entail_unknown_id(capsys):
    code, _, err = run(capsys, "entail", CORPUS, "F_book", "NOPE")
    assert code == 2
    assert "NOPE" in err


def test_entail_json(capsys):
    _, out, _ = run(capsys, "entail", "--json", CORPUS, "F_book2", "F_book")
    assert json.loads(out) == {"verdict": "proved"}
    _, out, _ = run(capsys, "entail", "--json", CORPUS, "QC_resp_rel",
                    "QC_resp_tight")
    doc = json.loads(out)
    assert doc["verdict"] == "disproved"
    assert "witness" in doc


REGION_KINDS = """\
qc Q_sec = Processing_time (F1) :: [0, 30 Sec].
qc Q_slow = Processing_time (F1) :: >= 10 (Sec).
qc Q_fast = Processing_time (F1) :: <= 5 (Sec).
qc Q_mb = Processing_time (F1) :: [2, 8 MB].
qc Q_big = Processing_time (F1) :: >= 4 (MB).
qc Q_pct = Processing_time (F1) :: [20%, 90%].
qc Q_set = Processing_time (F1) :: {3, 5, Mon}.
qc Q_point = Processing_time (F1) :: [5, 5].
qc Q_named = Processing_time (F1) :: Fast.
"""


def test_entail_region_witnesses_replay(tmp_path, capsys):
    f = tmp_path / "regions.dsr"
    f.write_text(REGION_KINDS)
    ids = [line.split()[1] for line in REGION_KINDS.splitlines()]
    verdicts = {}
    for a in ids:
        for b in ids:
            code, out, _ = run(capsys, "entail", "--json", str(f), a, b)
            assert code == 0
            doc = json.loads(out)
            verdicts[a, b] = doc["verdict"]
            if doc["verdict"] == "disproved":
                w = witness_from_json(json.dumps(doc["witness"]))
                assert replay_witness(w), (a, b)
    assert verdicts["Q_slow", "Q_fast"] == "disproved"
    assert verdicts["Q_set", "Q_sec"] == "disproved"
    assert verdicts["Q_point", "Q_set"] == "proved"
    assert list(verdicts.values()).count("disproved") == 18


def test_entail_reads_a_region_axiom(tmp_path, capsys):
    f = tmp_path / "fast.dsr"
    f.write_text('qg QG_fast = Processing_time (F1) :: Fast.\n'
                 'qc QC_ten = Processing_time (F1) :: [0, 10 Sec].\n'
                 'axiom "Fast" :< [0, 5 Sec].\n')
    assert run(capsys, "entail", str(f), "QG_fast", "QC_ten") == (
        0, "Proved\n", "")


# ---------------------------------------------------------------------------
# query


def test_query_prints_ids(capsys):
    code, out, _ = run(capsys, "query", CORPUS,
                       "<inheres_in: {the_product}>")
    assert code == 0
    assert out == "Appearance@the_product\n"


def test_query_lenient_marks_tentative(capsys):
    _, out, _ = run(capsys, "query", "--lenient", CORPUS,
                    "<is_object_of: F1>")
    lines = out.splitlines()
    assert lines[0] == "Product"
    assert all(line.endswith("# tentative") for line in lines[1:])


def test_query_without_lenient_hides_tentative(capsys):
    _, out, _ = run(capsys, "query", CORPUS, "<is_object_of: F1>")
    assert out == "Product\n"


def test_query_json(capsys):
    _, out, _ = run(capsys, "query", "--json", CORPUS, "<object: Product>")
    doc = json.loads(out)
    assert doc["sure"] == ["F1"]
    assert doc["diagnostics"] == []


def test_query_bad_syntax_is_usage_error(capsys):
    code, _, err = run(capsys, "query", CORPUS, "<object: F1")
    assert code == 2
    assert "bad query" in err


def test_query_unknown_relation_is_an_error(capsys):
    code, out, err = run(capsys, "query", CORPUS, "<performed_by: F1>")
    assert code == 1
    assert out == ""
    assert "E-QRY-001" in err


@pytest.mark.parametrize("text", [
    "Nothing & <bogus: A>",
    "<actor: <bogus: A>>",
    # No node is a candidate for the right side here: nothing has an
    # actor under Nothing. The slot is still read for its diagnostic.
    "<actor: Nothing> & <bogus: A>",
    "<actor: Nothing> & <actor: <bogus: A>>",
])
def test_query_unknown_relation_in_a_narrowed_operand(capsys, text):
    code, out, err = run(capsys, "query", CORPUS, text)
    assert code == 1
    assert out == ""
    assert err.count("unknown relation 'bogus' in query") == 1


# ---------------------------------------------------------------------------
# stats


def test_stats_table(capsys):
    code, out, _ = run(capsys, "stats", CORPUS)
    assert code == 0
    assert "kind     total  active  dropped" in out
    assert "goal         7       6        1" in out
    assert "applications 14 (verified 9, asserted 5," in out


def test_stats_json_matches_frozen_fixture(capsys):
    _, out, _ = run(capsys, "stats", "--json", CORPUS)
    assert json.loads(out) == json.loads(STATS.read_text())


def test_stats_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.dsr"
    empty.write_text("")
    code, out, _ = run(capsys, "stats", str(empty))
    assert code == 0
    assert "elements 0 (0 active, 0 dropped, 0 constructed)" in out


# ---------------------------------------------------------------------------
# export


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", CORPUS, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph model {")
    assert out.rstrip().endswith("}")


def test_export_json_default(capsys):
    code, out, _ = run(capsys, "export", CORPUS)
    assert code == 0
    doc = json.loads(out)
    assert {e["id"] for e in doc["elements"]} >= {"F1", "QC1", "QC_ui80"}


def test_export_bad_format_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", CORPUS, "--format", "yaml"])
    assert exc.value.code == 2


# Each command declares only the flags it reads; these it does not.
UNREAD_FLAGS = [("check", ["--lenient"]), ("entail", ["--lenient"]),
                ("stats", ["--lenient"]), ("export", ["--json"]),
                ("export", ["--lenient"]), ("fmt", ["--json"]),
                ("fmt", ["--lenient"]), ("fmt", ["--max-dnf", "2"])]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[" ".join([c, *f]) for c, f in UNREAD_FLAGS])
def test_unread_flag_is_usage_error(capsys, command, flag):
    operands = {"entail": ["F_book2", "F_book"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, CORPUS, *operands, *flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    # the command's own usage line, listing the flags it does take
    assert captured.err.startswith(f"usage: desiree {command} [-h]")
    assert (f"desiree {command}: error: unrecognized arguments: "
            f"{' '.join(flag)}") in captured.err
    assert "internal error" not in captured.err


# ---------------------------------------------------------------------------
# In-process reuse of main


def test_parser_is_built_once_and_not_at_import(capsys):
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import desiree.cli; "
            "print(desiree.cli._parser.cache_info().misses)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "0"
    cli._parser.cache_clear()
    for argv in (["fmt", CORPUS], ["stats", CORPUS],
                 ["query", CORPUS, "<object: Product>"]):
        assert main(argv) == 0
    capsys.readouterr()
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_usage_error_leaves_the_next_command_intact(capsys):
    cli._parser.cache_clear()
    expected = run(capsys, "entail", "--json", CORPUS, "F_book2", "F_book")
    for bad in (["fmt", CORPUS, "--json"], ["entail", CORPUS],
                ["export", CORPUS, "--format", "yaml"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert run(capsys, "entail", "--json", CORPUS, "F_book2",
                   "F_book") == expected


def test_identical_queries_print_identical_bytes(capsys):
    argv = ("query", "--lenient", CORPUS, "<is_object_of: F1>")
    first = run(capsys, *argv)
    assert first[0] == 0 and "# tentative" in first[1]
    assert run(capsys, *argv) == first


def test_output_does_not_depend_on_the_hash_seed():
    """Sets of names iterate in an order that PYTHONHASHSEED picks; the
    bytes printed must not follow it."""
    commands = [["check", "--json", CORPUS],
                ["query", "--lenient", "--json", CORPUS,
                 "<is_object_of: F1>"],
                ["query", "--lenient", "--json", CORPUS, "Anything"],
                ["entail", "--json", CORPUS, "QC_resp_rel", "QC_resp_tight"]]
    code = ("import json, sys; from desiree.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print('exit', main(argv), flush=True)")
    src = Path(cli.__file__).resolve().parents[1]
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            capture_output=True, env=env, timeout=120, check=True)
        outs.append(done.stdout)
    assert outs[0].count(b"exit ") == 4
    assert b"tentative" in outs[0] and b'"disproved"' in outs[0]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# fmt


def test_fmt_idempotent(capsys, tmp_path):
    code, once, _ = run(capsys, "fmt", CORPUS)
    assert code == 0
    again = tmp_path / "again.dsr"
    again.write_text(once)
    code, twice, _ = run(capsys, "fmt", str(again))
    assert code == 0
    assert once == twice


def test_fmt_write_in_place(capsys, tmp_path):
    f = tmp_path / "model.dsr"
    f.write_text("goal   G1   =  \"padded\"  .\n")
    code, out, _ = run(capsys, "fmt", "--write", str(f))
    assert code == 0
    assert out == ""
    assert f.read_text() == 'goal G1 = "padded".\n'


def test_fmt_write_failure_is_an_io_error(capsys, tmp_path, monkeypatch):
    f = tmp_path / "model.dsr"
    f.write_text('goal G1 = "kept".\n')

    def guarded_open(path, mode="r", **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", path)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", guarded_open, raising=False)
    code, out, err = run(capsys, "fmt", "--write", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: E-IO-001 cannot write {f}: Permission denied\n"
    assert f.read_text() == 'goal G1 = "kept".\n'


def test_fmt_parse_error(capsys, tmp_path):
    f = tmp_path / "broken.dsr"
    f.write_text("goal G1 = .\n")
    code, _, err = run(capsys, "fmt", str(f))
    assert code == 1
    assert "E-PARSE-001" in err
