"""Solver profiles, emitters, and the limited subprocess runner."""

from __future__ import annotations

import json
import sys

import pytest

from tdlite import pastelim, solvers
from tdlite.ltl import LAnd, LNextF, LNot, LProp, LSomeF, LSomeP, conj, parse_infix
from tdlite.pipeline import run_pipeline, solver_formula
from tdlite.solvers import (
    PastOperatorPresent,
    ProfileError,
    SolverProfile,
    emit_infix,
    emit_smv,
    load_profiles,
    oracle_profile,
    run_solver,
)

from conftest import TOY_VERDICTS, load_toy
from references import depast, prop_names


def _profile(**kw):
    base = dict(
        name="p",
        command=("true",),
        input_format="infix-ltl",
        sat_pattern=r"^SAT$",
        unsat_pattern=r"^UNSAT$",
    )
    base.update(kw)
    return SolverProfile(**base)


def test_emit_infix_round_trips_through_the_parser():
    f = parse_infix("(a & (~ b)) & (F (X c))")
    assert parse_infix(emit_infix(f)) is not None
    assert "F" in emit_infix(f)


def test_emitters_reject_past_operators():
    f = parse_infix("P a")
    with pytest.raises(PastOperatorPresent) as e1:
        emit_infix(f)
    with pytest.raises(PastOperatorPresent):
        emit_smv(f)
    assert e1.value.code == "PAST_OPERATOR_PRESENT"


def _buried_past():
    # the past operator sits under a 1000-deep X chain, in a subtree that
    # two conjuncts share, after 5000 past-free conjuncts
    inner = LSomeP(LProp("p"))
    for _ in range(1000):
        inner = LNextF(inner)
    shared = LAnd(LProp("s"), inner)
    return conj([LProp(f"a{i}") for i in range(5000)] + [LSomeF(shared), LNot(shared)])


@pytest.mark.parametrize("emit", [emit_smv, emit_infix])
def test_emitters_find_a_buried_past_operator(emit):
    with pytest.raises(PastOperatorPresent):
        emit(_buried_past())


@pytest.mark.parametrize("flow", ["n", "z"])
@pytest.mark.parametrize("name", sorted(TOY_VERDICTS))
def test_smv_declares_the_formulas_propositions(name, flow):
    f = solver_formula(run_pipeline(load_toy(name), flow))
    lines = emit_smv(f, flow).splitlines()
    declared = [ln.strip().removesuffix(" : boolean;") for ln in lines if ln.endswith(" : boolean;")]
    assert declared == sorted(prop_names(f if flow == "n" else depast(f)))
    assert lines[1:2] == ["VAR"] and lines[-1].startswith("LTLSPEC !(")


@pytest.mark.parametrize("emit", [emit_smv, emit_infix])
def test_emitters_over_z_print_the_past_free_translation(emit):
    f = parse_infix("a & (P (X b))")
    assert emit(f, "z") == emit(depast(f))
    assert "__pos" in emit(f, "z")


def test_emit_smv_shape():
    text = emit_smv(parse_infix("(b & (~ a)) & (F true)"))
    lines = text.splitlines()
    assert lines[0] == "MODULE main"
    assert lines[1] == "VAR"
    assert lines[2:4] == ["  a : boolean;", "  b : boolean;"]
    assert lines[4].startswith("LTLSPEC !(")
    assert "TRUE" in lines[4] and "!" in lines[4]


def test_emit_smv_without_props_has_no_var_section():
    text = emit_smv(parse_infix("true"))
    assert "VAR" not in text
    assert "LTLSPEC !(TRUE)" in text


def test_profile_rejects_unknown_format():
    with pytest.raises(ProfileError):
        _profile(input_format="dimacs")


def test_load_profiles_always_has_the_oracle(tmp_path):
    profiles = load_profiles(None)
    assert set(profiles) == {"oracle"}
    assert profiles["oracle"].input_format == "infix-ltl"


def test_load_profiles_from_json(tmp_path):
    doc = {
        "profiles": [
            {
                "name": "ext",
                "command": "mysolver --in {input} --to {timeout}",
                "input-format": "smv",
                "sat-pattern": "is satisfiable",
                "unsat-pattern": "is unsatisfiable",
                "cpu-seconds": 30,
                "max-props": 500,
            }
        ]
    }
    path = tmp_path / "solvers.json"
    path.write_text(json.dumps(doc))
    profiles = load_profiles(str(path))
    assert set(profiles) == {"oracle", "ext"}
    ext = profiles["ext"]
    assert ext.command == ("mysolver", "--in", "{input}", "--to", "{timeout}")
    assert ext.cpu_seconds == 30.0
    assert ext.max_props == 500


def _one_profile_file(tmp_path, **fields):
    entry = {"name": "p", "command": "true", "input-format": "infix-ltl",
             "sat-pattern": "^SAT$", "unsat-pattern": "^UNSAT$", **fields}
    path = tmp_path / "solvers.json"
    path.write_text(json.dumps({"profiles": [entry]}))
    return str(path)


def test_a_string_max_props_is_read_as_an_integer(tmp_path):
    prof = load_profiles(_one_profile_file(tmp_path, **{"max-props": "3"}))["p"]
    assert prof.max_props == 3
    r = run_solver(prof, parse_infix("a & b & c & d"))
    assert r.verdict == "SKIPPED"
    assert r.reason == "4 propositions, max-props 3"


@pytest.mark.parametrize("value", ["three", 3.5])
def test_a_max_props_that_is_no_integer_is_a_profile_error(tmp_path, value):
    with pytest.raises(ProfileError, match="max-props"):
        load_profiles(_one_profile_file(tmp_path, **{"max-props": value}))


@pytest.mark.parametrize("field,value", [("cpu-seconds", "ten"), ("memory-bytes", "lots"),
                                         ("cpu-seconds", None)])
def test_a_limit_that_is_no_number_is_a_profile_error(tmp_path, field, value):
    with pytest.raises(ProfileError, match=field):
        load_profiles(_one_profile_file(tmp_path, **{field: value}))


def _profile_file(tmp_path, doc):
    path = tmp_path / "solvers.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_profile_file_that_is_no_object_is_a_profile_error(tmp_path):
    with pytest.raises(ProfileError, match="top level"):
        load_profiles(_profile_file(tmp_path, [{"name": "p"}]))


def test_profiles_that_are_no_list_are_a_profile_error(tmp_path):
    with pytest.raises(ProfileError, match="profiles must be a list"):
        load_profiles(_profile_file(tmp_path, {"profiles": {"name": "p"}}))


def test_a_profile_entry_that_is_no_object_is_a_profile_error(tmp_path):
    with pytest.raises(ProfileError, match="entry must be an object"):
        load_profiles(_profile_file(tmp_path, {"profiles": ["p"]}))


@pytest.mark.parametrize("command", [5, ["mysolver", 5], "mysolver '{input}"],
                         ids=["number", "list-with-a-number", "unclosed-quote"])
def test_a_command_that_is_no_string_or_list_of_strings_is_a_profile_error(tmp_path, command):
    with pytest.raises(ProfileError, match="command"):
        load_profiles(_one_profile_file(tmp_path, command=command))


@pytest.mark.parametrize("field", ["sat-pattern", "unsat-pattern"])
def test_a_pattern_that_does_not_compile_is_a_profile_error(tmp_path, field):
    with pytest.raises(ProfileError, match=field):
        load_profiles(_one_profile_file(tmp_path, **{field: "(SAT"}))


def test_a_profile_file_that_is_no_json_is_a_profile_error_naming_the_file(tmp_path):
    path = tmp_path / "solvers.json"
    path.write_text('{"profiles": [')
    with pytest.raises(ProfileError, match=f"{path}: not valid JSON"):
        load_profiles(str(path))


def test_a_profile_name_that_is_no_string_is_a_profile_error(tmp_path):
    with pytest.raises(ProfileError, match="name must be a string"):
        load_profiles(_one_profile_file(tmp_path, name=5))


def test_load_profiles_missing_field(tmp_path):
    path = tmp_path / "solvers.json"
    path.write_text(json.dumps({"profiles": [{"name": "x"}]}))
    with pytest.raises(ProfileError):
        load_profiles(str(path))


def test_oracle_profile_runs_end_to_end():
    sat = run_solver(oracle_profile(), parse_infix("F a"), cpu_seconds=60)
    unsat = run_solver(oracle_profile(), parse_infix("a & (~ a)"), cpu_seconds=60)
    assert sat.verdict == "SAT"
    assert unsat.verdict == "UNSAT"
    assert sat.reason == unsat.reason == ""
    assert sat.cpu_ms > 0 and sat.wall_ms > 0
    assert sat.max_memory_bytes > 0
    assert len(sat.output_digest) == 64


def test_max_props_guard_skips():
    prof = _profile(max_props=1)
    r = run_solver(prof, parse_infix("a & b"))
    assert r.verdict == "SKIPPED"
    assert r.reason == "2 propositions, max-props 1"


@pytest.mark.parametrize("flow, formula, count", [
    ("n", "a & b", 2),
    # both names of the pairs of a and b, and of the surrogate of P b
    ("z", "a & (P b)", 6),
])
@pytest.mark.parametrize("input_format", ["smv", "infix-ltl"])
def test_max_props_is_checked_before_anything_is_emitted(monkeypatch, flow, formula, count,
                                                         input_format):
    def refuse(*args):
        raise AssertionError("emitted before the max-props check")

    monkeypatch.setattr(solvers, "emit_smv", refuse)
    monkeypatch.setattr(solvers, "emit_infix", refuse)
    r = run_solver(_profile(max_props=1, input_format=input_format), parse_infix(formula), flow)
    assert r.verdict == "SKIPPED"
    assert r.reason == f"{count} propositions, max-props 1"


@pytest.mark.parametrize("input_format", ["smv", "infix-ltl"])
def test_max_props_over_z_builds_the_table_once(monkeypatch, input_format):
    # the table that counts the propositions is the one the text is
    # printed from; `cat` echoes the input, so equal digests are equal texts
    built = []
    real = pastelim.build_table
    for module in (solvers, pastelim):
        monkeypatch.setattr(module, "build_table", lambda f: built.append(f) or real(f))
    f = parse_infix("a & (P b)")
    echo = dict(command=("cat", "{input}"), input_format=input_format)
    skipped = run_solver(_profile(max_props=1, **echo), f, "z")
    assert (skipped.verdict, skipped.reason) == ("SKIPPED", "6 propositions, max-props 1")
    assert len(built) == 1
    limited = run_solver(_profile(max_props=6, **echo), f, "z")
    assert len(built) == 2
    unlimited = run_solver(_profile(**echo), f, "z")
    assert len(built) == 3
    assert limited.output_digest == unlimited.output_digest != ""


def test_run_solver_emits_through_the_emitters_module_names(monkeypatch):
    # what a wrapper installed on the module, as a tracer does, relies on
    seen = []
    for name in ("emit_smv", "emit_infix"):
        def recorded(f, flow, table=None, name=name, orig=getattr(solvers, name)):
            seen.append(name)
            return orig(f, flow, table)

        monkeypatch.setattr(solvers, name, recorded)
    for input_format in ("infix-ltl", "smv"):
        # over ℤ a past operator is eliminated, not refused
        r = run_solver(_profile(input_format=input_format), parse_infix("P a"), "z")
        assert r.reason == "exit status 0, output matched no verdict pattern"
    assert seen == ["emit_infix", "emit_smv"]


def test_unclassifiable_output_is_a_fail():
    prof = _profile(command=("echo", "gibberish"))
    r = run_solver(prof, parse_infix("a"))
    assert r.verdict == "FAIL"
    assert r.reason == "exit status 0, output matched no verdict pattern"


def test_missing_binary_is_a_fail():
    prof = _profile(command=("/nonexistent/solver", "{input}"))
    r = run_solver(prof, parse_infix("a"))
    assert r.verdict == "FAIL"
    assert r.reason.startswith("FileNotFoundError: ")


def test_a_past_formula_is_a_fail_with_the_emitters_reason():
    r = run_solver(_profile(), parse_infix("X (P a)"))
    assert r.verdict == "FAIL"
    assert r.reason == "PastOperatorPresent: LSomeP in a formula for a past-free format"


@pytest.mark.parametrize(
    "code, reason",
    [
        ("import sys; sys.exit(3)", "exit status 3, output matched no verdict pattern"),
        ("import os; os.kill(os.getpid(), 15)", "killed by SIGTERM, output matched no verdict pattern"),
    ],
    ids=["exit-status", "signal"],
)
def test_a_fail_names_how_the_solver_ended(code, reason):
    r = run_solver(_profile(command=(sys.executable, "-c", code)), parse_infix("a"))
    assert r.verdict == "FAIL"
    assert r.reason == reason


def test_ambiguous_output_is_a_fail():
    prof = _profile(
        command=(sys.executable, "-c", "print('SAT'); print('UNSAT')"),
    )
    r = run_solver(prof, parse_infix("a"))
    assert r.verdict == "FAIL"
    assert r.reason == "exit status 0, output matched both verdict patterns"


def test_cpu_limit_yields_timeout():
    prof = _profile(
        command=(sys.executable, "-c", "while True:\n pass"),
        cpu_seconds=1.0,
    )
    r = run_solver(prof, parse_infix("a"))
    assert r.verdict == "TIMEOUT"
    assert r.reason == "killed by SIGXCPU"


def test_sleeping_process_hits_the_wall_clock_backstop():
    # cannot be caught by the CPU rlimit; the kill-timer must fire at
    # roughly 2*cpu + 10 seconds
    prof = _profile(
        command=(sys.executable, "-c", "import time; time.sleep(600)"),
        cpu_seconds=0.5,
    )
    r = run_solver(prof, parse_infix("a"))
    assert r.verdict == "TIMEOUT"
    assert r.wall_ms < 60_000
    assert r.reason == "killed by SIGKILL"
