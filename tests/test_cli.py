"""The command-line interface: exit codes, artifacts, CSV schema."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdlite
from tdlite import cli
from tdlite.cli import (
    CSV_HEADER,
    EXIT_FLOW,
    EXIT_INDEFINITE,
    EXIT_PARSE,
    EXIT_SAT,
    EXIT_UNSAT,
    main,
)
from tdlite.kbparse import parse_kb
from tdlite.ltl import TRUE, to_infix
from tdlite.pipeline import run_pipeline, solver_formula
from tdlite.solvers import emit_smv

from references import depast, grounding

UNSAT_KB = "SIG\nconcept A\nindividual x\nTBOX\nA SUB BOT\nABOX\nA(x)@0\n"
SAT_KB = "SIG\nconcept A\nindividual x\nTBOX\nA SUB X A\nABOX\nA(x)@0\n"
PAST_KB = "SIG\nconcept A\nTBOX\nSOMP A SUB A\nABOX\n"


def run_cli(*argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as e:
        return int(e.code)


@pytest.fixture
def kb_file(tmp_path):
    def write(text, name="in.kb"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_check_exit_codes(kb_file, capsys):
    assert run_cli("check", kb_file(UNSAT_KB), "--flow", "n") == EXIT_UNSAT
    assert capsys.readouterr().out.strip() == "UNSAT"
    assert run_cli("check", kb_file(SAT_KB), "--flow", "n") == EXIT_SAT
    assert capsys.readouterr().out.strip() == "SAT"


def test_parse_error_exit_code(kb_file, capsys):
    assert run_cli("check", kb_file("SIG\nTBOX oops\n")) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_a_crash_is_no_verdict_not_unsat(kb_file):
    # a 3000-deep concept overflows the recursive parser; run in a fresh
    # interpreter, whose recursion limit no earlier BDD has raised
    deep = "SIG\nconcept A\nindividual x\nTBOX\nA SUB " + "X " * 3000 + "A\nABOX\nA(x)@0\n"
    src = str(Path(tdlite.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tdlite.cli", "check", kb_file(deep)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_INDEFINITE
    assert proc.stderr.startswith("error: RecursionError: ")
    assert proc.stdout == ""


def test_validation_error_exit_code(kb_file, capsys):
    bad = "SIG\nconcept A\nTBOX\nB SUB A\nABOX\n"  # B undeclared
    assert run_cli("check", kb_file(bad)) == EXIT_PARSE
    assert "UNDECLARED_NAME" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run_cli("check", "/no/such/file.kb") == EXIT_PARSE


@pytest.mark.parametrize("command", ["check", "solve"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff\xfeS\x00I\x00G\x00")
    assert run_cli(command, str(path)) == EXIT_PARSE
    assert "UnicodeDecodeError" not in capsys.readouterr().err


def test_flow_violation_exit_code(kb_file, capsys):
    assert run_cli("check", kb_file(PAST_KB), "--flow", "n") == EXIT_FLOW
    capsys.readouterr()
    assert run_cli("translate", kb_file(PAST_KB), "--flow", "n") == EXIT_FLOW
    # the same KB goes through over the integers
    capsys.readouterr()
    assert run_cli("translate", kb_file(PAST_KB), "--flow", "z") == EXIT_SAT


def test_unknown_solver_profile(kb_file, capsys):
    assert run_cli("check", kb_file(SAT_KB), "--solver", "nope") == EXIT_INDEFINITE


def test_translate_stages(kb_file, tmp_path, capsys):
    path = kb_file(SAT_KB)
    assert run_cli("translate", path, "--to", "qtl1") == EXIT_SAT
    assert "ALWF" in capsys.readouterr().out

    assert run_cli("translate", path, "--flow", "z", "--to", "infix") == EXIT_SAT
    out = capsys.readouterr().out
    assert "__pos" in out and "Y" not in out

    assert run_cli("translate", path, "--flow", "n", "--to", "smv") == EXIT_SAT
    assert capsys.readouterr().out.startswith("MODULE main")


@pytest.mark.parametrize("flow", ["n", "z"])
def test_translate_prints_the_formula_a_solver_gets(kb_file, capsys, flow):
    path = kb_file(SAT_KB)
    # over ℤ its past elimination, printed from the table, byte for byte
    # the text of the formula that past elimination builds
    f = solver_formula(run_pipeline(parse_kb(SAT_KB), flow))
    want = emit_smv(f if flow == "n" else depast(f))
    assert run_cli("translate", path, "--flow", flow, "--to", "smv") == EXIT_SAT
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("flow", ["n", "z"])
def test_translate_to_ltl_prints_the_final_translation(kb_file, capsys, flow):
    # over ℤ the past-free translation of the grounding, printed from its
    # table; over ℕ the grounding itself
    grounded = grounding(run_pipeline(parse_kb(SAT_KB), flow))
    want = to_infix(depast(grounded) if flow == "z" else grounded)
    assert run_cli("translate", kb_file(SAT_KB), "--flow", flow, "--to", "ltl") == EXIT_SAT
    assert capsys.readouterr().out == want + "\n"


def test_translate_trace_artifact(kb_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = run_cli(
        "translate", kb_file(SAT_KB), "--flow", "z",
        "--out", str(tmp_path / "out.ltl"), "--emit-trace", str(trace_path),
    )
    assert code == EXIT_SAT
    doc = json.loads(trace_path.read_text())
    assert [s["name"] for s in doc["stages"]] == ["kb", "qtl1", "ltlp", "ltl"]
    assert (tmp_path / "out.ltl").read_text().strip()


@pytest.mark.parametrize("flow", ["n", "z"])
def test_check_trace_artifact(kb_file, tmp_path, capsys, flow):
    # the stages and how the in-process check split the KB, as the
    # trace that check_kb returns gives them
    trace_path = tmp_path / "trace.json"
    code = run_cli("check", kb_file(SAT_KB), "--flow", flow, "--emit-trace", str(trace_path))
    assert code == EXIT_SAT
    assert capsys.readouterr().out.strip() == "SAT"
    doc = json.loads(trace_path.read_text())
    assert doc["flow"] == flow
    stages = ["kb", "qtl1", "ltlp"] + (["ltl"] if flow == "z" else [])
    assert [s["name"] for s in doc["stages"]] == stages
    trace = run_pipeline(parse_kb(SAT_KB), flow)
    assert [(s["nodes"], s["props"]) for s in doc["stages"]] == [
        (rec.nodes, rec.props) for rec in trace.stages
    ]
    assert all(s["wall-ms"] >= 0 for s in doc["stages"])
    assert doc["decomposition"] == {
        "components": 1, "checker-calls": 1, "kept-role-props": [], "refuted-by": None,
    }


def test_check_writes_no_trace_on_a_flow_violation(kb_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = run_cli("check", kb_file(PAST_KB), "--flow", "n", "--emit-trace", str(trace_path))
    assert code == EXIT_FLOW
    assert not trace_path.exists()


def test_solve_command(tmp_path, capsys):
    sat = tmp_path / "sat.ltl"
    sat.write_text("F a\n")
    unsat = tmp_path / "unsat.ltl"
    unsat.write_text("a & (~ a)\n")
    bad = tmp_path / "bad.ltl"
    bad.write_text("&&&\n")
    assert run_cli("solve", str(sat)) == EXIT_SAT
    assert capsys.readouterr().out.strip() == "SAT"
    assert run_cli("solve", str(unsat)) == EXIT_UNSAT
    assert capsys.readouterr().out.strip() == "UNSAT"
    assert run_cli("solve", str(bad)) == EXIT_PARSE


def test_solve_rechecks_its_word_against_the_formula_it_read(tmp_path, monkeypatch, capsys):
    # an `optimize` that loses the formula must not turn UNSAT into SAT
    monkeypatch.setattr(cli, "optimize", lambda f: TRUE)
    unsat = tmp_path / "unsat.ltl"
    unsat.write_text("a & (~ a)\n")
    assert run_cli("solve", str(unsat)) == EXIT_INDEFINITE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "WitnessCheckFailed" in captured.err


def test_solve_handles_past_formulas(tmp_path, capsys):
    f = tmp_path / "past.ltl"
    f.write_text("(P a) & (~ a)\n")  # satisfiable over the integers
    assert run_cli("solve", str(f)) == EXIT_SAT


def test_gen_writes_batch(tmp_path, capsys):
    out = tmp_path / "batch"
    code = run_cli(
        "gen", "--out", str(out), "--F", "3", "--N", "2", "--Lt", "2",
        "--Lc", "3", "--seed", "9", "--flow", "n", "--temporal",
    )
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["manifest.json", "tbox_0000.kb", "tbox_0001.kb", "tbox_0002.kb"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["seed"] == 9 and manifest["flow"] == "n"


@pytest.mark.parametrize("flow,jobs", [("n", "1"), ("z", "2")])
def test_bench_csv_schema(tmp_path, flow, jobs):
    out = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--F", "2", "--N", "1", "--Lt", "1", "--Lc", "2", "--Q", "1",
        "--seed", "1", "--flow", flow, "--jobs", jobs,
        "--cpu-seconds", "30", "--out", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3
    for row in rows[1:]:
        rec = dict(zip(CSV_HEADER, row))
        assert rec["flow"] == flow
        assert rec["solver"] == "oracle"
        assert rec["verdict"] in {"SAT", "UNSAT", "TIMEOUT", "FAIL", "SKIPPED"}
        if rec["verdict"] in {"SAT", "UNSAT"}:
            assert rec["reason"] == ""
        assert rec["qtl-nodes"] and rec["ground-nodes"]
        if flow == "z":
            assert rec["depast-nodes"]
        else:
            assert rec["depast-nodes"] == ""


def test_bench_names_the_error_behind_a_fail(tmp_path):
    profiles = tmp_path / "solvers.json"
    profiles.write_text(json.dumps({"profiles": [{
        "name": "missing", "command": ["/nonexistent/solver", "{input}"],
        "input-format": "infix-ltl", "sat-pattern": "^SAT$", "unsat-pattern": "^UNSAT$",
    }]}))
    out = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--F", "1", "--N", "1", "--Lt", "1", "--Lc", "2", "--seed", "1",
        "--flow", "n", "--solvers", "missing", "--solvers-file", str(profiles),
        "--out", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    rec = dict(zip(CSV_HEADER, rows[1]))
    assert rec["verdict"] == "FAIL"
    assert rec["reason"].startswith("FileNotFoundError: ")
