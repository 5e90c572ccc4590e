"""Self-tests of the benchmark: each checker rejects a planted wrong
output, the generated inputs keep the fact order that fixes their
verdicts, and a reduced run of every workload passes its checks.

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GOOD_SMV = """\
MODULE main
VAR
  c_a__x : boolean;
  geq_1__r__x : boolean;
LTLSPEC !((c_a__x & (X (F (! geq_1__r__x)))))
"""


def test_smv_check_accepts_a_well_formed_handoff():
    assert checks.check_smv(GOOD_SMV) == {"vars": 2, "tokens": 4}


def test_smv_check_accepts_the_programs_own_emission():
    from tdlite.ltl import LAnd, LNextF, LNot, LProp, LSomeF
    from tdlite.solvers import emit_smv

    f = LAnd(LProp("c_a__x"), LNextF(LSomeF(LNot(LProp("geq_1__r__x")))))
    checks.check_smv(emit_smv(f))


@pytest.mark.parametrize("planted, message", [
    (GOOD_SMV.replace("geq_1__r__x)", "geq_2__r__x)"), "undeclared"),
    (GOOD_SMV.replace("VAR\n", "VAR\n  c_b__x : boolean;\n"), "unused"),
    (GOOD_SMV.replace("(X (F", "(Y (F"), "past-operator"),
    (GOOD_SMV.replace("(X (F", "(X (O"), "past-operator"),
    (GOOD_SMV.replace("(X (F", "(X (P"), "past-operator"),
    (GOOD_SMV.replace(")))))", "))))"), "unbalanced"),
    (GOOD_SMV.replace("!((c_a__x", "!)(c_a__x"), "unbalanced"),
    (GOOD_SMV + "LTLSPEC !(c_a__x)\n", "LTLSPEC lines"),
    (GOOD_SMV.replace("c_a__x : boolean;", "c_a__x boolean"), "unexpected SMV line"),
])
def test_smv_check_rejects_planted_faults(planted, message):
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_smv(planted)


def test_verdict_check_rejects_a_flipped_verdict():
    checks.check_verdict("SAT", "SAT", "ex1_tbox")
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("SAT", "UNSAT", "ex1")
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict("UNSAT", "SAT", "ex2_variant")


def _facts(text: str) -> list[tuple[str, int]]:
    return [(c, int(t)) for c, t in re.findall(r"^(\w+)\(John\)@(-?\d+)$", text, re.M)]


@pytest.mark.parametrize("seed", [0, 1, 7, 20260824])
def test_timelines_keep_the_fact_order_that_fixes_their_verdicts(seed):
    ops = workloads.timeline_ops(seed)
    assert len(ops) == len(workloads.timeline_ops(seed + 1))
    for op in ops:
        facts = _facts(op.text)
        span = max(t for _, t in facts)
        minors = [t for c, t in facts if c == "Minor"]
        adults = [t for c, t in facts if c == "Adult"]
        assert min(t for _, t in facts) >= 0
        assert ("Minor", span // 2) in facts and ("Adult", span) in facts
        if op.expected == "SAT":
            assert max(minors) < min(adults)
        else:
            assert op.expected == "UNSAT" and max(minors) > min(adults)


def test_seed_moves_the_inner_facts_only():
    a, b = workloads.timeline_ops(1), workloads.timeline_ops(2)
    assert [op.text for op in a] == [op.text for op in workloads.timeline_ops(1)]
    assert [op.text for op in a] != [op.text for op in b]
    assert [(op.kb, op.flow, op.expected) for op in a] == [(op.kb, op.flow, op.expected) for op in b]


class _StubWorkload:
    """Two operations whose `run_op` the test supplies; no program inside."""

    name, profile = "stub", None

    def __init__(self, run_op):
        self.ops = [workloads.Op("a", "z", "", "SAT"), workloads.Op("b", "z", "", "SAT")]
        self.run_op = run_op

    def check_op(self, op, verdict):
        checks.check_verdict(verdict, op.expected, op.kb)


def test_an_operation_that_raises_is_a_wrong_output():
    def run_op(op):
        raise RecursionError("too deep")

    report = worker.run_pass(_StubWorkload(run_op))
    assert report["attempted"] == 2 and report["failed"] == 0
    assert report["errors"] == ["a over z: RecursionError: too deep", "b over z: RecursionError: too deep"]


def test_operations_past_the_deadline_fail_and_the_pass_stays_whole():
    def run_op(op):
        time.sleep(5)

    t0 = time.monotonic()
    report = worker.run_pass(_StubWorkload(run_op), deadline=t0 + 0.2)
    assert time.monotonic() - t0 < 2
    assert report["attempted"] == 2 and report["failed"] == 2 and report["errors"] == []
    assert [row[3] for row in report["rows"]] == ["TIMEOUT", "TIMEOUT"]
    assert report["wall_s"] >= 0.2


def _worker(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_of_each_workload(workload):
    report = _worker(workload, trace=0)
    assert report["errors"] == []
    assert report["attempted"] >= 1 and report["failed"] == 0
    assert report["formula_nodes"] > 0 and report["formula_props"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_reduced_run_reports_every_layer_metric(workload):
    report = _worker(workload, trace=1)
    assert report["errors"] == []
    assert set(report["layers"]) == {name for name, _ in tracing.METRICS}
    assert report["layers"]["kbparse.ms"] > 0
    if workload == "solver-handoff":
        assert report["layers"]["solvers.input_bytes"] > 0
        assert report["layers"]["oracle.ms"] == 0
    else:
        assert report["layers"]["bdd.nodes"] > 0
