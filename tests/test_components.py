"""Deciding a knowledge base one constant at a time, against the
monolithic check of the whole optimized grounding."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tdlite
from tdlite import components, oracle
from tdlite.components import product_word
from tdlite.kbparse import parse_kb
from tdlite.ltl import optimize, struct_eq
from tdlite.oracle import BiLassoWord, LassoWord, WitnessCheckFailed, ltl_sat, z_sat
from tdlite.pipeline import CHECK_SUBFORMULA_BOUND, check_kb, run_pipeline
from tdlite.randgen import BatchSpec, generate_instance

from conftest import load_toy, random_bilasso, random_lasso

# no individuals; `>= 1 R` is empty, so each witness's demand is
# unsatisfiable, and SAT needs the fixpoint to drop both role propositions
DROP_SAT_KB = "SIG\nlocal role R\nTBOX\n>= 1 R SUB BOT\nABOX\n"
# as above, but `a` needs an R-predecessor, which the drops rule out
DROP_UNSAT_KB = (
    "SIG\nconcept A\nlocal role R\nindividual a\n"
    "TBOX\n>= 1 R SUB BOT\nA SUB >= 1 R-\nABOX\nA(a)@0\n"
)


def monolithic(kb, flow: str) -> str:
    """The verdict of one checker call on the whole optimized grounding."""
    g = optimize(run_pipeline(kb, flow).grounded)
    check = ltl_sat if flow == "n" else z_sat
    return "SAT" if check(g, bound=CHECK_SUBFORMULA_BOUND) is not None else "UNSAT"


# --- the differential corpus --------------------------------------------------

DIFF_SPEC = dict(F=12, N=2, Lt=2, Lc=2, Q=1, seed=4242)
# every instance of DIFF_SPEC (abox_size 1-3, allow_bottom, both flows)
# whose monolithic check took at most 3 CPU seconds on a 2-core machine,
# 22 of 72, with that check's verdict: (abox_size, index, flow, verdict)
DIFF_CORPUS = [
    (1, 0, "z", "SAT"), (1, 1, "z", "SAT"), (1, 2, "n", "UNSAT"), (1, 3, "n", "SAT"),
    (1, 3, "z", "UNSAT"), (1, 5, "z", "SAT"), (1, 7, "z", "SAT"), (1, 8, "n", "SAT"),
    (1, 9, "z", "SAT"), (1, 10, "n", "UNSAT"), (1, 10, "z", "SAT"), (1, 11, "z", "SAT"),
    (2, 1, "z", "SAT"), (2, 3, "z", "UNSAT"), (2, 5, "z", "UNSAT"), (2, 10, "n", "UNSAT"),
    (3, 3, "z", "UNSAT"), (3, 5, "z", "UNSAT"), (3, 6, "z", "UNSAT"), (3, 7, "z", "UNSAT"),
    (3, 10, "n", "UNSAT"), (3, 11, "z", "UNSAT"),
]


def test_the_differential_corpus_has_unsat_instances_in_both_flows():
    unsat = [flow for _, _, flow, verdict in DIFF_CORPUS if verdict == "UNSAT"]
    assert len(unsat) >= 0.2 * len(DIFF_CORPUS)
    assert set(unsat) == {"n", "z"}


@pytest.mark.parametrize("size,index,flow,expected", DIFF_CORPUS)
def test_per_constant_verdict_matches_the_monolithic_one(size, index, flow, expected):
    kb = generate_instance(BatchSpec(abox_size=size, **DIFF_SPEC), index,
                           allow_bottom=True, flow=flow)
    assert check_kb(kb, flow)[0] == monolithic(kb, flow) == expected


# --- the role-proposition fixpoint --------------------------------------------

@pytest.mark.parametrize("flow", ["n", "z"])
def test_sat_needs_the_fixpoint_to_drop_role_propositions(flow):
    kb = parse_kb(DROP_SAT_KB)
    verdict, trace = check_kb(kb, flow)
    assert verdict == "SAT" == monolithic(kb, flow)
    assert trace.decomposition.kept == ()
    assert trace.decomposition.components == 2  # the two witnesses


@pytest.mark.parametrize("flow", ["n", "z"])
def test_dropping_a_role_proposition_refutes_an_individual(flow):
    kb = parse_kb(DROP_UNSAT_KB)
    verdict, trace = check_kb(kb, flow)
    assert verdict == "UNSAT" == monolithic(kb, flow)
    assert trace.decomposition.refuted_by == "a"
    assert trace.decomposition.kept == ()


@pytest.mark.parametrize("flow", ["n", "z"])
def test_a_contradicted_role_fact_refutes_the_shared_part(flow):
    kb = parse_kb(
        "SIG\nlocal role R\nindividual a\nTBOX\nABOX\nR(a, a)@0\nNOT R(a, a)@0\n"
    )
    verdict, trace = check_kb(kb, flow)
    assert verdict == "UNSAT" == monolithic(kb, flow)
    assert trace.decomposition.refuted_by == components.SHARED
    assert trace.decomposition.checker_calls == 1


# --- observability --------------------------------------------------------------

@pytest.mark.parametrize("flow", ["n", "z"])
def test_ex2_is_refuted_by_p1(flow):
    verdict, trace = check_kb(load_toy("ex2"), flow)
    assert verdict == "UNSAT"
    d = trace.as_dict()["decomposition"]
    # kennedy, marc, p1 and the two witnesses; p1 is the first to fail
    assert d == {
        "components": 5,
        "checker-calls": 3,
        "kept-role-props": ["p__name", "p__name_inv"],
        "refuted-by": "p1",
    }


@pytest.mark.parametrize("flow", ["n", "z"])
def test_ex2_variant_keeps_both_role_propositions(flow):
    verdict, trace = check_kb(load_toy("ex2_variant"), flow)
    assert verdict == "SAT"
    assert trace.as_dict()["decomposition"] == {
        "components": 4,
        "checker-calls": 4,
        "kept-role-props": ["p__name", "p__name_inv"],
        "refuted-by": None,
    }


def test_a_profile_run_records_no_decomposition():
    trace = run_pipeline(load_toy("ex1"), "n")
    assert trace.decomposition is None
    assert "decomposition" not in trace.as_dict()


# --- one component: today's formula, one checker call --------------------------

@pytest.mark.parametrize("flow", ["n", "z"])
def test_one_constant_without_roles_checks_the_whole_formula(monkeypatch, flow):
    name = "ltl_sat" if flow == "n" else "z_sat"
    seen = []
    real = getattr(components, name)

    def spy(f, **kwargs):
        seen.append(f)
        return real(f, **kwargs)

    monkeypatch.setattr(components, name, spy)
    kb = load_toy("ex1_tbox")
    verdict, trace = check_kb(kb, flow)
    assert verdict == "SAT"
    assert len(seen) == 1
    assert struct_eq(seen[0], optimize(trace.grounded))
    assert trace.decomposition.components == 1


# --- the combined witness --------------------------------------------------------

@pytest.mark.parametrize("name", ["ex1_tbox", "ex2_variant"])
@pytest.mark.parametrize("flow", ["n", "z"])
def test_a_sat_verdict_is_evaluated_once(monkeypatch, name, flow):
    calls = []
    real = oracle.eval_on_lasso

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "eval_on_lasso", counting)
    monkeypatch.setattr(components, "eval_on_lasso", counting)
    assert check_kb(load_toy(name), flow)[0] == "SAT"
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["ex1_tbox", "ex2_variant"])
@pytest.mark.parametrize("flow", ["n", "z"])
def test_a_combined_word_failing_re_evaluation_raises(monkeypatch, name, flow):
    monkeypatch.setattr(components, "eval_on_lasso", lambda *args: False)
    with pytest.raises(WitnessCheckFailed):
        check_kb(load_toy(name), flow)


COMBINED_CHECK_UNDER_O = """
import sys
if __debug__:
    sys.exit("not running under -O")
from tdlite import components
from tdlite.kbparse import parse_kb
from tdlite.pipeline import check_kb
components.eval_on_lasso = lambda *args: False
try:
    check_kb(parse_kb(sys.argv[1]), "n")
except components.WitnessCheckFailed:
    sys.exit(0)
sys.exit("check_kb returned an unchecked word")
"""


def test_the_combined_word_check_survives_python_O():
    src = str(Path(tdlite.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", COMBINED_CHECK_UNDER_O, DROP_SAT_KB],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _renamed(word, tag: str):
    def ren(vals):
        return tuple(frozenset(tag + p for p in v) for v in vals)

    if isinstance(word, LassoWord):
        return LassoWord(ren(word.prefix), ren(word.loop))
    return BiLassoWord(ren(word.left_loop), ren(word.left_prefix),
                       ren((word.anchor,))[0], ren(word.right_prefix), ren(word.right_loop))


@pytest.mark.parametrize("make", [random_lasso, random_bilasso])
def test_product_word_is_the_union_at_every_position(make):
    rng = random.Random(17)
    lo = 0 if make is random_lasso else -40
    for _ in range(50):
        words = [_renamed(make(rng), f"{i}_") for i in range(rng.randint(1, 3))]
        extra = frozenset({"p__r"})
        prod = product_word(words, extra)
        for n in range(lo, 40):
            expect = extra.union(*(w.valuation(n) for w in words))
            assert prod.valuation(n) == expect
