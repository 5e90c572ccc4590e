"""Deciding a knowledge base one constant at a time, against the
monolithic check of the whole optimized grounding."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tdlite
from tdlite import components, ltl, oracle
from tdlite.components import product_word
from tdlite.kbparse import parse_kb
from tdlite.ltl import LNextP, LSomeP, optimize, structural_index
from tdlite.oracle import BiLassoWord, WitnessCheckFailed
from tdlite.pipeline import check_kb, run_pipeline
from tdlite.randgen import BatchSpec, generate_instance, random_abox

from conftest import load_toy, random_bilasso
from references import checked_z_sat, grounding, has_past, struct_eq

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
    g = optimize(grounding(run_pipeline(kb, flow)))
    return "SAT" if checked_z_sat(g) is not None else "UNSAT"


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


# --- ABox facts on a chain of image steps, against the X-chain route --------------

# ex1's terminology: adults stay adults, and nobody is both adult and minor
TIMELINE_TBOX = (
    "SIG\nconcept Adult\nconcept Minor\nconcept Person\nindividual John\nTBOX\n"
    "Adult SUB Person\nMinor SUB Person\nMinor AND Adult SUB BOT\nAdult SUB ALWF Adult\nABOX\n"
)


def timeline(span: int, consistent: bool) -> str:
    """Facts about John over 0..span: a minor until the middle and an adult
    at the end; inconsistent when an adult fact comes before a minor one."""
    m = span // 2
    early, late = ("Minor", "Adult") if consistent else ("Adult", "Minor")
    facts = [(early, m // 2), ("Minor", m), (late, (m + span) // 2), ("Adult", span)]
    return TIMELINE_TBOX + "".join(f"{c}(John)@{t}\n" for c, t in facts)


@pytest.mark.parametrize("flow", ["n", "z"])
@pytest.mark.parametrize("span", [8, 12, 16, 20, 24])
@pytest.mark.parametrize("consistent", [True, False], ids=["SAT", "UNSAT"])
def test_a_timeline_verdict_matches_the_x_chain_route(span, consistent, flow):
    kb = parse_kb(timeline(span, consistent))
    expected = "SAT" if consistent else "UNSAT"
    assert check_kb(kb, flow)[0] == monolithic(kb, flow) == expected


# random ABoxes over a window of ±40 (ℕ: 0..40) on DIFF_SPEC's TBoxes, with
# allow_bottom and ABox seed 1000 * abox_size + index: every case of
# abox_size 1-3, both flows, whose monolithic check took at most 1.5 CPU
# seconds on a 2-core machine (15 of 72; none disagreed among the 23 it
# decided within 4 s), with its verdict: (abox_size, index, flow, seed, verdict)
WIDE_ABOX_CORPUS = [
    (1, 1, "z", 1001, "SAT"), (1, 3, "n", 1003, "SAT"), (1, 3, "z", 1003, "UNSAT"),
    (1, 6, "z", 1006, "SAT"), (1, 7, "z", 1007, "SAT"), (1, 8, "z", 1008, "SAT"),
    (1, 10, "z", 1010, "SAT"), (1, 11, "z", 1011, "SAT"), (2, 2, "n", 2002, "UNSAT"),
    (2, 5, "n", 2005, "UNSAT"), (2, 8, "z", 2008, "UNSAT"), (2, 10, "n", 2010, "UNSAT"),
    (2, 10, "z", 2010, "SAT"), (3, 3, "z", 3003, "UNSAT"), (3, 8, "z", 3008, "SAT"),
]


def wide_abox_instance(size: int, index: int, flow: str, seed: int):
    kb = generate_instance(BatchSpec(**DIFF_SPEC), index, allow_bottom=True, flow=flow)
    window = (0, 40) if flow == "n" else (-40, 40)
    return random_abox(kb, size, random.Random(seed), flow=flow, window=window)


def test_the_wide_abox_corpus_has_unsat_instances_in_both_flows():
    assert {flow for _, _, flow, _, verdict in WIDE_ABOX_CORPUS if verdict == "UNSAT"} == {"n", "z"}


@pytest.mark.parametrize("size,index,flow,seed,expected", WIDE_ABOX_CORPUS)
def test_a_wide_abox_verdict_matches_the_x_chain_route(size, index, flow, seed, expected):
    kb = wide_abox_instance(size, index, flow, seed)
    assert check_kb(kb, flow)[0] == monolithic(kb, flow) == expected


HAND_FACT_CASES = [
    # a fact on a concept that no axiom names
    ("A SUB ALWF A", "A(b)@2\nB(b)@5\n", "nz", "SAT"),
    ("A SUB ALWF A", "B(b)@5\nNOT B(b)@5\n", "nz", "UNSAT"),
    ("A SUB ALWF A", "A(b)@3\nNOT A(b)@3\n", "nz", "UNSAT"),
    ("A SUB ALWF A", "A(b)@3\nNOT A(b)@7\n", "nz", "UNSAT"),
    # before 0, over a TBox part without a past operator (over ℤ every
    # axiom is boxed by H G, so an empty TBox)
    ("", "A(b)@-3\nNOT A(b)@-3\n", "z", "UNSAT"),
    ("", "A(b)@-3\nNOT A(b)@2\nB(b)@-1\n", "z", "SAT"),
    ("A SUB ALWF A", "A(b)@-3\nNOT A(b)@2\n", "z", "UNSAT"),
]


@pytest.mark.parametrize(
    "tbox,abox,flow,expected",
    [(t, a, flow, v) for t, a, flows, v in HAND_FACT_CASES for flow in flows],
)
def test_a_hand_written_abox_verdict_matches_the_x_chain_route(monkeypatch, tbox, abox, flow,
                                                               expected):
    checked_formulas = []
    real = components.z_sat

    def spy(f, **kwargs):
        checked_formulas.append(f)
        return real(f, **kwargs)

    monkeypatch.setattr(components, "z_sat", spy)
    kb = parse_kb(f"SIG\nconcept A\nconcept B\nindividual b\nTBOX\n{tbox}\nABOX\n{abox}")
    assert check_kb(kb, flow)[0] == monolithic(kb, flow) == expected
    if not tbox:
        # the component's formula has no past operator; the facts before 0
        # alone make the checker run its backward half
        keys = structural_index(checked_formulas[0])
        assert not any(key[0] in (LNextP, LSomeP) for key in keys)


# --- scale: a timestamp costs image steps, not state variables ---------------------

SWEEP_KB = "SIG\nconcept A\nindividual b\nTBOX\nA SUB A\nABOX\nA(b)@{t}\n"


@pytest.mark.parametrize(
    "text,flow",
    [(SWEEP_KB.format(t=800), "n"), (SWEEP_KB.format(t=800), "z"), (timeline(50, True), "n")],
    ids=["A(b)@800-n", "A(b)@800-z", "ex1-span50-n"],
)
def test_a_far_timestamp_is_decided_in_process_within_two_cpu_seconds(text, flow):
    kb = parse_kb(text)
    start = time.process_time()
    verdict, _ = check_kb(kb, flow)
    assert verdict == "SAT"
    assert time.process_time() - start < 2.0


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


# --- each stage once --------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex2", "ex2_variant"])
@pytest.mark.parametrize("flow", ["n", "z"])
def test_a_check_optimizes_each_component_once_and_nothing_else(monkeypatch, name, flow):
    calls = []

    def counting(f):
        calls.append(f)
        return optimize(f)

    # ltl's own name covers every optimize a check could reach through it
    for module in (components, ltl):
        monkeypatch.setattr(module, "optimize", counting)
    _, trace = check_kb(load_toy(name), flow)
    assert len(calls) == trace.decomposition.checker_calls


# --- one component: the optimized grounding, one checker call -------------------

@pytest.mark.parametrize("flow", ["n", "z"])
def test_one_constant_without_roles_checks_the_whole_formula(monkeypatch, flow):
    seen = []
    real = components.z_sat

    def spy(f, **kwargs):
        seen.append(f)
        return real(f, **kwargs)

    monkeypatch.setattr(components, "z_sat", spy)
    kb = load_toy("ex1_tbox")
    verdict, trace = check_kb(kb, flow)
    assert verdict == "SAT"
    assert len(seen) == 1
    assert struct_eq(seen[0], optimize(grounding(trace)))
    assert trace.decomposition.components == 1


def test_a_tautological_inclusion_hands_z_sat_no_past_operator(monkeypatch):
    # `A SUB A` over ℤ grounds to a two-sided box over ¬(A ∧ ¬A); its
    # complementary conjuncts make the box truth, so the component has no
    # past operator and z_sat skips its backward half
    seen = []
    real = components.z_sat

    def spy(f, **kwargs):
        seen.append(f)
        return real(f, **kwargs)

    monkeypatch.setattr(components, "z_sat", spy)
    kb = parse_kb("SIG\nconcept A\nindividual b\nTBOX\nA SUB A\nABOX\nA(b)@3\n")
    assert check_kb(kb, "z")[0] == "SAT"
    assert seen
    assert not any(has_past(f) for f in seen)


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
    verdict, trace = check_kb(load_toy(name), flow)
    assert verdict == "SAT"
    assert len(calls) == 1
    # the grounding itself, not an optimized copy
    assert struct_eq(calls[0][0], grounding(trace))


@pytest.mark.parametrize("name", ["ex1_tbox", "ex2_variant"])
@pytest.mark.parametrize("flow", ["n", "z"])
def test_a_combined_word_failing_re_evaluation_raises(monkeypatch, name, flow):
    monkeypatch.setattr(oracle, "eval_on_lasso", lambda *args: False)
    with pytest.raises(WitnessCheckFailed):
        check_kb(load_toy(name), flow)


@pytest.mark.parametrize("flow", ["n", "z"])
def test_a_combined_word_breaking_a_fact_fails_re_evaluation(monkeypatch, flow):
    # the component checker gets A(b)@2 as a fact on proposition c_a__b;
    # a word without it there is no model of the grounding
    real = oracle._Engine.valuation_of
    monkeypatch.setattr(oracle._Engine, "valuation_of",
                        lambda self, s: real(self, s) - {"c_a__b"})
    kb = parse_kb("SIG\nconcept A\nindividual b\nTBOX\nA SUB A\nABOX\nA(b)@2\n")
    with pytest.raises(WitnessCheckFailed, match="combined word"):
        check_kb(kb, flow)


COMBINED_CHECK_UNDER_O = """
import sys
if __debug__:
    sys.exit("not running under -O")
from tdlite import oracle
from tdlite.kbparse import parse_kb
from tdlite.pipeline import check_kb
oracle.eval_on_lasso = lambda *args: False
try:
    check_kb(parse_kb(sys.argv[1]), "n")
except oracle.WitnessCheckFailed:
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

    return BiLassoWord(ren(word.left_loop), ren(word.left_prefix),
                       ren((word.anchor,))[0], ren(word.right_prefix), ren(word.right_loop))


def test_product_word_is_the_union_at_every_position():
    rng = random.Random(17)
    for _ in range(50):
        words = [_renamed(random_bilasso(rng), f"{i}_") for i in range(rng.randint(1, 3))]
        extra = frozenset({"p__r"})
        prod = product_word(words, extra)
        for n in range(-40, 40):
            expect = extra.union(*(w.valuation(n) for w in words))
            assert prod.valuation(n) == expect
