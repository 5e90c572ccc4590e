"""The word evaluator and the complete satisfiability checkers."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tdlite
from tdlite import components, oracle
from tdlite.kbparse import parse_kb
from tdlite.ltl import (
    TRUE, gc_paused, optimize, parse_infix, structural_index, to_infix,
)
from tdlite.oracle import BiLassoWord, WitnessCheckFailed, eval_on_lasso, z_sat
from tdlite.pipeline import check_kb, run_pipeline
from tdlite.randgen import BatchSpec, generate_instance

from conftest import (
    FUTURE_UNARY_OPS, TOY_VERDICTS, UNARY_OPS, formulas, future_formulas, load_toy,
    random_bilasso, random_ltlp,
)
from references import (
    checked_z_sat, depast, forty_round_variable_order, grounding, searched_eval_on_lasso,
    x_chains, z_sat_bounded,
)

V = frozenset
A = V({"a"})
B = V({"b"})
E = V()


def test_bilasso_word_indexing():
    w = BiLassoWord(
        left_loop=(B,), left_prefix=(E,), anchor=A, right_prefix=(E,), right_loop=(B,)
    )
    assert w.valuation(0) == A
    assert w.valuation(1) == E and w.valuation(-1) == E
    assert w.valuation(5) == B and w.valuation(-5) == B
    with pytest.raises(ValueError):
        BiLassoWord(left_loop=(), left_prefix=(), anchor=A, right_prefix=(), right_loop=(B,))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", True),
        ("X a", False),
        ("F b", True),
        ("G b", False),
        ("Y a", False),  # nothing before 0 holds a
        ("P a", True),
        ("F (Y a)", True),
    ],
)
def test_eval_on_lasso_hand_cases(text, expected):
    w = BiLassoWord(left_loop=(E,), left_prefix=(), anchor=A, right_prefix=(), right_loop=(B,))
    assert eval_on_lasso(parse_infix(text), w, 0) is expected


def test_eval_window_extends_past_operators_under_future_diamonds():
    # b holds at odd positions only; X b is true at even positions, so
    # F (Y b) needs to look beyond the first loop traversal
    w = BiLassoWord(left_loop=(E,), left_prefix=(), anchor=E, right_prefix=(), right_loop=(B, E))
    assert eval_on_lasso(parse_infix("F (Y b)"), w, 0)
    assert not eval_on_lasso(parse_infix("F (Y a)"), w, 0)


def test_eval_window_regression_on_bilasso():
    # b from position 1 on: X P (b & ~ F F Y b) must come out false, the
    # inner F F Y b being true from every point where b holds
    w = BiLassoWord(
        left_loop=(E,), left_prefix=(), anchor=E, right_prefix=(), right_loop=(B,)
    )
    f = parse_infix("X (P (b & (~ (F (F (Y b))))))")
    assert not eval_on_lasso(f, w, 0)
    assert eval_on_lasso(parse_infix("X (P (F b))"), w, 0)


@given(formulas, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_eval_agrees_with_the_search_reference(f, rng):
    # every position from below the left prefix to beyond the right one
    word = random_bilasso(rng, ("a", "b", "c"))
    for n in range(-12, 16):
        assert eval_on_lasso(f, word, n) == searched_eval_on_lasso(f, word, n), n


def test_eval_window_follows_nesting_depth_not_operator_count():
    # instance 0 of this spec over ℤ, optimized: hundreds of past and
    # future operators, nested only a few deep; the window set by their
    # count made this one evaluation take tens of seconds
    kb = generate_instance(BatchSpec(F=6, N=3, Lt=10, Lc=6, Q=2, seed=20260824), 0, flow="z")
    f = optimize(grounding(run_pipeline(kb, "z")))
    word = BiLassoWord(left_loop=(E,), left_prefix=(), anchor=E, right_prefix=(), right_loop=(E,))
    start = time.process_time()
    assert not eval_on_lasso(f, word, 0)
    assert time.process_time() - start < 1.0


def test_eval_two_sided_past_is_unbounded():
    w = BiLassoWord(
        left_loop=(A,), left_prefix=(E, E, E), anchor=E, right_prefix=(), right_loop=(E,)
    )
    assert eval_on_lasso(parse_infix("P a"), w, 0)
    assert not eval_on_lasso(parse_infix("F a"), w, 0)


@pytest.mark.parametrize(
    "text,is_sat",
    [
        ("a", True),
        ("a & (~ a)", False),
        ("(F a) & (G (~ a))", False),
        ("(X a) & (~ a)", True),
        ("G (a -> X (~ a))", True),
        ("(G (F a)) & (G (F (~ a)))", True),
        ("X false", False),  # a dead end after one step
        ("(G (a -> X b)) & (G (b -> X false)) & (F a)", False),
    ],
)
def test_ltl_sat_hand_cases(text, is_sat):
    # past-free: z_sat decides them as it would over ℕ
    f = parse_infix(text)
    word = z_sat(f)
    if is_sat:
        assert word is not None
        assert eval_on_lasso(f, word, 0)
    else:
        assert word is None


@pytest.mark.parametrize(
    "text,is_sat",
    [
        ("(P a) & (~ a)", True),  # over the integers the past is unbounded
        ("Y true", True),
        ("a & (P (~ (F a)))", False),
        ("(G (a -> X a)) & a & (F (~ a))", False),
        ("(H a) & (F (~ a))", True),
        ("(H (G a)) & (~ a)", False),
        ("G (F (a & (Y (~ a))))", True),
        ("Y false", False),  # a dead end one step back
        ("(H (a -> Y (~ a))) & (H (a -> Y a)) & a", False),
    ],
)
def test_z_sat_hand_cases(text, is_sat):
    f = parse_infix(text)
    word = z_sat(f)
    if is_sat:
        assert word is not None
        assert eval_on_lasso(f, word, 0)
    else:
        assert word is None


def test_a_check_hash_conses_its_formula_once(monkeypatch):
    # once, for the engine
    calls = []
    index = oracle.structural_index
    monkeypatch.setattr(oracle, "structural_index", lambda f: calls.append(f) or index(f))
    assert z_sat(parse_infix("(G (F a)) & (X b)")) is not None
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text,backward",
    [
        ("(G (a -> X b)) & (F a)", False),
        ("(G (F a)) & (Y b)", True),
        ("a & (P (~ a))", True),
    ],
)
def test_z_sat_searches_backward_only_for_a_past_operator(monkeypatch, text, backward):
    directions = []
    for name in ("reach", "fair_states"):
        real = getattr(oracle._Engine, name)

        def spy(self, forward=True, *args, _real=real, **kwargs):
            directions.append(forward)
            return _real(self, forward, *args, **kwargs)

        monkeypatch.setattr(oracle._Engine, name, spy)
    word = checked_z_sat(parse_infix(text))
    assert word is not None
    assert (False in directions) is backward
    if not backward:
        assert word.left_prefix == () and word.left_loop == (E,)


def test_z_sat_finds_every_past_free_model_the_bounded_search_finds():
    # the bounded search is an independent reference; over ℕ nothing
    # before 0 is read, so this is the ℕ side of the complete checker
    rng = random.Random(73)
    found = unsat = 0
    for _ in range(150):
        f = random_ltlp(rng.randint(1, 10), rng, FUTURE_UNARY_OPS, ("a", "b", "c"))
        word = checked_z_sat(f)
        if z_sat_bounded(f) is not None:
            found += 1
            assert word is not None, to_infix(f)
        unsat += word is None
    assert found > 0 and unsat > 0


# --- the variable order --------------------------------------------------------

def timeline_ops():
    """The `check-timeline` benchmark workload's KBs at seed 0."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.timeline_ops(0)


def assert_forty_round_order(f) -> None:
    order = oracle._Engine(f)._variable_order()
    assert order == forty_round_variable_order(structural_index(f)), to_infix(f)


@settings(max_examples=150, deadline=None)
@given(st.one_of(formulas, future_formulas))
def test_force_stops_at_the_order_forty_rounds_reach(f):
    assert_forty_round_order(f)


def test_force_stops_at_the_order_forty_rounds_reach_on_every_component(monkeypatch):
    checked_formulas = []
    real = components.z_sat

    def spy(f, **kwargs):
        checked_formulas.append(f)
        return real(f, **kwargs)

    monkeypatch.setattr(components, "z_sat", spy)
    for name in TOY_VERDICTS:
        for flow in ("n", "z"):
            check_kb(load_toy(name), flow)
    for op in timeline_ops():
        check_kb(parse_kb(op.text), op.flow)
    assert len(checked_formulas) > 80
    for f in checked_formulas:
        assert_forty_round_order(f)


@settings(max_examples=100, deadline=None)
@given(formulas)
@example(parse_infix("(G (F a)) & (G (F (~ a))) & (H (P b)) & (H (P (~ b)))"))
def test_run_to_fair_walks_into_a_closed_fair_loop(f):
    eng = oracle._Engine(f)
    b = eng.b
    for forward, fairness in ((True, eng.fairness_f), (False, eng.fairness_b)):
        region = eng.reach(forward)
        fair = eng.fair_states(forward, region)
        starts = b.and_(eng.init, eng.eu(region, fair, forward))
        if starts == 0:
            continue
        start = eng._pick(starts)
        prefix, loop = eng.run_to_fair(start, fair, forward, region)
        walk = prefix + loop + loop[:1]
        assert walk[0] == start
        for s, t in zip(walk, walk[1:]):
            assert b.and_(eng._step(s, forward), t) == t
        assert all(b.and_(s, fair) == s for s in loop)
        for fj in fairness:
            assert any(b.and_(s, fj) != 0 for s in loop)


def test_a_walk_can_return_to_its_start():
    # a alternates, so the only way back to the start takes two steps
    eng = oracle._Engine(parse_infix("G (a <-> (X (~ a)))"))
    b = eng.b
    start = eng._pick(eng.init)
    walk = eng._navigate(start, start, eng.reach(True), True)
    assert len(walk) == 2 and walk[-1] == start
    for s, t in zip([start] + walk, walk):
        assert b.and_(eng._step(s, True), t) == t


def test_z_sat_bounded_is_sound():
    f = parse_infix("(P a) & (~ a) & (G (~ a))")
    w = z_sat_bounded(f)
    assert w is not None
    assert eval_on_lasso(f, w, 0)
    assert z_sat_bounded(parse_infix("a & (~ a)")) is None


def test_z_sat_bounded_alphabet_cap():
    f = parse_infix(" & ".join(f"p{i}" for i in range(9)))
    with pytest.raises(ValueError):
        z_sat_bounded(f)


# --- facts on a chain of image steps -------------------------------------------

def test_z_sat_with_facts_agrees_with_the_x_chain_encoding():
    rng = random.Random(91)
    verdicts = set()
    for i in range(120):
        future = i % 2 == 0  # half of the cases past-free, as over ℕ
        f = random_ltlp(rng.randint(1, 8), rng, FUTURE_UNARY_OPS if future else UNARY_OPS)
        lo = 0 if future else -4
        facts = [(rng.randint(lo, 4), rng.choice("abcd"), rng.random() < 0.7)
                 for _ in range(rng.randint(1, 3))]
        word = checked_z_sat(f, facts)
        verdict = word is not None
        assert verdict == (checked_z_sat(x_chains(f, facts)) is not None), (to_infix(f), facts)
        if word is not None:
            assert all((p in word.valuation(t)) == v for t, p, v in facts)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("f", [parse_infix("G (a -> X a)"), TRUE], ids=["G(a->Xa)", "true"])
def test_a_fact_before_zero_runs_the_backward_half_of_a_past_free_formula(f):
    assert z_sat(f, facts=[(-3, "a", True), (-3, "a", False)]) is None
    word = checked_z_sat(f, [(-3, "a", True), (2, "b", False)])
    assert "a" in word.valuation(-3) and "b" not in word.valuation(2)


def test_a_fact_on_a_proposition_the_formula_does_not_name():
    word = checked_z_sat(parse_infix("G a"), [(5, "b", True), (7, "b", False)])
    assert "b" in word.valuation(5) and "b" not in word.valuation(7)
    assert z_sat(parse_infix("G a"), facts=[(5, "b", True), (5, "b", False)]) is None


def test_z_sat_agrees_with_the_depast_route():
    rng = random.Random(55)
    for _ in range(80):
        f = random_ltlp(rng.randint(1, 9), rng)
        via_z = checked_z_sat(f) is not None
        via_depast = checked_z_sat(depast(f)) is not None
        assert via_z == via_depast


# --- a witness that fails re-evaluation is an error, also under -O ----------

@pytest.mark.parametrize("check", [checked_z_sat, z_sat_bounded])
def test_a_witness_failing_re_evaluation_raises(monkeypatch, check):
    monkeypatch.setattr(oracle, "eval_on_lasso", lambda *args: False)
    with pytest.raises(WitnessCheckFailed):
        check(parse_infix("F a"))


WITNESS_CHECK_UNDER_O = """
import sys
if __debug__:
    sys.exit("not running under -O")
from tdlite import oracle
from tdlite.ltl import parse_infix
from references import checked_z_sat, z_sat_bounded
oracle.eval_on_lasso = lambda *args: False
for check in (checked_z_sat, z_sat_bounded):
    try:
        check(parse_infix("F a"))
    except oracle.WitnessCheckFailed:
        continue
    sys.exit(check.__name__ + " returned an unchecked witness")
"""


def test_the_witness_check_survives_python_O():
    src = str(Path(tdlite.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_CHECK_UNDER_O],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


DOUBLING_TOWER_CHECK = """
from tdlite.ltl import LAnd, LNextF, LProp
from tdlite.oracle import checked, z_sat
f = LProp("a")
for _ in range(60):
    f = LAnd(LNextF(f), f)
assert checked(f, z_sat(f), "extracted word") is not None
"""


def test_a_check_walks_the_dag_not_the_tree():
    # f₀ = a, fₖ₊₁ = X fₖ ∧ fₖ has 61 distinct subformulas but about 2⁶¹
    # tree occurrences; a walk over occurrences does not finish
    src = str(Path(tdlite.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", DOUBLING_TOWER_CHECK],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_finished_check_frees_its_bdd_without_the_collector(monkeypatch):
    refs = []
    real_init = oracle._Engine.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        refs.append(weakref.ref(self.b))

    monkeypatch.setattr(oracle._Engine, "__init__", init)
    with gc_paused():
        for text in ("G (a -> X b) & F a", "G (a -> Y b) & P a"):
            assert checked_z_sat(parse_infix(text)) is not None
        assert len(refs) == 2
        assert all(r() is None for r in refs)
