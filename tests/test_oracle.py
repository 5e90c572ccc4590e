"""The word evaluator and the complete satisfiability checkers."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import tdlite
from tdlite import oracle
from tdlite.ltl import gc_paused, parse_infix
from tdlite.oracle import (
    BiLassoWord,
    FormulaTooLarge,
    LassoWord,
    WitnessCheckFailed,
    eval_on_lasso,
    ltl_sat,
    z_sat,
)
from tdlite.pastelim import depast

from conftest import random_ltlp
from references import z_sat_bounded

V = frozenset
A = V({"a"})
B = V({"b"})
E = V()


def test_lasso_word_indexing():
    w = LassoWord(prefix=(A, E), loop=(B,))
    assert w.valuation(0) == A
    assert w.valuation(1) == E
    assert all(w.valuation(n) == B for n in range(2, 8))
    with pytest.raises(ValueError):
        LassoWord(prefix=(), loop=())


def test_bilasso_word_indexing():
    w = BiLassoWord(
        left_loop=(B,), left_prefix=(E,), anchor=A, right_prefix=(E,), right_loop=(B,)
    )
    assert w.valuation(0) == A
    assert w.valuation(1) == E and w.valuation(-1) == E
    assert w.valuation(5) == B and w.valuation(-5) == B


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", True),
        ("X a", False),
        ("F b", True),
        ("G b", False),
        ("Y a", False),  # no predecessor of the first instant
        ("P a", True),
        ("F (Y a)", True),
    ],
)
def test_eval_on_lasso_hand_cases(text, expected):
    w = LassoWord(prefix=(A,), loop=(B,))
    assert eval_on_lasso(parse_infix(text), w, 0) is expected


def test_eval_window_extends_past_operators_under_future_diamonds():
    # b holds at odd positions only; X b is true at even positions, so
    # F (Y b) needs to look beyond the first loop traversal
    w = LassoWord(prefix=(), loop=(E, B))
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
    f = parse_infix(text)
    word = ltl_sat(f, bound=10**6)
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
    word = z_sat(f, bound=10**6)
    if is_sat:
        assert word is not None
        assert eval_on_lasso(f, word, 0)
    else:
        assert word is None


def test_size_bound_is_enforced():
    f = parse_infix(" & ".join(f"(X p{i})" for i in range(12)))
    with pytest.raises(FormulaTooLarge):
        ltl_sat(f, bound=4)


@pytest.mark.parametrize("check", [ltl_sat, z_sat])
def test_a_check_hash_conses_its_formula_once(monkeypatch, check):
    calls = []
    index = oracle.structural_index
    monkeypatch.setattr(oracle, "structural_index", lambda f: calls.append(f) or index(f))
    assert check(parse_infix("(G (F a)) & (X b)")) is not None
    assert len(calls) == 1


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


def test_z_sat_agrees_with_the_depast_route():
    rng = random.Random(55)
    for _ in range(80):
        f = random_ltlp(rng.randint(1, 9), rng)
        via_z = z_sat(f, bound=10**6) is not None
        via_depast = ltl_sat(depast(f), bound=10**6) is not None
        assert via_z == via_depast


# --- a witness that fails re-evaluation is an error, also under -O ----------

@pytest.mark.parametrize("check", [ltl_sat, z_sat, z_sat_bounded])
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
from references import z_sat_bounded
oracle.eval_on_lasso = lambda *args: False
for check in (oracle.ltl_sat, oracle.z_sat, z_sat_bounded):
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


def test_a_finished_check_frees_its_bdd_without_the_collector(monkeypatch):
    refs = []
    real_init = oracle._Engine.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        refs.append(weakref.ref(self.b))

    monkeypatch.setattr(oracle._Engine, "__init__", init)
    with gc_paused():
        for check in (ltl_sat, z_sat):
            assert check(parse_infix("G (a -> X b) & F a")) is not None
        assert len(refs) == 2
        assert all(r() is None for r in refs)
