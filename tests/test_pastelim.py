"""Folding the negative timeline away: structure, soundness, and the
printer that writes the translation from past elimination's table."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import tdlite
from tdlite.ltl import (
    FALSE,
    INFIX_TOKENS,
    TRUE,
    LAnd,
    LNextF,
    LNextP,
    LNot,
    LProp,
    LSomeF,
    LSomeP,
    print_formula,
)
from tdlite.oracle import eval_on_lasso, z_sat
from tdlite.pastelim import build_table, pair_names, print_past_free, surrogate_name
from tdlite.solvers import _INFIX_TOKENS, _SMV_TOKENS

from conftest import formulas, random_ltlp
from references import (
    count_props,
    depast,
    depast_with_table,
    has_past,
    prop_names,
    reconstruct_value,
    tree_size,
)


def test_output_is_past_free():
    f = LSomeP(LAnd(LProp("a"), LNextP(LProp("b"))))
    g = depast(f)
    assert has_past(f)
    assert not has_past(g)


def test_alphabet_is_paired():
    f = LAnd(LProp("a"), LSomeP(LProp("b")))
    g, table = depast_with_table(f)
    assert sorted(table.props) == ["a", "b"]
    assert pair_names("a") == ("a__pos", "a__neg")
    names = prop_names(g)
    assert {"a__pos", "a__neg", "b__pos", "b__neg"} <= names
    # one surrogate pair for the single temporal subformula
    ((uid,),) = [table.surrogates]
    pos, neg = pair_names(surrogate_name(uid))
    assert pos.endswith("__pos") and neg.endswith("__neg")
    assert {pos, neg} <= names


def test_surrogates_cover_exactly_the_temporal_subformulas():
    f = LSomeF(LAnd(LNextP(LProp("a")), LNot(LSomeP(LProp("a")))))
    _, table = depast_with_table(f)
    kinds = {table.keys[uid][0].__name__ for uid in table.surrogates}
    assert kinds == {"LSomeF", "LNextP", "LSomeP"}


def test_past_free_input_keeps_no_stale_surrogates():
    f = LSomeF(LProp("a"))
    g = depast(f)
    assert not has_past(g)
    assert "a__pos" in prop_names(g)


def _assert_table_sizes_its_output(f):
    out, table = depast_with_table(f)
    assert build_table(f).output_size() == table.output_size() == tree_size(out)
    assert table.output_props() == count_props(out)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_table_sizes_its_output(f):
    _assert_table_sizes_its_output(f)


def test_table_sizes_the_output_of_random_formulas():
    rng = random.Random(31)
    for _ in range(300):
        _assert_table_sizes_its_output(random_ltlp(rng.randint(1, 40), rng))


@pytest.mark.parametrize(
    "f",
    [
        LAnd(LProp("a"), LNot(LProp("b"))),  # no temporal operator: no step clauses
        FALSE,  # no proposition and no temporal operator: no sync clauses either
        TRUE,
        LNot(LAnd(TRUE, FALSE)),
        LSomeF(FALSE),  # a surrogate but no proposition
        LSomeP(LProp("a")),  # past operators at the root
        LNextP(LNot(LProp("a"))),
        LNot(LSomeP(LNot(LSomeF(LNot(LProp("a")))))),
    ],
    ids=["no-temporal", "falsum", "truth", "no-props", "surrogate-only",
         "someP-root", "nextP-root", "boxes"],
)
def test_table_sizes_the_output_of_edge_cases(f):
    _assert_table_sizes_its_output(f)


def test_reconstruct_value_reads_the_right_half():
    f = LSomeP(LProp("a"))
    table = build_table(f)
    trace = {("a__pos", 2): True, ("a__neg", 3): True}
    read = lambda name, i: trace.get((name, i), False)
    assert reconstruct_value(table, "a", 2, read)
    assert not reconstruct_value(table, "a", 1, read)
    assert reconstruct_value(table, "a", -3, read)
    assert not reconstruct_value(table, "a", -2, read)


def test_growth_is_boundedly_linear():
    rng = random.Random(12)
    ratios = []
    for _ in range(100):
        f = random_ltlp(rng.randint(2, 30), rng)
        ratios.append(tree_size(depast(f)) / tree_size(f))
    assert max(ratios) < 60


def test_translation_is_deterministic():
    rng = random.Random(4)
    f = random_ltlp(15, rng)
    assert tree_size(depast(f)) == tree_size(depast(f))
    _, t1 = depast_with_table(f)
    _, t2 = depast_with_table(f)
    assert t1.props == t2.props
    assert t1.surrogates == t2.surrogates


def test_unsatisfiable_past_formula_stays_unsatisfiable():
    # a ∧ ◇P ¬◇F a is unsatisfiable: the diamond reaches back to a point
    # whose future contains the present
    f = LAnd(LProp("a"), LSomeP(LNot(LSomeF(LProp("a")))))
    assert z_sat(depast(f)) is None


def test_satisfiable_past_formula_stays_satisfiable():
    f = LAnd(LProp("a"), LSomeP(LNot(LProp("a"))))
    word = z_sat(depast(f))
    assert word is not None
    assert eval_on_lasso(depast(f), word, 0)


# --- the printer writes the translation's text from the table ---------------

TOKEN_TABLES = (_SMV_TOKENS, _INFIX_TOKENS, INFIX_TOKENS)


def _assert_printer_matches_the_built_translation(f):
    past_free = depast(f)
    for tokens in TOKEN_TABLES:
        assert print_past_free(f, tokens) == print_formula(past_free, tokens)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_printer_matches_the_built_translation(f):
    _assert_printer_matches_the_built_translation(f)


def test_printer_matches_the_built_translation_of_random_formulas():
    rng = random.Random(37)
    for _ in range(300):
        _assert_printer_matches_the_built_translation(random_ltlp(rng.randint(1, 40), rng))


_A, _B = LProp("a"), LProp("b")
_AND = LAnd(_A, LNot(_B))


@pytest.mark.parametrize(
    "f",
    [
        _AND,  # no temporal operator: no step clauses
        FALSE,  # nothing to pair: the flattening alone
        TRUE,
        LNot(LAnd(TRUE, FALSE)),
        LAnd(FALSE, LSomeP(_A)),  # falsum heading the root spine
        LAnd(TRUE, LNextF(_A)),
        *(op(arg) for op in (LNextF, LSomeF, LNextP, LSomeP)
          for arg in (_AND, LNot(_AND), FALSE, TRUE, LNot(LNot(_AND)))),
        LAnd(LAnd(_A, LSomeP(_B)), LAnd(LNot(_AND), _AND)),  # a root spine of spines
        LNextP(LAnd(LNot(LAnd(_A, LNot(LAnd(_B, LSomeF(_AND))))), _B)),  # nested groups
    ],
)
def test_printer_matches_the_built_translation_of_edge_cases(f):
    _assert_printer_matches_the_built_translation(f)


LONG_SPINE_PRINT = """
import tracemalloc
from tdlite.ltl import LAnd, LNextF, LNot, LProp, LSomeP, conj
from tdlite.pastelim import print_past_free
from tdlite.solvers import _SMV_TOKENS
spine = conj([LProp(f"a{i % 100}") for i in range(20000)])
f = LAnd(LNextF(spine), LSomeP(LNot(spine)))
tracemalloc.start()
text, _ = print_past_free(f, _SMV_TOKENS)
print(len(text), tracemalloc.get_traced_memory()[1])
"""


def test_printing_a_long_spine_under_temporal_operators_stays_linear():
    # each of the spine's 20,000 suffixes is a conjunction of its own; a
    # text stored per conjunction would hold them all, gigabytes, which
    # the address-space limit of the child turns into a failure
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(tdlite.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LONG_SPINE_PRINT],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    length, peak = map(int, proc.stdout.split())
    assert length > 20000 * 4 * len("a0__pos & ")
    assert peak < 8 * length
