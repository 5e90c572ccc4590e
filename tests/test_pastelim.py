"""Folding the negative timeline away: structure and soundness."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from tdlite.ltl import (
    FALSE,
    TRUE,
    LAnd,
    LNextP,
    LNot,
    LProp,
    LSomeF,
    LSomeP,
    count_props,
    prop_names,
    tree_size,
)
from tdlite.oracle import eval_on_lasso, z_sat
from tdlite.pastelim import build_table, depast, depast_with_table

from conftest import formulas, random_ltlp
from references import has_past, reconstruct_value


def test_output_is_past_free():
    f = LSomeP(LAnd(LProp("a"), LNextP(LProp("b"))))
    g = depast(f)
    assert has_past(f)
    assert not has_past(g)


def test_alphabet_is_paired():
    f = LAnd(LProp("a"), LSomeP(LProp("b")))
    g, table = depast_with_table(f)
    assert table.prop_pairs == {
        "a": ("a__pos", "a__neg"),
        "b": ("b__pos", "b__neg"),
    }
    names = prop_names(g)
    assert {"a__pos", "a__neg", "b__pos", "b__neg"} <= names
    # one surrogate pair for the single temporal subformula
    assert len(table.surrogate_pairs) == 1
    ((pos, neg),) = table.surrogate_pairs.values()
    assert pos.endswith("__pos") and neg.endswith("__neg")
    assert {pos, neg} <= names


def test_surrogates_cover_exactly_the_temporal_subformulas():
    f = LSomeF(LAnd(LNextP(LProp("a")), LNot(LSomeP(LProp("a")))))
    _, table = depast_with_table(f)
    kinds = {type(table.reps[uid]).__name__ for uid in table.surrogate_pairs}
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
    assert t1.prop_pairs == t2.prop_pairs
    assert t1.surrogate_pairs == t2.surrogate_pairs


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
