"""Propositional LTL ASTs: printing, parsing, simplification."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tdlite.ltl import (
    FALSE,
    InfixSyntaxError,
    LAnd,
    LNextF,
    LNextP,
    LNot,
    LProp,
    LSomeF,
    LSomeP,
    REPR_LIMIT,
    TRUE,
    _rigidity_rewrite,
    alw_f,
    conj,
    count_props,
    iff,
    implies,
    lor,
    optimize,
    parse_infix,
    prop_names,
    simplify,
    struct_eq,
    to_infix,
    tree_size,
)
from tdlite.oracle import eval_on_lasso
from tdlite.pastelim import depast

from conftest import UNARY_OPS, formulas, random_bilasso, random_ltlp
from references import has_past, walked_tree_size

@st.composite
def shared_formulas(draw):
    """Formulas whose subtrees are shared: each step builds a node over
    earlier ones picked by index, so a node can sit under many parents
    and a tree of a few dozen objects can count thousands of occurrences."""
    nodes = [LProp("a"), LProp("b"), FALSE]
    steps = draw(st.lists(
        st.tuples(st.integers(0, len(UNARY_OPS)), st.integers(0, 99), st.integers(0, 99)),
        min_size=1, max_size=12,
    ))
    for op, i, j in steps:
        x, y = nodes[i % len(nodes)], nodes[j % len(nodes)]
        nodes.append(UNARY_OPS[op](x) if op < len(UNARY_OPS) else LAnd(x, y))
    return nodes[-1]


def test_basic_accessors():
    f = LAnd(LNot(LProp("a")), LSomeP(LProp("b")))
    assert tree_size(f) == 5
    assert prop_names(f) == {"a", "b"}
    assert count_props(f) == 2
    assert has_past(f)
    assert not has_past(LSomeF(LProp("a")))


@given(shared_formulas())
@settings(max_examples=200, deadline=None)
def test_stored_size_counts_every_occurrence(f):
    assert tree_size(f) == walked_tree_size(f)
    built = [
        conj([f, f, LProp("c")]),
        iff(f, LNot(f)),
        parse_infix(to_infix(f)),
        simplify(f),
        _rigidity_rewrite(f),
        optimize(f),
        depast(f),
    ]
    for g in built:
        assert tree_size(g) == walked_tree_size(g), to_infix(g)


def test_stored_size_of_a_doubling_tower():
    # 60 doublings: one object per level, 2**61 - 1 occurrences
    f = LProp("a")
    for _ in range(60):
        f = LAnd(f, f)
    # compared as plain ints: a failing assert must not print the tower
    stored, walked = tree_size(f), walked_tree_size(f)
    assert stored == walked == 2**61 - 1


def test_pinned_infix_forms():
    assert to_infix(LAnd(LProp("a"), LNot(LProp("b")))) == "(a & (~ b))"
    assert to_infix(TRUE) == "true"
    assert to_infix(LSomeF(FALSE)) == "(F false)"
    # conjunction spines flatten into a single group
    f = LAnd(LProp("a"), LAnd(LProp("b"), LProp("c")))
    assert to_infix(f) == "(a & b & c)"


def test_to_infix_prints_past_operators():
    f = LAnd(LNextP(LProp("a")), LSomeP(LNot(LProp("b"))))
    assert to_infix(f) == "((Y a) & (P (~ b)))"
    assert struct_eq(parse_infix(to_infix(f)), f)


def test_parse_extended_syntax():
    assert struct_eq(parse_infix("a | b"), lor(LProp("a"), LProp("b")))
    assert struct_eq(parse_infix("a -> b"), implies(LProp("a"), LProp("b")))
    assert struct_eq(parse_infix("a <-> b"), iff(LProp("a"), LProp("b")))
    assert struct_eq(parse_infix("G a"), alw_f(LProp("a")))
    assert struct_eq(parse_infix("Y P a"), LNextP(LSomeP(LProp("a"))))


def test_parse_errors():
    for text in ("", "a &", "(a", "a b", "a @ b"):
        with pytest.raises(InfixSyntaxError):
            parse_infix(text)


def test_parser_handles_long_flat_conjunctions():
    text = "(" + " & ".join(f"p{i}" for i in range(5000)) + ")"
    assert count_props(parse_infix(text)) == 5000


def test_parser_handles_deep_prefix_chains_and_nesting():
    # 5000 nested `(X ...)` groups: too deep for a recursive parser even
    # under the 20000-frame recursion limit that `Bdd()` sets
    f = LProp("a")
    for _ in range(5000):
        f = LNextF(f)
    assert struct_eq(parse_infix(to_infix(f)), f)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_infix_round_trip_is_stable(f):
    text = to_infix(f)
    g = parse_infix(text)
    # flattening may reassociate conjunctions, so compare the printed
    # forms and the semantics instead of the trees
    assert to_infix(g) == text
    rng = random.Random(tree_size(f))
    for _ in range(5):
        w = random_bilasso(rng, ("a", "b", "c"))
        assert eval_on_lasso(f, w, 0) == eval_on_lasso(g, w, 0)


@given(formulas)
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_meaning(f):
    g = simplify(f)
    assert tree_size(g) <= tree_size(f)
    rng = random.Random(tree_size(f) + 1)
    for _ in range(5):
        w = random_bilasso(rng, ("a", "b", "c"))
        assert eval_on_lasso(f, w, 0) == eval_on_lasso(g, w, 0)


def test_simplify_boolean_identities():
    a = LProp("a")
    assert struct_eq(simplify(LAnd(a, TRUE)), a)
    assert struct_eq(simplify(LAnd(a, FALSE)), FALSE)
    assert struct_eq(simplify(LNot(LNot(a))), a)
    assert struct_eq(simplify(LAnd(a, a)), a)


def test_simplify_drops_a_structural_repeat_held_in_a_distinct_object():
    def eventually_a_not_b():
        return LSomeF(LAnd(LProp("a"), LNot(LProp("b"))))

    first, again = eventually_a_not_b(), eventually_a_not_b()
    assert first is not again
    g = simplify(LAnd(first, LAnd(LProp("c"), again)))
    want = LAnd(eventually_a_not_b(), LProp("c"))
    assert tree_size(g) == tree_size(want)
    assert struct_eq(g, want)


def test_implies_adds_no_double_negation():
    a, b = LProp("a"), LProp("b")
    assert struct_eq(implies(a, LNot(b)), LNot(LAnd(a, b)))
    assert struct_eq(implies(a, b), LNot(LAnd(a, LNot(b))))
    assert struct_eq(parse_infix("a -> ~ b"), LNot(LAnd(a, b)))


def test_optimize_preserves_meaning_on_random_formulas():
    rng = random.Random(31)
    for i in range(150):
        f = random_ltlp(rng.randint(1, 12), rng)
        g = optimize(f)
        for _ in range(4):
            w = random_bilasso(rng)
            assert eval_on_lasso(f, w, 0) == eval_on_lasso(g, w, 0), to_infix(f)


@pytest.mark.parametrize(
    "text,optimized",
    [
        # "a never changes" as a one-sided box body: ¬(◇a ∧ ◇¬a)
        ("G ((~ ((F a) & (F (~ a)))) & b)",
         "(~ (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a))) & b))))"),
        # the same under a two-sided box: ¬(a ∧ ◇P◇F¬a)
        ("H (G ((~ (a & (P (F (~ a))))) & b))",
         "(~ (P (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a))) & b)))))"),
    ],
)
def test_optimize_rewrites_constancy_into_one_step_form(text, optimized):
    assert to_infix(optimize(parse_infix(text))) == optimized


def test_struct_eq_ignores_object_identity():
    f = LAnd(LProp("a"), LSomeF(LProp("b")))
    g = LAnd(LProp("a"), LSomeF(LProp("b")))
    assert struct_eq(f, g)
    assert not struct_eq(f, LAnd(LProp("a"), LSomeF(LProp("c"))))


def test_repr_of_a_small_formula_reads_like_its_constructors():
    f = LAnd(LProp("a"), LNot(LNextF(FALSE)))
    assert repr(f) == "LAnd(left=LProp(name='a'), right=LNot(arg=LNextF(arg=LFalse())))"


def test_repr_of_a_deep_chain_is_bounded():
    f = LProp("a")
    for _ in range(5000):
        f = LNextF(f)
    text = repr(f)
    assert text.startswith("LNextF(arg=LNextF(arg=")
    assert text.endswith("...")
    assert len(text) <= REPR_LIMIT + 3


def test_repr_of_a_shared_tower_is_bounded():
    # 2**25 leaf occurrences: printing every occurrence would not finish
    g = LProp("a")
    for _ in range(25):
        g = LAnd(g, g)
    text = repr(g)
    assert text.startswith("LAnd(left=LAnd(left=")
    assert len(text) <= REPR_LIMIT + 3
