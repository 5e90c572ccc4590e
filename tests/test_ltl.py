"""Propositional LTL ASTs: printing, parsing, simplification."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tdlite.ltl import (
    FALSE,
    INFIX_TOKENS,
    InfixSyntaxError,
    LAnd,
    LNextF,
    LNextP,
    LNot,
    LProp,
    LSomeF,
    LSomeP,
    PastOperatorPresent,
    REPR_LIMIT,
    TRUE,
    _intern,
    alw_f,
    alw_p,
    conj,
    iff,
    implies,
    lor,
    optimize,
    optimize_instances,
    parse_infix,
    print_formula,
    simplify,
    to_infix,
)
from tdlite.oracle import eval_on_lasso, z_sat
from tdlite.pastelim import build_table
from tdlite.solvers import _INFIX_TOKENS, _SMV_TOKENS

from conftest import UNARY_OPS, formulas, random_bilasso, random_ltlp
from references import (
    chained_print_formula,
    count_props,
    depast,
    has_past,
    named_key,
    prop_names,
    rebuilt_optimize,
    renamed,
    struct_eq,
    tree_size,
    tuple_keyed_intern,
)

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
def test_table_size_counts_every_occurrence(f):
    # the size `SubformulaTable` counts from one key per distinct
    # subformula, against a walk, on shared trees and on what the
    # builders, the parser and the rewrites make of them
    built = [
        f,
        conj([f, f, LProp("c")]),
        iff(f, LNot(f)),
        parse_infix(to_infix(f)),
        simplify(f),
        optimize(f),
        depast(f),
    ]
    for g in built:
        assert build_table(g).input_size() == tree_size(g), to_infix(g)


def test_table_size_of_a_doubling_tower():
    # 60 doublings: one key per level, 2**61 - 1 occurrences
    f = LProp("a")
    for _ in range(60):
        f = LAnd(f, f)
    table = build_table(f)
    assert len(table.keys) == 61
    # compared as plain ints: a failing assert must not print the tower
    counted, walked = table.input_size(), tree_size(f)
    assert counted == walked == 2**61 - 1


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


def test_simplify_makes_complementary_conjuncts_falsum():
    a, b = LProp("a"), LSomeF(LAnd(LProp("b"), LNot(LProp("c"))))
    for f in (
        LAnd(a, LNot(a)),
        LAnd(LNot(LProp("a")), conj([LProp("c"), LProp("a")])),
        conj([b, LProp("c"), LNot(LSomeF(LAnd(LProp("b"), LNot(LProp("c")))))]),
    ):
        assert simplify(f) is FALSE, to_infix(f)
    # under temporal operators, as `A SUB A` grounds over ℤ
    assert to_infix(optimize(parse_infix("~ (P (F (a & (~ a))))"))) == "true"
    # a conjunct and the negation of a different one stay
    assert to_infix(simplify(LAnd(a, LNot(LProp("b"))))) == "(a & (~ b))"


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


def test_optimize_instances_is_optimize_of_the_conjunction_of_the_instances():
    # boxed and unboxed pieces over a and b, renamed, and over p and q,
    # shared by every instance
    rng = random.Random(17)
    shapes = (lambda f: alw_p(alw_f(f)), alw_f, alw_p, LNextF, lambda f: f)
    for _ in range(400):
        pieces = [rng.choice(shapes)(random_ltlp(rng.randint(1, 12), rng, props=("a", "b", "p", "q")))
                  for _ in range(rng.randint(1, 4))]
        names = [{"a": f"a{i}", "b": f"b{i}"} for i in range(rng.randint(0, 3))]
        got = optimize_instances(pieces, names)
        want = optimize(conj([g for f in pieces for g in [f] + [renamed(f, r) for r in names]]))
        assert to_infix(got) == to_infix(want)


def test_optimize_runs_past_a_round_that_keeps_the_size():
    # the first round merges the two X-conjuncts into X (P (q & p) & F a &
    # P (q & p) & F b) and the two boxes into one, which keeps the size;
    # the next round drops the repeated P (q & p)
    f = parse_infix("(X ((P (q & p)) & (F a))) & (X ((P (q & p)) & (F b)))"
                    " & (~ (P c)) & (~ (P d))")
    g = optimize(f)
    assert to_infix(g) == "((X ((P (q & p)) & (F a) & (F b))) & (~ (P (~ ((~ c) & (~ d))))))"
    assert tree_size(g) == 20
    assert optimize(g) is g


def test_optimize_instances_agrees_with_optimize_on_a_lone_constancy_conjunct():
    # ¬◇P◇F(a ∧ ◇P◇F¬a) has its constancy conjunct as the box's argument,
    # and the rule rewrites it there; merged with a renamed copy, the
    # pieces' boxes join as they come out of optimize
    f = parse_infix("H (G (a -> (H (G a))))")
    assert to_infix(optimize(f)) == "(~ (P (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a))))))))"
    got = optimize_instances([f], [{"a": "b"}])
    assert to_infix(got) == to_infix(optimize(LAnd(f, renamed(f, {"a": "b"}))))
    assert "X" in to_infix(got)


def test_optimize_instances_drops_a_spine_whose_merged_conjunct_meets_its_negation():
    # the merged box and next are complementary to a sibling only once
    # merged, as `simplify` finds when it simplifies the merged spine
    for texts in (["G p", "G q", "F (~ (p & q))"], ["X p", "X q", "~ (X (p & q))"]):
        pieces = [parse_infix(t) for t in texts]
        assert optimize_instances(pieces, []) is FALSE
        assert optimize(conj(pieces)) is FALSE


def _nexts(f, k):
    for _ in range(k):
        f = LNextF(f)
    return f


def test_optimize_merges_deep_x_chains_in_one_call():
    # each ○-merge leaves the next one a level further down the chains
    a, b = LProp("a"), LProp("b")
    for f in (LAnd(_nexts(a, 12), _nexts(b, 13)),
              LAnd(alw_f(_nexts(a, 12)), alw_f(_nexts(b, 13)))):
        g = optimize(f)
        assert optimize(g) is g
    assert to_infix(g) == to_infix(alw_f(_nexts(LAnd(a, LNextF(b)), 12)))


def test_optimize_instances_merges_a_3000_deep_x_chain_without_recursing():
    # at CPython's default recursion limit, which `Bdd()` raises for the
    # whole process: a walk that recursed once per merged level would
    # raise RecursionError
    pieces = [alw_f(_nexts(LProp(x), 3000)) for x in "ab"]
    rename = {"a": "a2", "b": "b2"}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = optimize_instances(pieces, [rename])
        want = optimize(conj([g for f in pieces for g in (f, renamed(f, rename))]))
        same = struct_eq(got, want)
        merged = struct_eq(got, alw_f(_nexts(conj([LProp(x) for x in ("a", "a2", "b", "b2")]), 3000)))
    finally:
        sys.setrecursionlimit(limit)
    assert same and merged


@pytest.mark.parametrize(
    "text,optimized",
    [
        # "a never changes" as a one-sided box body: ¬(◇a ∧ ◇¬a)
        ("G ((~ ((F a) & (F (~ a)))) & b)",
         "(~ (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a))) & b))))"),
        # the same under a two-sided box: ¬(a ∧ ◇P◇F¬a)
        ("H (G ((~ (a & (P (F (~ a))))) & b))",
         "(~ (P (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a))) & b)))))"),
        # a lone two-sided constancy conjunct: double-negation elimination
        # leaves it as the box's argument, where the rule still sees it
        ("H (G (~ (a & (P (F (~ a))))))",
         "(~ (P (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a))))))))"),
        ("H (G (~ (a & (P (F (~ a)))))) & b",
         "((~ (P (F (~ ((~ (a & (~ (X a)))) & (~ ((X a) & (~ a)))))))) & b)"),
    ],
)
def test_optimize_rewrites_constancy_into_one_step_form(text, optimized):
    assert to_infix(optimize(parse_infix(text))) == optimized


def test_struct_eq_ignores_object_identity():
    f = LAnd(LProp("a"), LSomeF(LProp("b")))
    g = LAnd(LProp("a"), LSomeF(LProp("b")))
    assert struct_eq(f, g)
    assert struct_eq(LAnd(f, f), LAnd(f, g))  # shared or copied, one table
    assert not struct_eq(f, LAnd(LProp("a"), LSomeF(LProp("c"))))


@given(st.lists(st.one_of(formulas, shared_formulas()), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_intern_matches_the_tuple_keyed_reference(fs):
    # the same uid per node, the same structure per uid and the same order
    # of uids, also when several formulas are interned into one set of
    # tables, as simplify does
    index: tuple[dict, dict] = ({}, {})
    ref: tuple[dict, dict] = ({}, {})
    for f in fs:
        assert _intern(f, *index) == tuple_keyed_intern(f, *ref)
    assert index[0] == ref[0]
    assert [named_key(k) for k in index[1]] == list(ref[1])


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


# --- optimize and the printer against their rebuilding references ------------

# formulas with what optimize rewrites: one- and two-sided boxes over
# conjunctions, constancy conjuncts and near misses, next-chains, double
# negations and repeated conjuncts, over objects that are reused
boxed_formulas = st.recursive(
    st.sampled_from([LProp("a"), LProp("b"), LProp("c"), FALSE, TRUE]),
    lambda sub: st.one_of(
        sub.map(LNot),
        sub.map(LNextF),
        sub.map(LNextP),
        sub.map(LSomeF),
        sub.map(LSomeP),
        sub.map(alw_f),
        sub.map(lambda x: alw_p(alw_f(x))),
        sub.map(lambda x: LNot(LAnd(LSomeF(x), LSomeF(LNot(x))))),
        sub.map(lambda x: LNot(LAnd(x, LSomeP(LSomeF(LNot(x)))))),
        # the same shapes over two formulas, constancy when they are equal
        st.tuples(sub, sub).map(lambda t: LNot(LAnd(LSomeF(LNot(t[0])), LSomeF(t[1])))),
        st.tuples(sub, sub).map(lambda t: LNot(LAnd(t[0], LSomeP(LSomeF(LNot(t[1])))))),
        st.tuples(sub, sub).map(lambda t: LAnd(*t)),
        st.tuples(sub, sub).map(lambda t: iff(*t)),
        st.lists(sub, min_size=2, max_size=5).map(conj),
    ),
    max_leaves=16,
)


@given(st.one_of(boxed_formulas, formulas, shared_formulas()))
@settings(max_examples=400, deadline=None)
# one walk finishes what the first round leaves to the next: the merged
# X (a & false) is falsum's X, the merged X (X a & X b) merges again, and
# the conjunction that double negation exposes joins its parent spine
@example(parse_infix("~ ((X a) & (X false))"))
@example(parse_infix("(X (X a)) & (X (X b))"))
@example(parse_infix("(~ (~ (a & b))) & a"))
def test_optimize_prints_what_the_rebuilding_rounds_print(f):
    assert to_infix(simplify(f)) == to_infix(rebuilt_optimize(f))


@given(st.one_of(boxed_formulas, formulas))
@settings(max_examples=200, deadline=None)
def test_optimize_of_an_optimize_fixpoint_is_the_same_object(f):
    # one call reaches the fixpoint, so a second returns its input
    g = optimize(f)
    assert optimize(g) is g


def test_simplify_returns_the_given_object_when_no_rule_applies():
    a, b, c = LProp("a"), LProp("b"), LProp("c")
    for f in (
        a,
        FALSE,
        TRUE,
        conj([a, LSomeF(b), LNot(LNextF(c))]),
        LNextP(LAnd(a, LSomeP(LNot(b)))),
        LNot(LSomeF(LNot(LAnd(a, b)))),
    ):
        assert simplify(f) is f, to_infix(f)
        assert optimize(f) is f, to_infix(f)
    # a spine that is not right-nested prints the same but is rebuilt
    left = LAnd(LAnd(a, b), c)
    g = simplify(left)
    assert g is not left and to_infix(g) == to_infix(left)
    assert simplify(g) is g
    # one changed conjunct rebuilds the spine, and keeps the others
    f = conj([a, LNot(LNot(b)), c])
    g = simplify(f)
    assert to_infix(g) == "(a & b & c)"
    assert g.left is a and g.right.right is c


_PRINTER_TABLES = (
    INFIX_TOKENS,
    _INFIX_TOKENS,
    _SMV_TOKENS,
)


@given(st.one_of(boxed_formulas, formulas, shared_formulas()))
@settings(max_examples=300, deadline=None)
def test_printer_matches_the_chained_printer(f):
    for tokens in _PRINTER_TABLES:
        try:
            want = chained_print_formula(f, tokens)
        except PastOperatorPresent:
            with pytest.raises(PastOperatorPresent):
                print_formula(f, tokens)
            continue
        assert print_formula(f, tokens) == want


@given(boxed_formulas)
@settings(max_examples=150, deadline=None)
def test_optimize_is_equivalent_to_its_input(f):
    # each way, no model over ℤ of one that is not a model of the other
    g = optimize(f)
    assert z_sat(LAnd(f, LNot(g))) is None, to_infix(f)
    assert z_sat(LAnd(g, LNot(f))) is None, to_infix(f)
