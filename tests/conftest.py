"""Shared helpers: toy corpus loading, random formula/word generation."""

from __future__ import annotations

import random
from importlib import resources

from hypothesis import strategies as st

from tdlite.kb import KnowledgeBase
from tdlite.kbparse import parse_kb
from tdlite.ltl import FALSE, LAnd, LNextF, LNextP, LNot, LProp, LSomeF, LSomeP, Ltl
from tdlite.oracle import BiLassoWord
from tdlite.randgen import BatchSpec, generate_instance

PROPS = ("a", "b", "c", "d")
UNARY_OPS = (LNot, LNextF, LNextP, LSomeF, LSomeP)
FUTURE_UNARY_OPS = (LNot, LNextF, LSomeF)

TOY_VERDICTS = {
    "ex1": "UNSAT",
    "ex1_tbox": "SAT",
    "ex2": "UNSAT",
    "ex2_variant": "SAT",
}


def toy_text(name: str) -> str:
    return (resources.files("tdlite") / "data" / f"{name}.kb").read_text()


def load_toy(name: str) -> KnowledgeBase:
    return parse_kb(toy_text(name))


def handoff_kbs():
    """The hand-off corpus: (label, KB, flow) for the toy corpus in both
    flows, three instances of the translation gate's spec at a smaller
    scale and six with random ABoxes, each in both flows."""
    for name in sorted(TOY_VERDICTS):
        for flow in ("n", "z"):
            yield f"{name}/{flow}", load_toy(name), flow
    # the translation gate's spec at a smaller scale, and random ABoxes
    gate = BatchSpec(F=3, N=3, Lt=10, Lc=6, Q=2, seed=20260824)
    aboxes = BatchSpec(F=6, N=2, Lt=3, Lc=4, Q=2, abox_size=4, seed=23)
    for label, spec in (("gate", gate), ("abox", aboxes)):
        for i in range(spec.F):
            for flow in ("n", "z"):
                yield f"{label}#{i}/{flow}", generate_instance(spec, i, flow=flow), flow


def random_ltlp(
    size: int,
    rng: random.Random,
    unary: tuple = UNARY_OPS,
    props: tuple[str, ...] = PROPS,
) -> Ltl:
    """A random formula with exactly `size` nodes over the given alphabet."""
    if size <= 1:
        return LProp(rng.choice(props))
    if size == 2 or rng.random() < 0.6:
        return rng.choice(unary)(random_ltlp(size - 1, rng, unary, props))
    k = rng.randint(1, size - 2)
    return LAnd(
        random_ltlp(k, rng, unary, props),
        random_ltlp(size - 1 - k, rng, unary, props),
    )


formulas = st.recursive(
    st.sampled_from([LProp("a"), LProp("b"), LProp("c"), FALSE]),
    lambda sub: st.one_of(
        sub.map(LNot),
        sub.map(LNextF),
        sub.map(LNextP),
        sub.map(LSomeF),
        sub.map(LSomeP),
        st.tuples(sub, sub).map(lambda t: LAnd(*t)),
    ),
    max_leaves=12,
)

# past-free formulas, as the ℕ flow hands the checker
future_formulas = st.recursive(
    st.sampled_from([LProp("a"), LProp("b"), LProp("c"), FALSE]),
    lambda sub: st.one_of(
        sub.map(LNot),
        sub.map(LNextF),
        sub.map(LSomeF),
        st.tuples(sub, sub).map(lambda t: LAnd(*t)),
    ),
    max_leaves=12,
)


def _valuations(rng: random.Random, count: int, props: tuple[str, ...]):
    return tuple(
        frozenset(p for p in props if rng.random() < 0.5) for _ in range(count)
    )


def qand_spine(f):
    """The conjuncts of a QTL conjunction spine, left to right."""
    from tdlite.qtl import QAnd

    out, stack = [], [f]
    while stack:
        n = stack.pop()
        if isinstance(n, QAnd):
            stack.append(n.right)
            stack.append(n.left)
        else:
            out.append(n)
    return out


def count_monotonicity_conjuncts(tbox_formula, tbox_len: int) -> int:
    """Structural count of the cardinality-monotonicity axioms in a
    translated TBox: boxed ∀x (≥q′R → ≥qR) with the same role and q′ > q,
    skipping the leading concept-inclusion conjuncts."""
    from tdlite.qtl import CardPred, QAlwF, QAlwP, QAnd, QAtom, QForAll, QNot, Var

    count = 0
    for c in qand_spine(tbox_formula)[tbox_len:]:
        while isinstance(c, (QAlwF, QAlwP)):
            c = c.arg
        if not isinstance(c, QForAll):
            continue
        body = c.body  # q_implies(a, b) is ¬(a ∧ ¬b)
        if not (isinstance(body, QNot) and isinstance(body.arg, QAnd)):
            continue
        ante, cons = body.arg.left, body.arg.right
        if not (isinstance(cons, QNot) and isinstance(cons.arg, QAtom)):
            continue
        cons = cons.arg
        if not (isinstance(ante, QAtom) and isinstance(ante.pred, CardPred)):
            continue
        if not isinstance(cons.pred, CardPred):
            continue
        if not (isinstance(ante.term, Var) and isinstance(cons.term, Var)):
            continue
        if ante.pred.role == cons.pred.role and ante.pred.q > cons.pred.q:
            count += 1
    return count


def random_bilasso(rng: random.Random, props: tuple[str, ...] = PROPS) -> BiLassoWord:
    return BiLassoWord(
        left_loop=_valuations(rng, rng.randint(1, 3), props),
        left_prefix=_valuations(rng, rng.randint(0, 3), props),
        anchor=_valuations(rng, 1, props)[0],
        right_prefix=_valuations(rng, rng.randint(0, 3), props),
        right_loop=_valuations(rng, rng.randint(1, 3), props),
    )
