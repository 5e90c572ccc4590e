"""Reference procedures that only the tests use.

A bounded, sound-but-incomplete model search over ℤ that cross-checks the
complete checker, a word evaluator that searches (node, position) pairs
on demand, against which the bottom-up `oracle.eval_on_lasso` is tested,
the read-back of a model with past from an ℕ model of its past-free
translation, a walk that counts a formula's nodes, for the size each
node stores, the closed-form count of a TBox's monotonicity conjuncts,
and a test for past operators.
"""

from __future__ import annotations

from typing import Callable, Optional

from tdlite import oracle
from tdlite.bdd import Bdd
from tdlite.ltl import (
    LAnd,
    LFalse,
    LNextF,
    LNextP,
    LNot,
    LProp,
    LSomeF,
    LSomeP,
    Ltl,
    _children,
    iter_nodes,
    prop_names,
)
from tdlite.oracle import BiLassoWord, Valuation
from tdlite.pastelim import SubformulaTable
from tdlite.qtl import TranslationContext

MAX_Z_PROPS = 8
DEFAULT_Z_BOUND = 3


def z_sat_bounded(
    f: Ltl,
    max_prefix: int = DEFAULT_Z_BOUND,
    max_loop: int = DEFAULT_Z_BOUND,
) -> Optional[BiLassoWord]:
    """Search for a bi-lasso model of an LTL-with-past formula over ℤ.

    Sound: a returned word is a genuine model (re-checked by evaluation).
    Incomplete: None means no model within the bounds, not unsatisfiable.
    """
    props = sorted(prop_names(f))
    if len(props) > MAX_Z_PROPS:
        raise ValueError(f"alphabet of {len(props)} exceeds {MAX_Z_PROPS} propositions")
    prop_index = {p: i for i, p in enumerate(props)}
    nprops = max(1, len(props))
    n_past_ops = sum(1 for x in iter_nodes(f) if isinstance(x, (LNextP, LSomeP)))
    n_future_ops = sum(1 for x in iter_nodes(f) if isinstance(x, (LNextF, LSomeF)))

    shapes = [
        (ll, lp, rp, rl)
        for ll in range(1, max_loop + 1)
        for rl in range(1, max_loop + 1)
        for lp in range(0, max_prefix + 1)
        for rp in range(0, max_prefix + 1)
    ]
    shapes.sort(key=lambda s: (sum(s), s))

    for ll, lp, rp, rl in shapes:
        def slot_of(n: int) -> int:
            # slots: 0..ll-1 left loop (outermost first), ll..ll+lp-1 left
            # prefix (position −lp first), ll+lp anchor, then right prefix,
            # then right loop
            if n == 0:
                return ll + lp
            if n > 0:
                i = n - 1
                if i < rp:
                    return ll + lp + 1 + i
                return ll + lp + 1 + rp + (i - rp) % rl
            i = -n - 1
            if i < lp:
                return ll + lp - 1 - i
            return ll - 1 - (i - lp) % ll

        b = Bdd()

        def pvar(name: str, n: int) -> int:
            return b.var(slot_of(n) * nprops + prop_index[name])

        memo: dict[tuple[int, int], int] = {}

        def enc(node: Ltl, n: int) -> int:
            key = (id(node), n)
            if key in memo:
                return memo[key]
            if isinstance(node, LFalse):
                r = 0
            elif isinstance(node, LProp):
                r = pvar(node.name, n)
            elif isinstance(node, LNot):
                r = b.not_(enc(node.arg, n))
            elif isinstance(node, LAnd):
                r = b.and_(enc(node.left, n), enc(node.right, n))
            elif isinstance(node, LNextF):
                r = enc(node.arg, n + 1)
            elif isinstance(node, LNextP):
                r = enc(node.arg, n - 1)
            elif isinstance(node, LSomeF):
                # the window of searched_eval_on_lasso: one extra period
                # per past operator occurrence, never shorter than the
                # window eval_on_lasso sets by past-nesting depth
                hi = max(n, rp + rl * (n_past_ops + 1)) + rl - 1
                r = 0
                for k in range(n, hi + 1):
                    r = b.or_(r, enc(node.arg, k))
            elif isinstance(node, LSomeP):
                lo = min(n, -(lp + ll * (n_future_ops + 1))) - ll + 1
                r = 0
                for k in range(lo, n + 1):
                    r = b.or_(r, enc(node.arg, k))
            else:
                raise AssertionError(f"unexpected node {type(node).__name__}")
            memo[key] = r
            return r

        root = enc(f, 0)
        if root == 0:
            continue
        assign = b.sat_one(root)

        def slot_val(slot: int) -> Valuation:
            return frozenset(
                p for p, i in prop_index.items() if assign.get(slot * nprops + i, False)
            )

        word = BiLassoWord(
            left_loop=tuple(slot_val(s) for s in range(ll - 1, -1, -1)),
            left_prefix=tuple(slot_val(s) for s in range(ll + lp - 1, ll - 1, -1)),
            anchor=slot_val(ll + lp),
            right_prefix=tuple(slot_val(ll + lp + 1 + i) for i in range(rp)),
            right_loop=tuple(slot_val(ll + lp + 1 + rp + i) for i in range(rl)),
        )
        return oracle.checked(f, word, "bounded-search witness")
    return None


def searched_eval_on_lasso(f: Ltl, word: BiLassoWord, position: int = 0) -> bool:
    """Exact truth value of f at the given position of an ultimately
    periodic bi-infinite word, by an on-demand search over (node,
    position) pairs.

    Diamonds are decided by inspecting a finite window: a subformula's
    truth sequence is periodic past the prefix, except that every past
    operator under a future diamond (and vice versa on the negative
    half) can delay stabilization by up to one loop length, so the
    window grows by one period per opposite-direction operator.
    """
    n_past_ops = sum(1 for x in iter_nodes(f) if isinstance(x, (LNextP, LSomeP)))
    n_future_ops = sum(1 for x in iter_nodes(f) if isinstance(x, (LNextF, LSomeF)))
    rl = len(word.right_loop)
    ll = len(word.left_loop)
    fut_horizon = len(word.right_prefix) + rl * (n_past_ops + 1)
    past_horizon = -(len(word.left_prefix) + ll * (n_future_ops + 1))

    def future_bound(n: int) -> int:
        return max(n, fut_horizon) + rl - 1

    def past_bound(n: int) -> int:
        return min(n, past_horizon) - ll + 1

    memo: dict[tuple[int, int], bool] = {}
    stack: list[tuple[Ltl, int, bool]] = [(f, position, False)]
    while stack:
        n, pos, done = stack.pop()
        key = (id(n), pos)
        if key in memo:
            continue
        if isinstance(n, LFalse):
            memo[key] = False
            continue
        if isinstance(n, LProp):
            memo[key] = n.name in word.valuation(pos)
            continue
        if not done:
            stack.append((n, pos, True))
            if isinstance(n, LNot):
                stack.append((n.arg, pos, False))
            elif isinstance(n, LAnd):
                stack.append((n.left, pos, False))
                stack.append((n.right, pos, False))
            elif isinstance(n, LNextF):
                stack.append((n.arg, pos + 1, False))
            elif isinstance(n, LNextP):
                stack.append((n.arg, pos - 1, False))
            elif isinstance(n, LSomeF):
                for k in range(pos, future_bound(pos) + 1):
                    stack.append((n.arg, k, False))
            elif isinstance(n, LSomeP):
                for k in range(past_bound(pos), pos + 1):
                    stack.append((n.arg, k, False))
            continue
        if isinstance(n, LNot):
            memo[key] = not memo[(id(n.arg), pos)]
        elif isinstance(n, LAnd):
            memo[key] = memo[(id(n.left), pos)] and memo[(id(n.right), pos)]
        elif isinstance(n, LNextF):
            memo[key] = memo[(id(n.arg), pos + 1)]
        elif isinstance(n, LNextP):
            memo[key] = memo[(id(n.arg), pos - 1)]
        elif isinstance(n, LSomeF):
            memo[key] = any(
                memo[(id(n.arg), k)] for k in range(pos, future_bound(pos) + 1)
            )
        else:  # LSomeP
            memo[key] = any(
                memo[(id(n.arg), k)] for k in range(past_bound(pos), pos + 1)
            )
    return memo[(id(f), position)]


def reconstruct_value(
    table: SubformulaTable,
    prop: str,
    time: int,
    read: Callable[[str, int], bool],
) -> bool:
    """Truth value of an input proposition at an integer time point, read
    from an ℕ model of the translated formula via `read(name, index)`."""
    p, m = table.prop_pairs[prop]
    if time >= 0:
        return read(p, time)
    return read(m, -time)


def eq2_conjunct_count(ctx: TranslationContext) -> int:
    """The closed-form number of cardinality-monotonicity conjuncts in a
    translated TBox: one per role and pair of distinct numbers in Q."""
    k = len(ctx.q_set)
    return len(ctx.roles_of_k) * (k * (k - 1) // 2)


def walked_tree_size(f: Ltl) -> int:
    """AST node count with shared subtrees counted per occurrence, by a
    walk that visits each distinct node once (memoized on identity)."""
    memo: dict[int, int] = {}
    stack: list[tuple[Ltl, bool]] = [(f, False)]
    while stack:
        n, done = stack.pop()
        if id(n) in memo:
            continue
        kids = _children(n)
        if done or not kids:
            memo[id(n)] = 1 + sum(memo[id(k)] for k in kids)
        else:
            stack.append((n, True))
            stack.extend((k, False) for k in kids)
    return memo[id(f)]


def has_past(f: Ltl) -> bool:
    """Whether f has a past operator (Y or P) anywhere."""
    return any(isinstance(n, (LNextP, LSomeP)) for n in iter_nodes(f))
