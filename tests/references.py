"""Reference procedures that only the tests use.

The complete checker's word re-checked by evaluation, as `check_kb` and
`tdlite solve` re-check the words they report, with its facts as X/Y
chains; a bounded, sound-but-incomplete model search over ℤ that
cross-checks the complete checker, a word evaluator that searches (node, position) pairs
on demand, against which the bottom-up `oracle.eval_on_lasso` is tested,
the read-back of a model with past from an ℕ model of its past-free
translation, walks that count a formula's nodes per occurrence
(`tree_size`) and its propositions (`count_props`), the closed-form count
of a TBox's monotonicity conjuncts, a test for past operators, past
elimination built as `Ltl` nodes (the formula
`pastelim.print_past_free` writes and `SubformulaTable` sizes), and
`optimize`, `print_formula` and the
hash-consing of `ltl._intern` as they were before they kept unchanged
nodes, dispatched on exact type and keyed nodes in one loop: rounds of
a walk that rebuilds every node and decides the constancy rule by
structural equality (`struct_eq`), run until a round changes nothing, a
printer that runs down an `isinstance` chain, and an interning walk
with `(node, done)` stack entries and name-tagged tuple keys, the
renaming of a formula's propositions, and the checker's FORCE variable
order as it was before it stopped at its fixpoint: always 40 rounds.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from tdlite import oracle
from tdlite.bdd import Bdd
from tdlite.ltl import (
    FALSE,
    LAnd,
    LFalse,
    LNextF,
    LNextP,
    LNot,
    LProp,
    LSomeF,
    LSomeP,
    Ltl,
    PastOperatorPresent,
    TRUE,
    _UNARY,
    _merge_siblings,
    _negated,
    _spine_conjuncts,
    alw_f,
    conj,
    gc_paused,
    iff,
    lor,
    structural_index,
)
from tdlite.ground import GroundingContext
from tdlite.oracle import BiLassoWord, Valuation
from tdlite.pastelim import SubformulaTable, build_table, pair_names, surrogate_name
from tdlite.qtl import (
    QAlwF,
    QAlwP,
    QAnd,
    QAtom,
    QFalsum,
    QForAll,
    QNextF,
    QNextP,
    QNot,
    QProp,
    QSomeF,
    QSomeP,
    Qtl,
    TranslationContext,
    Var,
)

MAX_Z_PROPS = 8
DEFAULT_Z_BOUND = 3


def x_chains(f: Ltl, facts: Sequence[tuple[int, str, bool]]) -> Ltl:
    """f with each fact (t, p, v) conjoined as p or ¬p under |t| X or Y."""
    for t, p, v in facts:
        lit = LProp(p) if v else LNot(LProp(p))
        for _ in range(abs(t)):
            lit = LNextF(lit) if t > 0 else LNextP(lit)
        f = LAnd(f, lit)
    return f


def checked_z_sat(f: Ltl, facts: Sequence[tuple[int, str, bool]] = ()) -> Optional[BiLassoWord]:
    """`oracle.z_sat`'s word once evaluation confirms it is a model of f
    and the facts (`WitnessCheckFailed` if not); None for unsatisfiable."""
    return oracle.checked(x_chains(f, facts), oracle.z_sat(f, facts=facts), "extracted word")


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
    p, m = pair_names(prop)
    if time >= 0:
        return read(p, time)
    return read(m, -time)


def eq2_conjunct_count(ctx: TranslationContext) -> int:
    """The closed-form number of cardinality-monotonicity conjuncts in a
    translated TBox: one per role and pair of distinct numbers in Q."""
    k = len(ctx.q_set)
    return len(ctx.roles_of_k) * (k * (k - 1) // 2)


def _children(f: Ltl) -> tuple[Ltl, ...]:
    if isinstance(f, LAnd):
        return (f.left, f.right)
    if isinstance(f, _UNARY):
        return (f.arg,)
    return ()


def tree_size(f: Ltl) -> int:
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


def iter_nodes(f: Ltl) -> Iterator[Ltl]:
    """Each distinct node object once, parents before children."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        stack.extend(_children(n))


def prop_names(f: Ltl) -> set[str]:
    return {n.name for n in iter_nodes(f) if isinstance(n, LProp)}


def count_props(f: Ltl) -> int:
    return len(prop_names(f))


_QUNARY = {QNot: LNot, QNextF: LNextF, QNextP: LNextP, QSomeF: LSomeF, QSomeP: LSomeP}


@gc_paused()
def ground(
    qtl: Qtl, gctx: GroundingContext, fixed: Optional[dict[str, bool]] = None
) -> Ltl:
    """Instantiate quantifiers over the constant set and desugar boxes.

    A proposition named in `fixed` becomes truth or falsum instead.
    Iterative with memoization on (node, binding) so shared subformulas and
    repeated instantiations are translated once.
    """
    fixed = fixed or {}
    memo: dict[tuple[int, str | None], Ltl] = {}
    stack: list[tuple[Qtl, str | None, bool]] = [(qtl, None, False)]
    while stack:
        n, binding, done = stack.pop()
        key = (id(n), binding)
        if key in memo:
            continue
        if not done:
            stack.append((n, binding, True))
            if isinstance(n, QForAll):
                stack.extend((n.body, c, False) for c in gctx.constants)
            elif isinstance(n, QAnd):
                stack.append((n.left, binding, False))
                stack.append((n.right, binding, False))
            elif isinstance(n, (QNot, QNextF, QNextP, QSomeF, QSomeP, QAlwF, QAlwP)):
                stack.append((n.arg, binding, False))
            continue
        if isinstance(n, QFalsum):
            memo[key] = LFalse()
        elif isinstance(n, QProp):
            if n.name in fixed:
                memo[key] = TRUE if fixed[n.name] else FALSE
            else:
                memo[key] = LProp(n.name)
        elif isinstance(n, QAtom):
            if isinstance(n.term, Var):
                if binding is None:
                    raise ValueError("free variable outside a quantifier")
                memo[key] = LProp(n.pred.prop_name(binding))
            else:
                memo[key] = LProp(n.pred.prop_name(n.term.name.lower()))
        elif isinstance(n, QForAll):
            memo[key] = conj([memo[(id(n.body), c)] for c in gctx.constants])
        elif isinstance(n, QAnd):
            memo[key] = LAnd(memo[(id(n.left), binding)], memo[(id(n.right), binding)])
        elif isinstance(n, QAlwF):
            memo[key] = LNot(LSomeF(LNot(memo[(id(n.arg), binding)])))
        elif isinstance(n, QAlwP):
            memo[key] = LNot(LSomeP(LNot(memo[(id(n.arg), binding)])))
        else:
            memo[key] = _QUNARY[type(n)](memo[(id(n.arg), binding)])
    return memo[(id(qtl), None)]


def grounding(trace) -> Ltl:
    """The grounding of a pipeline trace's KB over all its constants, by
    the reference walk `ground`."""
    return ground(trace.qtl, GroundingContext(trace.grounding.constants))


def grounded_sizes(trace) -> tuple[int, ...]:
    """The sizes that the trace's `ltlp` stage and, over ℤ, its `ltl`
    stage record, counted on the whole grounding: its node and
    proposition counts, and those of its past elimination from the
    grounding's own table."""
    g = grounding(trace)
    if trace.flow == "n":
        return tree_size(g), count_props(g)
    table = build_table(g)
    return tree_size(g), count_props(g), table.output_size(), table.output_props()


def recorded_sizes(trace) -> tuple[int, ...]:
    """The sizes that the trace records, in the order of `grounded_sizes`."""
    names = ("ltlp",) if trace.flow == "n" else ("ltlp", "ltl")
    return tuple(x for name in names for x in (trace.stage(name).nodes, trace.stage(name).props))


def has_past(f: Ltl) -> bool:
    """Whether f has a past operator (Y or P) anywhere."""
    return any(isinstance(n, (LNextP, LSomeP)) for n in iter_nodes(f))


def tuple_keyed_intern(f: Ltl, uid_of: dict[int, int], key_to_uid: dict[tuple, int]) -> int:
    """`ltl._intern` by a walk that pushes `(node, done)` pairs and keys
    a node by a tuple that starts with its class name: `("p", name)` for
    a proposition, `("f",)` for falsum (`named_key`).  Same uids, keys
    in the same order."""
    stack: list[tuple[Ltl, bool]] = [(f, False)]
    while stack:
        n, done = stack.pop()
        if id(n) in uid_of:
            continue
        kids = _children(n)
        if not done and kids:
            stack.append((n, True))
            stack.extend((k, False) for k in kids)
            continue
        if isinstance(n, LProp):
            key = ("p", n.name)
        elif isinstance(n, LFalse):
            key = ("f",)
        else:
            key = (type(n).__name__,) + tuple(uid_of[id(k)] for k in kids)
        uid = key_to_uid.get(key)
        if uid is None:
            uid = len(key_to_uid)
            key_to_uid[key] = uid
        uid_of[id(n)] = uid
    return uid_of[id(f)]


def named_key(key: tuple) -> tuple:
    """A structural key of `ltl.structural_index` in the form that
    `tuple_keyed_intern` gives it."""
    if key[0] is LProp:
        return ("p", key[1])
    if key[0] is LFalse:
        return ("f",)
    return (key[0].__name__, *key[1:])


def rebuilt_simplify(f: Ltl) -> Ltl:
    """`ltl.simplify` by a walk that builds every node anew, with a fresh
    hash-cons index per call, that keys each conjunct's negation as a new
    node, and that decides the constancy rule by `struct_eq` and
    simplifies a rebuilt box by a call of its own (`rebuilt_box`)."""
    memo: dict[int, Ltl] = {}
    index: tuple[dict, dict] = ({}, {})
    held: list[Ltl] = []

    def is_true(n: Ltl) -> bool:
        return isinstance(n, LNot) and isinstance(n.arg, LFalse)

    stack: list[tuple[Ltl, bool]] = [(f, False)]
    while stack:
        n, done = stack.pop()
        if id(n) in memo:
            continue
        if not done:
            stack.append((n, True))
            if isinstance(n, LAnd):
                stack.extend((c, False) for c in _spine_conjuncts(n))
            elif isinstance(n, (LNot, LNextF, LNextP, LSomeF, LSomeP)):
                stack.append((n.arg, False))
            continue
        if isinstance(n, LAnd):
            parts: list[Ltl] = []
            uids: set[int] = set()
            bottom = False
            for c in _spine_conjuncts(n):
                sc = memo[id(c)]
                if isinstance(sc, LFalse):
                    bottom = True
                    break
                if is_true(sc):
                    continue
                uid = tuple_keyed_intern(sc, *index)
                if uid in uids:
                    continue
                negated = sc.arg if isinstance(sc, LNot) else LNot(sc)
                held.append(negated)  # keyed by id() in the index
                if tuple_keyed_intern(negated, *index) in uids:
                    bottom = True
                    break
                uids.add(uid)
                parts.append(sc)
            memo[id(n)] = FALSE if bottom else conj(_merge_siblings(parts))
        elif isinstance(n, LNot):
            a = memo[id(n.arg)]
            memo[id(n)] = a.arg if isinstance(a, LNot) else LNot(a)
        elif isinstance(n, (LSomeF, LSomeP)):
            a = memo[id(n.arg)]
            if isinstance(a, (LFalse, type(n))) or is_true(a):
                memo[id(n)] = a
            else:
                memo[id(n)] = rebuilt_box(type(n), a)
        elif isinstance(n, (LNextF, LNextP)):
            a = memo[id(n.arg)]
            memo[id(n)] = a if is_true(a) else type(n)(a)
        else:
            memo[id(n)] = n
    return memo[id(f)]


def rebuilt_box(t: type, a: Ltl) -> Ltl:
    """The constancy rule of `ltl.simplify` at ◇a (t is LSomeF) or ◇P a
    (t is LSomeP), with a simplified: the box body `_negated(x)`, x being
    a, or for ◇P◇Fx two-sidedly x, with its constancy conjuncts in
    one-step form, rebuilt and simplified; `t(a)` when none is found."""
    if t is LSomeF:
        x, two_sided = a, False
    elif isinstance(a, LSomeF):
        x, two_sided = a.arg, True
    else:
        return t(a)
    parts = _spine_conjuncts(_negated(x))
    rewritten = [constancy_conjunct(c, two_sided) for c in parts]
    if all(r is c for r, c in zip(rewritten, parts)):
        return t(a)
    box = LSomeF(LNot(conj(rewritten)))
    return rebuilt_simplify(box if t is LSomeF else LSomeP(box))


def constancy_conjunct(c: Ltl, two_sided: bool) -> Ltl:
    """`ltl._constancy_conjunct` with its complement test made by
    `struct_eq`: ¬(◇Fa ∧ ◇F¬a), and two-sidedly ¬(a ∧ ◇P◇F¬a), becomes
    a ↔ ○Fa."""
    if not isinstance(c, LNot) or not isinstance(c.arg, LAnd):
        return c
    a, b = c.arg.left, c.arg.right
    if isinstance(a, LSomeF) and isinstance(b, LSomeF):
        if struct_eq(_negated(a.arg), b.arg) or struct_eq(a.arg, _negated(b.arg)):
            return iff(a.arg, LNextF(a.arg))
    if (
        two_sided
        and isinstance(b, LSomeP)
        and isinstance(b.arg, LSomeF)
        and struct_eq(_negated(a), b.arg.arg)
    ):
        return iff(a, LNextF(a))
    return c


def struct_eq(a: Ltl, b: Ltl) -> bool:
    """Structural equality, safe on deep formulas."""
    return structural_index(a) == structural_index(b)


def rebuilt_optimize(f: Ltl, limit: int = 100) -> Ltl:
    """`ltl.optimize` as rounds of `rebuilt_simplify`, each rebuilding
    the whole formula, nothing carried from round to round, until a round
    whose result is structurally its input.  Each round finishes merges
    one nesting level further down; a formula still changing after
    `limit` rounds fails the assertion."""
    for _ in range(limit):
        g = rebuilt_simplify(f)
        if struct_eq(g, f):
            return f
        f = g
    raise AssertionError(f"rebuilt_simplify still changes the formula after {limit} rounds")


def chained_print_formula(f: Ltl, tokens: dict) -> tuple[str, set[str]]:
    """`ltl.print_formula` by a walk that tests each node down an
    `isinstance` chain and puts a whole operator group on the stack."""
    prefix = {op: f"({tok} " for op, tok in tokens.items() if isinstance(op, type)}
    false, true = tokens["false"], tokens["true"]
    parts: list[str] = []
    props: set[str] = set()
    stack: list[object] = [f]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            parts.append(n)
        elif isinstance(n, LFalse):
            parts.append(false)
        elif isinstance(n, LProp):
            parts.append(n.name)
            props.add(n.name)
        elif isinstance(n, LNot) and isinstance(n.arg, LFalse):
            parts.append(true)
        elif isinstance(n, LAnd):
            group: list[object] = ["("]
            for i, op in enumerate(_spine_conjuncts(n)):
                if i:
                    group.append(" & ")
                group.append(op)
            group.append(")")
            stack.extend(reversed(group))
        elif type(n) in prefix:
            stack.extend([")", n.arg, prefix[type(n)]])
        else:
            raise PastOperatorPresent(
                f"{type(n).__name__} in a formula for a past-free format"
            )
    return "".join(parts), props


def _bar_all(table: SubformulaTable) -> tuple[list[Ltl], list[Ltl]]:
    """The flattening of every subformula to a temporal-operator-free
    formula over the paired alphabet, on the positive and on the negative
    half of the timeline, by uid."""
    pos: list[Ltl] = []
    neg: list[Ltl] = []
    for uid, key in enumerate(table.keys):
        t = key[0]
        if t is LProp:
            p, m = pair_names(key[1])
            pos.append(LProp(p))
            neg.append(LProp(m))
        elif t is LFalse:
            pos.append(FALSE)
            neg.append(FALSE)
        elif t is LNot:
            pos.append(LNot(pos[key[1]]))
            neg.append(LNot(neg[key[1]]))
        elif t is LAnd:
            pos.append(LAnd(pos[key[1]], pos[key[2]]))
            neg.append(LAnd(neg[key[1]], neg[key[2]]))
        else:
            p, m = pair_names(surrogate_name(uid))
            pos.append(LProp(p))
            neg.append(LProp(m))
    return pos, neg


@gc_paused()
def depast_with_table(f: Ltl) -> tuple[Ltl, SubformulaTable]:
    """The past-free translation of f built as `Ltl` nodes, and f's table."""
    table = build_table(f)
    pos, neg = _bar_all(table)

    parts: list[Ltl] = [pos[-1]]

    sync: list[Ltl] = []
    for name in sorted(table.props):
        p, m = pair_names(name)
        sync.append(iff(LProp(p), LProp(m)))
    for uid in table.surrogates:
        p, m = pair_names(surrogate_name(uid))
        sync.append(iff(LProp(p), LProp(m)))
    if sync:
        parts.append(conj(sync))

    steps: list[Ltl] = []
    for uid in table.surrogates:
        t, k = table.keys[uid]
        self_pos, self_neg = pos[uid], neg[uid]
        arg_pos, arg_neg = pos[k], neg[k]
        if t is LNextF:
            steps.append(iff(LNextF(self_neg), arg_neg))
            steps.append(iff(self_pos, LNextF(arg_pos)))
        elif t is LNextP:
            steps.append(iff(LNextF(self_pos), arg_pos))
            steps.append(iff(self_neg, LNextF(arg_neg)))
        elif t is LSomeF:
            steps.append(iff(LNextF(self_neg), lor(self_neg, LNextF(arg_neg))))
            steps.append(iff(self_pos, LSomeF(arg_pos)))
        else:  # LSomeP
            steps.append(iff(LNextF(self_pos), lor(self_pos, LNextF(arg_pos))))
            steps.append(iff(self_neg, LSomeF(arg_neg)))
    if steps:
        parts.append(alw_f(conj(steps)))

    return conj(parts), table


def depast(f: Ltl) -> Ltl:
    """Equisatisfiable past-free translation of an LTL formula over ℤ."""
    out, _ = depast_with_table(f)
    return out


def renamed(f: Ltl, names: dict[str, str]) -> Ltl:
    """f with each proposition in `names` renamed, every node rebuilt."""
    memo: dict[int, Ltl] = {}
    stack = [(f, False)]
    while stack:
        n, done = stack.pop()
        if id(n) in memo:
            continue
        t = type(n)
        if t is LProp:
            memo[id(n)] = LProp(names.get(n.name, n.name))
        elif t is LFalse:
            memo[id(n)] = n
        elif not done:
            stack.append((n, True))
            stack.extend((c, False) for c in ((n.left, n.right) if t is LAnd else (n.arg,)))
        elif t is LAnd:
            memo[id(n)] = LAnd(memo[id(n.left)], memo[id(n.right)])
        else:
            memo[id(n)] = t(memo[id(n.arg)])
    return memo[id(f)]


def forty_round_variable_order(keys: list[tuple]) -> list[int]:
    """`oracle._Engine._variable_order` of a formula with structural keys
    `keys`, relaxed for all 40 FORCE rounds, with no stop at a fixpoint."""
    order: list[int] = []
    visited: set[int] = set()
    walk: list[int] = [len(keys) - 1]
    while walk:
        uid = walk.pop()
        if uid in visited:
            continue
        visited.add(uid)
        key = keys[uid]
        if key[0] in oracle._ELEM_KINDS:
            order.append(uid)
        if key[0] is not LProp:
            walk.extend(key[:0:-1])

    cap = 12
    supp: list[frozenset[int] | None] = []
    for uid, key in enumerate(keys):
        t = key[0]
        if t in oracle._ELEM_KINDS:
            supp.append(frozenset((uid,)))
        elif t is LFalse:
            supp.append(frozenset())
        elif t is LNot:
            supp.append(supp[key[1]])
        else:  # LAnd
            sl, sr = supp[key[1]], supp[key[2]]
            u = None if sl is None or sr is None else sl | sr
            supp.append(None if u is not None and len(u) > cap else u)

    edges: set[frozenset[int]] = set()
    for uid, key in enumerate(keys):
        t = key[0]
        if t is LAnd:
            s = supp[uid]
            if s is not None and len(s) >= 2:
                edges.add(s)
        elif t in oracle._ELEM_KINDS and t is not LProp:
            s = supp[key[1]]
            if s is not None and s and len(s) <= cap:
                edges.add(frozenset((uid,)) | s)
    if not edges:
        return order
    pos = {uid: float(i) for i, uid in enumerate(order)}
    by_var: dict[int, list[frozenset[int]]] = {uid: [] for uid in order}
    for e in edges:
        for v in e:
            by_var[v].append(e)
    for _ in range(40):
        center = {e: sum(pos[v] for v in e) / len(e) for e in edges}
        new_pos = {
            uid: (sum(center[e] for e in es) / len(es) if es else pos[uid])
            for uid, es in by_var.items()
        }
        order = sorted(order, key=lambda u: (new_pos[u], pos[u]))
        pos = {uid: float(i) for i, uid in enumerate(order)}
    return order
