"""Reference semantics for the translated formulas.

Three tools live here: a direct evaluator of formulas on ultimately
periodic words (one-sided lassos over ℕ, two-sided bi-lassos over ℤ), a
complete symbolic satisfiability checker for past-free LTL over ℕ with
lasso extraction, and a complete checker for LTL with past over ℤ with
bi-lasso extraction.

Both complete checkers build the usual tableau over elementary
subformulas (propositions and next/eventually-subformulas of either
direction) but represent state sets and the transition constraints as
BDDs.  Over ℕ acceptance is an Emerson-Lei style fair-cycle fixpoint; over
ℤ the anchor state additionally has to be reachable *from* a
backward-fair cycle, where past eventualities play the role future ones
play forward.  A direction without eventualities has the single fairness
constraint "true", so every fair cycle is then just a cycle and one
fixpoint loop serves both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bdd import Bdd
from .ltl import (
    LAnd,
    LFalse,
    LNot,
    LNextF,
    LNextP,
    LProp,
    LSomeF,
    LSomeP,
    Ltl,
    has_past,
    iter_nodes,
    structural_index,
)

Valuation = frozenset[str]


class FormulaTooLarge(ValueError):
    pass


class WitnessCheckFailed(RuntimeError):
    """A checker's satisfying word is not a model of its formula.

    A raise, not an `assert`, so the re-check also runs under `python -O`.
    """


@dataclass(frozen=True, slots=True)
class LassoWord:
    """An ultimately periodic word over ℕ: prefix then loop forever."""

    prefix: tuple[Valuation, ...]
    loop: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("loop must be non-empty")

    def valuation(self, n: int) -> Valuation:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.loop[(n - len(self.prefix)) % len(self.loop)]

    def value(self, name: str, n: int) -> bool:
        return name in self.valuation(n)


@dataclass(frozen=True, slots=True)
class BiLassoWord:
    """An ultimately periodic bi-infinite word over ℤ.

    left_prefix lists the valuations at −1, −2, … outward; left_loop
    repeats toward −∞; right_prefix lists 1, 2, …; right_loop repeats
    toward +∞; anchor is the valuation at 0.
    """

    left_loop: tuple[Valuation, ...]
    left_prefix: tuple[Valuation, ...]
    anchor: Valuation
    right_prefix: tuple[Valuation, ...]
    right_loop: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        if not self.left_loop or not self.right_loop:
            raise ValueError("loops must be non-empty")

    def valuation(self, n: int) -> Valuation:
        if n == 0:
            return self.anchor
        if n > 0:
            i = n - 1
            if i < len(self.right_prefix):
                return self.right_prefix[i]
            return self.right_loop[(i - len(self.right_prefix)) % len(self.right_loop)]
        i = -n - 1
        if i < len(self.left_prefix):
            return self.left_prefix[i]
        return self.left_loop[(i - len(self.left_prefix)) % len(self.left_loop)]

    def value(self, name: str, n: int) -> bool:
        return name in self.valuation(n)


def eval_on_lasso(f: Ltl, word, position: int = 0) -> bool:
    """Exact truth value of f at the given position of an ultimately
    periodic word.

    Diamonds are decided by inspecting a finite window: a subformula's
    truth sequence is periodic past the prefix, except that every past
    operator under a future diamond (and vice versa on the negative
    half) can delay stabilization by up to one loop length, so the
    window grows by one period per opposite-direction operator.
    """
    one_sided = isinstance(word, LassoWord)
    n_past_ops = sum(1 for x in iter_nodes(f) if isinstance(x, (LNextP, LSomeP)))
    n_future_ops = sum(1 for x in iter_nodes(f) if isinstance(x, (LNextF, LSomeF)))
    if one_sided:
        lp = len(word.loop)
        fut_horizon = len(word.prefix) + lp * (n_past_ops + 1)
    else:
        rl = len(word.right_loop)
        ll = len(word.left_loop)
        fut_horizon = len(word.right_prefix) + rl * (n_past_ops + 1)
        past_horizon = -(len(word.left_prefix) + ll * (n_future_ops + 1))

    def future_bound(n: int) -> int:
        if one_sided:
            return max(n, fut_horizon) + lp - 1
        return max(n, fut_horizon) + rl - 1

    def past_bound(n: int) -> int:
        if one_sided:
            return 0
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
            memo[key] = word.value(n.name, pos) if (one_sided and pos >= 0) or not one_sided else False
            continue
        if isinstance(n, LNextP) and one_sided and pos == 0:
            memo[key] = False  # no predecessor of time 0 over ℕ
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


# --- complete checkers -------------------------------------------------------

def _checked(f: Ltl, word, source: str):
    if not eval_on_lasso(f, word, 0):
        raise WitnessCheckFailed(f"{source} failed re-evaluation")
    return word


DEFAULT_SUBFORMULA_BOUND = 24

_ELEM_KINDS = (LProp, LNextF, LNextP, LSomeF, LSomeP)


class _Engine:
    """Tableau-with-BDDs machinery shared by the sat checks and the
    witness extraction.

    States valuate the elementary subformulas; the transition relation is
    the conjunction of one local constraint per elementary temporal
    subformula.  Past operators get the mirror-image constraints of their
    future counterparts, with their own (backward) fairness requirements.
    """

    def __init__(self, f: Ltl, bound: int):
        uid_of, reps = structural_index(f)
        if len(reps) > bound:
            raise FormulaTooLarge(
                f"{len(reps)} distinct subformulas exceeds the bound {bound}"
            )
        self.uid_of, self.reps = uid_of, reps
        self.b = Bdd()
        b = self.b

        elem = self._variable_order(f)
        self.elem = elem
        self.slot = {uid: i for i, uid in enumerate(elem)}
        self.unprimed = frozenset(2 * i for i in range(len(elem)))
        self.primed = frozenset(2 * i + 1 for i in range(len(elem)))
        self.to_primed = {2 * i: 2 * i + 1 for i in range(len(elem))}
        self.to_unprimed = {2 * i + 1: 2 * i for i in range(len(elem))}

        # val[uid]: the state predicate of each subformula over unprimed vars
        val: list[int] = []
        for uid, rep in enumerate(reps):
            if uid in self.slot:
                val.append(b.var(2 * self.slot[uid]))
            elif isinstance(rep, LFalse):
                val.append(0)
            elif isinstance(rep, LNot):
                val.append(b.not_(val[uid_of[id(rep.arg)]]))
            elif isinstance(rep, LAnd):
                val.append(b.and_(val[uid_of[id(rep.left)]], val[uid_of[id(rep.right)]]))
            else:
                raise AssertionError("temporal subformula missed the variable order")
        self.val = val

        self.trans_parts: list[int] = []
        self.fairness_f: list[int] = []
        self.fairness_b: list[int] = []
        state_ok = 1
        for uid in elem:
            rep = reps[uid]
            x = b.var(2 * self.slot[uid])
            x_next = b.rename(x, self.to_primed)
            if isinstance(rep, LProp):
                continue
            arg_now = val[uid_of[id(rep.arg)]]
            arg_next = b.rename(arg_now, self.to_primed)
            if isinstance(rep, LNextF):
                self.trans_parts.append(b.iff_(x, arg_next))
            elif isinstance(rep, LNextP):
                self.trans_parts.append(b.iff_(x_next, arg_now))
            elif isinstance(rep, LSomeF):
                self.trans_parts.append(b.iff_(x, b.or_(arg_now, x_next)))
                state_ok = b.and_(state_ok, b.implies(arg_now, x))
                self.fairness_f.append(b.or_(b.not_(x), arg_now))
            else:  # LSomeP
                self.trans_parts.append(b.iff_(x_next, b.or_(arg_next, x)))
                state_ok = b.and_(state_ok, b.implies(arg_now, x))
                self.fairness_b.append(b.or_(b.not_(x), arg_now))
        # a direction without eventualities has the one constraint "true"
        self.fairness_f = self.fairness_f or [1]
        self.fairness_b = self.fairness_b or [1]
        self.state_ok = state_ok
        self.trans = b.conj(sorted(self.trans_parts, key=b.size))
        self.init = b.and_(val[uid_of[id(f)]], state_ok)

    def _variable_order(self, f: Ltl) -> list[int]:
        """State-variable order for the BDDs.

        The order decides everything here: a two-variable constraint whose
        endpoints are far apart doubles the relation BDD, so crossings are
        fatal.  Variables start in first-occurrence pre-order and are then
        relaxed toward the centers of gravity of the small-support
        subformulas they appear in (the FORCE heuristic), which pulls
        tightly coupled variables — e.g. the paired plus/minus copies tied
        by time-zero biconditionals — next to each other.
        """
        uid_of, reps = self.uid_of, self.reps
        elem_kinds = _ELEM_KINDS

        order: list[int] = []
        placed: set[int] = set()
        walk: list[Ltl] = [f]
        while walk:
            node = walk.pop()
            uid = uid_of[id(node)]
            if isinstance(reps[uid], elem_kinds) and uid not in placed:
                placed.add(uid)
                order.append(uid)
            if isinstance(node, LAnd):
                walk.append(node.right)
                walk.append(node.left)
            elif isinstance(node, (LNot, LNextF, LNextP, LSomeF, LSomeP)):
                walk.append(node.arg)

        cap = 12
        supp: list[frozenset[int] | None] = []
        for uid, rep in enumerate(reps):
            if isinstance(rep, elem_kinds):
                supp.append(frozenset((uid,)))
            elif isinstance(rep, LFalse):
                supp.append(frozenset())
            elif isinstance(rep, LNot):
                supp.append(supp[uid_of[id(rep.arg)]])
            elif isinstance(rep, LAnd):
                sl = supp[uid_of[id(rep.left)]]
                sr = supp[uid_of[id(rep.right)]]
                u = None if sl is None or sr is None else sl | sr
                supp.append(None if u is not None and len(u) > cap else u)
            else:
                supp.append(None)

        edges: set[frozenset[int]] = set()
        for uid, rep in enumerate(reps):
            if isinstance(rep, (LNextF, LNextP, LSomeF, LSomeP)):
                s = supp[uid_of[id(rep.arg)]]
                if s is not None and s and len(s) <= cap:
                    edges.add(frozenset((uid,)) | s)
            elif isinstance(rep, LAnd):
                s = supp[uid]
                if s is not None and len(s) >= 2:
                    edges.add(s)
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

    def image(self, s: int) -> int:
        out = self.b.and_exist(self.trans, s, self.unprimed)
        return self.b.rename(out, self.to_unprimed)

    def preimage(self, s: int) -> int:
        s_primed = self.b.rename(s, self.to_primed)
        return self.b.and_exist(self.trans, s_primed, self.primed)

    def ex(self, s: int, forward: bool = True) -> int:
        """States with a successor in s (forward) or a predecessor in s."""
        return self.preimage(s) if forward else self.image(s)

    def eu(self, region: int, target: int, forward: bool = True) -> int:
        """States with a path inside region to target — following the
        transition relation forward, or against it."""
        b = self.b
        y = b.and_(region, target)
        while True:
            yn = b.or_(y, b.and_(region, self.ex(y, forward)))
            if yn == y:
                return y
            y = yn

    def reach(self, forward: bool = True) -> int:
        """States reachable from the initial set going with the transition
        relation (forward) or against it (predecessors of the anchor)."""
        b = self.b
        r = self.init
        frontier = r
        while frontier != 0:
            step = self.image(frontier) if forward else self.preimage(frontier)
            frontier = b.and_(b.and_(self.state_ok, step), b.not_(r))
            r = b.or_(r, frontier)
        return r

    def fair_states(self, forward: bool = True, region: int | None = None) -> int:
        """The Emerson-Lei fixpoint: states on a cycle visiting every
        fairness constraint of the given direction, within the region
        (all locally consistent states when none is given)."""
        b = self.b
        fairness = self.fairness_f if forward else self.fairness_b
        z = self.state_ok if region is None else region
        while True:
            z_old = z
            for fj in fairness:
                z = b.and_(z, self.ex(self.eu(z, fj, forward), forward))
                if z == 0:
                    return 0
            if z == z_old:
                return z

    # --- witness extraction ---

    def _complete(self, partial: dict[int, bool]) -> dict[int, bool]:
        out = {lvl: False for lvl in self.unprimed}
        out.update({lvl: v for lvl, v in partial.items() if lvl in out})
        return out

    def _state_cube(self, state: dict[int, bool]) -> int:
        return self.b.cube(state)

    def _state_key(self, state: dict[int, bool]) -> tuple:
        return tuple(state[lvl] for lvl in sorted(state))

    def _pick(self, s: int) -> dict[int, bool]:
        return self._complete(self.b.sat_one(s))

    def _navigate(
        self,
        start: dict[int, bool],
        target: int,
        region: int,
        forward: bool = True,
    ) -> list[dict[int, bool]]:
        """A shortest walk of at least one step from start to a target
        state within region; returns the visited states, start excluded.
        Forward walks follow transitions, backward walks go against them."""
        b = self.b

        def step(s: int) -> int:
            return self.image(s) if forward else self.preimage(s)

        def backstep(s: int) -> int:
            return self.preimage(s) if forward else self.image(s)

        seen = self._state_cube(start)
        layers = [b.and_(step(seen), region)]
        while b.and_(layers[-1], target) == 0:
            frontier = b.and_(step(layers[-1]), region)
            frontier = b.and_(frontier, b.not_(seen))
            if frontier == 0:
                raise AssertionError("navigation target unreachable")
            layers.append(frontier)
            seen = b.or_(seen, frontier)
        goal = self._pick(b.and_(layers[-1], target))
        path = [goal]
        for layer in reversed(layers[:-1]):
            prev = b.and_(layer, backstep(self._state_cube(path[0])))
            path.insert(0, self._pick(prev))
        return path

    def valuation_of(self, state: dict[int, bool]) -> Valuation:
        out = set()
        for uid in self.elem:
            rep = self.reps[uid]
            if isinstance(rep, LProp) and state[2 * self.slot[uid]]:
                out.add(rep.name)
        return frozenset(out)

    def run_to_fair(
        self,
        start: dict[int, bool],
        fair: int,
        forward: bool = True,
        region: int | None = None,
    ) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
        """A walk from start into the fair region followed by a fair loop.

        Returns (prefix, loop): prefix begins with start, consecutive
        states are one step apart in the walk direction, and the loop —
        which visits every fairness constraint of that direction — follows
        the last prefix state and closes on itself.
        """
        b = self.b
        if region is None:
            region = self.state_ok

        # to the fair region, steering by distance layers grown backwards
        layers = [fair]
        acc = fair
        while b.and_(self._state_cube(start), acc) == 0:
            nxt = b.or_(acc, b.and_(region, self.ex(acc, forward)))
            layers.append(nxt)
            acc = nxt
        depth = next(i for i, l in enumerate(layers) if b.and_(self._state_cube(start), l) != 0)
        prefix = [start]
        cur = start
        for d in range(depth, 0, -1):
            step = self.image(self._state_cube(cur)) if forward else self.preimage(self._state_cube(cur))
            cur = self._pick(b.and_(step, layers[d - 1]))
            prefix.append(cur)

        # cycle inside the fair region: schedule every fairness constraint,
        # always moving at least one step, until a (state, phase) pair
        # repeats; the segment between repeats is a genuine fair loop
        fairness = self.fairness_f if forward else self.fairness_b
        seq = [cur]
        phase = 0
        seen: dict[tuple, int] = {}
        while True:
            key = (self._state_key(seq[-1]), phase)
            if key in seen:
                loop_start = seen[key]
                break
            seen[key] = len(seq) - 1
            target = b.and_(fair, fairness[phase])
            seq.extend(self._navigate(seq[-1], target, fair, forward))
            phase = (phase + 1) % len(fairness)

        # seq[-1] equals seq[loop_start]; drop the duplicate closing state
        return prefix[:-1] + seq[:loop_start], seq[loop_start:-1]

    def extract(self, fair: int, region: int | None = None) -> LassoWord:
        b = self.b
        if region is None:
            region = self.state_ok
        reach_fair = self.eu(region, fair)
        start = self._pick(b.and_(self.init, reach_fair))
        prefix, loop = self.run_to_fair(start, fair, region=region)
        return LassoWord(
            tuple(self.valuation_of(s) for s in prefix),
            tuple(self.valuation_of(s) for s in loop),
        )

    def extract_bi(
        self,
        anchor_set: int,
        fair_f: int,
        fair_b: int,
        region_f: int | None = None,
        region_b: int | None = None,
    ) -> BiLassoWord:
        anchor = self._pick(anchor_set)
        right_prefix, right_loop = self.run_to_fair(anchor, fair_f, forward=True, region=region_f)
        left_prefix, left_loop = self.run_to_fair(anchor, fair_b, forward=False, region=region_b)

        def split(prefix, loop):
            # the walk may enter its loop immediately; rotate so the loop
            # starts one step after the anchor in that case
            if prefix:
                return prefix, loop
            return [loop[0]], loop[1:] + loop[:1]

        right_prefix, right_loop = split(right_prefix, right_loop)
        left_prefix, left_loop = split(left_prefix, left_loop)
        return BiLassoWord(
            left_loop=tuple(self.valuation_of(s) for s in left_loop),
            left_prefix=tuple(self.valuation_of(s) for s in left_prefix[1:]),
            anchor=self.valuation_of(anchor),
            right_prefix=tuple(self.valuation_of(s) for s in right_prefix[1:]),
            right_loop=tuple(self.valuation_of(s) for s in right_loop),
        )


def ltl_sat(
    f: Ltl, bound: int = DEFAULT_SUBFORMULA_BOUND, recheck: bool = True
) -> Optional[LassoWord]:
    """Complete satisfiability over ℕ for past-free formulas.

    Returns a satisfying lasso, or None for unsatisfiable.  The returned
    word is re-checked against the formula by direct evaluation
    (`WitnessCheckFailed` if it is not a model), unless `recheck` is off
    because the caller re-checks a word built from it.
    """
    if has_past(f):
        raise ValueError("the ℕ checker requires a past-free formula")
    eng = _Engine(f, bound)
    if eng.init == 0:
        return None
    # the fair-cycle fixpoint runs inside the reachable states: everything
    # a run from the initial set can touch, and usually far smaller than
    # the full consistent state space
    r = eng.reach()
    fair = eng.fair_states(region=r)
    if fair == 0:
        return None
    word = eng.extract(fair, region=r)
    return _checked(f, word, "extracted word") if recheck else word


def z_sat(
    f: Ltl, bound: int = DEFAULT_SUBFORMULA_BOUND, recheck: bool = True
) -> Optional[BiLassoWord]:
    """Complete satisfiability over ℤ for LTL with past.

    A formula holds at some integer iff a bi-infinite sequence of
    consistent tableau states runs through an anchor satisfying it,
    entered from a backward-fair cycle and leaving into a forward-fair
    one.  Returns a satisfying bi-lasso anchored at such a state, or None
    for unsatisfiable; the word is re-checked by direct evaluation unless
    `recheck` is off, as in `ltl_sat`.
    """
    eng = _Engine(f, bound)
    b = eng.b
    if eng.init == 0:
        return None
    # restrict each fair-cycle fixpoint to the half of the run it serves:
    # states reachable from an anchor forward, respectively states that
    # can reach an anchor (the run's past)
    r_f = eng.reach(forward=True)
    fair_f = eng.fair_states(forward=True, region=r_f)
    if fair_f == 0:
        return None
    r_b = eng.reach(forward=False)
    fair_b = eng.fair_states(forward=False, region=r_b)
    if fair_b == 0:
        return None
    good = b.and_(eng.init, eng.eu(r_f, fair_f, forward=True))
    good = b.and_(good, eng.eu(r_b, fair_b, forward=False))
    if good == 0:
        return None
    word = eng.extract_bi(good, fair_f, fair_b, region_f=r_f, region_b=r_b)
    return _checked(f, word, "extracted word") if recheck else word
