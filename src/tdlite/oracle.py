"""Reference semantics for the translated formulas.

Two tools live here: a direct evaluator of formulas on ultimately
periodic bi-infinite words (bi-lassos), and a complete symbolic
satisfiability checker with bi-lasso extraction.  The checker decides LTL
with past over ℤ, and past-free LTL over ℕ as well: a past-free formula
holds at 0 of an ℕ-word iff it holds at 0 of any ℤ-word with that right
half.

The checker builds the usual tableau over elementary subformulas
(propositions and next/eventually-subformulas of either direction) but
represents state sets and the transition constraints as BDDs.  Forward
acceptance is an Emerson-Lei style fair-cycle fixpoint; with a past
operator the anchor state additionally has to be reachable *from* a
backward-fair cycle, where past eventualities play the role future ones
play forward.  A direction without eventualities has the single fairness
constraint "true", so every fair cycle is then just a cycle and one
fixpoint loop serves both cases.  Facts (a proposition's truth value at
a given time, such as an ABox assertion) constrain the states of an
explicit chain of image steps from the anchor to the fact's time, not
X/Y-chains inside the formula: a fact at time t costs t image steps over
the tableau of the rest, where an X-chain costs t state variables (see
`z_sat` for why the chain is complete).  A witness is built the standard
symbolic way (Clarke, Grumberg, McMillan, Zhao, DAC 1995), from one kind
of walk: a shortest walk into the fair region, then shortest walks to
each fairness constraint in turn until a (state, constraint) pair
repeats and closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, Optional, Sequence

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
    structural_index,
)

Valuation = frozenset[str]


class WitnessCheckFailed(RuntimeError):
    """A checker's satisfying word is not a model of its formula.

    A raise, not an `assert`, so the re-check also runs under `python -O`.
    """


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


def eval_on_lasso(f: Ltl, word: BiLassoWord, position: int = 0,
                  keys: Optional[list[tuple]] = None) -> bool:
    """Exact truth value of f at the given position of an ultimately
    periodic bi-infinite word.  `keys` is f's `structural_index`, when the
    caller has it.

    One bottom-up pass over the distinct subformulas gives each one truth
    sequence over a single window (Markey, Schnoebelen, "Model checking a
    path", CONCUR 2003).  Each Y or P nested in a subformula can delay by
    up to one right-loop period the point from which its sequence repeats
    with the word's right loop; X and F never do.  So the window reaches
    prefix + (past-nesting depth + 1) right-loop periods, and its last
    period repeats forever in every sequence.  The left edge is set the
    same way by the future-nesting depth (X and F) and the left loop.
    Both edges also cover `position`.  ¬ and ∧ are pointwise, X and Y are
    shifts, and F and P are one suffix or prefix sweep, seeded by the loop
    period at the window's edge.
    """
    if keys is None:
        keys = structural_index(f)
    past_depth: list[int] = []
    future_depth: list[int] = []
    for t, *kids in keys:
        kids = () if t is LProp else kids
        past_depth.append(max((past_depth[k] for k in kids), default=0)
                          + (t is LNextP or t is LSomeP))
        future_depth.append(max((future_depth[k] for k in kids), default=0)
                            + (t is LNextF or t is LSomeF))
    rl, ll = len(word.right_loop), len(word.left_loop)
    hi = len(word.right_prefix) + rl * (past_depth[-1] + 1)
    lo = min(position, -(len(word.left_prefix) + ll * (future_depth[-1] + 1)))
    vals = [word.valuation(n) for n in range(lo, max(hi, position) + 1)]
    w = len(vals)
    seqs: list[list[bool]] = []
    for key in keys:
        t = key[0]
        if t is LFalse:
            s = [False] * w
        elif t is LProp:
            s = [key[1] in v for v in vals]
        elif t is LAnd:
            s = [x and y for x, y in zip(seqs[key[1]], seqs[key[2]])]
        else:
            a = seqs[key[1]]
            if t is LNot:
                s = [not x for x in a]
            elif t is LNextF:
                s = a[1:] + [a[w - rl]]
            elif t is LNextP:
                s = [a[ll - 1]] + a[:-1]
            elif t is LSomeF:
                s = list(accumulate(reversed(a), or_, initial=any(a[w - rl:])))[:0:-1]
            else:  # LSomeP
                s = list(accumulate(a, or_, initial=any(a[:ll])))[1:]
        seqs.append(s)
    return seqs[-1][position - lo]


# --- complete checkers -------------------------------------------------------

def checked(f: Ltl, word, source: str, keys: Optional[list[tuple]] = None):
    """`word` once direct evaluation confirms that it is a model of `f`
    (`WitnessCheckFailed` if not); None, for unsatisfiable, passes through.
    `keys` is as in `eval_on_lasso`."""
    if word is not None and not eval_on_lasso(f, word, 0, keys):
        raise WitnessCheckFailed(f"{source} failed re-evaluation")
    return word

_ELEM_KINDS = (LProp, LNextF, LNextP, LSomeF, LSomeP)


class _Engine:
    """Tableau-with-BDDs machinery shared by the sat check and the
    witness extraction.

    States valuate the elementary subformulas; the transition relation is
    the conjunction of one local constraint per elementary temporal
    subformula.  Past operators get the mirror-image constraints of their
    future counterparts, with their own (backward) fairness requirements.
    Level 2i holds elementary subformula i now and level 2i + 1 next.  A
    single state on a witness walk is the BDD of its full cube over the
    unprimed levels, so one node id is both the state and its key.
    """

    def __init__(self, f: Ltl, props: Iterable[str] = ()):
        # f's structural keys, which z_sat's witness re-check reads too;
        # propositions that f does not name still get a state variable,
        # placed last: nothing in f constrains them
        keys = self.keys = structural_index(f)
        extra = sorted(set(props) - {key[1] for key in keys if key[0] is LProp})
        table = keys + [(LProp, name) for name in extra]
        self.b = Bdd()
        b = self.b

        elem = self._variable_order() + list(range(len(keys), len(table)))
        slot = {uid: i for i, uid in enumerate(elem)}
        self.unprimed = frozenset(2 * i for i in range(len(elem)))
        self.primed = frozenset(2 * i + 1 for i in range(len(elem)))
        self.to_primed = {2 * i: 2 * i + 1 for i in range(len(elem))}
        self.to_unprimed = {2 * i + 1: 2 * i for i in range(len(elem))}

        # val[uid]: the state predicate of each subformula over unprimed vars
        val: list[int] = []
        for uid, key in enumerate(table):
            t = key[0]
            if uid in slot:
                val.append(b.var(2 * slot[uid]))
            elif t is LFalse:
                val.append(0)
            elif t is LNot:
                val.append(b.not_(val[key[1]]))
            elif t is LAnd:
                val.append(b.and_(val[key[1]], val[key[2]]))
            else:
                raise AssertionError("temporal subformula missed the variable order")
        # the level of each proposition's state variable, in variable order
        self.prop_level = {key[1]: 2 * i for i, uid in enumerate(elem)
                           if (key := table[uid])[0] is LProp}

        trans_parts: list[int] = []
        self.fairness_f: list[int] = []
        self.fairness_b: list[int] = []
        state_ok = 1
        for i, uid in enumerate(elem):
            t = table[uid][0]
            x = b.var(2 * i)
            x_next = b.var(2 * i + 1)
            if t is LProp:
                continue
            arg_now = val[table[uid][1]]
            arg_next = b.rename(arg_now, self.to_primed)
            if t is LNextF:
                trans_parts.append(b.iff_(x, arg_next))
            elif t is LNextP:
                trans_parts.append(b.iff_(x_next, arg_now))
            elif t is LSomeF:
                trans_parts.append(b.iff_(x, b.or_(arg_now, x_next)))
                state_ok = b.and_(state_ok, b.implies(arg_now, x))
                self.fairness_f.append(b.or_(b.not_(x), arg_now))
            else:  # LSomeP
                trans_parts.append(b.iff_(x_next, b.or_(arg_next, x)))
                state_ok = b.and_(state_ok, b.implies(arg_now, x))
                self.fairness_b.append(b.or_(b.not_(x), arg_now))
        # a direction without eventualities has the one constraint "true"
        self.fairness_f = self.fairness_f or [1]
        self.fairness_b = self.fairness_b or [1]
        self.state_ok = state_ok
        self.trans = b.conj(sorted(trans_parts, key=b.size))
        self.init = b.and_(val[len(keys) - 1], state_ok)
        self._steps: dict[tuple[int, bool], int] = {}

    def _variable_order(self) -> list[int]:
        """State-variable order for the BDDs.

        The order decides everything here: a two-variable constraint whose
        endpoints are far apart doubles the relation BDD, so crossings are
        fatal.  Variables start in first-occurrence pre-order and are then
        relaxed toward the centers of gravity of the small-support
        subformulas they appear in (the FORCE heuristic), which pulls
        tightly coupled variables — e.g. the paired plus/minus copies tied
        by time-zero biconditionals — next to each other.  The pre-order
        walk visits each distinct subformula once: a repeated one adds no
        new variable, since its first visit placed all of its own.

        A FORCE round computes the next order from the current one alone,
        so once a round leaves the order unchanged every later round
        would too, and the relaxation stops there; orders that never
        settle stop after 40 rounds.
        """
        keys = self.keys

        order: list[int] = []
        visited: set[int] = set()
        walk: list[int] = [len(keys) - 1]
        while walk:
            uid = walk.pop()
            if uid in visited:
                continue
            visited.add(uid)
            key = keys[uid]
            if key[0] in _ELEM_KINDS:
                order.append(uid)
            if key[0] is not LProp:
                walk.extend(key[:0:-1])  # the children, the left one on top

        cap = 12
        supp: list[frozenset[int] | None] = []
        for uid, key in enumerate(keys):
            t = key[0]
            if t in _ELEM_KINDS:
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
            elif t in _ELEM_KINDS and t is not LProp:
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
            new_order = sorted(order, key=lambda u: (new_pos[u], pos[u]))
            if new_order == order:
                break
            order = new_order
            pos = {uid: float(i) for i, uid in enumerate(order)}
        return order

    def image(self, s: int) -> int:
        out = self.b.and_exist(self.trans, s, self.unprimed)
        return self.b.rename(out, self.to_unprimed)

    def preimage(self, s: int) -> int:
        s_primed = self.b.rename(s, self.to_primed)
        return self.b.and_exist(self.trans, s_primed, self.primed)

    def _step(self, s: int, forward: bool) -> int:
        """The states one step from s in the walk direction: successors
        forward, predecessors backward."""
        key = (s, forward)
        out = self._steps.get(key)
        if out is None:
            out = self._steps[key] = self.image(s) if forward else self.preimage(s)
        return out

    def ex(self, s: int, forward: bool) -> int:
        """States with a successor in s (forward) or a predecessor in s."""
        return self._step(s, not forward)

    def eu(self, region: int, target: int, forward: bool) -> int:
        """States with a path inside region to target — following the
        transition relation forward, or against it."""
        b = self.b
        y = b.and_(region, target)
        while True:
            yn = b.or_(y, b.and_(region, self.ex(y, forward)))
            if yn == y:
                return y
            y = yn

    def reach(self, forward: bool) -> int:
        """States reachable from the initial set going with the transition
        relation (forward) or against it (predecessors of the anchor)."""
        b = self.b
        r = self.init
        frontier = r
        while frontier != 0:
            frontier = b.and_(b.and_(self.state_ok, self._step(frontier, forward)), b.not_(r))
            r = b.or_(r, frontier)
        return r

    def fair_states(self, forward: bool, region: int) -> int:
        """The Emerson-Lei fixpoint: states on a cycle visiting every
        fairness constraint of the given direction, within the region."""
        b = self.b
        fairness = self.fairness_f if forward else self.fairness_b
        z = region
        while True:
            z_old = z
            for fj in fairness:
                z = b.and_(z, self.ex(self.eu(z, fj, forward), forward))
                if z == 0:
                    return 0
            if z == z_old:
                return z

    def chain(self, end: int, region: int, lits: Sequence[int], forward: bool) -> list[int]:
        """Layers C[0..n] of a chain of n = len(lits) - 1 steps in the walk
        direction: C[n] = lits[n] ∧ end, and C[k] = lits[k] ∧ region ∧ the
        states one step before C[k + 1].  A state is in C[0] iff a walk
        inside region starts there, meets lits[k] after k steps and ends
        in end after n."""
        b = self.b
        layers = [b.and_(lits[-1], end)]
        for lit in reversed(lits[:-1]):
            layers.append(b.and_(b.and_(lit, region), self.ex(layers[-1], forward)))
        return layers[::-1]

    # --- witness extraction ---

    def _pick(self, s: int) -> int:
        """One state of the set s; levels off the chosen path are false."""
        partial = self.b.sat_one(s)
        return self.b.cube({lvl: partial.get(lvl, False) for lvl in self.unprimed})

    def _navigate(self, start: int, target: int, region: int, forward: bool) -> list[int]:
        """A shortest walk of at least one step from start to a target
        state within region; returns the visited states, start excluded.
        Forward walks follow transitions, backward walks go against them."""
        b = self.b
        seen = start
        layers = [b.and_(self._step(start, forward), region)]
        while b.and_(layers[-1], target) == 0:
            frontier = b.and_(self._step(layers[-1], forward), region)
            frontier = b.and_(frontier, b.not_(seen))
            if frontier == 0:
                raise AssertionError("navigation target unreachable")
            layers.append(frontier)
            seen = b.or_(seen, frontier)
        path = [self._pick(b.and_(layers[-1], target))]
        for layer in reversed(layers[:-1]):
            path.insert(0, self._pick(b.and_(layer, self._step(path[0], not forward))))
        return path

    def valuation_of(self, state: int) -> Valuation:
        bits = self.b.sat_one(state)
        return frozenset(name for name, level in self.prop_level.items() if bits[level])

    def run_to_fair(self, start: int, fair: int, forward: bool,
                    region: int) -> tuple[list[int], list[int]]:
        """A walk from start into the fair region followed by a fair loop
        (Clarke, Grumberg, McMillan, Zhao, DAC 1995).

        Returns (prefix, loop): prefix + loop begins with start (the
        prefix is empty when start lies on the loop), consecutive states
        are one step apart in the walk direction, and the loop —
        which visits every fairness constraint of that direction — follows
        the last prefix state and closes on itself.
        """
        b = self.b
        prefix = [start]
        if b.and_(start, fair) == 0:
            prefix += self._navigate(start, fair, region, forward)

        # cycle inside the fair region: schedule every fairness constraint,
        # always moving at least one step, until a (state, phase) pair
        # repeats; the segment between repeats is a genuine fair loop
        fairness = self.fairness_f if forward else self.fairness_b
        seq = [prefix[-1]]
        phase = 0
        seen: dict[tuple[int, int], int] = {}
        while (seq[-1], phase) not in seen:
            seen[seq[-1], phase] = len(seq) - 1
            seq.extend(self._navigate(seq[-1], b.and_(fair, fairness[phase]), fair, forward))
            phase = (phase + 1) % len(fairness)
        loop_start = seen[seq[-1], phase]

        # seq[-1] equals seq[loop_start]; drop the duplicate closing state
        return prefix[:-1] + seq[:loop_start], seq[loop_start:-1]

    def extract_bi(self, anchor_set: int, right: tuple[list[int], int, int],
                   left: tuple[list[int], int, int] | None) -> BiLassoWord:
        """A bi-lasso through an anchor picked from anchor_set.  Each half
        is (chain layers, fair states, region) in its direction: the walk
        steps through the layers, then runs into the fair region.  With
        left None (no past operator and no fact before 0) the left half
        is one state with the empty valuation."""
        anchor = self._pick(anchor_set)
        right_prefix, right_loop = self._half(anchor, *right, True)
        if left is None:
            left_prefix, left_loop = (), (frozenset(),)
        else:
            left_prefix, left_loop = self._half(anchor, *left, False)
        return BiLassoWord(left_loop, left_prefix, self.valuation_of(anchor),
                           right_prefix, right_loop)

    def _half(self, anchor: int, layers: list[int], fair: int, region: int,
              forward: bool) -> tuple[tuple[Valuation, ...], tuple[Valuation, ...]]:
        """The valuations after the anchor in the walk direction: the
        prefix, then the loop."""
        walk = [anchor]
        for layer in layers[1:]:
            walk.append(self._pick(self.b.and_(layer, self._step(walk[-1], forward))))
        prefix, loop = self.run_to_fair(walk.pop(), fair, forward, region)
        prefix = walk + prefix
        # the walk may enter its loop immediately; rotate so the loop
        # starts one step after the anchor in that case
        if not prefix:
            prefix, loop = [loop[0]], loop[1:] + loop[:1]
        return (tuple(self.valuation_of(s) for s in prefix[1:]),
                tuple(self.valuation_of(s) for s in loop))


def z_sat(f: Ltl, recheck: bool = True,
          facts: Sequence[tuple[int, str, bool]] = ()) -> Optional[BiLassoWord]:
    """Complete satisfiability over ℤ for LTL with past, and over ℕ for
    past-free LTL, of f at 0 together with `facts`: (t, p, v) says that
    proposition p has truth value v at time t.

    A formula holds at some integer iff a bi-infinite sequence of
    consistent tableau states runs through an anchor satisfying it,
    entered from a backward-fair cycle and leaving into a forward-fair
    one.  Returns a satisfying bi-lasso anchored at such a state, or None
    for unsatisfiable.  The word is re-checked against the formula and
    the facts by direct evaluation (`WitnessCheckFailed` if it is not a
    model), unless `recheck` is off because the caller re-checks a word
    built from it.

    The facts constrain the states at their times, on an explicit chain
    of image steps over f's tableau instead of as X/Y-chains inside the
    formula (one state variable per nesting level).  With L[t] the
    conjunction of the facts at t, t_max ≥ 0 the latest fact time and
    t_min ≤ 0 the earliest: G[t_max] = L[t_max] ∧ E[r_f U fair_f] and
    G[k] = L[k] ∧ r_f ∧ pre(G[k + 1]), so a state is in G[0] iff a walk
    from it meets L[k] at every k ≥ 0 and then runs into a forward-fair
    cycle.  H mirrors G backward from t_min over r_b and fair_b, and the
    anchors are init ∧ G[0] ∧ H[0].  This is complete and sound: the
    states of a model at each time form such a run, and the tableau
    constraints are all between neighbouring states, so the walks of G
    and H, joined at the anchor, are a consistent fair run whose word
    satisfies f at 0 and the facts at their times.  The witness walks
    s_k ∈ G[k] ∧ img(s_{k−1}), then runs to a fair loop from s_{t_max},
    and the left half mirrors this.  Without facts G[0] and H[0] are the
    plain E[r U fair] sets, so this is the ordinary check.

    The backward half (the backward reachability, the backward fixpoint
    and the left walk) runs only when the formula has a past operator or
    a fact lies before 0.  Otherwise it always succeeds: every consistent
    state has a consistent predecessor — give it the empty valuation and
    set its X and F subformulas, innermost first, from its own
    propositions and the successor's values — and with no past
    eventuality every backward path is fair.  Nor does the left half
    matter to the word, since the value at 0 of a past-free formula reads
    no negative position; so it is one state with the empty valuation.
    By the same argument, a past-free formula is satisfiable over ℕ iff
    it is over ℤ, with the right half as its ℕ-model.
    """
    eng = _Engine(f, {p for _, p, _ in facts})
    b = eng.b
    if eng.init == 0:
        return None
    lits: dict[int, int] = {}
    for t, p, v in facts:
        x = b.var(eng.prop_level[p])
        lits[t] = b.and_(lits.get(t, 1), x if v else b.not_(x))
    t_min, t_max = min([0, *lits]), max([0, *lits])
    # restrict each fair-cycle fixpoint to the half of the run it serves:
    # states reachable from an anchor forward, respectively states that
    # can reach an anchor (the run's past)
    r_f = eng.reach(forward=True)
    fair_f = eng.fair_states(forward=True, region=r_f)
    if fair_f == 0:
        return None
    right_lits = [lits.get(t, 1) for t in range(t_max + 1)]
    right = eng.chain(eng.eu(r_f, fair_f, forward=True), r_f, right_lits, forward=True)
    good = b.and_(eng.init, right[0])
    left = None
    if t_min < 0 or any(key[0] is LNextP or key[0] is LSomeP for key in eng.keys):
        r_b = eng.reach(forward=False)
        fair_b = eng.fair_states(forward=False, region=r_b)
        left_lits = [lits.get(-t, 1) for t in range(-t_min + 1)]
        left = (eng.chain(eng.eu(r_b, fair_b, forward=False), r_b, left_lits, forward=False),
                fair_b, r_b)
        good = b.and_(good, left[0][0])
    if good == 0:
        return None
    word = eng.extract_bi(good, (right, fair_f, r_f), left)
    if not recheck:
        return word
    if any((p in word.valuation(t)) != v for t, p, v in facts):
        raise WitnessCheckFailed("extracted word breaks a fact")
    return checked(f, word, "extracted word", eng.keys)
