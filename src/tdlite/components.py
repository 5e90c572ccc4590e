"""Deciding a knowledge base one constant at a time.

The dagger translation is a one-variable formula ∀x φ(x), grounded over
the individuals plus one witness constant w_R per role.  The copies φ(c)
share only the role propositions p_R, and any model can be changed so that
each p_R keeps its time-0 value at all times: p_R is forced only by
`∃R(x) → □* p_R` and read only at time 0 by `p_R⁻ → ≥1 R(w_R)`.  This is
the quasimodel argument for the one-variable fragment (Gabbay, Kurucz,
Wolter, Zakharyaschev, *Many-Dimensional Modal Logics*, 2003).  So the KB
is satisfiable iff, for some set P of role propositions held true at all
times, every per-constant component — its universal conjuncts grounded at
that constant plus the ABox and witness conjuncts that name it, each p_R
replaced by its truth value — is satisfiable on its own.  Each component
is a formula over one constant's propositions only, which keeps the BDD
checkers' variable count small.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Union

from . import names
from .ground import GroundingContext, ground, split_by_constant
from .ltl import Ltl, optimize
from .oracle import BiLassoWord, LassoWord, WitnessCheckFailed, eval_on_lasso, ltl_sat, z_sat
from .qtl import Qtl, TranslationContext, q_conj

Word = Union[LassoWord, BiLassoWord]

# the label of the constant-free conjuncts' component; not an identifier,
# so no constant has it
SHARED = "(shared)"


@dataclass(frozen=True, slots=True)
class Decomposition:
    """How a check was split: components, checker calls, the role
    propositions held true, and for UNSAT the component that refuted."""

    components: int
    checker_calls: int
    kept: tuple[str, ...]
    refuted_by: Optional[str]

    def as_dict(self) -> dict:
        return {
            "components": self.components,
            "checker-calls": self.checker_calls,
            "kept-role-props": list(self.kept),
            "refuted-by": self.refuted_by,
        }


def check_by_constant(
    q: Qtl,
    ctx: TranslationContext,
    gctx: GroundingContext,
    whole: Ltl,
    bound: int,
) -> tuple[Optional[Word], Decomposition]:
    """A model of `whole` (the optimized grounding of `q`) or None for
    unsatisfiable, deciding one component per constant.

    The set P of role propositions held true is the greatest fixpoint of
    one step: start with every p_R true, and drop p_R⁻ when the component
    of w_R is unsatisfiable under the current set (which then includes
    the demand `≥1 R(w_R)` that p_R⁻ implies).  Individuals are checked
    before witnesses, each component once per set it is checked under.

    Why this is complete: a component's conjuncts other than the demand
    mention p_R only as the consequent of `∃R(c) → □* p_R`, so they only
    get stronger as P shrinks.  If some P* makes every component
    satisfiable, then P* stays inside the current set: when w_R's
    component is unsatisfiable under a superset of P*, it is also
    unsatisfiable under P* with the demand, so p_R⁻ ∉ P*.  Hence a
    component that is unsatisfiable under the current set without a
    demand — an individual's, or a witness's whose p_R⁻ is gone — is
    unsatisfiable under every candidate, and the KB is UNSAT.  When a
    pass over the components drops nothing, all of them are satisfiable
    under the same set, and their words combine into one model.

    The SAT word is the product of the component words (prefixes padded
    to the longest, loops to the lcm of their lengths) with each kept p_R
    true everywhere; it is re-checked once against `whole`
    (`WitnessCheckFailed` if it is not a model).  With one constant and
    no roles, `whole` itself is the one component.
    """
    check = ltl_sat if ctx.flow == "n" else z_sat
    if len(gctx.constants) == 1 and not ctx.roles_of_k:
        word = check(whole, bound=bound, recheck=False)
        refuted = None if word is not None else gctx.constants[0]
        return _rechecked(whole, word), Decomposition(1, 1, (), refuted)

    shared, per_const = split_by_constant(q, gctx.constants)
    groups = ([(SHARED, shared)] if shared else []) + list(per_const.items())
    role_props = [names.role_prop(r) for r in ctx.roles_of_k]
    demand = {names.witness_const(r): names.role_prop(r.inverse()) for r in ctx.roles_of_k}
    kept = set(role_props)
    words: dict[tuple[str, frozenset[str]], Optional[Word]] = {}

    def record(refuted: Optional[str]) -> Decomposition:
        return Decomposition(len(groups), len(words), tuple(sorted(kept)), refuted)

    dropped = True
    while dropped:
        dropped = False
        for label, parts in groups:
            key = (label, frozenset(kept))
            if key not in words:
                consts = () if label == SHARED else (label,)
                fixed = {prop: prop in kept for prop in role_props}
                g = ground(q_conj(parts), GroundingContext(consts), fixed)
                words[key] = check(optimize(g), bound=bound, recheck=False)
            if words[key] is None:
                p = demand.get(label)
                if p not in kept:
                    return None, record(label)
                kept.discard(p)
                dropped = True
    final = frozenset(kept)
    word = product_word([words[(label, final)] for label, _ in groups], final)
    return _rechecked(whole, word), record(None)


def _rechecked(whole: Ltl, word: Optional[Word]) -> Optional[Word]:
    if word is not None and not eval_on_lasso(whole, word, 0):
        raise WitnessCheckFailed("the combined word failed re-evaluation")
    return word


def product_word(words: list[Word], extra: frozenset[str]) -> Word:
    """The word whose valuation at each position is the union of the
    words' valuations there plus `extra`: prefixes padded to the longest,
    loops unrolled to the lcm of their lengths."""

    def at(n: int) -> frozenset[str]:
        return extra.union(*(w.valuation(n) for w in words))

    if isinstance(words[0], LassoWord):
        pre = max(len(w.prefix) for w in words)
        per = lcm(*(len(w.loop) for w in words))
        return LassoWord(
            tuple(at(n) for n in range(pre)), tuple(at(n) for n in range(pre, pre + per))
        )
    rp = max(len(w.right_prefix) for w in words)
    rl = lcm(*(len(w.right_loop) for w in words))
    lp = max(len(w.left_prefix) for w in words)
    ll = lcm(*(len(w.left_loop) for w in words))
    return BiLassoWord(
        left_loop=tuple(at(-n) for n in range(lp + 1, lp + ll + 1)),
        left_prefix=tuple(at(-n) for n in range(1, lp + 1)),
        anchor=at(0),
        right_prefix=tuple(at(n) for n in range(1, rp + 1)),
        right_loop=tuple(at(n) for n in range(rp + 1, rp + rl + 1)),
    )
