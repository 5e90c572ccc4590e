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
checker's variable count small.  `oracle.z_sat` checks every component in
both flows: an ℕ-flow grounding has no past operator, and on a past-free
formula `z_sat` decides satisfiability over ℕ.  Each component is built
from the pipeline's symbolic grounding (`ground.ground`).

A component's ABox facts (one literal about its constant at a time t,
which the translation wraps in t next-operators) are not grounded into
its formula.  `z_sat` gets them as constraints on an explicit chain of
image steps over the tableau of the rest, so a timestamp costs image
steps, not one BDD state variable per time unit.  That is the same
satisfiability question: a fact `○^t ℓ` holds at 0 iff ℓ holds at t.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from . import names
from .ground import EVERY_CONSTANT, Conjunct, SymbolicGrounding, ground
from .ltl import optimize
from .oracle import BiLassoWord, checked, z_sat
from .qtl import Const, QAtom, QNot, TranslationContext, unshift
from .record import Record

# the label of the constant-free conjuncts' component; not an identifier,
# so no constant has it
SHARED = "(shared)"


class Decomposition(Record):
    """How a check was split: components, checker calls, the role
    propositions held true, and for UNSAT the component that refuted."""

    __slots__ = ("components", "checker_calls", "kept", "refuted_by")

    def __init__(self, components: int, checker_calls: int, kept: tuple[str, ...],
                 refuted_by: Optional[str]) -> None:
        self.components = components
        self.checker_calls = checker_calls
        self.kept = kept
        self.refuted_by = refuted_by

    def as_dict(self) -> dict:
        return {
            "components": self.components,
            "checker-calls": self.checker_calls,
            "kept-role-props": list(self.kept),
            "refuted-by": self.refuted_by,
        }


def check_by_constant(
    sg: SymbolicGrounding, ctx: TranslationContext
) -> tuple[Optional[BiLassoWord], Decomposition]:
    """A model of the grounding whose symbolic table `sg` is, or None
    for unsatisfiable, deciding one component per constant.

    The set P of role propositions held true is the greatest fixpoint of
    one step: start with every p_R true, and drop p_R⁻ when the component
    of w_R is unsatisfiable under the current set (which then includes
    the demand `≥1 R(w_R)` that p_R⁻ implies).  Individuals are checked
    before witnesses, each component once per set it is checked under,
    and each is optimized once before its checker call, without its ABox
    facts (`split_facts`), which the checker takes on their own.

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

    The SAT word is the product of the component bi-lassos (prefixes
    padded to the longest, loops to the lcm of their lengths, on each
    side) with each kept p_R
    true everywhere; it is re-checked once against the grounding itself
    (`WitnessCheckFailed` if it is not a model), so the check does not
    rest on `optimize`.  That re-check is the only place the whole
    grounding is built.
    """
    shared = [p for p in sg.conjuncts if p.about is None]
    labelled = [(SHARED, shared)] if shared else []
    labelled += [(c, [p for p in sg.conjuncts if p.about in (c, EVERY_CONSTANT)])
                 for c in sg.constants]
    groups = [(label, *split_facts(parts)) for label, parts in labelled]
    role_props = [names.role_prop(r) for r in ctx.roles_of_k]
    demand = {names.witness_const(r): names.role_prop(r.inverse()) for r in ctx.roles_of_k}
    kept = set(role_props)
    words: dict[tuple[str, frozenset[str]], Optional[BiLassoWord]] = {}

    def record(refuted: Optional[str]) -> Decomposition:
        return Decomposition(len(groups), len(words), tuple(sorted(kept)), refuted)

    dropped = True
    while dropped:
        dropped = False
        for label, rest, facts in groups:
            key = (label, frozenset(kept))
            if key not in words:
                fixed = {prop: prop in kept for prop in role_props}
                g = ground(sg, rest, None if label == SHARED else label, fixed)
                words[key] = z_sat(optimize(g), facts=facts)
            if words[key] is None:
                p = demand.get(label)
                if p not in kept:
                    return None, record(label)
                kept.discard(p)
                dropped = True
    final = frozenset(kept)
    word = product_word([words[(label, final)] for label, _, _ in groups], final)
    return checked(ground(sg), word, "the combined word"), record(None)


def split_facts(parts: list[Conjunct]) -> tuple[list[Conjunct], tuple[tuple[int, str, bool], ...]]:
    """A component's conjuncts without its ABox facts, and those facts as
    `z_sat` takes them: (t, proposition, truth value) for each conjunct
    of the shape `qtl.translate_abox` builds, one literal about a
    constant shifted to time t."""
    rest: list[Conjunct] = []
    facts: list[tuple[int, str, bool]] = []
    for part in parts:
        lit, t = unshift(part.node)
        atom = lit.arg if isinstance(lit, QNot) else lit
        if isinstance(atom, QAtom) and isinstance(atom.term, Const):
            facts.append((t, atom.pred.prop_name(atom.term.name.lower()), atom is lit))
        else:
            rest.append(part)
    return rest, tuple(facts)


def product_word(words: list[BiLassoWord], extra: frozenset[str]) -> BiLassoWord:
    """The word whose valuation at each position is the union of the
    words' valuations there plus `extra`: prefixes padded to the longest,
    loops unrolled to the lcm of their lengths."""

    def at(n: int) -> frozenset[str]:
        return extra.union(*(w.valuation(n) for w in words))

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
