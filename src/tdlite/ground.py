"""Grounding of the dagger-stage formula over its finite constant set.

Every universally quantified conjunct is replaced by the conjunction of its
instantiations over all constants: the declared individuals plus one fresh
witness d_R per role representation.  Boxes are desugared on the way out,
so the result uses only negation, conjunction, and the four next/eventually
operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import names
from .kb import KnowledgeBase
from .ltl import (
    LAnd,
    LNot,
    LNextF,
    LNextP,
    LProp,
    LSomeF,
    LSomeP,
    Ltl,
    LFalse,
    conj,
    gc_paused,
)
from .qtl import (
    Const,
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

__all__ = ["GroundingContext", "ground"]


@dataclass(frozen=True, slots=True)
class GroundingContext:
    constants: tuple[str, ...]

    @classmethod
    def from_kb(cls, kb: KnowledgeBase, ctx: TranslationContext) -> "GroundingContext":
        consts = [ind.lower() for ind in sorted(kb.signature.individuals)]
        consts += [names.witness_const(role) for role in ctx.roles_of_k]
        if not consts:
            # a first-order theory needs a non-empty domain; one synthetic
            # element suffices for a single-variable universal theory
            consts = [names.SYNTHETIC_CONST]
        return cls(tuple(consts))


_QUNARY = {QNot: LNot, QNextF: LNextF, QNextP: LNextP, QSomeF: LSomeF, QSomeP: LSomeP}


@gc_paused()
def ground(qtl: Qtl, gctx: GroundingContext) -> Ltl:
    """Instantiate quantifiers over the constant set and desugar boxes.

    Iterative with memoization on (node, binding) so shared subformulas and
    repeated instantiations are translated once.
    """
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
