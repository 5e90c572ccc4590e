"""Grounding of the dagger-stage formula over its finite constant set.

Every universally quantified conjunct is replaced by the conjunction of its
instantiations over all constants: the declared individuals plus one fresh
witness d_R per role representation.  Boxes are desugared on the way out,
so the result uses only negation, conjunction, and the four next/eventually
operators.  `split_by_constant` sorts the top-level conjuncts by the one
constant each is about, for grounding one constant at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

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
    FALSE,
    TRUE,
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
    QTRUE,
    Qtl,
    TranslationContext,
    Var,
)

__all__ = ["GroundingContext", "ground", "split_by_constant"]


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
def ground(
    qtl: Qtl, gctx: GroundingContext, fixed: Optional[Mapping[str, bool]] = None
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


def split_by_constant(
    qtl: Qtl, constants: tuple[str, ...]
) -> tuple[list[Qtl], dict[str, list[Qtl]]]:
    """The top-level conjuncts of `qtl`, sorted by the constant each is
    about: the constant-free ones (such as the falsum of a contradicted
    negated role fact), and per constant the conjuncts that name it plus
    every universally quantified one, to be grounded at that constant.
    Truth, the empty ABox's translation, is left out.

    Raises ValueError on a conjunct that names two constants, or names a
    constant under a quantifier; the dagger translation builds neither.
    """
    shared: list[Qtl] = []
    per_const: dict[str, list[Qtl]] = {c: [] for c in constants}
    spine = [qtl]
    while spine:
        n = spine.pop()
        if isinstance(n, QAnd):
            spine.append(n.right)
            spine.append(n.left)
            continue
        if n == QTRUE:
            continue
        named: set[str] = set()
        universal = False
        stack = [n]
        while stack:
            m = stack.pop()
            if isinstance(m, QAtom) and isinstance(m.term, Const):
                named.add(m.term.name.lower())
            elif isinstance(m, QForAll):
                universal = True
                stack.append(m.body)
            elif isinstance(m, QAnd):
                stack.append(m.left)
                stack.append(m.right)
            elif isinstance(m, (QNot, QNextF, QNextP, QSomeF, QSomeP, QAlwF, QAlwP)):
                stack.append(m.arg)
        if len(named) > 1 or (named and universal):
            raise ValueError(f"a conjunct is about more than one constant: {sorted(named)}")
        if universal:
            for parts in per_const.values():
                parts.append(n)
        elif named:
            per_const[named.pop()].append(n)
        else:
            shared.append(n)
    return shared, per_const
