"""Grounding of the dagger-stage formula over its finite constant set.

Every universally quantified conjunct is replaced by the conjunction of its
instantiations over all constants: the declared individuals plus one fresh
witness d_R per role representation.  Boxes are desugared on the way out,
so the result uses only negation, conjunction, and the four next/eventually
operators.  `conjuncts_about` labels the top-level conjuncts with the one
constant each is about, and `split_by_constant` sorts them by it, for
grounding one constant at a time.  `renamings` maps the grounding of the
universal conjuncts at the first constant to their grounding at each
other one.

`symbolic_grounding` gives the distinct subformulas of the grounding
without building it: each universal body and each conjunct about one
constant is grounded once, with the constant kept as a symbol, and each
key of the result says how many distinct subformulas of the grounding it
stands for.  The pipeline sizes its `ltlp` and `ltl` stages from it
(`pastelim.SubformulaTable`), so sizing a translation grounds no
conjunct at more than one constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

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

__all__ = [
    "EVERY_CONSTANT",
    "GroundingContext",
    "conjuncts_about",
    "ground",
    "renamings",
    "split_by_constant",
    "symbolic_grounding",
]


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


def _subformulas(roots: list[Qtl]) -> Iterator[Qtl]:
    """Every node under the roots, once per occurrence."""
    stack = list(roots)
    while stack:
        m = stack.pop()
        yield m
        if isinstance(m, QForAll):
            stack.append(m.body)
        elif isinstance(m, QAnd):
            stack.append(m.left)
            stack.append(m.right)
        elif not isinstance(m, (QFalsum, QAtom, QProp)):
            stack.append(m.arg)


# what `conjuncts_about` says of a universally quantified conjunct; not
# an identifier, so no constant has it
EVERY_CONSTANT = "(every)"


def conjuncts_about(qtl: Qtl) -> list[tuple[Qtl, Optional[str]]]:
    """The top-level conjuncts of `qtl` in spine order, each with what it
    is about: the one constant it names, EVERY_CONSTANT for a universally
    quantified one, or None for a constant-free one (such as the falsum
    of a contradicted negated role fact).  Truth, the empty ABox's
    translation, is left out.

    Raises ValueError on a conjunct that names two constants, or names a
    constant under a quantifier; the dagger translation builds neither.
    """
    out: list[tuple[Qtl, Optional[str]]] = []
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
        for m in _subformulas([n]):
            if isinstance(m, QAtom) and isinstance(m.term, Const):
                named.add(m.term.name.lower())
            elif isinstance(m, QForAll):
                universal = True
        if len(named) > 1 or (named and universal):
            raise ValueError(f"a conjunct is about more than one constant: {sorted(named)}")
        out.append((n, EVERY_CONSTANT if universal else named.pop() if named else None))
    return out


def split_by_constant(
    qtl: Qtl, constants: tuple[str, ...]
) -> tuple[list[Qtl], dict[str, list[Qtl]]]:
    """The top-level conjuncts of `qtl` (`conjuncts_about`), sorted by the
    constant each is about: the constant-free ones, and per constant the
    conjuncts that name it plus every universally quantified one, to be
    grounded at that constant."""
    shared: list[Qtl] = []
    per_const: dict[str, list[Qtl]] = {c: [] for c in constants}
    for n, about in conjuncts_about(qtl):
        if about == EVERY_CONSTANT:
            for parts in per_const.values():
                parts.append(n)
        elif about is None:
            shared.append(n)
        else:
            per_const[about].append(n)
    return shared, per_const


def renamings(universal: list[Qtl], constants: tuple[str, ...]) -> list[dict[str, str]]:
    """For each constant after the first, how grounding the universal
    conjuncts at it renames their grounding at the first: each predicate
    that they apply to the variable, `pred.prop_name(first)` →
    `pred.prop_name(constant)`."""
    preds = {
        m.pred for m in _subformulas(universal)
        if isinstance(m, QAtom) and isinstance(m.term, Var)
    }
    first = constants[0]
    return [{p.prop_name(first): p.prop_name(c) for p in preds} for c in constants[1:]]


# what a symbolic grounding names the constant of a proposition; not an
# identifier, so no constant has it
SYMBOL = "(x)"


@gc_paused()
def symbolic_grounding(qtl: Qtl, gctx: GroundingContext) -> tuple[list[tuple], list[int]]:
    """The distinct subformulas of `ground(qtl, gctx)`, grounding no
    conjunct at more than one constant: a table of structural keys in the
    form of `ltl.structural_index` (children first, the grounding's own
    key last), and for each key how many distinct subformulas of the
    grounding it stands for.

    Each universal body is grounded once with its variable kept as
    SYMBOL, and each ABox or witness conjunct once with its one constant
    kept as SYMBOL; all of it is hash-consed into one table.  A key with
    SYMBOL below it stands for its copy at each constant it is grounded
    at: every constant for a key of a universal body, and the conjunct's
    own constant for a key of a conjunct about one.  A key without it
    stands for one subformula.  A `∀x` node is its
    body's copies at the constants, conjoined; a conjunction of copies at
    two different constants is one formula, keyed on its children's
    copies rather than on their keys, so it never meets a symbolic key.
    The grounding's per-occurrence size and its sizes after past
    elimination follow from the table alone
    (`pastelim.SubformulaTable`).
    """
    constants = gctx.constants
    every = (1 << len(constants)) - 1
    bit = {c: 1 << i for i, c in enumerate(constants)}
    keys: list[tuple] = []
    # per key, the constants (as bits) whose copies of it the grounding has;
    # 0 for a key without SYMBOL below it
    at: list[int] = []
    index: dict[tuple, int] = {}

    # A copy is (uid, bits): a key and the one constant its SYMBOL stands
    # for, as a bit (every constant, for a universal body), or 0.
    def node(key: tuple, bits: int, index_key: Optional[tuple] = None) -> tuple[int, int]:
        index_key = index_key or key
        uid = index.get(index_key)
        if uid is None:
            uid = index[index_key] = len(keys)
            keys.append(key)
            at.append(0)
        at[uid] |= bits
        return uid, bits

    def unary(t: type, a: tuple[int, int]) -> tuple[int, int]:
        return node((t, a[0]), a[1])

    def binary(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        key = (LAnd, a[0], b[0])
        if a[1] and b[1] and a[1] != b[1]:
            return node(key, 0, (LAnd, a, b))
        return node(key, a[1] | b[1])

    memo: dict[int, tuple[int, int]] = {}
    # (node, whether a quantifier binds its variable, children done)
    stack: list[tuple[Qtl, bool, bool]] = [(qtl, False, False)]
    while stack:
        n, bound, done = stack.pop()
        if id(n) in memo:
            continue
        t = type(n)
        if not done:
            stack.append((n, bound, True))
            if t is QForAll:
                stack.append((n.body, True, False))
            elif t is QAnd:
                stack.append((n.left, bound, False))
                stack.append((n.right, bound, False))
            elif t is not QFalsum and t is not QProp and t is not QAtom:
                stack.append((n.arg, bound, False))
            continue
        if t is QFalsum:
            out = node((LFalse,), 0)
        elif t is QProp:
            out = node((LProp, n.name), 0)
        elif t is QAtom:
            if type(n.term) is Const:
                bits = bit[n.term.name.lower()]
            elif bound:
                bits = every
            else:
                raise ValueError("free variable outside a quantifier")
            out = node((LProp, n.pred.prop_name(SYMBOL)), bits)
        elif t is QForAll:
            uid, bits = memo[id(n.body)]
            copies = [(uid, bit[c] if bits else 0) for c in constants]
            out = copies[-1]
            for copy in reversed(copies[:-1]):
                out = binary(copy, out)
        elif t is QAnd:
            out = binary(memo[id(n.left)], memo[id(n.right)])
        elif t is QAlwF:
            out = unary(LNot, unary(LSomeF, unary(LNot, memo[id(n.arg)])))
        elif t is QAlwP:
            out = unary(LNot, unary(LSomeP, unary(LNot, memo[id(n.arg)])))
        else:
            out = unary(_QUNARY[t], memo[id(n.arg)])
        memo[id(n)] = out
    return keys, [max(1, bits.bit_count()) for bits in at]
