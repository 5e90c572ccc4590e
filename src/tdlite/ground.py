"""Grounding of the dagger-stage formula over its finite constant set.

Every universally quantified conjunct is replaced by the conjunction of its
instantiations over all constants: the declared individuals plus one fresh
witness d_R per role representation.  Boxes are desugared on the way out,
so the result uses only negation, conjunction, and the four next/eventually
operators.

`symbolic_grounding` is the one walk of the formula: it keys the grounding
into a table, grounding each universal body and each conjunct about one
constant once, and labels the top-level conjuncts.  The pipeline sizes its
`ltlp` and `ltl` stages from the table (`pastelim.SubformulaTable`), and
`ground` builds every grounding from it: the whole one, or top-level
conjuncts over one constant, for the checker's components and the solver
hand-off's universal part.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

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
    _build,
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
)
from .record import Record

__all__ = [
    "EVERY_CONSTANT",
    "SYMBOL",
    "Conjunct",
    "GroundingContext",
    "SymbolicGrounding",
    "ground",
    "symbolic_grounding",
]


class GroundingContext(Record):
    __slots__ = ("constants",)

    def __init__(self, constants: tuple[str, ...]) -> None:
        self.constants = constants

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
_QBOX = {QAlwF: LSomeF, QAlwP: LSomeP}

# what a symbolic grounding names the constant of a proposition, and what
# a universally quantified conjunct is about; not identifiers, so no
# constant has them
SYMBOL = "(x)"
EVERY_CONSTANT = "(every)"


class Conjunct(Record):
    """A top-level conjunct, the uid of its grounding, and what it is
    about: the one constant it names, EVERY_CONSTANT for a universally
    quantified one, or None for a constant-free one (such as the falsum
    of a contradicted negated role fact)."""

    __slots__ = ("node", "uid", "about")

    def __init__(self, node: Qtl, uid: int, about: Optional[str]) -> None:
        self.node = node
        self.uid = uid
        self.about = about


class SymbolicGrounding(Record):
    """A table of structural keys in the form of `ltl.structural_index`,
    the grounding's own key last.  A key with SYMBOL below it stands for
    its copy at each constant of `at[uid]` (a bit per constant), and
    `copies[uid]` counts the distinct subformulas of the grounding a key
    stands for.  A key in `pairs` conjoins copies at two different
    constants: those of its children, as positions in `constants` from 1.
    `foralls` maps the key of each ∀x node over several constants to its
    body's uid.  `conjuncts` are the top-level conjuncts in spine order,
    truth left out."""

    __slots__ = ("constants", "keys", "copies", "at", "pairs", "foralls", "conjuncts")

    def __init__(
        self,
        constants: tuple[str, ...],
        keys: list[tuple],
        copies: list[int],
        at: list[int],
        pairs: dict[int, tuple[int, int]],
        foralls: dict[int, int],
        conjuncts: tuple[Conjunct, ...],
    ) -> None:
        self.constants = constants
        self.keys = keys
        self.copies = copies
        self.at = at
        self.pairs = pairs
        self.foralls = foralls
        self.conjuncts = conjuncts

    # the table is far too long to print
    __repr__ = object.__repr__


@gc_paused()
def symbolic_grounding(qtl: Qtl, gctx: GroundingContext) -> SymbolicGrounding:
    """The distinct subformulas of the grounding of `qtl` over the
    constants of `gctx`, grounding no conjunct at more than one constant.

    Each universal body is grounded once with its variable kept as
    SYMBOL, and each ABox or witness conjunct once with its one constant
    kept as SYMBOL; all of it is hash-consed into one table.  A key with
    SYMBOL below it stands for its copy at each constant it is grounded
    at: every constant for a key of a universal body, the conjunct's own
    constant for a key of a conjunct about one.  A key without it stands
    for one subformula.  A `∀x` node is its body's copies at the
    constants, conjoined; a conjunction
    of copies at two different constants is one formula, keyed on its
    children's copies rather than on their keys, so it never meets a
    symbolic key.

    Raises ValueError on a free variable, a constant or a quantifier
    under a quantifier, a conjunct about more than one constant, and a
    constant that `gctx` does not list; the dagger translation builds
    none of them.
    """
    constants = gctx.constants
    every = (1 << len(constants)) - 1
    universal = every + 1  # beside the constants' bits: a ∀x below
    bit = {c: 1 << i for i, c in enumerate(constants)}
    keys: list[tuple] = []
    at: list[int] = []
    index: dict[tuple, int] = {}
    pairs: dict[int, tuple[int, int]] = {}
    foralls: dict[int, int] = {}

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
            out = node(key, 0, (LAnd, a, b))
            pairs[out[0]] = a[1].bit_length(), b[1].bit_length()
            return out
        return node(key, a[1] | b[1])

    # per node, its copy and the bits of the constants it names, plus
    # `universal` for a ∀x below it
    memo: dict[int, tuple[tuple[int, int], int]] = {}
    # (node, whether a quantifier binds its variable, children done)
    stack: list = [(qtl, False, False)]
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
        named = 0
        if t is QFalsum:
            out = node((LFalse,), 0)
        elif t is QProp:
            out = node((LProp, n.name), 0)
        elif t is QAtom:
            if type(n.term) is not Const:
                if not bound:
                    raise ValueError("free variable outside a quantifier")
                bits = every
            elif bound:
                raise ValueError("a constant under a quantifier")
            elif n.term.name.lower() not in bit:
                raise ValueError(f"constant {n.term.name.lower()!r} is not a grounding constant")
            else:
                named = bits = bit[n.term.name.lower()]
            out = node((LProp, n.pred.prop_name(SYMBOL)), bits)
        elif t is QForAll:
            if bound:
                raise ValueError("a quantifier under a quantifier")
            (uid, bits), _ = memo[id(n.body)]
            named = universal
            copies = [(uid, bit[c] if bits else 0) for c in constants]
            out = copies[-1]
            for copy in reversed(copies[:-1]):
                out = binary(copy, out)
            if len(constants) > 1:
                foralls[out[0]] = uid
        elif t is QAnd:
            (left, ln), (right, rn) = memo[id(n.left)], memo[id(n.right)]
            out, named = binary(left, right), ln | rn
        else:
            a, named = memo[id(n.arg)]
            if t in _QBOX:  # □a as ¬◇¬a
                out = unary(LNot, unary(_QBOX[t], unary(LNot, a)))
            else:
                out = unary(_QUNARY[t], a)
        memo[id(n)] = out, named

    conjuncts: list[Conjunct] = []
    spine = [qtl]  # the top conjunction spine, left to right
    while spine:
        n = spine.pop()
        if type(n) is QAnd:
            spine += (n.right, n.left)
            continue
        if n == QTRUE:
            continue
        (uid, _), named = memo[id(n)]
        consts = named & every
        if consts & (consts - 1) or (consts and named & universal):
            raise ValueError("a conjunct is about more than one constant")
        about = constants[consts.bit_length() - 1] if consts else None
        conjuncts.append(Conjunct(n, uid, EVERY_CONSTANT if named & universal else about))
    return SymbolicGrounding(constants, keys, [max(1, bits.bit_count()) for bits in at],
                             at, pairs, foralls, tuple(conjuncts))


@gc_paused()
def ground(
    sg: SymbolicGrounding,
    parts: Optional[Sequence[Conjunct]] = None,
    constant: Optional[str] = None,
    fixed: Optional[Mapping[str, bool]] = None,
) -> Ltl:
    """A grounding built from the table of `sg`: by default the whole
    one, else the conjunction (`ltl.conj`) of the groundings of `parts`,
    with `constant` over that one constant (a `∀x` node being its body
    there), without it each at the constant it is about (so a universal
    part needs `constant`).  A proposition named in `fixed` becomes truth
    or falsum.

    Only the uids the parts reach are built, each once per constant it
    is reached at, and once in all for a uid without SYMBOL below it.
    """
    keys, at = sg.keys, sg.at
    # slot s ≥ 1 holds the copies at the s-th constant, slot 0 the rest
    slot = {c: s for s, c in enumerate(sg.constants, 1)}
    one = 0 if constant is None else slot[constant]
    foralls = sg.foralls if one else {}
    # the children, as (uid, slot), of a uid that does not read them in its own slot
    links = {} if one else {
        uid: tuple(zip(keys[uid][1:], slots)) for uid, slots in sg.pairs.items()}
    roots = [(len(keys) - 1, at[-1].bit_length())] if parts is None else [
        (foralls.get(p.uid, p.uid), one or slot.get(p.about, 0)) for p in parts]
    # per uid, the slots (as bits) it is built in
    need = [0] * (max((uid for uid, _ in roots), default=-1) + 1)
    for uid, s in roots:
        need[uid] |= 1 << (s if at[uid] else 0)
    for uid in range(len(need) - 1, -1, -1):
        b, key = need[uid], keys[uid]
        if not b or key[0] is LProp or key[0] is LFalse:
            continue
        link = links.get(uid)
        if link is None and one and (key[1] in foralls or key[-1] in foralls):
            kids = [foralls.get(k, k) for k in key[1:]]
            link = links[uid] = tuple((k, one if at[k] else 0) for k in kids)
        if link is None:
            for k in key[1:]:
                need[k] |= b if at[k] else 1
        else:
            for k, s in link:
                need[k] |= 1 << s
    fixed = {name: TRUE if value else FALSE for name, value in (fixed or {}).items()}

    def leaf(name: str, s: int) -> Ltl:
        return LProp(name.replace(SYMBOL, sg.constants[s - 1])) if s else fixed.get(name, LProp(name))

    outs: list[dict[int, Ltl]] = [{} for _ in range(len(slot) + 1)]
    _build(keys, enumerate(need), outs, at, leaf, links)
    built = [outs[s if at[uid] else 0][uid] for uid, s in roots]
    return built[0] if parts is None else conj(built)
