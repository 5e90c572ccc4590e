"""Propositional LTL formulas, with and without past operators.

The AST is deliberately small: falsum, propositions, negation, conjunction
and the four temporal operators next/eventually in both directions.  Boxes,
disjunction and (bi)conditionals exist only as constructor functions that
expand into this core.

Formulas can be very large (millions of nodes, right-nested conjunction
chains), so every traversal here is iterative and memoized on node
identity, visiting a shared subtree once; only printing writes it out at
every occurrence.  `tree_size` counts a shared subtree once per
occurrence, as the paper's sizes do, but walks nothing: each node stores
that count when it is built.

A node is never mutated after it is built.  The node classes are not
frozen only because a frozen `__init__` costs about twice as much, and a
translation builds millions of nodes; the stored sizes, the `id()`-keyed
memos and the sharing of subtrees between formulas rely on nodes staying
as built.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator


REPR_LIMIT = 200


class Ltl:
    __slots__ = ()

    def __repr__(self) -> str:
        """The dataclass-style text of the node, cut after REPR_LIMIT
        characters: one walk of bounded length, so a deep chain or a
        shared tower prints as quickly as a leaf."""
        parts: list[str] = []
        length = 0
        stack: list[object] = [self]
        while stack and length <= REPR_LIMIT:
            n = stack.pop()
            if isinstance(n, str):
                text = n
            elif isinstance(n, LProp):
                text = f"LProp(name={n.name!r})"
            elif isinstance(n, LAnd):
                stack.extend([")", n.right, ", right=", n.left])
                text = "LAnd(left="
            elif isinstance(n, _UNARY):
                stack.extend([")", n.arg])
                text = f"{type(n).__name__}(arg="
            else:
                text = f"{type(n).__name__}()"
            parts.append(text)
            length += len(text)
        out = "".join(parts)
        return out if not stack and length <= REPR_LIMIT else out[:REPR_LIMIT] + "..."


# Every node class stores `size`, the node count with shared subtrees
# counted once per occurrence, computed from its children's when it is built.

@dataclass(slots=True, eq=False, init=False, repr=False)
class LFalse(Ltl):
    size: int

    def __init__(self) -> None:
        self.size = 1


@dataclass(slots=True, eq=False, init=False, repr=False)
class LProp(Ltl):
    name: str
    size: int

    def __init__(self, name: str) -> None:
        self.name = name
        self.size = 1


@dataclass(slots=True, eq=False, init=False, repr=False)
class LNot(Ltl):
    arg: Ltl
    size: int

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg
        self.size = 1 + arg.size


@dataclass(slots=True, eq=False, init=False, repr=False)
class LAnd(Ltl):
    left: Ltl
    right: Ltl
    size: int

    def __init__(self, left: Ltl, right: Ltl) -> None:
        self.left = left
        self.right = right
        self.size = 1 + left.size + right.size


@dataclass(slots=True, eq=False, init=False, repr=False)
class LNextF(Ltl):
    arg: Ltl
    size: int

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg
        self.size = 1 + arg.size


@dataclass(slots=True, eq=False, init=False, repr=False)
class LNextP(Ltl):
    arg: Ltl
    size: int

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg
        self.size = 1 + arg.size


@dataclass(slots=True, eq=False, init=False, repr=False)
class LSomeF(Ltl):
    arg: Ltl
    size: int

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg
        self.size = 1 + arg.size


@dataclass(slots=True, eq=False, init=False, repr=False)
class LSomeP(Ltl):
    arg: Ltl
    size: int

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg
        self.size = 1 + arg.size


_UNARY = (LNot, LNextF, LNextP, LSomeF, LSomeP)
_PAST = (LNextP, LSomeP)

FALSE = LFalse()
TRUE = LNot(FALSE)


def _children(f: Ltl) -> tuple[Ltl, ...]:
    if isinstance(f, LAnd):
        return (f.left, f.right)
    if isinstance(f, _UNARY):
        return (f.arg,)
    return ()


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a stage builds a formula.

    Each collection rescans every live container, so during a large build
    the collector keeps rescanning the growing formula.  That is safe to
    skip: nodes are immutable and point only at nodes built before them,
    so they never form cycles and reference counting alone frees them.
    The collector's previous state is restored on exit, also on error.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# --- constructors -----------------------------------------------------------

def _negated(x: Ltl) -> Ltl:
    return x.arg if isinstance(x, LNot) else LNot(x)


def lor(a: Ltl, b: Ltl) -> Ltl:
    return LNot(LAnd(LNot(a), LNot(b)))


def implies(a: Ltl, b: Ltl) -> Ltl:
    """¬(a ∧ ¬b), where a negated b gives up its negation instead of
    gaining a second one."""
    return LNot(LAnd(a, _negated(b)))


def iff(a: Ltl, b: Ltl) -> Ltl:
    return LAnd(implies(a, b), implies(b, a))


def alw_f(a: Ltl) -> Ltl:
    return LNot(LSomeF(LNot(a)))


def alw_p(a: Ltl) -> Ltl:
    return LNot(LSomeP(LNot(a)))


def conj(items: Iterable[Ltl]) -> Ltl:
    """Right-nested conjunction; the empty conjunction is truth."""
    items = list(items)
    if not items:
        return TRUE
    out = items[-1]
    for f in reversed(items[:-1]):
        out = LAnd(f, out)
    return out


# --- traversals -------------------------------------------------------------

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


def tree_size(f: Ltl) -> int:
    """AST node count with shared subtrees counted per occurrence."""
    return f.size


def prop_names(f: Ltl) -> set[str]:
    return {n.name for n in iter_nodes(f) if isinstance(n, LProp)}


def count_props(f: Ltl) -> int:
    return len(prop_names(f))


def has_past(f: Ltl) -> bool:
    return any(isinstance(n, _PAST) for n in iter_nodes(f))


def _intern(
    f: Ltl, uid_of: dict[int, int], key_to_uid: dict[tuple, int], reps: list[Ltl]
) -> int:
    """Hash-cons f into the given tables and return its uid.

    Structurally equal nodes get the same uid even when they are distinct
    objects; `reps` gets one representative per uid, children first.  The
    tables are keyed on node identity, so every node object is keyed once
    however many calls share them, and must stay alive while they are used.
    """
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
            uid = len(reps)
            key_to_uid[key] = uid
            reps.append(n)
        uid_of[id(n)] = uid
    return uid_of[id(f)]


def structural_index(f: Ltl) -> tuple[dict[int, int], list[Ltl]]:
    """Hash-cons the formula: map id(node) -> uid, plus one representative
    node per uid in bottom-up (children-first) discovery order.

    Structurally equal subformulas receive the same uid even when they are
    distinct objects, which is what the past-elimination table needs.
    """
    uid_of: dict[int, int] = {}
    reps: list[Ltl] = []
    _intern(f, uid_of, {}, reps)
    return uid_of, reps


# --- simplification ---------------------------------------------------------

def _spine_conjuncts(f: Ltl) -> list[Ltl]:
    """Leaves of the maximal conjunction spine rooted at f, left to right."""
    out: list[Ltl] = []
    stack = [f]
    while stack:
        n = stack.pop()
        if isinstance(n, LAnd):
            stack.append(n.right)
            stack.append(n.left)
        else:
            out.append(n)
    return out


def _merge_siblings(parts: list[Ltl]) -> list[Ltl]:
    """Collapse sibling conjuncts under a shared modality: ¬𝕆x ∧ ¬𝕆y →
    ¬𝕆¬(¬x∧¬y) for 𝕆 ∈ {◇F, ◇P, ◇P◇F} and ○x ∧ ○y → ○(x∧y).  All four
    rewrites are equivalences; first-occurrence order is preserved."""
    groups: dict[str, list[Ltl]] = {"bf": [], "bp": [], "bpf": [], "xf": [], "xp": []}
    slots: dict[str, int] = {}
    out: list[Ltl | None] = []

    def classify(p: Ltl) -> tuple[str, Ltl] | None:
        if isinstance(p, LNot):
            if isinstance(p.arg, LSomeP):
                if isinstance(p.arg.arg, LSomeF):
                    return "bpf", p.arg.arg.arg
                return "bp", p.arg.arg
            if isinstance(p.arg, LSomeF):
                return "bf", p.arg.arg
        elif isinstance(p, LNextF):
            return "xf", p.arg
        elif isinstance(p, LNextP):
            return "xp", p.arg
        return None

    for p in parts:
        hit = classify(p)
        if hit is None:
            out.append(p)
            continue
        tag, a = hit
        groups[tag].append((p, a))
        if tag not in slots:
            slots[tag] = len(out)
            out.append(None)
    for tag, slot in slots.items():
        entries = groups[tag]
        if len(entries) == 1:
            out[slot] = entries[0][0]
            continue
        if tag in ("xf", "xp"):
            body = conj([a for _, a in entries])
            out[slot] = LNextF(body) if tag == "xf" else LNextP(body)
            continue
        # the disjunction of the diamond arguments, as ¬(⋀¬xᵢ)
        body = LNot(conj([_negated(a) for _, a in entries]))
        if tag == "bf":
            out[slot] = LNot(LSomeF(body))
        elif tag == "bp":
            out[slot] = LNot(LSomeP(body))
        else:
            out[slot] = LNot(LSomeP(LSomeF(body)))
    return [p for p in out if p is not None]


def simplify(f: Ltl) -> Ltl:
    """Sound shrinking: double-negation elimination, conjunction flattening
    with structural deduplication, sibling box/next merging, truth/falsum
    propagation, idempotent eventually.  Preserves equivalence.

    A conjunct is dropped when it is structurally equal to an earlier one
    of the same spine, also when the two are distinct objects; every output
    node is keyed once, so deduplication walks no subtree twice.
    """
    memo: dict[int, Ltl] = {}
    index: tuple[dict, dict, list] = ({}, {}, [])

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
            elif isinstance(n, _UNARY):
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
                uid = _intern(sc, *index)
                if uid in uids:
                    continue
                uids.add(uid)
                parts.append(sc)
            if bottom:
                memo[id(n)] = FALSE
            else:
                memo[id(n)] = conj(_merge_siblings(parts))
        elif isinstance(n, LNot):
            a = memo[id(n.arg)]
            if isinstance(a, LNot):
                memo[id(n)] = a.arg
            else:
                memo[id(n)] = LNot(a)
        elif isinstance(n, LSomeF):
            a = memo[id(n.arg)]
            if isinstance(a, (LFalse, LSomeF)) or is_true(a):
                memo[id(n)] = a
            else:
                memo[id(n)] = LSomeF(a)
        elif isinstance(n, LSomeP):
            a = memo[id(n.arg)]
            if isinstance(a, (LFalse, LSomeP)) or is_true(a):
                memo[id(n)] = a
            else:
                memo[id(n)] = LSomeP(a)
        elif isinstance(n, (LNextF, LNextP)):
            a = memo[id(n.arg)]
            if is_true(a):
                memo[id(n)] = a
            else:
                memo[id(n)] = type(n)(a)
        else:
            memo[id(n)] = n
    return memo[id(f)]


def _constancy_conjunct(c: Ltl, two_sided: bool) -> Ltl:
    """Rewrite a box-body conjunct forcing a formula to be constant over
    the whole flow into its one-step form.

    ¬(◇Fa ∧ ◇F¬a) under any enclosing box, and ¬(a ∧ ◇P◇F¬a) under an
    enclosing two-sided box, both say "a never changes value"; repeated at
    every instant that is exactly ⋀(a ↔ ○Fa).  The one-step form keeps
    the symbolic checker's transition constraints local.
    """
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


def _rewrite_box_body(body: Ltl, two_sided: bool) -> Ltl | None:
    parts = _spine_conjuncts(body)
    rewritten = [_constancy_conjunct(c, two_sided) for c in parts]
    if all(r is c for r, c in zip(rewritten, parts)):
        return None
    return conj(rewritten)


def _rigidity_rewrite(f: Ltl) -> Ltl:
    """Apply the constancy rewrite inside every boxed conjunction,
    rebuilding bottom-up."""
    memo: dict[int, Ltl] = {}
    stack: list[tuple[Ltl, bool]] = [(f, False)]
    while stack:
        n, done = stack.pop()
        if id(n) in memo:
            continue
        kids = _children(n)
        if not done and kids:
            stack.append((n, True))
            stack.extend((k, False) for k in kids)
            continue
        new = type(n)(*(memo[id(k)] for k in kids)) if kids else n
        if isinstance(new, LSomeF) and isinstance(new.arg, LNot):
            body = _rewrite_box_body(new.arg.arg, two_sided=False)
            if body is not None:
                new = LSomeF(LNot(body))
        elif (
            isinstance(new, LSomeP)
            and isinstance(new.arg, LSomeF)
            and isinstance(new.arg.arg, LNot)
        ):
            body = _rewrite_box_body(new.arg.arg.arg, two_sided=True)
            if body is not None:
                new = LSomeP(LSomeF(LNot(body)))
        memo[id(n)] = new
    return memo[id(f)]


OPTIMIZE_MAX_ROUNDS = 10


@gc_paused()
def optimize(f: Ltl) -> Ltl:
    """simplify to a fixpoint: sibling merging can expose new merges one
    nesting level down, so a few rounds are needed to fully collapse
    box towers.  A round that leaves the size unchanged is the last."""
    for _ in range(OPTIMIZE_MAX_ROUNDS):
        size = f.size
        f = simplify(_rigidity_rewrite(f))
        if f.size == size:
            break
    return f


# --- infix concrete syntax --------------------------------------------------

class PastOperatorPresent(ValueError):
    """Raised when a formula with past operators reaches a printer for a
    past-free format."""

    code = "PAST_OPERATOR_PRESENT"


# a printer's token table: the two constants, and the prefix of each unary
# operator it can print
INFIX_TOKENS: dict = {
    "false": "false", "true": "true",
    LNot: "~", LNextF: "X", LSomeF: "F", LNextP: "Y", LSomeP: "P",
}


def print_formula(f: Ltl, tokens: dict) -> tuple[str, set[str]]:
    """Fully parenthesized one-line text of f in the given token table,
    and the names of its propositions, from one walk.

    A unary operator that the table has no token for raises
    PastOperatorPresent: the emitters' tables leave out the past ones.
    """
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
            # whole conjunction spines print as one flat group, keeping
            # the nesting depth (and the reader's recursion) shallow
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


def to_infix(f: Ltl) -> str:
    """Fully parenthesized one-line infix form.

    Uses only the core tokens `~ & X F true false` for past-free formulas;
    past operators (debug dumps only) print as `Y` and `P`.
    """
    return print_formula(f, INFIX_TOKENS)[0]


class InfixSyntaxError(ValueError):
    pass


def parse_infix(text: str) -> Ltl:
    """Parser for the infix format (test support and `--solver` plumbing).

    Accepts the emitted core plus the usual extended tokens:
    `| -> <-> G` and past `Y P H`.  Precedence: unary > & > | > -> > <->.
    """
    toks: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("<->", i):
            toks.append("<->")
            i += 3
        elif text.startswith("->", i):
            toks.append("->")
            i += 2
        elif ch in "~&|()":
            toks.append(ch)
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise InfixSyntaxError(f"unexpected character {ch!r} at offset {i}")

    unary = {
        "~": LNot, "X": LNextF, "F": LSomeF, "Y": LNextP, "P": LSomeP,
        "G": alw_f, "H": alw_p,
    }
    # binding strength and constructor; `->` alone groups to the right
    binary = {"&": (4, LAnd), "|": (3, lor), "->": (2, implies), "<->": (1, iff)}
    # operator precedence with explicit stacks: neither prefix chains nor
    # parenthesis nesting cost Python recursion
    operands: list[Ltl] = []
    ops: list[str] = []  # "(", prefix and binary operators
    depth = 0  # open parentheses

    def reduce_binary() -> None:
        right = operands.pop()
        operands.append(binary[ops.pop()][1](operands.pop(), right))

    def finish_atom(x: Ltl) -> None:
        while ops and ops[-1] in unary:
            x = unary[ops.pop()](x)
        operands.append(x)

    expect_operand = True
    for tok in toks:
        if expect_operand:
            if tok in unary or tok == "(":
                depth += tok == "("
                ops.append(tok)
                continue
            if tok == "true":
                finish_atom(TRUE)
            elif tok == "false":
                finish_atom(FALSE)
            elif tok[0].isalpha():
                finish_atom(LProp(tok))
            else:
                raise InfixSyntaxError(f"unexpected token {tok!r}")
            expect_operand = False
        elif tok in binary:
            # first apply what binds at least as tightly; `->` waits for
            # the `->` chain to its right
            strength = binary[tok][0] + (tok == "->")
            while ops and ops[-1] in binary and binary[ops[-1]][0] >= strength:
                reduce_binary()
            ops.append(tok)
            expect_operand = True
        elif tok == ")" and depth:
            while ops[-1] != "(":
                reduce_binary()
            ops.pop()
            depth -= 1
            finish_atom(operands.pop())
        else:
            raise InfixSyntaxError("expected ')'" if depth else f"trailing input {tok!r}")
    if expect_operand:
        raise InfixSyntaxError("unexpected token '<eof>'")
    if depth:
        raise InfixSyntaxError("expected ')'")
    while ops:
        reduce_binary()
    return operands.pop()


def struct_eq(a: Ltl, b: Ltl) -> bool:
    """Structural equality, safe on deep formulas."""
    index: tuple[dict, dict, list] = ({}, {}, [])
    return _intern(a, *index) == _intern(b, *index)
