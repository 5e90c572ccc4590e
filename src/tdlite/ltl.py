"""Propositional LTL formulas, with and without past operators.

The AST is deliberately small: falsum, propositions, negation, conjunction
and the four temporal operators next/eventually in both directions.  Boxes,
disjunction and (bi)conditionals exist only as constructor functions that
expand into this core.

Formulas can be very large (millions of nodes, right-nested conjunction
chains), so every traversal here is iterative and memoized on node
identity, visiting a shared subtree once; only printing writes it out at
every occurrence.  A node holds only its children.  The size of a
formula, a shared subtree counted once per occurrence as the paper's
sizes are, is read off its table of subformulas
(`pastelim.SubformulaTable`).

`simplify` is the one rewriting walk: every rule, the rewrite of a
constancy conjunct into one-step form included, fires on simplified
children, a node that a rule builds is simplified in the same walk, and
the walk hash-conses what it keeps, so one walk reaches the fixpoint.
`optimize` is that walk with the garbage collector paused;
`optimize_instances` gives the same for the copies of a grounding
without walking each copy.

Node identity stays inside this module: `structural_index` gives other
modules one post-order table of structural keys, indexed by uid, so past
elimination and the checker read child uids off the table instead of
keying nodes by `id()`.

A node is never mutated after it is built.  The node classes are not
frozen only because a frozen `__init__` costs about twice as much, and a
translation builds millions of nodes; the `id()`-keyed memos and the
sharing of subtrees between formulas rely on nodes staying as built.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence


REPR_LIMIT = 200


class Ltl:
    __slots__ = ()

    def __repr__(self) -> str:
        """The `Name(field=value)` text of the node, cut after REPR_LIMIT
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


class LFalse(Ltl):
    __slots__ = ()


class LProp(Ltl):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class LNot(Ltl):
    __slots__ = ("arg",)

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg


class LAnd(Ltl):
    __slots__ = ("left", "right")

    def __init__(self, left: Ltl, right: Ltl) -> None:
        self.left = left
        self.right = right


class LNextF(Ltl):
    __slots__ = ("arg",)

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg


class LNextP(Ltl):
    __slots__ = ("arg",)

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg


class LSomeF(Ltl):
    __slots__ = ("arg",)

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg


class LSomeP(Ltl):
    __slots__ = ("arg",)

    def __init__(self, arg: Ltl) -> None:
        self.arg = arg


_UNARY = (LNot, LNextF, LNextP, LSomeF, LSomeP)

FALSE = LFalse()
TRUE = LNot(FALSE)


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

def _intern(f: Ltl, uid_of: dict[int, int], key_to_uid: dict[tuple, int]) -> int:
    """Hash-cons f into the given tables and return its uid.

    Structurally equal nodes get the same uid (see `structural_index` for
    the keys) even when they are distinct objects.  Uids are handed out
    in post-order, the right child's subtree before the left's, so
    `key_to_uid` lists the keys in uid order.  `uid_of` is keyed on node
    identity, so every node object is keyed once however many calls share
    the tables, and must stay alive while they are used.

    A node whose children still need uids goes back on the stack under a
    `None` marker, with its children above it; popping the marker keys
    the node below it.
    """
    stack: list[Ltl | None] = [f]
    pop, extend = stack.pop, stack.extend
    get_uid, get_key = uid_of.get, key_to_uid.get
    while stack:
        n = pop()
        if n is None:
            n = pop()
            t = type(n)
            if t is LAnd:
                key = (LAnd, uid_of[id(n.left)], uid_of[id(n.right)])
            else:
                key = (t, uid_of[id(n.arg)])
        elif id(n) in uid_of:
            continue
        else:
            t = type(n)
            if t is LAnd:
                left, right = get_uid(id(n.left)), get_uid(id(n.right))
                if left is None or right is None:
                    extend((n, None, n.left, n.right))
                    continue
                key = (LAnd, left, right)
            elif t is LProp:
                key = (LProp, n.name)
            elif t is LFalse:
                key = (LFalse,)
            else:
                arg = get_uid(id(n.arg))
                if arg is None:
                    extend((n, None, n.arg))
                    continue
                key = (t, arg)
        uid = get_key(key)
        if uid is None:
            uid = key_to_uid[key] = len(key_to_uid)
        uid_of[id(n)] = uid
    return uid_of[id(f)]


def structural_index(f: Ltl) -> list[tuple]:
    """The structural keys of f's distinct subformulas, indexed by uid:
    `(LAnd, l, r)`, `(op, a)` for a unary operator, `(LProp, name)` or
    `(LFalse,)`, with child uids.  Children come before their parents, and
    f's own key is the last, since every other subformula is smaller.  The
    table is canonical: structurally equal formulas get equal tables."""
    key_to_uid: dict[tuple, int] = {}
    _intern(f, {}, key_to_uid)
    return list(key_to_uid)


def spine_leaves(keys: list[tuple], k: int) -> list[int]:
    """The uids of the leaves of the maximal conjunction spine at uid k
    of a `structural_index` table, left to right."""
    out: list[int] = []
    stack = [k]
    while stack:
        key = keys[k := stack.pop()]
        if key[0] is LAnd:
            stack += (key[2], key[1])
        else:
            out.append(k)
    return out


# --- simplification ---------------------------------------------------------

def _spine_conjuncts(f: Ltl) -> list[Ltl]:
    """Leaves of the maximal conjunction spine rooted at f, left to right."""
    out: list[Ltl] = []
    stack = [f]
    while stack:
        n = stack.pop()
        if type(n) is LAnd:
            stack.append(n.right)
            stack.append(n.left)
        else:
            out.append(n)
    return out


def _right_nested(f: LAnd) -> bool:
    """Whether no left child on f's conjunction spine is a conjunction,
    that is, whether f is what `conj` builds from its leaves."""
    while type(f) is LAnd:
        if type(f.left) is LAnd:
            return False
        f = f.right
    return True


def _modality(p: Ltl) -> tuple[str, Ltl] | None:
    """The shared modality that `_merge_siblings` can merge p under, and
    the formula it holds there: ¬𝕆x gives x for 𝕆 ∈ {◇F, ◇P, ◇P◇F}
    (tags "bf", "bp", "bpf"), ○x gives x ("xf", "xp")."""
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


def _merged(tag: str, body: Ltl) -> Ltl:
    """The merged conjunct of a modality tag whose siblings are merged
    into `body`: the conjunction of their ○-arguments, or of the
    negations of their ◇-arguments."""
    if tag == "xf":
        return LNextF(body)
    if tag == "xp":
        return LNextP(body)
    if tag == "bf":
        return LNot(LSomeF(LNot(body)))
    if tag == "bp":
        return LNot(LSomeP(LNot(body)))
    return LNot(LSomeP(LSomeF(LNot(body))))


def _sibling_groups(parts: list, modality: Callable) -> tuple[list, dict[str, list]]:
    """`parts` in order, the siblings under each shared modality standing
    as its tag at the first one's place, and per tag the (part, formula
    held there) pairs; `modality(p)` gives p's tag and that formula, or
    None."""
    groups: dict[str, list] = {}
    out: list = []
    for p in parts:
        hit = modality(p)
        if hit is None:
            out.append(p)
            continue
        tag, a = hit
        if tag not in groups:
            groups[tag] = []
            out.append(tag)
        groups[tag].append((p, a))
    return out, groups


def _merge_siblings(parts: list[Ltl]) -> list[Ltl]:
    """Collapse sibling conjuncts under a shared modality: ¬𝕆x ∧ ¬𝕆y →
    ¬𝕆¬(¬x∧¬y) for 𝕆 ∈ {◇F, ◇P, ◇P◇F} and ○x ∧ ○y → ○(x∧y).  All four
    rewrites are equivalences; first-occurrence order is preserved.  With
    nothing to merge, `parts` itself is returned."""
    out, groups = _sibling_groups(parts, _modality)
    if len(out) == len(parts):
        return parts
    merged: list[Ltl] = []
    for p in out:
        if type(p) is not str:
            merged.append(p)
        elif len(groups[p]) == 1:
            merged.append(groups[p][0][0])
        elif p in ("xf", "xp"):
            merged.append(_merged(p, conj([a for _, a in groups[p]])))
        else:
            # the disjunction of the diamond arguments, as ¬(⋀¬xᵢ)
            merged.append(_merged(p, conj([_negated(a) for _, a in groups[p]])))
    return merged


def _is_true(n: Ltl) -> bool:
    return type(n) is LNot and type(n.arg) is LFalse


def _complementary(x: Ltl, y: Ltl, index: tuple[dict, dict]) -> bool:
    """Whether one of x and y is the structural negation of the other
    (neither being a double negation, as in `simplify`'s output), read
    off the hash-cons index as `simplify`'s conjunction case reads it."""
    other = _intern(y, *index)
    if type(x) is LNot:
        return _intern(x.arg, *index) == other
    key_to_uid = index[1]
    return key_to_uid.get((LNot, _intern(x, *index))) == other


def _constancy_conjunct(c: Ltl, two_sided: bool, index: tuple[dict, dict]) -> Ltl:
    """Rewrite a box-body conjunct forcing a formula to be constant over
    the whole flow into its one-step form.

    ¬(◇Fa ∧ ◇F¬a) under any enclosing box, and ¬(a ∧ ◇P◇F¬a) under an
    enclosing two-sided box, both say "a never changes value"; repeated at
    every instant that is exactly ⋀(a ↔ ○Fa).  The one-step form keeps
    the symbolic checker's transition constraints local.
    """
    if type(c) is not LNot or type(c.arg) is not LAnd:
        return c
    a, b = c.arg.left, c.arg.right
    if type(a) is LSomeF and type(b) is LSomeF and _complementary(a.arg, b.arg, index):
        return iff(a.arg, LNextF(a.arg))
    if (
        two_sided
        and type(b) is LSomeP
        and type(b.arg) is LSomeF
        and _complementary(a, b.arg.arg, index)
    ):
        return iff(a, LNextF(a))
    return c


def _one_step_box(t: type, a: Ltl, index: tuple[dict, dict]) -> Ltl | None:
    """The constancy rule at t(a), t being LSomeF or LSomeP and a
    simplified: the node rebuilt with its box body in one-step form, or
    None when the body has no constancy conjunct.

    At ◇Fa the body of the box ¬◇F¬body is `_negated(a)`, one-sided; at
    ◇P◇Fx it is `_negated(x)`, two-sided.  The rule is sound wherever
    the node occurs, not only under a negation: □(¬(◇a ∧ ◇¬a) ∧ r) ≡
    □((a ↔ ○a) ∧ r), so ◇ of the negations of the two agree too.
    """
    if t is LSomeF:
        x, two_sided = a, False
    elif type(a) is LSomeF:
        x, two_sided = a.arg, True
    else:
        return None
    parts = _spine_conjuncts(_negated(x))
    rewritten = [_constancy_conjunct(c, two_sided, index) for c in parts]
    if all(r is c for r, c in zip(rewritten, parts)):
        return None
    box = LSomeF(LNot(conj(rewritten)))
    return box if t is LSomeF else LSomeP(box)


def simplify(f: Ltl, memo: dict[int, Ltl] | None = None) -> Ltl:
    """Sound shrinking to a fixpoint: double-negation elimination,
    conjunction flattening with structural deduplication, complementary
    conjuncts, sibling box/next merging, truth/falsum propagation,
    idempotent eventually, and the constancy rule.  Preserves equivalence.

    A conjunct is dropped when it is structurally equal to an earlier one
    of the same spine, also when the two are distinct objects, and a spine
    that holds a conjunct and its structural negation is falsum; every
    output node is keyed once, so neither test walks a subtree twice, and
    the negation of a keyed conjunct is one key lookup.

    The constancy rule rewrites the body of a box into one-step form
    (`_one_step_box`): at ◇Fa, with a simplified, the body is
    `_negated(a)`, and at ◇P◇Fx two-sidedly `_negated(x)`.  A node that a
    rule builds is simplified in the same walk: the box the constancy rule
    rebuilds, a spine whose siblings merged (the merged conjunct's body
    may merge again, one nesting level down), and a spine that holds a
    conjunction as a simplified conjunct are pushed on the stack above a
    redirect entry for the node they stand for.  So the result is a
    fixpoint: simplify of it returns it itself.  The memo keys a rebuilt
    node's new subformulas by id(), so it holds the rebuilt node under the
    negative of its id, which no node's id is.

    A node whose children come back unchanged and where no rule fires is
    returned itself; for a conjunction spine that means the same leaves,
    already right-nested.  `memo` maps id(node) to its result; a caller
    may seed it with nodes that are their own result, which the walk then
    does not enter.
    """
    index: tuple[dict, dict] = ({}, {})
    uid_of, key_to_uid = index
    if memo is None:
        memo = {}
    # a node alone, a conjunction with its leaves, or a node with the node
    # rebuilt for it
    stack: list[tuple[Ltl, object]] = [(f, None)]
    while stack:
        n, extra = stack.pop()
        if id(n) in memo:
            continue
        if extra is not None and type(extra) is not list:  # n's rebuilt node is done
            memo[id(n)] = memo[id(extra)]
            memo[-id(extra)] = extra
            continue
        t = type(n)
        if t is LAnd:
            if extra is None:
                extra = _spine_conjuncts(n)
                stack.append((n, extra))
                stack.extend((c, None) for c in extra)
                continue
            parts: list[Ltl] = []
            uids: set[int] = set()
            changed = nested = False
            for c in extra:
                sc = memo[id(c)]
                if sc is not c:
                    changed = True
                if type(sc) is LFalse:
                    memo[id(n)] = FALSE
                    break
                if _is_true(sc):
                    changed = True
                    continue
                uid = uid_of.get(id(sc))
                if uid is None:
                    uid = _intern(sc, *index)
                if uid in uids:
                    changed = True
                    continue
                if type(sc) is LNot:
                    negation = uid_of[id(sc.arg)]
                else:
                    negation = key_to_uid.get((LNot, uid))
                if negation in uids:
                    memo[id(n)] = FALSE
                    break
                uids.add(uid)
                parts.append(sc)
                nested = nested or type(sc) is LAnd
            else:
                merged = _merge_siblings(parts)
                if merged is not parts or nested:
                    rebuilt = conj(merged)
                    stack.append((n, rebuilt))
                    stack.append((rebuilt, None))
                elif not changed and _right_nested(n):
                    memo[id(n)] = n
                else:
                    memo[id(n)] = conj(parts)
            continue
        if t is LProp or t is LFalse:
            memo[id(n)] = n
            continue
        arg = n.arg
        a = memo.get(id(arg))
        if a is None:
            stack.append((n, None))
            stack.append((arg, None))
            continue
        if t is LNot:
            if type(a) is LNot:
                out = a.arg
            else:
                out = n if a is arg else LNot(a)
        elif t is LSomeF or t is LSomeP:
            ta = type(a)
            if ta is LFalse or ta is t or _is_true(a):
                out = a
            else:
                rebuilt = _one_step_box(t, a, index)
                if rebuilt is not None:
                    stack.append((n, rebuilt))
                    stack.append((rebuilt, None))
                    continue
                out = n if a is arg else t(a)
        elif _is_true(a):  # LNextF, LNextP
            out = a
        else:
            out = n if a is arg else t(a)
        memo[id(n)] = out
    return memo[id(f)]


@gc_paused()
def optimize(f: Ltl) -> Ltl:
    """`simplify`, which reaches the fixpoint in one walk, with the
    garbage collector paused while it builds the result."""
    return simplify(f)


def _build(keys: list[tuple], todo: Iterable[tuple[int, int]], outs: list,
           local: Sequence, leaf: Callable[[str, int], Ltl],
           links: Mapping[int, tuple[tuple[int, int], ...]] = {}) -> None:
    """For each (uid, slots) of `todo`, in increasing uid order, and each
    slot s of `slots` (a bit per slot), set outs[s][uid] to a new node of
    the uid's key, `leaf(name, s)` for a proposition.  A child is read from
    slot s when `local` marks it and from slot 0 when not; a uid in
    `links` reads its children from the (uid, slot) pairs there."""
    base = outs[0]
    for uid, b in todo:
        key = keys[uid]
        t = key[0]
        link = links.get(uid)
        while b:
            s = b.bit_length() - 1
            b ^= 1 << s
            out = outs[s]
            if link is not None:
                out[uid] = t(*[outs[slot][k] for k, slot in link])
            elif t is LAnd:
                left, right = key[1], key[2]
                out[uid] = LAnd((out if local[left] else base)[left],
                                (out if local[right] else base)[right])
            elif t is LProp:
                out[uid] = leaf(key[1], s)
            elif t is LFalse:
                out[uid] = FALSE
            else:
                out[uid] = t((out if local[key[1]] else base)[key[1]])


@gc_paused()
def optimize_instances(
    pieces: list[Ltl], renames: list[Mapping[str, str]], rest: Ltl = TRUE
) -> Ltl:
    """`optimize` of the conjunction of the pieces and their renamed
    instances, piece-major (each piece, then the piece with its
    propositions renamed by each renaming in turn), and then `rest`.

    Each piece is optimized once, on its own, and the results are renamed
    afterwards: optimize treats every name alike, so it commutes with an
    injective renaming into names the pieces do not have.  Every renaming
    must be one, over the same names.  What `simplify` does across the
    instances is done on the key table of the optimized pieces, without
    keying any instance: a conjunct naming no renamed proposition is one
    node in every instance, so it is dropped after its first occurrence,
    and a conjunct that names one equals, or negates, another only in the
    same instance.  Siblings under a shared modality merge (the optimized
    pieces of a grounding are each one box), and the merged conjunct's
    spine gets the same treatment, one nesting level down, as deep as the
    merges go.  A box's argument joins the merged body as its spine's
    leaves, or, when it is not a negation, as the one leaf ¬a; the pieces
    come out of `optimize` with the constancy rule already applied, and
    the merged box gets it as `simplify` gives it there.  A merged
    conjunct that negates a sibling makes its spine falsum.

    `rest` is optimized on its own, and its top conjuncts follow the
    instances' as they are.  So none of them may equal, negate or share a
    modality with a top conjunct of an instance; in a grounding the
    instances are boxes, and the rest are ABox literals, ○-chains of them
    and implications.
    """
    # the table of the optimized pieces, keyed on the nodes of `held`
    # and of the instances, which live until this call returns
    uid_of: dict[int, int] = {}
    key_to_uid: dict[tuple, int] = {}
    held = [optimize(p) for p in pieces]
    roots = [_intern(p, uid_of, key_to_uid) for p in held]
    keys: list[tuple] = []
    renamed: list[bool] = []  # whether a uid names a renamed proposition
    domain = {name for names in renames for name in names}
    # the pieces' own instance in slot 0, and each renaming's in the next
    # for the uids that name a renamed proposition
    instances: list[list] = [[] for _ in range(len(renames) + 1)]
    base = instances[0]
    every = (1 << len(instances)) - 1

    def leaf(name: str, s: int) -> Ltl:
        return LProp(renames[s - 1].get(name, name) if s else name)

    def extend() -> None:
        """Give each uid the table gained a key, a mark and its nodes."""
        start = len(keys)
        # `_intern` only appends, so the new keys are the last ones
        keys.extend(reversed(list(islice(reversed(key_to_uid), len(key_to_uid) - start))))
        for key in keys[start:]:
            t = key[0]
            if t is LAnd:
                renamed.append(renamed[key[1]] or renamed[key[2]])
            elif t is LProp:
                renamed.append(key[1] in domain)
            else:
                renamed.append(t is not LFalse and renamed[key[1]])
        for instance in instances:
            instance.extend([None] * (len(keys) - start))
        _build(keys, ((uid, every if renamed[uid] else 1) for uid in range(start, len(keys))),
               instances, renamed, leaf)
        for uid in range(start, len(keys)):
            uid_of[id(base[uid])] = uid

    def node(uid: int, i: int) -> Ltl:
        return instances[i if renamed[uid] else 0][uid]

    extend()

    def merged_leaves(tag: str, a: int) -> list[int]:
        """The conjuncts a sibling adds to the spine that merging under
        `tag` builds, a being the formula `_modality` gives for it."""
        if tag in ("xf", "xp"):
            return spine_leaves(keys, a)
        if keys[a][0] is LNot:
            return spine_leaves(keys, keys[a][1])
        negation = key_to_uid.get((LNot, a))
        if negation is None:
            held.append(LNot(base[a]))
            negation = _intern(held[-1], uid_of, key_to_uid)
            extend()
        return [negation]

    def modality(c: tuple[int, int]) -> tuple[str, int] | None:
        hit = _modality(base[c[0]])
        return None if hit is None else (hit[0], uid_of[id(hit[1])])

    def grouped(conjuncts: list[tuple[int, int]]) -> list | None:
        """The conjuncts (uid, instance) of one spine that `simplify`
        keeps, as nodes, with each modality's merged siblings as the tag
        and the conjuncts of the merged body; None for falsum."""
        kept: list[tuple[int, int]] = []
        seen: set[tuple[int, int | None]] = set()
        for uid, i in conjuncts:
            key = keys[uid]
            if key[0] is LFalse:
                return None
            if key[0] is LNot and keys[key[1]][0] is LFalse:
                continue
            mark = i if renamed[uid] else None
            if (uid, mark) in seen:
                continue
            opposite = key[1] if key[0] is LNot else key_to_uid.get((LNot, uid))
            if (opposite, mark) in seen:
                return None
            seen.add((uid, mark))
            kept.append((uid, i))
        out, groups = _sibling_groups(kept, modality)
        items: list = []
        for p in out:
            if type(p) is not str:
                items.append(node(*p))
            elif len(groups[p]) == 1:
                items.append(node(*groups[p][0][0]))
            else:
                items.append((p, [(leaf, i) for (_, i), a in groups[p]
                                  for leaf in merged_leaves(p, a)]))
        return items

    # the spines, each merged body's after the spine it is merged on, and
    # finished in reverse: a merged conjunct is built from its body's
    # finished spine, which `simplify` leaves as it is
    spines = [grouped([(leaf, i) for root in roots for i in range(len(instances))
                       for leaf in spine_leaves(keys, root)])]
    for items in spines:
        for j, item in enumerate(items or ()):
            if type(item) is tuple:
                spines.append(grouped(item[1]))
                items[j] = item[0], len(spines) - 1
    # the keys of merged conjuncts and of the conjuncts they may negate
    index: tuple[dict, dict] = ({}, {})
    for k in reversed(range(len(spines))):
        items = spines[k]
        if items is None:
            continue
        parts: list[Ltl] | None = []
        wholes: list[Ltl] = []
        for item in items:
            if type(item) is not tuple:
                parts.append(item)
                continue
            tag, inner = item
            body = FALSE if spines[inner] is None else conj(spines[inner])
            # the merged conjunct's own rules, its body being done
            whole = simplify(_merged(tag, body), {id(body): body})
            if type(whole) is LFalse:
                parts = None
                break
            if not _is_true(whole):
                parts.append(whole)
                wholes.append(whole)
        # a merged conjunct keeps its modality, so the one rule it can
        # meet among its siblings is a complementary pair: ¬𝕆x with 𝕆x,
        # or ○x with ¬○x
        if parts is not None and any(
            (type(c) is type(w.arg) if type(w) is LNot
             else type(c) is LNot and type(c.arg) is type(w))
            and _complementary(w, c, index)
            for w in wholes for c in parts
        ):
            parts = None
        spines[k] = parts
    parts = spines[0]
    tail = _spine_conjuncts(optimize(rest))
    if parts is None or any(type(c) is LFalse for c in tail):
        return FALSE
    return conj(parts + [c for c in tail if not _is_true(c)])


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
    write = parts.append
    props: set[str] = set()
    # nodes still to print, and the text that closes a group
    stack: list[object] = [f]
    push, pop = stack.append, stack.pop
    while stack:
        n = pop()
        t = type(n)
        if t is str:
            write(n)
        elif t is LProp:
            write(n.name)
            props.add(n.name)
        elif t is LAnd:
            # whole conjunction spines print as one flat group, keeping
            # the nesting depth (and the reader's recursion) shallow
            leaves = _spine_conjuncts(n)
            write("(")
            push(")")
            for leaf in reversed(leaves[1:]):
                push(leaf)
                push(" & ")
            push(leaves[0])
        elif t is LNot and type(n.arg) is LFalse:
            write(true)
        elif t in prefix:
            write(prefix[t])
            push(")")
            push(n.arg)
        elif t is LFalse:
            write(false)
        else:
            raise PastOperatorPresent(
                f"{t.__name__} in a formula for a past-free format"
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
