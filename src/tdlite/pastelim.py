"""Removal of past operators by folding the negative timeline onto ℕ.

Every proposition A is split into a pair A__pos / A__neg read off the
non-negative and the mirrored negative half of the timeline; every temporal
subformula gets a surrogate pair updated by step clauses under an outer
always-future.  The two halves are tied together at time zero by
biconditionals over the whole alphabet.  The result is past-free and linear
in the size of the input.

No `Ltl` node of the translation is ever built.  Its node and proposition
counts follow from the table of subformulas alone
(`SubformulaTable.output_size`, `output_props`).  The pipeline's `ltl`
stage records them from the table of a symbolic grounding, whose keys
each stand for several subformulas (`ground.symbolic_grounding`), and
`print_past_free` writes the text straight from the table of the
formula, which is how a solver receives it.  The
translation is the conjunction of

* the flattening of the input on the positive half: each proposition
  replaced by its `__pos` name and each temporal subformula by its
  surrogate's;
* a biconditional `p ↔ m` per pair, propositions by name, then surrogates
  by uid;
* an always-future over two step clauses per temporal subformula, in
  post-order (for `○a` with surrogate pair `s`/`s'` over `a`'s
  flattenings `a`/`a'`: `○s' ↔ a'` and `s ↔ ○a`; `○⁻` swaps the halves;
  `◇a` gives `○s' ↔ (s' ∨ ○a')` and `s ↔ ◇a`, and `◇⁻` swaps them).

The clauses have the shapes that `ltl.iff`, `lor`, `alw_f` and `conj`
give them, `iff` dropping a double negation, so for the optimized
grounding of a knowledge base the translation is already a fixpoint of
`ltl.optimize`.  `tests/references.py::depast` builds the same formula as
`Ltl` nodes, for the tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    gc_paused,
    spine_leaves,
    structural_index,
)
from .record import Record

_TEMPORAL = (LNextF, LNextP, LSomeF, LSomeP)


def pair_names(name: str) -> tuple[str, str]:
    """The names of a proposition's (or a surrogate's) two halves."""
    return f"{name}__pos", f"{name}__neg"


def surrogate_name(uid: int) -> str:
    """The base name of the surrogate of the temporal subformula `uid`."""
    return f"s{uid}"


class SubformulaTable(Record):
    """Distinct subformulas of the input.

    `keys` is the input's `ltl.structural_index`: one structural key per
    distinct subformula, indexed by its uid, children before parents and
    the input's own key last.  `props` names the input's propositions, in
    uid order; `surrogates` holds the uid of each temporal subformula, in
    increasing order.  Their pair names (`pair_names`, `surrogate_name`)
    are formatted only where a printer writes them.

    `copies` holds, by uid, how many distinct subformulas each key stands
    for: several in the table of a symbolic grounding
    (`ground.symbolic_grounding`), one in the table of a formula.  The
    counts read it, the printer does not.
    """

    __slots__ = ("keys", "props", "surrogates", "copies")

    def __init__(self, keys: list[tuple], props: list[str], surrogates: list[int],
                 copies: Sequence[int]) -> None:
        self.keys = keys
        self.props = props
        self.surrogates = surrogates
        self.copies = copies

    @classmethod
    def of(cls, keys: list[tuple], copies: Optional[Sequence[int]] = None) -> "SubformulaTable":
        return cls(keys, [key[1] for key in keys if key[0] is LProp],
                   [uid for uid, key in enumerate(keys) if key[0] in _TEMPORAL],
                   [1] * len(keys) if copies is None else copies)

    def input_size(self) -> int:
        """The node count of the input, shared subtrees counted per
        occurrence."""
        size: list[int] = []
        for key in self.keys:
            t = key[0]
            if t is LAnd:
                size.append(1 + size[key[1]] + size[key[2]])
            elif t is LProp or t is LFalse:
                size.append(1)
            else:
                size.append(1 + size[key[1]])
        return size[-1]

    def input_props(self) -> int:
        """How many propositions the input names."""
        copies = self.copies
        return sum(copies[uid] for uid, key in enumerate(self.keys) if key[0] is LProp)

    def _surrogate_count(self) -> int:
        copies = self.copies
        return sum(copies[uid] for uid in self.surrogates)

    def output_props(self) -> int:
        """How many propositions the past-free translation names: both
        names of every pair, since its time-zero sync conjunction names
        each pair."""
        return 2 * (self.input_props() + self._surrogate_count())

    def output_size(self) -> int:
        """The node count of the past-free translation, shared subtrees
        counted per occurrence, by arithmetic over the table alone.

        The flattening of a subformula has the same shape on both halves
        of the timeline, so one size per uid serves both, and its root is
        a negation exactly when the subformula's is.  The input's root is
        the last key.  Each temporal key adds its step clauses once per
        subformula it stands for.
        """
        keys, copies = self.keys, self.copies
        size: list[int] = []  # of each subformula's flattening
        step_sizes = 0
        for uid, key in enumerate(keys):
            t = key[0]
            if t is LAnd:
                size.append(1 + size[key[1]] + size[key[2]])
                continue
            if t is LNot:
                size.append(1 + size[key[1]])
                continue
            size.append(1)  # a proposition, falsum, or a surrogate
            if t is LProp or t is LFalse:
                continue
            k = key[1]
            arg, arg_not = size[k], keys[k][0] is LNot
            if t is LNextF or t is LNextP:
                # ○s ↔ a on one half, s ↔ ○a on the other
                steps = _iff_size(2, False, arg, arg_not)
            else:
                # ○s ↔ (s ∨ ○a) on one half, s ↔ ◇a on the other
                steps = _iff_size(2, False, _lor_size(1, arg + 1), True)
            steps += _iff_size(1, False, arg + 1, False)
            step_sizes += copies[uid] * steps

        parts = [size[-1]]
        surrogates = self._surrogate_count()
        syncs = self.input_props() + surrogates
        if syncs:
            parts.append(_conj_size(syncs * _iff_size(1, False, 1, False), syncs))
        if surrogates:
            # alw_f adds ¬◇¬ around the conjunction of the step clauses
            parts.append(3 + _conj_size(step_sizes, 2 * surrogates))
        return _conj_size(sum(parts), len(parts))


# The node counts of what the constructors of `ltl` build, from the sizes
# of their arguments and whether an argument's root is a negation.

def _conj_size(total: int, count: int) -> int:
    """`conj` of `count` formulas of `total` nodes together (count ≥ 1)."""
    return total + count - 1


def _lor_size(a: int, b: int) -> int:
    return 4 + a + b


def _iff_size(a: int, a_not: bool, b: int, b_not: bool) -> int:
    # two implications ¬(x ∧ ~y), where ~ drops a root negation or adds one
    return 5 + a + b + (a - 1 if a_not else a + 1) + (b - 1 if b_not else b + 1)


def build_table(f: Ltl) -> SubformulaTable:
    return SubformulaTable.of(structural_index(f))


@gc_paused()
def print_past_free(
    f: Ltl, tokens: dict, table: Optional[SubformulaTable] = None
) -> tuple[str, set[str]]:
    """The text and the proposition names that `ltl.print_formula` gives
    for the past-free translation of f, written from f's table (`table`,
    when the caller has built it) without building the translation.

    Each subformula's flattening gets one text per half of the timeline,
    stored only when it is neither a conjunction nor a negation of one (a
    name, falsum, truth, or a negation of a stored text); the others are
    written out at each use, as `print_formula` writes every occurrence.
    No stored text contains a conjunction, so a spine's leaves are stored
    once, not once per suffix of the spine (which would be quadratic in
    its length).  A conjunction inside another conjunction, including the
    two-conjunct body `¬(a ∧ ~b)` of an implication, contributes the
    leaves of its spine, since `print_formula` flattens a maximal spine
    into one group.
    """
    if table is None:
        table = build_table(f)
    keys = table.keys
    false, true = tokens["false"], tokens["true"]
    neg_ = f"({tokens[LNot]} "
    next_ = f"({tokens[LNextF]} "
    some_ = f"({tokens[LSomeF]} "

    # the stored text of each flattening, per half; None for a conjunction
    # or a negation of one
    pos: list[str | None] = []
    neg: list[str | None] = []
    for uid, key in enumerate(keys):
        t = key[0]
        if t is LProp:
            p, m = pair_names(key[1])
        elif t is LNot:
            k = key[1]
            if keys[k][0] is LFalse:
                p = m = true
            elif pos[k] is None:
                p = m = None
            else:
                p, m = f"{neg_}{pos[k]})", f"{neg_}{neg[k]})"
        elif t is LAnd:
            p = m = None
        elif t is LFalse:
            p = m = false
        else:
            p, m = pair_names(surrogate_name(uid))
        pos.append(p)
        neg.append(m)

    def full(k: int, texts: list) -> str:
        """The text of flattening k."""
        text = texts[k]
        if text is not None:
            return text
        return f"({spine(k, texts)})" if keys[k][0] is LAnd else compose(k, texts, False)

    def body(k: int, texts: list) -> str:
        """The text of flattening k inside a spine: a conjunction's leaves
        without its parentheses."""
        text = texts[k]
        if text is not None:
            return text
        return spine(k, texts) if keys[k][0] is LAnd else compose(k, texts, False)

    def spine(k: int, texts: list) -> str:
        """The leaves of conjunction k's spine, joined."""
        leaves = [texts[leaf] for leaf in spine_leaves(keys, k)]
        return compose(k, texts, True) if None in leaves else " & ".join(leaves)

    def negated(k: int, texts: list) -> str:
        """The body of `_negated` of flattening k, as `ltl.implies` builds
        it: a negation's argument, or the negation of anything else."""
        if keys[k][0] is LNot:
            return body(keys[k][1], texts)
        if keys[k][0] is LFalse:
            return true
        return f"{neg_}{full(k, texts)})"

    def compose(k: int, texts: list, bare: bool) -> str:
        # a conjunction or a negation of one, with an explicit stack: its
        # spine and its nested groups may be arbitrarily deep
        parts: list[str] = []
        write = parts.append
        stack: list[object] = []
        push = stack.append

        def open_spine(k: int, close: bool) -> None:
            leaves = spine_leaves(keys, k)
            if close:
                write("(")
                push(")")
            for leaf in reversed(leaves[1:]):
                push(leaf)
                push(" & ")
            push(leaves[0])

        if bare:
            open_spine(k, False)
        else:
            push(k)
        while stack:
            x = stack.pop()
            if type(x) is str:
                write(x)
                continue
            text = texts[x]
            if text is not None:
                write(text)
                continue
            key = keys[x]
            if key[0] is LAnd:
                open_spine(x, True)
            else:  # a negation of a conjunction, or of such a negation
                write(neg_)
                push(")")
                push(key[1])
        return "".join(parts)

    def implies(a: str, not_b: str) -> str:
        # ¬(a ∧ ~b), both given as bodies
        return f"{neg_}({a} & {not_b}))"

    out: list[str] = []
    write = out.append
    root = len(keys) - 1
    names = [pair_names(name) for name in sorted(table.props)]
    names += [pair_names(surrogate_name(uid)) for uid in table.surrogates]
    if not names:
        return full(root, pos), set()

    write("(")
    write(body(root, pos))
    for p, m in names:
        write(f" & {implies(p, f'{neg_}{m})')} & {implies(m, f'{neg_}{p})')}")
    if table.surrogates:
        write(f" & {neg_}{some_}{neg_}(")
        for i, uid in enumerate(table.surrogates):
            t, k = keys[uid]
            # `a` is the half on which the surrogate steps forward
            if t is LNextF or t is LSomeF:
                s_a, s_b, a, b = neg[uid], pos[uid], neg, pos
            else:
                s_a, s_b, a, b = pos[uid], neg[uid], pos, neg
            next_s = f"{next_}{s_a})"
            if t is LNextF or t is LNextP:
                # ○s_a ↔ arg_a, s_b ↔ ○arg_b
                arg_b = f"{next_}{full(k, b)})"
                clauses = (
                    implies(next_s, negated(k, a)),
                    implies(body(k, a), f"{neg_}{next_s})"),
                    implies(s_b, f"{neg_}{arg_b})"),
                    implies(arg_b, f"{neg_}{s_b})"),
                )
            else:
                # ○s_a ↔ (s_a ∨ ○arg_a), s_b ↔ ◇arg_b
                not_s, not_next_arg = f"{neg_}{s_a})", f"{neg_}{next_}{full(k, a)}))"
                arg_b = f"{some_}{full(k, b)})"
                clauses = (
                    implies(next_s, f"{not_s} & {not_next_arg}"),
                    implies(f"{neg_}({not_s} & {not_next_arg}))", f"{neg_}{next_s})"),
                    implies(s_b, f"{neg_}{arg_b})"),
                    implies(arg_b, f"{neg_}{s_b})"),
                )
            if i:
                write(" & ")
            write(" & ".join(clauses))
        write(")))))")
    else:
        write(")")
    return "".join(out), {name for pair in names for name in pair}
