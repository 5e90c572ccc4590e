"""Removal of past operators by folding the negative timeline onto ℕ.

Every proposition A is split into a pair A__pos / A__neg read off the
non-negative and the mirrored negative half of the timeline; every temporal
subformula gets a surrogate pair updated by step clauses under an outer
always-future.  The two halves are tied together at time zero by
biconditionals over the whole alphabet.  The result is past-free and linear
in the size of the input.  The clauses are built through `ltl.iff`, which
adds no double negation, so for the optimized grounding of a knowledge base
the output is already a fixpoint of `ltl.optimize`.

The output's node and proposition counts follow from the table of
subformulas alone (`SubformulaTable.output_size`, `output_props`), so the
pipeline's `ltl` stage records the translation's size without building it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    alw_f,
    conj,
    gc_paused,
    iff,
    lor,
    structural_index,
)

_TEMPORAL = (LNextF, LNextP, LSomeF, LSomeP)


@dataclass(frozen=True, slots=True)
class SubformulaTable:
    """Distinct subformulas of the input plus the paired alphabet.

    `reps` holds one representative per structurally distinct subformula in
    post-order; `prop_pairs` maps each input proposition to its pair of
    names, `surrogate_pairs` maps the post-order index of each temporal
    subformula to its surrogate pair.
    """

    uid_of: dict[int, int]
    reps: list[Ltl]
    prop_pairs: dict[str, tuple[str, str]]
    surrogate_pairs: dict[int, tuple[str, str]]

    def output_props(self) -> int:
        """How many propositions the past-free translation names: both
        names of every pair, since its time-zero sync conjunction names
        each pair."""
        return 2 * (len(self.prop_pairs) + len(self.surrogate_pairs))

    def output_size(self) -> int:
        """The node count of `depast_with_table`'s output, shared subtrees
        counted per occurrence, by arithmetic over the table alone.

        The flattening of a representative has the same shape on both
        halves of the timeline, so one size per uid serves both, and its
        root is a negation exactly when the representative's is.  The
        input's root is the last representative: every other subformula is
        smaller, so none is structurally equal to it.
        """
        uid_of = self.uid_of
        size: list[int] = []  # of each representative's flattening
        step_sizes = 0
        for rep in self.reps:
            t = type(rep)
            if t is LAnd:
                size.append(1 + size[uid_of[id(rep.left)]] + size[uid_of[id(rep.right)]])
                continue
            if t is LNot:
                size.append(1 + size[uid_of[id(rep.arg)]])
                continue
            size.append(1)  # a proposition, falsum, or a surrogate
            if t is LProp or t is LFalse:
                continue
            k = uid_of[id(rep.arg)]
            arg, arg_not = size[k], type(self.reps[k]) is LNot
            if t is LNextF or t is LNextP:
                # ○s ↔ a on one half, s ↔ ○a on the other
                step_sizes += _iff_size(2, False, arg, arg_not)
            else:
                # ○s ↔ (s ∨ ○a) on one half, s ↔ ◇a on the other
                step_sizes += _iff_size(2, False, _lor_size(1, arg + 1), True)
            step_sizes += _iff_size(1, False, arg + 1, False)

        parts = [size[-1]]
        syncs = len(self.prop_pairs) + len(self.surrogate_pairs)
        if syncs:
            parts.append(_conj_size(syncs * _iff_size(1, False, 1, False), syncs))
        if self.surrogate_pairs:
            # alw_f adds ¬◇¬ around the conjunction of the step clauses
            parts.append(3 + _conj_size(step_sizes, 2 * len(self.surrogate_pairs)))
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
    uid_of, reps = structural_index(f)
    prop_pairs = {
        rep.name: (f"{rep.name}__pos", f"{rep.name}__neg")
        for rep in reps
        if isinstance(rep, LProp)
    }
    surrogate_pairs = {
        uid: (f"s{uid}__pos", f"s{uid}__neg")
        for uid, rep in enumerate(reps)
        if isinstance(rep, _TEMPORAL)
    }
    return SubformulaTable(uid_of, reps, prop_pairs, surrogate_pairs)


def _bar_all(table: SubformulaTable) -> tuple[list[Ltl], list[Ltl]]:
    """The flattening of every representative to a temporal-operator-free
    formula over the paired alphabet, on the positive and on the negative
    half of the timeline, by uid."""
    pos: list[Ltl] = []
    neg: list[Ltl] = []
    for uid, rep in enumerate(table.reps):
        if isinstance(rep, LProp):
            p, m = table.prop_pairs[rep.name]
            pos.append(LProp(p))
            neg.append(LProp(m))
        elif isinstance(rep, LFalse):
            pos.append(rep)
            neg.append(rep)
        elif isinstance(rep, LNot):
            k = table.uid_of[id(rep.arg)]
            pos.append(LNot(pos[k]))
            neg.append(LNot(neg[k]))
        elif isinstance(rep, LAnd):
            kl = table.uid_of[id(rep.left)]
            kr = table.uid_of[id(rep.right)]
            pos.append(LAnd(pos[kl], pos[kr]))
            neg.append(LAnd(neg[kl], neg[kr]))
        else:
            p, m = table.surrogate_pairs[uid]
            pos.append(LProp(p))
            neg.append(LProp(m))
    return pos, neg


@gc_paused()
def depast_with_table(f: Ltl) -> tuple[Ltl, SubformulaTable]:
    table = build_table(f)
    pos, neg = _bar_all(table)

    parts: list[Ltl] = [pos[table.uid_of[id(f)]]]

    sync: list[Ltl] = []
    for name in sorted(table.prop_pairs):
        p, m = table.prop_pairs[name]
        sync.append(iff(LProp(p), LProp(m)))
    for uid in sorted(table.surrogate_pairs):
        p, m = table.surrogate_pairs[uid]
        sync.append(iff(LProp(p), LProp(m)))
    if sync:
        parts.append(conj(sync))

    steps: list[Ltl] = []
    for uid, rep in enumerate(table.reps):
        if not isinstance(rep, _TEMPORAL):
            continue
        k = table.uid_of[id(rep.arg)]
        self_pos, self_neg = pos[uid], neg[uid]
        arg_pos, arg_neg = pos[k], neg[k]
        if isinstance(rep, LNextF):
            steps.append(iff(LNextF(self_neg), arg_neg))
            steps.append(iff(self_pos, LNextF(arg_pos)))
        elif isinstance(rep, LNextP):
            steps.append(iff(LNextF(self_pos), arg_pos))
            steps.append(iff(self_neg, LNextF(arg_neg)))
        elif isinstance(rep, LSomeF):
            steps.append(iff(LNextF(self_neg), lor(self_neg, LNextF(arg_neg))))
            steps.append(iff(self_pos, LSomeF(arg_pos)))
        else:  # LSomeP
            steps.append(iff(LNextF(self_pos), lor(self_pos, LNextF(arg_pos))))
            steps.append(iff(self_neg, LSomeF(arg_neg)))
    if steps:
        parts.append(alw_f(conj(steps)))

    return conj(parts), table


def depast(f: Ltl) -> Ltl:
    """Equisatisfiable past-free translation of an LTL formula over ℤ."""
    out, _ = depast_with_table(f)
    return out

