"""Translation of a knowledge base into a one-variable first-order temporal
formula (the dagger stage).

The output language has unary atoms over either the single free variable x
or a constant, plus nullary role propositions p_R.  Existential quantifiers
never appear: the role-existence axioms are built directly in their
grounding-ready form with the witness constant d_R and proposition p_R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from . import names
from .kb import (
    And,
    AtLeast,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    KnowledgeBase,
    Not,
    NextF,
    NextP,
    Role,
    RoleAssertion,
    RoleFact,
    SomeF,
    SomeP,
    close_abox_under_inverses,
    normalize_kb,
    numbers_in_tbox,
    roles_in_kb,
)


class FlowViolation(ValueError):
    """The input cannot be translated under the requested time flow."""


@dataclass(frozen=True, slots=True)
class Var:
    def __str__(self) -> str:
        return "x"


@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


Term = Union[Var, Const]
X = Var()


@dataclass(frozen=True, slots=True)
class ConceptPred:
    name: str

    def prop_name(self, const: str) -> str:
        return names.concept_prop(self.name, const)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class CardPred:
    q: int
    role: Role

    def prop_name(self, const: str) -> str:
        return names.card_prop(self.q, self.role, const)

    def __str__(self) -> str:
        return f"E{self.q}_{self.role}"


Pred = Union[ConceptPred, CardPred]


class Qtl:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class QFalsum(Qtl):
    pass


@dataclass(frozen=True, slots=True)
class QAtom(Qtl):
    pred: Pred
    term: Term


@dataclass(frozen=True, slots=True)
class QProp(Qtl):
    name: str


@dataclass(frozen=True, slots=True)
class QNot(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QAnd(Qtl):
    left: Qtl
    right: Qtl


@dataclass(frozen=True, slots=True)
class QNextF(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QNextP(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QSomeF(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QSomeP(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QAlwF(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QAlwP(Qtl):
    arg: Qtl


@dataclass(frozen=True, slots=True)
class QForAll(Qtl):
    body: Qtl


QTRUE = QNot(QFalsum())


def q_implies(a: Qtl, b: Qtl) -> Qtl:
    return QNot(QAnd(a, QNot(b)))


def q_conj(items: Iterable[Qtl]) -> Qtl:
    items = list(items)
    if not items:
        return QTRUE
    out = items[-1]
    for f in reversed(items[:-1]):
        out = QAnd(f, out)
    return out


def qtl_size(f: Qtl) -> int:
    stack, total = [f], 0
    while stack:
        n = stack.pop()
        total += 1
        if isinstance(n, QAnd):
            stack.append(n.left)
            stack.append(n.right)
        elif isinstance(n, (QNot, QNextF, QNextP, QSomeF, QSomeP, QAlwF, QAlwP, QForAll)):
            stack.append(n.arg if not isinstance(n, QForAll) else n.body)
    return total


@dataclass(frozen=True, slots=True)
class SuccessorCount:
    role: Role
    individual: str
    time: int
    count: int


@dataclass(frozen=True, slots=True)
class TranslationContext:
    roles_of_k: tuple[Role, ...]
    q_set: tuple[int, ...]
    flow: str  # "z" or "n"


def compute_a_n_r(
    facts: Iterable[RoleFact], role: Role, n: int, is_global: bool
) -> set[tuple[str, str]]:
    """The relevant fact set A_n^R: timestamp-erased for global roles,
    at exactly n for local ones.  Expects an inverse-closed fact list."""
    return {
        (f.subject, f.obj)
        for f in facts
        if f.role == role and (is_global or f.time == n)
    }


def successor_counts(kb: KnowledgeBase, facts: Iterable[RoleFact]) -> list[SuccessorCount]:
    """One count per positive (inverse-closed) role fact: the number of
    distinct fillers the subject has at that fact's time point, at least 1."""
    facts = list(facts)
    out = []
    seen = set()
    for f in facts:
        key = (f.role, f.subject, f.time)
        if key in seen:
            continue
        seen.add(key)
        is_global = kb.signature.is_global(f.role.name)
        pairs = compute_a_n_r(facts, f.role, f.time, is_global)
        q = max(1, sum(1 for a, _ in pairs if a == f.subject))
        out.append(SuccessorCount(f.role, f.subject, f.time, q))
    return out


def build_context(kb: KnowledgeBase, flow: str) -> TranslationContext:
    """Roles occurring in the KB plus their inverses, and the cardinality
    set {1} ∪ numbers-in-TBox ∪ ABox-derived successor counts."""
    if flow not in ("z", "n"):
        raise ValueError(f"unknown flow {flow!r}")
    roles: list[Role] = []
    for name in roles_in_kb(kb):
        roles.append(Role(name))
        roles.append(Role(name, True))
    qs = {1} | numbers_in_tbox(kb)
    facts = close_abox_under_inverses(kb.abox)
    for sc in successor_counts(kb, facts):
        qs.add(sc.count)
    return TranslationContext(tuple(roles), tuple(sorted(qs)), flow)


def concept_star(c: Concept) -> Qtl:
    """The standard starred translation of a normalized concept, over x."""
    if isinstance(c, Bottom):
        return QFalsum()
    if isinstance(c, Atomic):
        return QAtom(ConceptPred(c.name), X)
    if isinstance(c, AtLeast):
        return QAtom(CardPred(c.q, c.role), X)
    if isinstance(c, Not):
        return QNot(concept_star(c.arg))
    if isinstance(c, And):
        return QAnd(concept_star(c.left), concept_star(c.right))
    if isinstance(c, NextF):
        return QNextF(concept_star(c.arg))
    if isinstance(c, NextP):
        return QNextP(concept_star(c.arg))
    if isinstance(c, SomeF):
        return QSomeF(concept_star(c.arg))
    if isinstance(c, SomeP):
        return QSomeP(concept_star(c.arg))
    raise ValueError(f"concept not normalized: {type(c).__name__}")


def _box_star(f: Qtl, flow: str) -> Qtl:
    # over Z the universal box is AlwP AlwF; over N a single AlwF suffices
    # (the semantics is non-strict, so time 0 is covered)
    return QAlwF(f) if flow == "n" else QAlwP(QAlwF(f))


def _card_atom(q: int, role: Role) -> Qtl:
    return QAtom(CardPred(q, role), X)


def _check_n_flow_concept(c: Concept, where: str) -> None:
    from .kb import iter_subconcepts, NextP as KNextP, SomeP as KSomeP, AlwP as KAlwP

    for sub in iter_subconcepts(c):
        if isinstance(sub, (KNextP, KSomeP, KAlwP)):
            raise FlowViolation(f"past operator in {where} not allowed over the natural numbers")


def translate_tbox(kb: KnowledgeBase, ctx: TranslationContext) -> Qtl:
    """The conjunction of the CI axioms, cardinality monotonicity,
    global-role rigidity, and role-existence axioms."""
    flow = ctx.flow
    conjuncts: list[Qtl] = []

    for i, ci in enumerate(kb.tbox):
        if flow == "n":
            _check_n_flow_concept(ci.lhs, f"tbox[{i}]")
            _check_n_flow_concept(ci.rhs, f"tbox[{i}]")
        conjuncts.append(
            _box_star(QForAll(q_implies(concept_star(ci.lhs), concept_star(ci.rhs))), flow)
        )

    for role in ctx.roles_of_k:
        for i, q in enumerate(ctx.q_set):
            for qp in ctx.q_set[i + 1:]:
                conjuncts.append(
                    _box_star(
                        QForAll(q_implies(_card_atom(qp, role), _card_atom(q, role))), flow
                    )
                )

    for role in ctx.roles_of_k:
        if not kb.signature.is_global(role.name):
            continue
        for q in ctx.q_set:
            if flow == "n":
                conjuncts.append(
                    QAlwF(
                        QForAll(
                            q_implies(QSomeF(_card_atom(q, role)), QAlwF(_card_atom(q, role)))
                        )
                    )
                )
            else:
                conjuncts.append(
                    _box_star(
                        QForAll(q_implies(_card_atom(q, role), _box_star(_card_atom(q, role), flow))),
                        flow,
                    )
                )

    for role in ctx.roles_of_k:
        exists_r = _card_atom(1, role)
        p_r = QProp(names.role_prop(role))
        p_inv = QProp(names.role_prop(role.inverse()))
        witness = QAtom(CardPred(1, role), Const(names.witness_const(role)))
        if flow == "n":
            conjuncts.append(QAlwF(QForAll(q_implies(QSomeF(exists_r), QAlwF(p_r)))))
        else:
            conjuncts.append(_box_star(QForAll(q_implies(exists_r, _box_star(p_r, flow))), flow))
        conjuncts.append(q_implies(p_inv, witness))

    return q_conj(conjuncts)


def _shift(f: Qtl, n: int) -> Qtl:
    for _ in range(abs(n)):
        f = QNextF(f) if n > 0 else QNextP(f)
    return f


def unshift(f: Qtl) -> tuple[Qtl, int]:
    """The inverse of `_shift`: (g, n) with `_shift(g, n)` equal to f and
    g not a next-operator, or n = 0 when f mixes the two directions."""
    if not isinstance(f, (QNextF, QNextP)):
        return f, 0
    kind, n, g = type(f), 0, f
    while isinstance(g, kind):
        g, n = g.arg, n + 1
    if isinstance(g, (QNextF, QNextP)):
        return f, 0
    return g, n if kind is QNextF else -n


def translate_abox(kb: KnowledgeBase, ctx: TranslationContext) -> Qtl:
    """The conjunction of all concept-assertion literals, cardinality atoms
    for positive role facts, and translation-time clashes for negated role
    assertions contradicted by a positive fact at the same relevant time."""
    facts = close_abox_under_inverses(kb.abox)
    conjuncts: list[Qtl] = []

    for a in kb.abox:
        if ctx.flow == "n" and a.time < 0:
            raise FlowViolation(
                f"negative timestamp {a.time} not allowed over the natural numbers"
            )
        if isinstance(a, ConceptAssertion):
            lit: Qtl = QAtom(ConceptPred(a.concept), Const(a.individual))
            if not a.positive:
                lit = QNot(lit)
            conjuncts.append(_shift(lit, a.time))

    counts = {
        (sc.role, sc.individual, sc.time): sc.count
        for sc in successor_counts(kb, facts)
    }
    for f in facts:
        q = counts[(f.role, f.subject, f.time)]
        atom = QAtom(CardPred(q, f.role), Const(f.subject))
        conjuncts.append(_shift(atom, f.time))

    for a in kb.abox:
        if isinstance(a, RoleAssertion) and not a.positive:
            role = Role(a.role)
            is_global = kb.signature.is_global(a.role)
            if (a.subject, a.obj) in compute_a_n_r(facts, role, a.time, is_global):
                conjuncts.append(QFalsum())

    return q_conj(conjuncts)


def translate_kb(kb: KnowledgeBase, flow: str) -> tuple[Qtl, TranslationContext]:
    """Full dagger stage: normalize, build the context, conjoin TBox and
    ABox translations."""
    kb = normalize_kb(kb)
    ctx = build_context(kb, flow)
    return QAnd(translate_tbox(kb, ctx), translate_abox(kb, ctx)), ctx


# --- debug printing ---------------------------------------------------------

_Q_UNARY = {
    QNot: "NOT",
    QNextF: "X",
    QNextP: "Y",
    QSomeF: "SOMF",
    QSomeP: "SOMP",
    QAlwF: "ALWF",
    QAlwP: "ALWP",
}


def qtl_to_text(f: Qtl) -> str:
    parts: list[str] = []
    stack: list[object] = [f]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            parts.append(n)
        elif isinstance(n, QFalsum):
            parts.append("BOT")
        elif isinstance(n, QAtom):
            parts.append(f"{n.pred}({n.term})")
        elif isinstance(n, QProp):
            parts.append(n.name)
        elif isinstance(n, QAnd):
            stack.extend([")", n.right, " AND ", n.left, "("])
        elif isinstance(n, QForAll):
            stack.extend([")", n.body, "FORALL x. ("])
        else:
            stack.extend([")", n.arg, f"({_Q_UNARY[type(n)]} "])
    return "".join(parts)
