"""Abstract syntax and well-formedness checks for temporal DL-Lite knowledge bases.

A knowledge base pairs a TBox (concept inclusions, which hold at every time
point) with a timestamped ABox.  Roles are split into *global* (time-invariant
extension) and *local* (time-varying) names; both can be inverted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, slots=True)
class Role:
    """A role name, possibly inverted."""

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


class Concept:
    """Base class for concept expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Bottom(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Top(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Atomic(Concept):
    name: str


@dataclass(frozen=True, slots=True)
class AtLeast(Concept):
    q: int
    role: Role


@dataclass(frozen=True, slots=True)
class Not(Concept):
    arg: Concept


@dataclass(frozen=True, slots=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, slots=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, slots=True)
class NextF(Concept):
    arg: Concept


@dataclass(frozen=True, slots=True)
class NextP(Concept):
    arg: Concept


@dataclass(frozen=True, slots=True)
class SomeF(Concept):
    arg: Concept


@dataclass(frozen=True, slots=True)
class SomeP(Concept):
    arg: Concept


@dataclass(frozen=True, slots=True)
class AlwF(Concept):
    arg: Concept


@dataclass(frozen=True, slots=True)
class AlwP(Concept):
    arg: Concept


_UNARY = (Not, NextF, NextP, SomeF, SomeP, AlwF, AlwP)
_BINARY = (And, Or)


def concept_size(c: Concept) -> int:
    """Number of AST nodes of a concept expression."""
    return sum(1 for _ in iter_subconcepts(c))


def normalize(c: Concept) -> Concept:
    """Expand syntactic sugar: Top, Or, AlwF and AlwP are rewritten away.

    Idempotent; all other node kinds are preserved structurally.
    """
    if isinstance(c, Top):
        return Not(Bottom())
    if isinstance(c, Or):
        return Not(And(Not(normalize(c.left)), Not(normalize(c.right))))
    if isinstance(c, AlwF):
        return Not(SomeF(Not(normalize(c.arg))))
    if isinstance(c, AlwP):
        return Not(SomeP(Not(normalize(c.arg))))
    if isinstance(c, And):
        return And(normalize(c.left), normalize(c.right))
    if isinstance(c, Not):
        return Not(normalize(c.arg))
    if isinstance(c, NextF):
        return NextF(normalize(c.arg))
    if isinstance(c, NextP):
        return NextP(normalize(c.arg))
    if isinstance(c, SomeF):
        return SomeF(normalize(c.arg))
    if isinstance(c, SomeP):
        return SomeP(normalize(c.arg))
    return c


def iter_subconcepts(c: Concept) -> Iterable[Concept]:
    stack = [c]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, _BINARY):
            stack.append(n.left)
            stack.append(n.right)
        elif isinstance(n, _UNARY):
            stack.append(n.arg)


@dataclass(frozen=True, slots=True)
class ConceptInclusion:
    lhs: Concept
    rhs: Concept


@dataclass(frozen=True, slots=True)
class ConceptAssertion:
    positive: bool
    concept: str
    individual: str
    time: int


@dataclass(frozen=True, slots=True)
class RoleAssertion:
    # role is always a non-inverted role name in the user-facing syntax
    positive: bool
    role: str
    subject: str
    obj: str
    time: int


Assertion = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True, slots=True)
class Signature:
    concepts: frozenset[str]
    global_roles: frozenset[str]
    local_roles: frozenset[str]
    individuals: frozenset[str]

    def role_names(self) -> frozenset[str]:
        return self.global_roles | self.local_roles

    def is_global(self, role_name: str) -> bool:
        return role_name in self.global_roles


@dataclass(frozen=True, slots=True)
class KnowledgeBase:
    signature: Signature
    tbox: tuple[ConceptInclusion, ...]
    abox: tuple[Assertion, ...]


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: str
    message: str
    where: str = ""

    def __str__(self) -> str:
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.code}: {self.message}{loc}"


@dataclass(frozen=True, slots=True)
class RoleFact:
    """A positive role fact in the inverse-closed internal ABox form."""

    role: Role
    subject: str
    obj: str
    time: int


def close_abox_under_inverses(
    abox: Iterable[Union[Assertion, RoleFact]],
) -> tuple[RoleFact, ...]:
    """Inverse closure of the positive role assertions of an ABox.

    For every positive fact R(a,b)@n the result also contains R-(b,a)@n.
    The result is an internal representation; printed KBs never show
    inverted assertions.  Idempotent, order-preserving, duplicate-free.
    """
    seen: dict[RoleFact, None] = {}
    for a in abox:
        if isinstance(a, RoleFact):
            fact = a
        elif isinstance(a, RoleAssertion) and a.positive:
            fact = RoleFact(Role(a.role), a.subject, a.obj, a.time)
        else:
            continue
        inv = RoleFact(fact.role.inverse(), fact.obj, fact.subject, fact.time)
        seen.setdefault(fact, None)
        seen.setdefault(inv, None)
    return tuple(seen)


def normalize_kb(kb: KnowledgeBase) -> KnowledgeBase:
    """Normalize every CI and drop structural duplicates."""
    cis: dict[ConceptInclusion, None] = {}
    for ci in kb.tbox:
        cis.setdefault(ConceptInclusion(normalize(ci.lhs), normalize(ci.rhs)), None)
    abox: dict[Assertion, None] = {}
    for a in kb.abox:
        abox.setdefault(a, None)
    return KnowledgeBase(kb.signature, tuple(cis), tuple(abox))


def roles_in_kb(kb: KnowledgeBase) -> list[str]:
    """Sorted role names occurring in the TBox or ABox."""
    names: set[str] = set()
    for ci in kb.tbox:
        for c in (ci.lhs, ci.rhs):
            for sub in iter_subconcepts(c):
                if isinstance(sub, AtLeast):
                    names.add(sub.role.name)
    for a in kb.abox:
        if isinstance(a, RoleAssertion):
            names.add(a.role)
    return sorted(names)


def numbers_in_tbox(kb: KnowledgeBase) -> set[int]:
    qs: set[int] = set()
    for ci in kb.tbox:
        for c in (ci.lhs, ci.rhs):
            for sub in iter_subconcepts(c):
                if isinstance(sub, AtLeast):
                    qs.add(sub.q)
    return qs


def _check_name(name: str, kind: str, where: str, out: list[Diagnostic]) -> None:
    if not NAME_RE.match(name):
        out.append(Diagnostic("BAD_IDENTIFIER", f"invalid {kind} name {name!r}", where))


def validate(kb: KnowledgeBase) -> list[Diagnostic]:
    """All well-formedness diagnostics of a knowledge base; empty iff valid."""
    sig = kb.signature
    out: list[Diagnostic] = []

    overlap = sig.global_roles & sig.local_roles
    for name in sorted(overlap):
        out.append(
            Diagnostic("ROLE_KIND_OVERLAP", f"role {name!r} declared both global and local", "SIG")
        )
    for kind, names in (
        ("concept", sig.concepts),
        ("role", sig.role_names()),
        ("individual", sig.individuals),
    ):
        for name in sorted(names):
            _check_name(name, kind, "SIG", out)

    lowered: dict[str, str] = {}
    for name in sorted(sig.concepts | sig.role_names() | sig.individuals):
        prev = lowered.setdefault(name.lower(), name)
        if prev != name:
            out.append(
                Diagnostic(
                    "NAME_CASE_COLLISION",
                    f"names {prev!r} and {name!r} collide case-insensitively",
                    "SIG",
                )
            )

    def check_concept(c: Concept, where: str) -> None:
        for sub in iter_subconcepts(c):
            if isinstance(sub, Atomic) and sub.name not in sig.concepts:
                out.append(Diagnostic("UNDECLARED_NAME", f"concept {sub.name!r} not declared", where))
            elif isinstance(sub, AtLeast):
                if sub.q < 1:
                    out.append(Diagnostic("CARD_ZERO", "cardinality must be at least 1", where))
                if sub.role.name not in sig.role_names():
                    out.append(
                        Diagnostic("UNDECLARED_NAME", f"role {sub.role.name!r} not declared", where)
                    )

    for i, ci in enumerate(kb.tbox):
        check_concept(ci.lhs, f"tbox[{i}]")
        check_concept(ci.rhs, f"tbox[{i}]")

    for i, a in enumerate(kb.abox):
        where = f"abox[{i}]"
        if isinstance(a, ConceptAssertion):
            if a.concept not in sig.concepts:
                out.append(Diagnostic("UNDECLARED_NAME", f"concept {a.concept!r} not declared", where))
            if a.individual not in sig.individuals:
                out.append(
                    Diagnostic("UNDECLARED_NAME", f"individual {a.individual!r} not declared", where)
                )
        else:
            if a.role not in sig.role_names():
                out.append(Diagnostic("UNDECLARED_NAME", f"role {a.role!r} not declared", where))
            for ind in (a.subject, a.obj):
                if ind not in sig.individuals:
                    out.append(
                        Diagnostic("UNDECLARED_NAME", f"individual {ind!r} not declared", where)
                    )

    normed = normalize_kb(kb)
    if len(normed.tbox) < len(kb.tbox):
        out.append(Diagnostic("DUPLICATE_AXIOM", "duplicate concept inclusion after normalization", "TBOX"))
    if len(normed.abox) < len(kb.abox):
        out.append(Diagnostic("DUPLICATE_AXIOM", "duplicate assertion", "ABOX"))
    return out
