"""Abstract syntax and well-formedness checks for temporal DL-Lite knowledge bases.

A knowledge base pairs a TBox (concept inclusions, which hold at every time
point) with a timestamped ABox.  Roles are split into *global* (time-invariant
extension) and *local* (time-varying) names; both can be inverted.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from .record import Record

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Role(Record):
    """A role name, possibly inverted."""

    __slots__ = ("name", "inverted")

    def __init__(self, name: str, inverted: bool = False) -> None:
        self.name = name
        self.inverted = inverted

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


class Concept(Record):
    """Base class for concept expressions."""

    __slots__ = ()


class Bottom(Concept):
    __slots__ = ()


class Top(Concept):
    __slots__ = ()


class Atomic(Concept):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class AtLeast(Concept):
    __slots__ = ("q", "role")

    def __init__(self, q: int, role: Role) -> None:
        self.q = q
        self.role = role


class Not(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


class And(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        self.left = left
        self.right = right


class Or(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        self.left = left
        self.right = right


class NextF(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


class NextP(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


class SomeF(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


class SomeP(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


class AlwF(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


class AlwP(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        self.arg = arg


_UNARY = (Not, NextF, NextP, SomeF, SomeP, AlwF, AlwP)
_BINARY = (And, Or)


def concept_size(c: Concept) -> int:
    """Number of AST nodes of a concept expression."""
    return sum(1 for _ in iter_subconcepts(c))


def normalize(c: Concept) -> Concept:
    """Expand syntactic sugar: Top, Or, AlwF and AlwP are rewritten away.

    Idempotent; all other node kinds are preserved structurally.  A
    post-order walk with an explicit stack, so nesting depth is not
    bounded by the recursion limit.
    """
    out: list[Concept] = []  # the normalized children, left before right
    stack: list[tuple[Concept, bool]] = [(c, False)]
    while stack:
        n, children_done = stack.pop()
        if not children_done and isinstance(n, _BINARY + _UNARY):
            stack.append((n, True))
            stack.extend((k, False) for k in
                         ((n.right, n.left) if isinstance(n, _BINARY) else (n.arg,)))
        elif isinstance(n, _BINARY):
            right, left = out.pop(), out.pop()
            out.append(And(left, right) if isinstance(n, And)
                       else Not(And(Not(left), Not(right))))
        elif isinstance(n, AlwF):
            out.append(Not(SomeF(Not(out.pop()))))
        elif isinstance(n, AlwP):
            out.append(Not(SomeP(Not(out.pop()))))
        elif isinstance(n, _UNARY):
            out.append(type(n)(out.pop()))
        else:
            out.append(Not(Bottom()) if isinstance(n, Top) else n)
    return out[0]


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


class ConceptInclusion(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Concept, rhs: Concept) -> None:
        self.lhs = lhs
        self.rhs = rhs


class ConceptAssertion(Record):
    __slots__ = ("positive", "concept", "individual", "time")

    def __init__(self, positive: bool, concept: str, individual: str, time: int) -> None:
        self.positive = positive
        self.concept = concept
        self.individual = individual
        self.time = time


class RoleAssertion(Record):
    # role is always a non-inverted role name in the user-facing syntax
    __slots__ = ("positive", "role", "subject", "obj", "time")

    def __init__(self, positive: bool, role: str, subject: str, obj: str, time: int) -> None:
        self.positive = positive
        self.role = role
        self.subject = subject
        self.obj = obj
        self.time = time


Assertion = Union[ConceptAssertion, RoleAssertion]


class Signature(Record):
    __slots__ = ("concepts", "global_roles", "local_roles", "individuals")

    def __init__(
        self,
        concepts: frozenset[str],
        global_roles: frozenset[str],
        local_roles: frozenset[str],
        individuals: frozenset[str],
    ) -> None:
        self.concepts = concepts
        self.global_roles = global_roles
        self.local_roles = local_roles
        self.individuals = individuals

    def role_names(self) -> frozenset[str]:
        return self.global_roles | self.local_roles

    def is_global(self, role_name: str) -> bool:
        return role_name in self.global_roles


class KnowledgeBase(Record):
    __slots__ = ("signature", "tbox", "abox")

    def __init__(
        self,
        signature: Signature,
        tbox: tuple[ConceptInclusion, ...],
        abox: tuple[Assertion, ...],
    ) -> None:
        self.signature = signature
        self.tbox = tbox
        self.abox = abox


class Diagnostic(Record):
    __slots__ = ("code", "message", "where")

    def __init__(self, code: str, message: str, where: str = "") -> None:
        self.code = code
        self.message = message
        self.where = where

    def __str__(self) -> str:
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.code}: {self.message}{loc}"


class RoleFact(Record):
    """A positive role fact in the inverse-closed internal ABox form."""

    __slots__ = ("role", "subject", "obj", "time")

    def __init__(self, role: Role, subject: str, obj: str, time: int) -> None:
        self.role = role
        self.subject = subject
        self.obj = obj
        self.time = time


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
