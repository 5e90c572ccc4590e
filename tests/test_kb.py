"""Concept AST utilities, normalization, and knowledge-base validation."""

from __future__ import annotations

import sys

import pytest

from tdlite.kb import (
    AlwF,
    AlwP,
    And,
    AtLeast,
    Atomic,
    Bottom,
    ConceptAssertion,
    ConceptInclusion,
    KnowledgeBase,
    Not,
    Or,
    Role,
    RoleAssertion,
    Signature,
    SomeF,
    SomeP,
    Top,
    close_abox_under_inverses,
    concept_size,
    normalize,
    normalize_kb,
    numbers_in_tbox,
    roles_in_kb,
    validate,
)

from conftest import load_toy


def test_concept_size_counts_every_node():
    c = And(Not(Atomic("A")), SomeF(AtLeast(2, Role("R"))))
    assert concept_size(c) == 5
    assert concept_size(Bottom()) == 1


def test_concept_size_of_a_5000_deep_chain_without_recursing():
    # at CPython's default recursion limit, which `Bdd()` raises for the
    # whole process: a count that recursed once per nesting level would
    # raise RecursionError
    c = Atomic("A")
    for _ in range(5000):
        c = Not(c)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        size = concept_size(c)
    finally:
        sys.setrecursionlimit(limit)
    assert size == 5001


def test_normalize_of_a_3000_deep_chain_without_recursing():
    # each AlwF becomes three nodes, Not(SomeF(Not(...)))
    c = Atomic("A")
    for _ in range(3000):
        c = AlwF(c)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        size = concept_size(normalize(c))
    finally:
        sys.setrecursionlimit(limit)
    assert size == 9001


def test_normalize_rewrites_sugar():
    assert normalize(Top()) == Not(Bottom())
    a, b = Atomic("A"), Atomic("B")
    assert normalize(Or(a, b)) == Not(And(Not(a), Not(b)))
    assert normalize(AlwF(a)) == Not(SomeF(Not(a)))
    assert normalize(AlwP(a)) == Not(SomeP(Not(a)))


def test_normalize_is_idempotent():
    c = Or(AlwF(Atomic("A")), AlwP(And(Top(), Atomic("B"))))
    once = normalize(c)
    assert normalize(once) == once


def test_normalize_kb_drops_duplicates():
    sig = Signature(
        concepts=frozenset({"A", "B"}),
        global_roles=frozenset(),
        local_roles=frozenset(),
        individuals=frozenset({"x"}),
    )
    ci = ConceptInclusion(Atomic("A"), Atomic("B"))
    fact = ConceptAssertion(True, "A", "x", 0)
    kb = KnowledgeBase(sig, (ci, ci), (fact, fact))
    normed = normalize_kb(kb)
    assert len(normed.tbox) == 1
    assert len(normed.abox) == 1


def test_roles_and_numbers_collection():
    sig = Signature(
        concepts=frozenset({"A"}),
        global_roles=frozenset({"R"}),
        local_roles=frozenset({"S"}),
        individuals=frozenset({"x", "y"}),
    )
    kb = KnowledgeBase(
        sig,
        (ConceptInclusion(AtLeast(3, Role("R", inverted=True)), Atomic("A")),),
        (RoleAssertion(True, "S", "x", "y", 0),),
    )
    assert roles_in_kb(kb) == ["R", "S"]
    assert numbers_in_tbox(kb) == {3}


def test_close_abox_under_inverses_is_symmetric():
    facts = close_abox_under_inverses(
        (RoleAssertion(True, "R", "x", "y", 2), ConceptAssertion(True, "A", "x", 0))
    )
    pairs = {(f.role, f.subject, f.obj, f.time) for f in facts}
    assert (Role("R"), "x", "y", 2) in pairs
    assert (Role("R", inverted=True), "y", "x", 2) in pairs
    assert len(pairs) == 2


@pytest.mark.parametrize("name", ["ex1", "ex1_tbox", "ex2", "ex2_variant"])
def test_toy_corpus_validates_cleanly(name):
    assert validate(load_toy(name)) == []


def test_validate_flags_role_kind_overlap():
    sig = Signature(
        concepts=frozenset(),
        global_roles=frozenset({"R"}),
        local_roles=frozenset({"R"}),
        individuals=frozenset(),
    )
    kb = KnowledgeBase(sig, (), ())
    assert any(d.code == "ROLE_KIND_OVERLAP" for d in validate(kb))


def test_validate_flags_bad_identifier_and_case_collision():
    sig = Signature(
        concepts=frozenset({"A", "a", "9bad"}),
        global_roles=frozenset(),
        local_roles=frozenset(),
        individuals=frozenset(),
    )
    codes = {d.code for d in validate(KnowledgeBase(sig, (), ()))}
    assert "BAD_IDENTIFIER" in codes
    assert "NAME_CASE_COLLISION" in codes


def test_validate_flags_undeclared_names():
    sig = Signature(
        concepts=frozenset({"A"}),
        global_roles=frozenset(),
        local_roles=frozenset(),
        individuals=frozenset(),
    )
    kb = KnowledgeBase(
        sig,
        (ConceptInclusion(Atomic("B"), AtLeast(1, Role("R"))),),
        (ConceptAssertion(True, "A", "nobody", 0),),
    )
    messages = [(d.code, d.where) for d in validate(kb)]
    assert ("UNDECLARED_NAME", "tbox[0]") in messages
    assert ("UNDECLARED_NAME", "abox[0]") in messages


def test_validate_flags_duplicates_after_normalization():
    sig = Signature(
        concepts=frozenset({"A", "B"}),
        global_roles=frozenset(),
        local_roles=frozenset(),
        individuals=frozenset(),
    )
    # syntactically different, identical once the sugar is expanded
    kb = KnowledgeBase(
        sig,
        (
            ConceptInclusion(Atomic("A"), Not(Bottom())),
            ConceptInclusion(Atomic("A"), Top()),
        ),
        (),
    )
    assert any(d.code == "DUPLICATE_AXIOM" for d in validate(kb))
