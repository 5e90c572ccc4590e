"""Concrete syntax: tokenizer, parser, printer, and their round trip."""

from __future__ import annotations

import sys

import pytest

from tdlite.kb import (
    AlwF,
    And,
    AtLeast,
    Atomic,
    ConceptAssertion,
    Not,
    Or,
    Role,
    RoleAssertion,
)
from tdlite.kbparse import KbSyntaxError, parse_kb, print_concept, print_kb
from tdlite.randgen import BatchSpec, generate_instance

from conftest import TOY_VERDICTS, load_toy


def test_parse_ex1_structure():
    kb = load_toy("ex1")
    assert kb.signature.concepts == {"Adult", "Minor", "Person"}
    assert kb.signature.individuals == {"John"}
    assert len(kb.tbox) == 4
    assert ConceptAssertion(True, "Minor", "John", 2) in kb.abox


def test_parse_concept_operators():
    kb = parse_kb(
        "SIG\nconcept A\nglobal role R\nindividual x\nindividual y\n"
        "TBOX\nA AND >= 2 R- SUB ALWF A\n"
        "ABOX\nNOT R(x, y)@-3\n"
    )
    (ci,) = kb.tbox
    assert ci.lhs == And(Atomic("A"), AtLeast(2, Role("R", inverted=True)))
    assert ci.rhs == AlwF(Atomic("A"))
    assert kb.abox == (RoleAssertion(False, "R", "x", "y", -3),)


def test_operator_precedence():
    kb = parse_kb(
        "SIG\nconcept A\nconcept B\nconcept C\nTBOX\nNOT A AND B OR C SUB A\nABOX\n"
    )
    assert kb.tbox[0].lhs == Or(And(Not(Atomic("A")), Atomic("B")), Atomic("C"))


def test_print_concept_of_a_3000_deep_chain_without_recursing():
    # at CPython's default recursion limit, which `Bdd()` raises for the
    # whole process; each conjunction nests to the right, so each is
    # parenthesized
    c = Atomic("A")
    for _ in range(1500):
        c = Not(And(Atomic("B"), c))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = print_concept(c)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "NOT (B AND " * 1500 + "A" + ")" * 1500


@pytest.mark.parametrize("name", sorted(TOY_VERDICTS))
def test_toy_corpus_round_trips(name):
    kb = load_toy(name)
    assert parse_kb(print_kb(kb)) == kb


def test_random_kbs_round_trip():
    spec = BatchSpec(F=20, N=3, Lt=4, Lc=5, Q=2, abox_size=6, seed=5)
    for i in range(spec.F):
        kb = generate_instance(spec, i, temporal=(i % 2 == 0))
        assert parse_kb(print_kb(kb)) == kb


@pytest.mark.parametrize(
    "text",
    [
        "TBOX\nA SUB A\nABOX\n",  # missing SIG section
        "SIG\nconcept A\nTBOX\nA SUB\nABOX\n",  # truncated inclusion
        "SIG\nconcept A\nindividual x\nABOX\nA(x)@0\n",  # missing TBOX
        "SIG\nconcept A\nindividual x\nTBOX\nABOX\nA(x)\n",  # no timestamp
        "SIG\nconcept A\nTBOX\nA SUBB A\nABOX\n",  # unknown keyword
        "SIG\nrole R\nTBOX\nABOX\n",  # role without global/local kind
    ],
)
def test_syntax_errors_are_reported(text):
    with pytest.raises(KbSyntaxError):
        parse_kb(text)


def test_syntax_error_carries_location():
    try:
        parse_kb("SIG\nconcept A!\nTBOX\nABOX\n")
    except KbSyntaxError as e:
        assert (e.line, e.col) == (2, 10)
        assert str(e).startswith("2:10:")
    else:
        raise AssertionError("expected a syntax error")


def test_comments_and_blank_lines_are_ignored():
    kb = parse_kb(
        "# leading comment\n\nSIG\nconcept A   # trailing\n\nTBOX\nA SUB A\nABOX\n"
    )
    assert kb.signature.concepts == {"A"}
    assert len(kb.tbox) == 1
