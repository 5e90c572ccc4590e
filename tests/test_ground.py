"""Grounding the one-variable stage into propositional LTL."""

from __future__ import annotations

import pytest

from tdlite.ground import (
    EVERY_CONSTANT,
    GroundingContext,
    conjuncts_about,
    ground,
    renamings,
    split_by_constant,
)
from tdlite.kb import (
    Atomic,
    ConceptAssertion,
    ConceptInclusion,
    KnowledgeBase,
    Signature,
    normalize_kb,
)
from tdlite.names import SYNTHETIC_CONST, witness_const
from tdlite.qtl import (
    ConceptPred,
    Const,
    QAnd,
    QAtom,
    QForAll,
    QNot,
    build_context,
    q_conj,
    translate_kb,
)

from conftest import load_toy
from references import has_past, prop_names, renamed, struct_eq, tree_size


def _translate(name, flow):
    kb = load_toy(name)
    q, ctx = translate_kb(kb, flow)
    return kb, q, ctx


def test_constants_are_individuals_plus_witnesses():
    kb, _, ctx = _translate("ex2", "z")
    gctx = GroundingContext.from_kb(normalize_kb(kb), ctx)
    assert len(gctx.constants) == len(kb.signature.individuals) + len(ctx.roles_of_k)
    assert "p1" in gctx.constants
    for role in ctx.roles_of_k:
        assert witness_const(role) in gctx.constants


def test_empty_domain_gets_synthetic_constant():
    sig = Signature(frozenset({"A"}), frozenset(), frozenset(), frozenset())
    kb = KnowledgeBase(sig, (ConceptInclusion(Atomic("A"), Atomic("A")),), ())
    q, ctx = translate_kb(kb, "n")
    gctx = GroundingContext.from_kb(normalize_kb(kb), ctx)
    assert gctx.constants == (SYNTHETIC_CONST,)
    assert prop_names(ground(q, gctx)) == {f"c_a__{SYNTHETIC_CONST}"}


def test_grounded_props_mention_each_constant():
    kb, q, ctx = _translate("ex1", "z")
    gctx = GroundingContext.from_kb(normalize_kb(kb), ctx)
    props = prop_names(ground(q, gctx))
    assert "c_adult__john" in props
    assert "c_minor__john" in props


def test_n_flow_grounding_of_future_kb_is_past_free():
    kb, q, ctx = _translate("ex1", "n")
    g = ground(q, GroundingContext.from_kb(normalize_kb(kb), ctx))
    assert not has_past(g)


def test_z_flow_grounding_contains_past():
    kb, q, ctx = _translate("ex1", "z")
    g = ground(q, GroundingContext.from_kb(normalize_kb(kb), ctx))
    # the universal box over Z unfolds through an always-in-the-past
    assert has_past(g)


def test_grounding_scales_with_constant_count():
    kb, q, ctx = _translate("ex2", "z")
    small = GroundingContext(constants=("p1",))
    full = GroundingContext.from_kb(normalize_kb(kb), ctx)
    assert tree_size(ground(q, full)) > tree_size(ground(q, small))


def test_split_by_constant_grounds_to_the_whole_formula():
    kb, q, ctx = _translate("ex2", "n")
    gctx = GroundingContext.from_kb(kb, ctx)
    shared, per_const = split_by_constant(q, gctx.constants)
    assert shared == []
    assert list(per_const) == list(gctx.constants)
    props = {c: prop_names(ground(q_conj(parts), GroundingContext((c,))))
             for c, parts in per_const.items()}
    # each constant's conjuncts mention its own propositions and the role ones only
    for c, names in props.items():
        assert all(n.endswith("__" + c) or n.startswith("p__") for n in names)
    assert set().union(*props.values()) == prop_names(ground(q, gctx))


@pytest.mark.parametrize("flow", ["n", "z"])
@pytest.mark.parametrize("name", ["ex2", "ex2_variant"])
def test_grounding_the_universal_conjuncts_elsewhere_renames_their_predicates(name, flow):
    kb, q, ctx = _translate(name, flow)
    constants = GroundingContext.from_kb(kb, ctx).constants
    labelled = conjuncts_about(q)
    universal = [part for part, about in labelled if about == EVERY_CONSTANT]
    assert universal and len(constants) > 1
    assert all(about in constants for _, about in labelled if about not in (EVERY_CONSTANT, None))
    at_first = ground(q_conj(universal), GroundingContext(constants[:1]))
    for c, names in zip(constants[1:], renamings(universal, constants)):
        assert struct_eq(ground(q_conj(universal), GroundingContext((c,))), renamed(at_first, names))
        assert set(names) == {n for n in prop_names(at_first) if n.endswith("__" + constants[0])}


def test_split_by_constant_rejects_a_conjunct_about_two_constants():
    a, b = (QAtom(ConceptPred("A"), Const(x)) for x in ("a", "b"))
    with pytest.raises(ValueError):
        split_by_constant(QNot(QAnd(a, b)), ("a", "b"))
    with pytest.raises(ValueError):
        split_by_constant(QForAll(a), ("a", "b"))
    shared, per_const = split_by_constant(QAnd(a, QAnd(b, QAnd(b, b))), ("a", "b"))
    assert per_const == {"a": [a], "b": [b, b, b]}
