"""Grounding the one-variable stage into propositional LTL."""

from __future__ import annotations

import pytest

from tdlite import components
from tdlite.ground import (
    EVERY_CONSTANT,
    SYMBOL,
    GroundingContext,
    ground,
    symbolic_grounding,
)
from tdlite.kb import Atomic, ConceptInclusion, KnowledgeBase, Signature, normalize_kb
from tdlite.kbparse import parse_kb
from tdlite.ltl import LProp
from tdlite.names import SYNTHETIC_CONST, role_prop, witness_const
from tdlite.pipeline import check_kb, run_pipeline
from tdlite.qtl import (
    ConceptPred,
    Const,
    QAnd,
    QAtom,
    QForAll,
    QNot,
    q_conj,
    translate_kb,
)

from conftest import handoff_kbs, load_toy
from references import ground as reference_ground
from references import grounding, has_past, prop_names, renamed, struct_eq, tree_size
from test_pipeline import _EDGE_KBS


def _translate(name, flow):
    kb = load_toy(name)
    q, ctx = translate_kb(kb, flow)
    return kb, q, ctx


def _grounding(kb, q, ctx):
    return symbolic_grounding(q, GroundingContext.from_kb(normalize_kb(kb), ctx))


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
    sg = _grounding(kb, q, ctx)
    assert sg.constants == (SYNTHETIC_CONST,)
    assert prop_names(ground(sg)) == {f"c_a__{SYNTHETIC_CONST}"}


def test_grounded_props_mention_each_constant():
    props = prop_names(ground(_grounding(*_translate("ex1", "z"))))
    assert "c_adult__john" in props
    assert "c_minor__john" in props


def test_n_flow_grounding_of_future_kb_is_past_free():
    assert not has_past(ground(_grounding(*_translate("ex1", "n"))))


def test_z_flow_grounding_contains_past():
    # the universal box over Z unfolds through an always-in-the-past
    assert has_past(ground(_grounding(*_translate("ex1", "z"))))


def _component(sg, c):
    return [p for p in sg.conjuncts if p.about in (c, EVERY_CONSTANT)]


def test_grounding_scales_with_constant_count():
    sg = _grounding(*_translate("ex2", "z"))
    assert tree_size(ground(sg)) > tree_size(ground(sg, _component(sg, "p1"), "p1"))


def test_the_components_ground_to_the_whole_formula():
    sg = _grounding(*_translate("ex2", "n"))
    assert all(p.about is not None for p in sg.conjuncts)
    props = {c: prop_names(ground(sg, _component(sg, c), c)) for c in sg.constants}
    # each constant's conjuncts mention its own propositions and the role ones only
    for c, names in props.items():
        assert all(n.endswith("__" + c) or n.startswith("p__") for n in names)
    assert set().union(*props.values()) == prop_names(ground(sg))


@pytest.mark.parametrize("flow", ["n", "z"])
@pytest.mark.parametrize("name", ["ex2", "ex2_variant"])
def test_grounding_the_universal_conjuncts_elsewhere_renames_their_predicates(name, flow):
    sg = _grounding(*_translate(name, flow))
    first, *others = sg.constants
    universal = [p for p in sg.conjuncts if p.about == EVERY_CONSTANT]
    assert universal and others
    assert all(p.about in sg.constants for p in sg.conjuncts if p.about not in (EVERY_CONSTANT, None))
    at_first = ground(sg, universal, first)
    # the renamings the hand-off takes from the table's SYMBOL propositions
    symbolic = {key[1] for key in sg.keys if key[0] is LProp and SYMBOL in key[1]}
    assert {n.replace(SYMBOL, first) for n in symbolic} >= {
        n for n in prop_names(at_first) if n.endswith("__" + first)}
    for c in others:
        names = {n.replace(SYMBOL, first): n.replace(SYMBOL, c) for n in symbolic}
        assert struct_eq(ground(sg, universal, c), renamed(at_first, names))


def test_a_conjunct_about_two_constants_is_rejected():
    a, b = (QAtom(ConceptPred("A"), Const(x)) for x in ("a", "b"))
    gctx = GroundingContext(("a", "b"))
    with pytest.raises(ValueError, match="more than one constant"):
        symbolic_grounding(QNot(QAnd(a, b)), gctx)
    with pytest.raises(ValueError, match="under a quantifier"):
        symbolic_grounding(QForAll(a), gctx)
    q, _ = translate_kb(load_toy("ex2"), "n")
    with pytest.raises(ValueError, match="'marc'"):
        symbolic_grounding(q, GroundingContext(("p1",)))
    sg = symbolic_grounding(QAnd(a, QAnd(b, QAnd(b, b))), gctx)
    assert [(p.node, p.about) for p in sg.conjuncts] == [(a, "a"), (b, "b"), (b, "b"), (b, "b")]


# --- every grounding the program builds, against the reference walk ---------------

def _kbs():
    # the hand-off corpus holds the toy KBs in both flows
    for label, kb, flow in handoff_kbs():
        # the gate instances do not decide in process within a test's time
        yield label, kb, flow, not label.startswith("gate")
    for name in sorted(_EDGE_KBS):
        for flow in ("n", "z"):
            yield f"{name}/{flow}", parse_kb(_EDGE_KBS[name]), flow, True


def _components_tried(monkeypatch, kb, flow):
    """The (parts, constant, fixed) of every component grounding an
    in-process check builds."""
    calls = []
    real = components.ground

    def spy(sg, parts=None, constant=None, fixed=None):
        if parts is not None:
            calls.append((parts, constant, fixed))
        return real(sg, parts, constant, fixed)

    monkeypatch.setattr(components, "ground", spy)
    check_kb(kb, flow)
    monkeypatch.undo()
    return calls


_CASES = list(_kbs())


@pytest.mark.parametrize("case", _CASES, ids=[case[0] for case in _CASES])
def test_the_builder_matches_the_reference_walk(monkeypatch, case):
    # the whole grounding, each component under each set of role
    # propositions held true, and the universal part at each constant
    _, kb, flow, checked = case
    trace = run_pipeline(kb, flow)
    sg = trace.grounding
    assert struct_eq(ground(sg), grounding(trace))
    if checked:
        tried = _components_tried(monkeypatch, kb, flow)
        assert tried
    else:
        # the first set check_by_constant tries, every role proposition
        # held true, and the empty set
        props = [role_prop(r) for r in trace.qtl_ctx.roles_of_k]
        shared = [p for p in sg.conjuncts if p.about is None]
        labelled = ([(None, shared)] if shared else []) + [(c, _component(sg, c)) for c in sg.constants]
        tried = [(parts, c, {p: keep for p in props})
                 for c, parts in labelled for keep in (True, False)]
    for parts, c, fixed in tried:
        gctx = GroundingContext(() if c is None else (c,))
        want = reference_ground(q_conj([p.node for p in parts]), gctx, fixed)
        assert struct_eq(ground(sg, parts, c, fixed), want), (c, fixed)
    universal = [p for p in sg.conjuncts if p.about == EVERY_CONSTANT]
    for c in sg.constants:
        want = reference_ground(q_conj([p.node for p in universal]), GroundingContext((c,)))
        assert struct_eq(ground(sg, universal, c), want), c
