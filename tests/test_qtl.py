"""The first-order temporal translation stage."""

from __future__ import annotations

import pytest

from tdlite.kb import (
    AtLeast,
    Atomic,
    ConceptAssertion,
    ConceptInclusion,
    KnowledgeBase,
    NextP,
    Role,
    RoleAssertion,
    Signature,
    SomeP,
)
from tdlite.qtl import (
    CardPred,
    FlowViolation,
    QFalsum,
    build_context,
    qtl_size,
    translate_kb,
    translate_tbox,
)
from tdlite.kb import normalize_kb
from tdlite.randgen import BatchSpec, generate_instance

from conftest import count_monotonicity_conjuncts, load_toy, qand_spine
from references import eq2_conjunct_count


def _sig(**kw):
    base = dict(
        concepts=frozenset(),
        global_roles=frozenset(),
        local_roles=frozenset(),
        individuals=frozenset(),
    )
    base.update({k: frozenset(v) for k, v in kw.items()})
    return Signature(**base)


def test_context_roles_include_inverses():
    kb = load_toy("ex2")
    ctx = build_context(normalize_kb(kb), "z")
    names = {(r.name, r.inverted) for r in ctx.roles_of_k}
    assert names == {("Name", False), ("Name", True)}


def test_context_q_set_collects_tbox_and_abox_cardinalities():
    kb = load_toy("ex2")
    ctx = build_context(normalize_kb(kb), "z")
    # 1 is always present, 2 from the TBox; p1 has two Name fillers once
    # the role is treated as global, so the ABox contributes 2 as well
    assert set(ctx.q_set) == {1, 2}
    assert list(ctx.q_set) == sorted(ctx.q_set)


def test_eq2_closed_form_matches_structural_count():
    kb = normalize_kb(load_toy("ex2"))
    ctx = build_context(kb, "z")
    f = translate_tbox(kb, ctx)
    want = len(ctx.roles_of_k) * len(ctx.q_set) * (len(ctx.q_set) - 1) // 2
    assert eq2_conjunct_count(ctx) == want
    assert count_monotonicity_conjuncts(f, len(kb.tbox)) == want


def test_translation_grows_with_kb():
    kb = load_toy("ex1")
    q, _ = translate_kb(kb, "z")
    assert qtl_size(q) > len(kb.tbox) + len(kb.abox)


def test_n_flow_rejects_past_operator_in_tbox():
    sig = _sig(concepts={"A"})
    kb = KnowledgeBase(sig, (ConceptInclusion(SomeP(Atomic("A")), Atomic("A")),), ())
    with pytest.raises(FlowViolation):
        translate_kb(kb, "n")
    # the same KB is fine over the integers
    translate_kb(kb, "z")


def test_n_flow_rejects_negative_timestamp():
    sig = _sig(concepts={"A"}, individuals={"x"})
    kb = KnowledgeBase(sig, (), (ConceptAssertion(True, "A", "x", -1),))
    with pytest.raises(FlowViolation):
        translate_kb(kb, "n")


def test_unknown_flow_is_rejected():
    kb = KnowledgeBase(_sig(), (), ())
    with pytest.raises(ValueError):
        build_context(kb, "q")


def test_contradicted_negative_role_assertion_yields_falsum():
    sig = _sig(global_roles={"R"}, individuals={"x", "y"})
    kb = KnowledgeBase(
        sig,
        (),
        (
            RoleAssertion(True, "R", "x", "y", 0),
            # the role is global, so denying the same pair at another
            # instant is already contradictory at translation time
            RoleAssertion(False, "R", "x", "y", 5),
        ),
    )
    q, _ = translate_kb(kb, "z")
    assert any(isinstance(c, QFalsum) for c in qand_spine(q))


def test_abox_successor_counts_feed_cardinalities():
    kb = normalize_kb(load_toy("ex2"))
    ctx = build_context(kb, "z")
    q, _ = translate_kb(kb, "z")
    # p1 holds two Name fillers, so a >= 2 atom must be asserted somewhere
    preds = set()

    def walk(f):
        stack = [f]
        while stack:
            n = stack.pop()
            if hasattr(n, "pred"):
                preds.add(n.pred)
            for attr in ("arg", "left", "right", "body"):
                child = getattr(n, attr, None)
                if child is not None:
                    stack.append(child)

    walk(q)
    assert CardPred(2, Role("Name")) in preds


def test_random_kbs_translate_without_error():
    spec = BatchSpec(F=15, N=2, Lt=3, Lc=4, Q=2, abox_size=4, seed=3)
    for i in range(spec.F):
        kb = generate_instance(spec, i, temporal=True, flow="z")
        q, ctx = translate_kb(kb, "z")
        assert qtl_size(q) > 0
        assert set(ctx.q_set) >= {1}
