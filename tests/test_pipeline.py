"""The staged translation pipeline and its satisfiability entry point."""

from __future__ import annotations

import gc
import hashlib

import pytest

from tdlite.ground import EVERY_CONSTANT, GroundingContext, symbolic_grounding
from tdlite.kbparse import parse_kb
from tdlite import components, ltl, oracle, pastelim, solvers
from tdlite.ltl import (
    INFIX_TOKENS,
    _intern,
    optimize,
    parse_infix,
    structural_index,
)
from tdlite.pastelim import print_past_free
from tdlite.pipeline import (
    check_kb,
    kb_node_count,
    run_pipeline,
    solver_formula,
)
from tdlite.qtl import ConceptPred, QAtom, X
from tdlite.randgen import BatchSpec, generate_instance
from tdlite.names import SYNTHETIC_CONST
from tdlite.solvers import (
    _INFIX_TOKENS,
    _SMV_TOKENS,
    emit,
    emit_infix,
    emit_smv,
    oracle_profile,
    run_solver,
)

from conftest import TOY_VERDICTS, handoff_kbs, load_toy, toy_text
from references import (
    chained_print_formula,
    count_props,
    depast,
    grounding,
    has_past,
    named_key,
    rebuilt_optimize,
    struct_eq,
    tree_size,
    tuple_keyed_intern,
)

UNSAT_KB = "SIG\nconcept A\nindividual x\nTBOX\nA SUB BOT\nABOX\nA(x)@0\n"
SAT_KB = "SIG\nconcept A\nindividual x\nTBOX\nA SUB X A\nABOX\nA(x)@0\n"


def test_stage_sequence_per_flow():
    kb = parse_kb(SAT_KB)
    z = run_pipeline(kb, "z")
    n = run_pipeline(kb, "n")
    assert [s.name for s in z.stages] == ["kb", "qtl1", "ltlp", "ltl"]
    assert [s.name for s in n.stages] == ["kb", "qtl1", "ltlp"]
    assert z.stages[0].nodes == kb_node_count(kb)
    # the ltl stage is the size of past elimination on the grounding
    past_free = depast(grounding(z))
    assert not has_past(past_free)
    assert (z.stage("ltl").nodes, z.stage("ltl").props) == (
        tree_size(past_free), count_props(past_free),
    )
    assert (n.stage("ltlp").nodes, n.stage("ltlp").props) == (
        tree_size(grounding(n)), count_props(grounding(n)),
    )
    with pytest.raises(KeyError):
        n.stage("ltl")


def test_trace_as_dict_round_trips_through_json():
    import json

    trace = run_pipeline(parse_kb(SAT_KB), "z")
    doc = json.loads(json.dumps(trace.as_dict()))
    assert doc["flow"] == "z"
    assert [s["name"] for s in doc["stages"]] == ["kb", "qtl1", "ltlp", "ltl"]
    assert all(s["wall-ms"] >= 0 for s in doc["stages"])
    assert trace.total_ms() >= 0


def test_the_repr_of_a_benchmark_scale_trace_stays_small():
    # the trace holds the qtl1 formula and the symbolic grounding, neither
    # of which its repr or its JSON form writes out
    kb = generate_instance(BatchSpec(F=1, N=7, Lt=100, Lc=20, Q=5, seed=20260824), 0, flow="z")
    trace = run_pipeline(kb, "z")
    assert len(trace.grounding.keys) > 10_000
    assert len(repr(trace)) < 4096
    assert "grounding=" not in repr(trace)
    assert len(repr(trace.grounding)) < 100
    assert set(trace.as_dict()) == {"flow", "stages"}


def test_kb_node_count():
    kb = parse_kb(UNSAT_KB)
    # one inclusion with two single-node sides, plus one assertion
    assert kb_node_count(kb) == 3


@pytest.mark.parametrize("flow", ["n", "z"])
def test_check_kb_in_process(flow):
    assert check_kb(parse_kb(UNSAT_KB), flow)[0] == "UNSAT"
    assert check_kb(parse_kb(SAT_KB), flow)[0] == "SAT"


def test_check_kb_via_profile():
    verdict, trace = check_kb(
        parse_kb(UNSAT_KB), "z", profile=oracle_profile(), cpu_seconds=60
    )
    assert verdict == "UNSAT"
    assert trace.stage("ltl").nodes > 0


def test_solver_input_is_past_free():
    # over ℤ the optimized grounding keeps its past operators, and the
    # emitters print its past elimination
    for flow in ("n", "z"):
        trace = run_pipeline(parse_kb(SAT_KB), flow)
        assert has_past(solver_formula(trace)) == (flow == "z")
        assert not has_past(parse_infix(emit_infix(solver_formula(trace), flow)))


GATE0_SMV_SHA256 = "902d8ce6cebde98d6bd39cadb5cad7be9c671a369a4cfb374dad89a7e6c80983"


def _assert_same_hand_off(trace, label):
    # solver_formula against the reference: the whole grounding optimized
    got, want = solver_formula(trace), optimize(grounding(trace))
    for input_format in ("smv", "infix-ltl"):
        assert emit(got, input_format, trace.flow) == emit(want, input_format, trace.flow), label


def test_solver_formula_is_optimize_of_the_grounding_on_the_handoff_kbs():
    for label, kb, flow in handoff_kbs():
        _assert_same_hand_off(run_pipeline(kb, flow), label)


def test_solver_formula_of_the_gate_instance_is_the_recorded_hand_off():
    kb = generate_instance(BatchSpec(F=1, N=7, Lt=100, Lc=20, Q=5, seed=20260824), 0, flow="z")
    trace = run_pipeline(kb, "z")
    text = emit_smv(solver_formula(trace), "z")
    assert text == emit_smv(optimize(grounding(trace)), "z")
    assert hashlib.sha256(text.encode()).hexdigest() == GATE0_SMV_SHA256


_SIG = "SIG\nconcept A\nconcept B\nlocal role R\nindividual a\nindividual b\n"
_EDGE_KBS = {
    # no universal conjunct: the ABox alone
    "empty TBox": "SIG\nconcept A\nindividual b\nindividual c\nTBOX\nABOX\n"
                  "A(b)@3\nNOT A(c)@2\nA(c)@5\n",
    "empty KB": "SIG\nconcept A\nTBOX\nABOX\n",
    # no individual and no role: the one synthetic constant, nothing renamed
    "synthetic constant": "SIG\nconcept A\nconcept B\nTBOX\nA SUB X A\nB SUB NOT A\nABOX\n",
    "one inclusion, one constant": "SIG\nconcept A\nTBOX\nA SUB ALWF A\nABOX\n",
    "one inclusion, two constants": "SIG\nconcept A\nindividual a\nindividual b\nTBOX\n"
                                    "A SUB ALWF A\nABOX\nA(a)@0\n",
    # X X ⊥ names no constant: one conjunct of the box body, not one per copy
    "constant-free conjunct": _SIG + "TBOX\nTOP SUB X X BOT\nA SUB B\nABOX\nA(a)@1\nR(a,b)@0\n",
    # X ⊥ and its negation, in every copy: falsum
    "complementary conjuncts": _SIG + "TBOX\nTOP SUB X BOT\nTOP SUB NOT X BOT\nA SUB B\n"
                               "ABOX\nA(a)@0\n",
    # boxes and next-formulas inside the box body merge across the copies
    "nested boxes": _SIG + "TBOX\nTOP SUB ALWF A\nTOP SUB ALWF B\nA SUB SOMF B\nABOX\nA(a)@0\n",
    "nested nexts": _SIG + "TBOX\nTOP SUB X A\nTOP SUB X X B\nTOP SUB X X BOT\nABOX\nB(b)@2\n",
    "conjunction body": _SIG + "TBOX\nTOP SUB A AND B\nA SUB X B\nABOX\nA(a)@0\n",
    # one constant: the merged X (A & B) meets the conjunct that negates it
    "merged next and its negation": "SIG\nconcept A\nconcept B\nindividual a\nTBOX\n"
                                    "TOP SUB X A\nTOP SUB X B\nX (A AND B) SUB BOT\nABOX\n",
    # X-chains of facts about several constants, merged level by level
    "long X-chains": _SIG + "TBOX\nA SUB X B\nABOX\nA(a)@30\nB(b)@25\nNOT A(b)@31\n"
                     "B(a)@40\nR(a,b)@12\n",
}


@pytest.mark.parametrize("flow", ["n", "z"])
@pytest.mark.parametrize("name", sorted(_EDGE_KBS))
def test_solver_formula_is_optimize_of_the_grounding_on_edge_cases(name, flow):
    trace = run_pipeline(parse_kb(_EDGE_KBS[name]), flow)
    _assert_same_hand_off(trace, name)
    text = ltl.to_infix(solver_formula(trace))
    if name == "empty TBox":
        assert all(p.about != EVERY_CONSTANT for p in trace.grounding.conjuncts)
    elif name == "synthetic constant":
        assert trace.grounding.constants == (SYNTHETIC_CONST,)
    elif name == "constant-free conjunct":
        assert len(trace.grounding.constants) == 4 and text.count("(X (X false))") == 1
    elif name in ("complementary conjuncts", "merged next and its negation"):
        assert text == "false"
    elif name == "long X-chains":
        once = optimize(grounding(trace))
        assert optimize(once) is once


@pytest.mark.parametrize("flow", ["n", "z"])
def test_solver_formula_is_optimize_of_the_grounding_on_deep_x_chains(flow):
    # chains of 12 and 13 X under boxes, merged all the way down in both
    kb = parse_kb(_SIG + "TBOX\nTOP SUB" + " X" * 12 + " A\nTOP SUB" + " X" * 13 + " B\nABOX\n")
    trace = run_pipeline(kb, flow)
    got, want = solver_formula(trace), optimize(grounding(trace))
    assert ltl.to_infix(got) == ltl.to_infix(want)
    assert optimize(want) is want


def _past_free(f, flow):
    """What a solver receives for f, as a formula: over ℤ the past
    elimination that the emitters print from the table."""
    return f if flow == "n" else depast(f)


def test_solver_formula_is_an_optimize_fixpoint():
    # past elimination writes already-simplified clauses, which is why the
    # solver's text needs no optimize pass after it
    for label, kb, flow in handoff_kbs():
        f = _past_free(solver_formula(run_pipeline(kb, flow)), flow)
        assert tree_size(optimize(f)) == tree_size(f), label


def test_optimize_matches_the_rebuilding_rounds_on_the_handoff_kbs():
    # optimize keeps unchanged nodes and carries them between rounds;
    # rounds that rebuild everything must print the same text
    for label, kb, flow in handoff_kbs():
        g = grounding(run_pipeline(kb, flow))
        f = optimize(g)
        assert ltl.to_infix(f) == ltl.to_infix(rebuilt_optimize(g)), label
        assert optimize(f) is f, label


def test_emitters_match_the_chained_printer_on_the_handoff_kbs():
    for label, kb, flow in handoff_kbs():
        f = _past_free(solver_formula(run_pipeline(kb, flow)), flow)
        for tokens in (_INFIX_TOKENS, _SMV_TOKENS):
            assert ltl.print_formula(f, tokens) == chained_print_formula(f, tokens), label


def test_printer_matches_the_built_translation_on_the_handoff_kbs():
    # the text written from the table, byte for byte the text of the
    # formula that past elimination builds, on the raw and the optimized
    # grounding of either flow
    for label, kb, flow in handoff_kbs():
        g = grounding(run_pipeline(kb, flow))
        for f in (g, optimize(g)):
            past_free = depast(f)
            for tokens in (INFIX_TOKENS, _INFIX_TOKENS, _SMV_TOKENS):
                assert print_past_free(f, tokens) == ltl.print_formula(past_free, tokens), label


def test_stage_sizes_count_every_occurrence():
    # the stages' sizes, computed from the symbolic grounding's table
    # alone, against a walk of the grounding and of its past elimination
    for label, kb, flow in handoff_kbs():
        trace = run_pipeline(kb, flow)
        g = grounding(trace)
        final = g if flow == "n" else depast(g)
        assert trace.stage("ltlp").nodes == tree_size(g), label
        assert trace.stage("ltl" if flow == "z" else "ltlp").nodes == tree_size(final), label


def test_stage_props_count_every_proposition():
    # both counts come from the symbolic grounding's table, not from a
    # walk of the formula
    for label, kb, flow in handoff_kbs():
        trace = run_pipeline(kb, flow)
        g = grounding(trace)
        assert trace.stage("ltlp").props == count_props(g), label
        final = g if flow == "n" else depast(g)
        assert trace.stage("ltl" if flow == "z" else "ltlp").props == count_props(final), label


def test_run_pipeline_prints_no_past_free_formula(monkeypatch):
    def refuse(f, tokens):
        raise AssertionError("printed a past-free formula")

    monkeypatch.setattr(solvers, "print_past_free", refuse)
    kb = load_toy("ex1")
    trace = run_pipeline(kb, "z")
    assert trace.stage("ltl").nodes > trace.stage("ltlp").nodes
    # an in-process check prints none either
    assert check_kb(kb, "z")[0] == TOY_VERDICTS["ex1"]


def test_intern_matches_the_tuple_keyed_reference_on_the_handoff_kbs():
    # the surrogate names s{uid}, and with them the SMV bytes, depend on
    # the uids and the order of the representatives
    for label, kb, flow in handoff_kbs():
        g = grounding(run_pipeline(kb, flow))
        for f in (g, optimize(g)):
            ref_uid_of, ref_keys = {}, {}
            tuple_keyed_intern(f, ref_uid_of, ref_keys)
            uid_of, keys = {}, {}
            _intern(f, uid_of, keys)
            assert uid_of == ref_uid_of, label
            assert [named_key(k) for k in keys] == list(ref_keys), label
            assert structural_index(f) == list(keys), label


@pytest.mark.parametrize("name", ["ex1_tbox", "ex2_variant"])
def test_an_in_process_z_check_keys_the_grounding_once(monkeypatch, name):
    # only the combined word's re-check grounds the whole KB, and it keys
    # that grounding once; no stage grounds or keys it
    grounded, keyed = [], []
    real_ground = components.ground

    def spy(sg, parts=None, constant=None, fixed=None):
        g = real_ground(sg, parts, constant, fixed)
        grounded.append((parts, g))
        return g

    monkeypatch.setattr(components, "ground", spy)
    for module in (pastelim, oracle):
        index = module.structural_index
        monkeypatch.setattr(module, "structural_index",
                            lambda f, index=index: keyed.append(f) or index(f))
    verdict, trace = check_kb(load_toy(name), "z")
    assert verdict == TOY_VERDICTS[name] == "SAT"
    (whole,) = [g for parts, g in grounded if parts is None]
    assert struct_eq(whole, grounding(trace))
    assert sum(f is whole for f in keyed) == 1


def test_run_solver_on_solver_formula():
    trace = run_pipeline(parse_kb(SAT_KB), "n")
    res = run_solver(oracle_profile(), solver_formula(trace), cpu_seconds=60)
    assert res.verdict == "SAT"


def test_oracle_profile_reads_a_late_timestamp():
    # a fact at 200 puts a 200-deep X chain into the solver's infix input
    kb = parse_kb(toy_text("ex1_tbox") + "Adult(John)@200\n")
    res = run_solver(oracle_profile(), solver_formula(run_pipeline(kb, "n")), cpu_seconds=60)
    assert res.verdict == "SAT"


# --- the stages pause the cyclic collector and always restore it -----------

def test_run_pipeline_leaves_the_collector_enabled():
    assert gc.isenabled()
    for flow in ("n", "z"):
        run_pipeline(parse_kb(SAT_KB), flow)
        assert gc.isenabled()


def test_grounding_restores_the_collector_when_it_raises():
    free = QAtom(ConceptPred("A"), X)  # a variable outside any quantifier
    assert gc.isenabled()
    with pytest.raises(ValueError, match="free variable"):
        symbolic_grounding(free, GroundingContext(("x",)))
    assert gc.isenabled()


def test_run_pipeline_keeps_a_disabled_collector_disabled():
    gc.disable()
    try:
        run_pipeline(parse_kb(SAT_KB), "z")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_optimize_leaves_the_collector_enabled():
    g = grounding(run_pipeline(parse_kb(SAT_KB), "z"))
    assert gc.isenabled()
    optimize(g)
    assert gc.isenabled()


def test_optimize_restores_the_collector_when_it_raises(monkeypatch):
    seen = []

    def failing_simplify(f, *state):
        seen.append(gc.isenabled())
        raise RuntimeError("simplify failed")

    monkeypatch.setattr(ltl, "simplify", failing_simplify)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="simplify failed"):
        optimize(grounding(run_pipeline(parse_kb(SAT_KB), "z")))
    assert seen == [False]  # paused while it ran
    assert gc.isenabled()


def test_optimize_keeps_a_disabled_collector_disabled():
    g = grounding(run_pipeline(parse_kb(SAT_KB), "z"))
    gc.disable()
    try:
        optimize(g)
        assert not gc.isenabled()
    finally:
        gc.enable()
