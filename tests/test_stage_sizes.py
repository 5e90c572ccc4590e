"""The `ltlp` and `ltl` stage sizes, which the pipeline takes from the
symbolic grounding (`ground.symbolic_grounding`), against the same sizes
counted on the whole grounding and on its past elimination's table."""

from __future__ import annotations

import pytest

from tdlite import cli, components, ground as ground_module, pipeline
from tdlite.ground import (
    EVERY_CONSTANT,
    SYMBOL,
    GroundingContext,
    symbolic_grounding,
)
from tdlite.kbparse import parse_kb
from tdlite.ltl import LNextF, LProp
from tdlite.names import SYNTHETIC_CONST, concept_prop
from tdlite.pipeline import check_kb, run_pipeline
from tdlite.qtl import QFalsum, translate_kb
from tdlite.randgen import BatchSpec, generate_instance
from tdlite.solvers import SolverProfile

from conftest import TOY_VERDICTS, handoff_kbs, load_toy, toy_text
from references import grounded_sizes, grounding, iter_nodes, recorded_sizes, struct_eq

GATE_SPEC = BatchSpec(F=1, N=7, Lt=100, Lc=20, Q=5, seed=20260824)


def _assert_exact(kb, flow, label):
    trace = run_pipeline(kb, flow)
    assert recorded_sizes(trace) == grounded_sizes(trace), label
    return trace


def test_stage_sizes_are_exact_on_the_handoff_kbs():
    # the toy corpus in both flows, and the random gate and ABox instances
    for label, kb, flow in handoff_kbs():
        _assert_exact(kb, flow, label)


@pytest.mark.parametrize("index", [0, 1, 5])
def test_stage_sizes_are_exact_on_gate_instances(index):
    _assert_exact(generate_instance(GATE_SPEC, index, flow="z"), "z", f"gate#{index}")


@pytest.mark.parametrize("temporal", [False, True])
@pytest.mark.parametrize("allow_bottom", [False, True])
def test_stage_sizes_are_exact_on_random_kbs(temporal, allow_bottom):
    # 4 ABox sizes x 75 instances, alternating the flow: 1,200 KBs over
    # the four parametrizations
    for abox_size in (1, 2, 3, 4):
        spec = BatchSpec(F=75, N=2, Lt=3, Lc=4, Q=2, abox_size=abox_size, seed=1800 + abox_size)
        for i in range(spec.F):
            flow = "nz"[i % 2]
            kb = generate_instance(spec, i, temporal=temporal, allow_bottom=allow_bottom, flow=flow)
            _assert_exact(kb, flow, f"abox {abox_size} #{i}/{flow}")


_SIG = "SIG\nconcept A\nconcept B\nlocal role R\nindividual a\nindividual b\n"
_EDGE_KBS = {
    # one constant: the conjunction of one body's copies is the body
    "one constant": "SIG\nconcept A\nconcept B\nindividual a\nTBOX\nA SUB X B\n"
                    "B SUB SOMF A\nABOX\nA(a)@0\nNOT B(a)@2\n",
    "synthetic constant": "SIG\nconcept A\nconcept B\nTBOX\nA SUB X A\nB SUB NOT A\nABOX\n",
    "empty TBox": "SIG\nconcept A\nindividual b\nindividual c\nTBOX\nABOX\n"
                  "A(b)@3\nNOT A(c)@2\nA(c)@5\n",
    "empty ABox": "SIG\nconcept A\nconcept B\nindividual a\nindividual b\nTBOX\n"
                  "A SUB X B\nB SUB SOMF A\nABOX\n",
    # a body that names no proposition about its constant: its copies are
    # one formula
    "constant-free body": _SIG + "TBOX\nTOP SUB X BOT\nA SUB B\nABOX\nA(a)@0\n",
    # the inclusion is also the monotonicity conjunct of `>= 2 R` and `>= 1 R`
    "two identical universal conjuncts": _SIG + "TBOX\n>= 2 R SUB >= 1 R\nA SUB B\nABOX\nA(a)@0\n",
    # the ABox's last two facts ground to the body's conjunction at `a`
    "X-chain in the TBox": _SIG + "TBOX\nX A AND X X B SUB A\nABOX\nA(a)@1\nB(a)@2\n",
    # a negated role fact contradicted at the same time: falsum
    "falsum fact": _SIG + "TBOX\nA SUB B\nABOX\nR(a,b)@0\nNOT R(a,b)@0\n",
}


@pytest.mark.parametrize("flow", ["n", "z"])
@pytest.mark.parametrize("name", sorted(_EDGE_KBS))
def test_stage_sizes_are_exact_on_edge_cases(name, flow):
    trace = _assert_exact(parse_kb(_EDGE_KBS[name]), flow, name)
    parts = [(p.node, p.about) for p in trace.grounding.conjuncts]
    universal = [part for part, about in parts if about == EVERY_CONSTANT]
    if name == "one constant":
        assert trace.grounding.constants == ("a",)
    elif name == "synthetic constant":
        assert trace.grounding.constants == (SYNTHETIC_CONST,)
    elif name == "empty TBox":
        assert not universal
    elif name == "empty ABox":
        assert all(about == EVERY_CONSTANT for _, about in parts)
    elif name == "constant-free body":
        assert len(trace.grounding.constants) == 2
    elif name == "two identical universal conjuncts":
        assert len(set(universal)) == len(universal) - 1
    elif name == "X-chain in the TBox":
        g = grounding(trace)
        assert any(struct_eq(n, g.right) for n in iter_nodes(g.left))
    elif name == "falsum fact":
        assert any(part == QFalsum() and about is None for part, about in parts)


def test_a_key_stands_for_its_copy_at_each_constant_it_is_grounded_at():
    # A SUB X B over a and b: the universal part has A, B and X B at both
    # constants, the fact about `a` adds nothing to it, and X X B is the
    # fact about `b` alone
    kb = parse_kb(_SIG + "TBOX\nA SUB X B\nABOX\nA(a)@0\nB(b)@2\n")
    q, ctx = translate_kb(kb, "n")
    gctx = GroundingContext.from_kb(kb, ctx)
    assert gctx.constants == ("a", "b")
    sg = symbolic_grounding(q, gctx)
    keys, copies = sg.keys, sg.copies
    uid = {key: u for u, key in enumerate(keys)}
    a, b = uid[(LProp, concept_prop("A", SYMBOL))], uid[(LProp, concept_prop("B", SYMBOL))]
    next_b = uid[(LNextF, b)]
    assert copies[a] == copies[b] == copies[next_b] == 2
    assert copies[uid[(LNextF, next_b)]] == 1


# --- no stage grounds the universal part at every constant ----------------------

def _guard(monkeypatch):
    """Make every module's `ground` refuse a universal conjunct over more
    than one constant: the whole grounding, or universal parts without
    a constant to ground them at."""
    real = ground_module.ground

    def guarded(sg, parts=None, constant=None, fixed=None):
        if len(sg.constants) > 1 and constant is None:
            universal = sg.conjuncts if parts is None else parts
            assert all(p.about != EVERY_CONSTANT for p in universal), \
                "grounded a universal conjunct at every constant"
        return real(sg, parts, constant, fixed)

    for module in (ground_module, pipeline, components, cli):
        if getattr(module, "ground", None) is real:
            monkeypatch.setattr(module, "ground", guarded)


def _kbs(flow):
    for name in sorted(TOY_VERDICTS):
        yield load_toy(name)
    yield parse_kb(_EDGE_KBS["constant-free body"])
    yield generate_instance(BatchSpec(F=1, N=3, Lt=10, Lc=6, Q=2, seed=20260824), 0, flow=flow)


@pytest.mark.parametrize("flow", ["n", "z"])
def test_the_profile_path_grounds_no_universal_conjunct_at_every_constant(monkeypatch, flow):
    _guard(monkeypatch)
    profile = SolverProfile(name="p", command=("true",), input_format="smv",
                            sat_pattern=r"^SAT$", unsat_pattern=r"^UNSAT$")
    for kb in _kbs(flow):
        _, trace = check_kb(kb, flow, profile=profile)
        assert trace.decomposition is None


@pytest.mark.parametrize("to", ["smv", "infix"])
def test_translate_grounds_no_universal_conjunct_at_every_constant(monkeypatch, tmp_path, to):
    _guard(monkeypatch)
    path = tmp_path / "in.kb"
    for name in sorted(TOY_VERDICTS):
        path.write_text(toy_text(name))
        for flow in ("n", "z"):
            out = tmp_path / "out"
            assert cli.main(["translate", str(path), "--flow", flow, "--to", to,
                             "--out", str(out)]) == cli.EXIT_SAT
            assert out.read_text().strip()


def test_the_guard_refuses_the_whole_grounding(monkeypatch):
    _guard(monkeypatch)
    trace = run_pipeline(load_toy("ex2"), "z")
    with pytest.raises(AssertionError, match="universal conjunct"):
        pipeline.ground(trace.grounding)
