"""The staged translation pipeline and the satisfiability check built on it.

A knowledge base runs through up to three translation stages — the
one-variable first-order temporal formula, its propositional grounding,
and (over ℤ) the past-free rendering — with per-stage sizes and timings
collected in a trace.  The trace keeps the first formula and its symbolic
grounding (`ground.symbolic_grounding`), which grounds each universal
body and each fact once.  Of the other two stages it records only the
sizes, read off past elimination's table of the symbolic grounding
(`pastelim.SubformulaTable`).  Every grounding is built from that table
(`ground.ground`): `tdlite translate --to ltlp|ltl` builds the whole one
to print it, the second over ℤ from past elimination's table
(`pastelim.print_past_free`); in process, checking decides the grounding
one constant at a time (`components.check_by_constant`), and builds the
whole grounding only to re-check a combined SAT word; an external solver
profile gets `solver_formula`, the optimized grounding, which the
emitters print over ℤ with its past eliminated.
`solver_formula` is the one definition of what a solver receives;
`tdlite translate --to smv|infix` and `tdlite bench` use it too.  It
optimizes the universal part of the grounding at one constant and renames
the result to the others (`ltl.optimize_instances`), since the grounding
of ∀x φ(x) is one copy of φ per constant.
"""

from __future__ import annotations

import time
from typing import Optional

from .components import Decomposition, check_by_constant
from .ground import (
    EVERY_CONSTANT,
    SYMBOL,
    GroundingContext,
    SymbolicGrounding,
    ground,
    symbolic_grounding,
)
from .kb import KnowledgeBase, concept_size
from .ltl import LProp, Ltl, optimize_instances
from .pastelim import SubformulaTable
from .qtl import Qtl, TranslationContext, qtl_size, translate_kb
from .record import Record
from .solvers import SolverProfile, run_solver


class StageRecord(Record):
    __slots__ = ("name", "nodes", "props", "wall_ms")

    def __init__(self, name: str, nodes: int, props: Optional[int], wall_ms: float) -> None:
        self.name = name  # kb | qtl1 | ltlp | ltl
        self.nodes = nodes
        self.props = props
        self.wall_ms = wall_ms


class PipelineTrace(Record):
    """The stages of one run, filled in as the run goes; the one value
    class that changes after it is built, so it has no hash."""

    __slots__ = ("flow", "stages", "qtl", "qtl_ctx", "grounding", "decomposition")
    __hash__ = None

    def __init__(
        self,
        flow: str,
        stages: Optional[list[StageRecord]] = None,
        qtl: Optional[Qtl] = None,
        qtl_ctx: Optional[TranslationContext] = None,
        grounding: Optional[SymbolicGrounding] = None,
        decomposition: Optional[Decomposition] = None,
    ) -> None:
        self.flow = flow
        self.stages = [] if stages is None else stages
        self.qtl = qtl
        self.qtl_ctx = qtl_ctx
        # the symbolic grounding that every grounding is built from
        self.grounding = grounding
        # how an in-process check split the grounding; None for other runs
        self.decomposition = decomposition

    def __repr__(self) -> str:
        # the formula and the grounding are far too large to print
        return (f"PipelineTrace(flow={self.flow!r}, stages={self.stages!r}, "
                f"qtl_ctx={self.qtl_ctx!r}, decomposition={self.decomposition!r})")

    def stage(self, name: str) -> StageRecord:
        for rec in self.stages:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def total_ms(self) -> float:
        return sum(rec.wall_ms for rec in self.stages)

    def as_dict(self) -> dict:
        out = {
            "flow": self.flow,
            "stages": [
                {
                    "name": rec.name,
                    "nodes": rec.nodes,
                    "props": rec.props,
                    "wall-ms": round(rec.wall_ms, 3),
                }
                for rec in self.stages
            ],
        }
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.as_dict()
        return out


def kb_node_count(kb: KnowledgeBase) -> int:
    """Size of a knowledge base: concept nodes on both sides of every
    inclusion plus one node per assertion."""
    return sum(
        concept_size(ci.lhs) + concept_size(ci.rhs) for ci in kb.tbox
    ) + len(kb.abox)


def run_pipeline(kb: KnowledgeBase, flow: str) -> PipelineTrace:
    """Translate a knowledge base through every stage of its flow.

    Stage order is KB → qtl1 → ltlp → ltl; the last stage exists only in
    the ℤ flow, where past elimination is required (the ℕ flow's grounded
    formula is already past-free).  Neither the grounding nor its past
    elimination is built: the `ltlp` stage times the symbolic grounding
    and the grounding's size from its table, the `ltl` stage the
    arithmetic of past elimination over the same table.
    """
    trace = PipelineTrace(flow=flow)
    trace.stages.append(StageRecord("kb", kb_node_count(kb), None, 0.0))

    t0 = time.monotonic()
    q, ctx = translate_kb(kb, flow)
    wall = (time.monotonic() - t0) * 1000.0  # size accounting is not translation work
    trace.qtl, trace.qtl_ctx = q, ctx
    trace.stages.append(StageRecord("qtl1", qtl_size(q), None, wall))

    t0 = time.monotonic()
    trace.grounding = sg = symbolic_grounding(q, GroundingContext.from_kb(kb, ctx))
    table = SubformulaTable.of(sg.keys, sg.copies)
    nodes, props = table.input_size(), table.input_props()
    trace.stages.append(StageRecord("ltlp", nodes, props, (time.monotonic() - t0) * 1000.0))
    if flow == "z":
        t0 = time.monotonic()
        nodes, props = table.output_size(), table.output_props()
        trace.stages.append(StageRecord("ltl", nodes, props, (time.monotonic() - t0) * 1000.0))
    return trace


def check_kb(
    kb: KnowledgeBase,
    flow: str,
    profile: Optional[SolverProfile] = None,
    cpu_seconds: Optional[float] = None,
    memory_bytes: Optional[int] = None,
    keep_artifacts: bool = False,
) -> tuple[str, PipelineTrace]:
    """Satisfiability verdict for a knowledge base.

    Without a profile the built-in checker `oracle.z_sat` runs in
    process, one component per constant (`check_by_constant`, recorded in
    `trace.decomposition`), in both flows: an ℕ-flow grounding is
    past-free, and `z_sat` decides a past-free formula over ℕ.  Over ℤ
    there is no detour through past elimination, which roughly triples
    the state variables.  With a profile, `solver_formula(trace)` is
    handed to the external solver, for the trace's flow.
    """
    trace = run_pipeline(kb, flow)
    if profile is None:
        word, trace.decomposition = check_by_constant(trace.grounding, trace.qtl_ctx)
        return ("SAT" if word is not None else "UNSAT"), trace
    result = run_solver(
        profile,
        solver_formula(trace),
        trace.flow,
        cpu_seconds=cpu_seconds,
        memory_bytes=memory_bytes,
        keep_artifacts=keep_artifacts,
    )
    return result.verdict, trace


def solver_formula(trace: PipelineTrace) -> Ltl:
    """What an external solver gets: the optimized grounding, as
    `optimize(ground(trace.grounding))` gives it.  The emitters print it
    for the trace's flow (`solvers.emit`), over ℤ as its past-free
    translation, written from past elimination's table.

    It is built in two parts.  The universal conjuncts are grounded at
    the first constant, and `optimize_instances` optimizes each once and
    renames the results to the other constants (each of the table's
    SYMBOL propositions from its name at the first to its name there).
    The other conjuncts (ABox facts, witness demands, a constant-free
    falsum) are grounded at their constants and optimized together, so
    that the ○-chains of facts about different constants merge as they
    do in the whole grounding.  The first part's top conjuncts are boxes
    and the second's never are, and the dagger translation's first
    conjunct is universal whenever one is, so conjoining the two parts as
    they are puts every conjunct where `optimize` puts it.

    Past elimination writes clauses that are already simplified, so the ℤ
    text needs no second `optimize` pass.
    """
    sg = trace.grounding
    universal = [p for p in sg.conjuncts if p.about == EVERY_CONSTANT]
    first, *others = sg.constants
    # the conjunction's spine holds each part's grounding as a left child
    f = ground(sg, universal, first)
    pieces = []
    for _ in universal[1:]:
        pieces.append(f.left)
        f = f.right
    symbolic = [key[1] for key in sg.keys if key[0] is LProp and SYMBOL in key[1]]
    return optimize_instances(
        pieces + [f] if universal else [],
        [{name.replace(SYMBOL, first): name.replace(SYMBOL, c) for name in symbolic}
         for c in others],
        ground(sg, [p for p in sg.conjuncts if p.about != EVERY_CONSTANT]),
    )
