"""The staged translation pipeline and the satisfiability check built on it.

A knowledge base runs through up to three translation stages — the
one-variable first-order temporal formula, its propositional grounding,
and (over ℤ) the past-free rendering — with per-stage sizes and timings
collected in a trace.  The trace keeps the first two formulas; of the
third it records only the size, taken from past elimination's table
(`SubformulaTable.output_size`).  No past-free formula is ever built:
`tdlite translate --to ltl` prints it from the table
(`pastelim.print_past_free`).  In process, checking decides the grounding
one constant at a time (`components.check_by_constant`); an external
solver profile gets `solver_formula`, the whole optimized grounding,
which the emitters print over ℤ with its past eliminated.
`solver_formula` is the one definition of what a solver receives;
`tdlite translate --to smv|infix` and `tdlite bench` use it too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .components import Decomposition, check_by_constant
from .ground import GroundingContext, ground
from .kb import KnowledgeBase, concept_size
from .ltl import Ltl, count_props, gc_paused, optimize, tree_size
from .pastelim import build_table
from .qtl import Qtl, TranslationContext, qtl_size, translate_kb
from .solvers import SolverProfile, run_solver

@dataclass(frozen=True, slots=True)
class StageRecord:
    name: str  # kb | qtl1 | ltlp | ltl
    nodes: int
    props: Optional[int]
    wall_ms: float


@dataclass(slots=True)
class PipelineTrace:
    flow: str
    stages: list[StageRecord] = field(default_factory=list)
    # formulas are far too deep for the recursive dataclass repr
    qtl: Optional[Qtl] = field(default=None, repr=False)
    qtl_ctx: Optional[TranslationContext] = None
    # the ℕ flow's final translation; over ℤ, its past elimination is
    grounded: Optional[Ltl] = field(default=None, repr=False)
    # how an in-process check split the grounding; None for other runs
    decomposition: Optional[Decomposition] = None

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
    formula is already past-free).  The `ltl` stage records the size of
    the grounding's past elimination without building it: it times the
    table of the grounding and the arithmetic over it.  Over ℤ that table
    also gives the `ltlp` stage's proposition count.
    """
    trace = PipelineTrace(flow=flow)
    trace.stages.append(StageRecord("kb", kb_node_count(kb), None, 0.0))

    t0 = time.monotonic()
    q, ctx = translate_kb(kb, flow)
    wall = (time.monotonic() - t0) * 1000.0  # size accounting is not translation work
    trace.qtl, trace.qtl_ctx = q, ctx
    trace.stages.append(StageRecord("qtl1", qtl_size(q), None, wall))

    t0 = time.monotonic()
    g = ground(q, GroundingContext.from_kb(kb, ctx))
    wall = (time.monotonic() - t0) * 1000.0
    trace.grounded = g
    if flow == "n":
        trace.stages.append(StageRecord("ltlp", tree_size(g), count_props(g), wall))
        return trace

    t0 = time.monotonic()
    with gc_paused():
        table = build_table(g)
        nodes, props = table.output_size(), table.output_props()
    ltl_wall = (time.monotonic() - t0) * 1000.0
    trace.stages.append(StageRecord("ltlp", tree_size(g), len(table.props), wall))
    trace.stages.append(StageRecord("ltl", nodes, props, ltl_wall))
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
        word, trace.decomposition = check_by_constant(
            trace.qtl,
            trace.qtl_ctx,
            GroundingContext.from_kb(kb, trace.qtl_ctx),
            trace.grounded,
        )
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
    """What an external solver gets: the optimized grounding.  The
    emitters print it for the trace's flow (`solvers.emit`), over ℤ as its
    past-free translation, written from past elimination's table.

    Past elimination writes clauses that are already simplified, so the ℤ
    text needs no second `optimize` pass.
    """
    return optimize(trace.grounded)
