"""Per-layer spans and counts, recorded from outside the program.

The program's modules import functions by name (`from .ltl import
optimize`), so a function is wrapped wherever a module holds it: every
`tdlite` module attribute bound to the original function object is
replaced by the wrapper.  Methods are wrapped on their class.  A target
that no longer exists is skipped and reports zero calls.

Each span adds its duration to its metric only when it is the outermost
active span of that metric, so recursion through a wrapped name is not
counted twice.  A span's self time is its duration minus the time its
direct child spans cover.  Counts (calls, nodes, bytes) are kept per
operation and kept only when the operation succeeds, so a check stopped
at the pass deadline leaves no partial counts behind; times are always
kept.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import Counter
from typing import Callable, Optional

# metric prefix -> (module, attribute) or (module, class, method) targets
SPANS: dict[str, list[tuple[str, ...]]] = {
    "kbparse": [("kbparse", "parse_kb")],
    "kb.validate": [("kb", "validate")],
    "randgen": [("randgen", "generate_instance")],
    "qtl": [("qtl", "translate_kb")],
    "ground": [("ground", "ground")],
    "pastelim": [("pastelim", "depast")],
    "ltl.optimize": [("ltl", "optimize")],
    "ltl.structural_index": [("ltl", "structural_index")],
    "ltl.size": [("ltl", "tree_size"), ("ltl", "count_props")],
    "pipeline": [("pipeline", "check_kb")],
    "pipeline.run_pipeline": [("pipeline", "run_pipeline")],
    "oracle": [("oracle", "ltl_sat"), ("oracle", "z_sat")],
    "oracle.engine": [("oracle", "_Engine", "__init__")],
    "oracle.prune": [("oracle", "_Engine", "prune_dead_ends")],
    "oracle.reach": [("oracle", "_Engine", "reach")],
    "oracle.fixpoint": [("oracle", "_Engine", "fair_states")],
    "oracle.extract": [("oracle", "_Engine", "extract"), ("oracle", "_Engine", "extract_bi")],
    "oracle.eval": [("oracle", "eval_on_lasso")],
    "bdd.and_exist": [("bdd", "Bdd", "and_exist")],
    "solvers.emit": [("solvers", "emit_smv"), ("solvers", "emit_infix")],
    "solvers.run": [("solvers", "run_solver")],
}

# the per-layer metrics reported, in order: (name, unit)
METRICS: list[tuple[str, str]] = [
    ("kbparse.ms", "ms"),
    ("kb.validate.ms", "ms"),
    ("qtl.ms", "ms"),
    ("qtl.nodes", "count"),
    ("ground.ms", "ms"),
    ("ground.nodes", "count"),
    ("ground.props", "count"),
    ("pastelim.ms", "ms"),
    ("pastelim.calls", "count"),
    ("pastelim.nodes", "count"),
    ("ltl.optimize.ms", "ms"),
    ("ltl.optimize.calls", "count"),
    ("ltl.structural_index.ms", "ms"),
    ("ltl.structural_index.calls", "count"),
    ("ltl.size.ms", "ms"),
    ("pipeline.ms", "ms"),
    ("pipeline.trace_gap_ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("oracle.ms", "ms"),
    ("oracle.engine.ms", "ms"),
    ("oracle.prune.ms", "ms"),
    ("oracle.prune.calls", "count"),
    ("oracle.reach.ms", "ms"),
    ("oracle.fixpoint.ms", "ms"),
    ("oracle.extract.ms", "ms"),
    ("oracle.eval.ms", "ms"),
    ("bdd.nodes", "count"),
    ("bdd.cache_entries", "count"),
    ("bdd.and_exist.calls", "count"),
    ("bdd.and_exist.ms", "ms"),
    ("solvers.emit.ms", "ms"),
    ("solvers.input_bytes", "count"),
    ("solvers.run.ms", "ms"),
    ("solvers.run.self_ms", "ms"),
    ("randgen.ms", "ms"),
]


class Tracer:
    def __init__(self) -> None:
        self.ms: Counter = Counter()
        self.self_ms: Counter = Counter()
        self.counts: Counter = Counter()  # kept: from operations that succeeded
        self.pending: Counter = Counter()  # the operation in progress
        self._stack: list[list] = []  # [metric, start, child seconds]
        self._active: Counter = Counter()
        self._bdd = None  # the Bdd of the check in progress

    # --- spans ---

    def _wrap(self, metric: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [metric, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._active[metric] += 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                dur = time.perf_counter() - frame[1]
                tracer._stack.pop()
                tracer._active[metric] -= 1
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                if tracer._active[metric] == 0:
                    tracer.ms[metric] += dur * 1000.0
                tracer.self_ms[metric] += (dur - frame[2]) * 1000.0
                tracer.pending[metric + ".calls"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in SPANS, for the rest of the process."""
        import tdlite

        for info in pkgutil.iter_modules(tdlite.__path__):
            importlib.import_module(f"tdlite.{info.name}")
        mods = {name[len("tdlite."):]: m for name, m in sys.modules.items()
                if name.startswith("tdlite.") and m is not None}
        after = {
            "pipeline.run_pipeline": self._after_run_pipeline,
            "solvers.emit": lambda args, text: self.pending.update({"solvers.input_bytes": len(text)}),
            "oracle.engine": lambda args, _: setattr(self, "_bdd", args[0].b),
            "oracle": self._after_check,
        }
        for metric, targets in SPANS.items():
            for target in targets:
                owner = mods.get(target[0])
                if owner is None:
                    continue
                if len(target) == 3:
                    cls = getattr(owner, target[1], None)
                    orig = None if cls is None else cls.__dict__.get(target[2])
                    if orig is None:
                        continue
                    setattr(cls, target[2], self._wrap(metric, orig, after.get(metric)))
                    continue
                orig = getattr(owner, target[1], None)
                if orig is None:
                    continue
                wrapped = self._wrap(metric, orig, after.get(metric))
                for m in mods.values():
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, wrapped)

    def _after_check(self, args, result) -> None:
        # the BDD sizes when an in-process check ends
        if self._bdd is not None:
            self.pending["bdd.nodes"] += len(self._bdd.nodes)
            self.pending["bdd.cache_entries"] += len(self._bdd.cache)
            self._bdd = None

    def _after_run_pipeline(self, args, trace) -> None:
        wall_ms = (time.perf_counter() - self._stack[-1][1]) * 1000.0
        self.ms["pipeline.trace_gap_ms"] += wall_ms - trace.total_ms()
        sizes = {rec.name: rec for rec in trace.stages}
        self.pending["qtl.nodes"] += sizes["qtl1"].nodes
        self.pending["ground.nodes"] += sizes["ltlp"].nodes
        self.pending["ground.props"] += sizes["ltlp"].props
        if "ltl" in sizes:
            self.pending["pastelim.nodes"] += sizes["ltl"].nodes

    # --- operations ---

    def begin_op(self) -> None:
        self.pending.clear()
        self._bdd = None

    def end_op(self, ok: bool) -> None:
        if ok:
            self.counts.update(self.pending)
        self.begin_op()

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric, as totals since the tracer was made."""
        c = self.counts
        values = {
            "pastelim.calls": c["pastelim.calls"],
            "ltl.optimize.calls": c["ltl.optimize.calls"],
            "ltl.structural_index.calls": c["ltl.structural_index.calls"],
            "oracle.prune.calls": c["oracle.prune.calls"],
            "bdd.and_exist.calls": c["bdd.and_exist.calls"],
            "qtl.nodes": c["qtl.nodes"],
            "ground.nodes": c["ground.nodes"],
            "ground.props": c["ground.props"],
            "pastelim.nodes": c["pastelim.nodes"],
            "bdd.nodes": c["bdd.nodes"],
            "bdd.cache_entries": c["bdd.cache_entries"],
            "solvers.input_bytes": c["solvers.input_bytes"],
            "pipeline.trace_gap_ms": self.ms["pipeline.trace_gap_ms"],
            "pipeline.self_ms": self.self_ms["pipeline"] + self.self_ms["pipeline.run_pipeline"],
            "solvers.run.self_ms": self.self_ms["solvers.run"],
        }
        for name, unit in METRICS:
            if name not in values:
                values[name] = self.ms[name[: -len(".ms")]]
        return {name: values[name] for name, _ in METRICS}
