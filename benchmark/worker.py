"""One pass of a workload in its own process: set up, time each of the
workload's operations, check every output, and report as JSON.

Started by run.py from the root of a checkout, single-threaded.  With
--setup-only it stops where the first timed operation would start.  The
last line of standard output is the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"
STANDIN_PROFILE = Path(__file__).resolve().parent / "standin.json"
RECEIVED = RESULTS_DIR / "standin-received.smv"  # where the stand-in copies its input


class PassTimeout(Exception):
    """The pass ran past its deadline."""


def _expire(signum, frame):
    raise PassTimeout


def formula_size(trace) -> tuple[int, int]:
    """Nodes and propositions of the final translation, as the paper
    reports them: the `ltl` stage over ℤ, the `ltlp` stage over ℕ."""
    rec = trace.stage("ltl" if trace.flow == "z" else "ltlp")
    return rec.nodes, rec.props


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool = False):
        from tdlite import kb, kbparse, pipeline, solvers

        self.kb, self.kbparse, self.pipeline = kb, kbparse, pipeline
        self.name = name
        self.profile = None
        if name == "solver-handoff":
            # a reduced spec keeps the smoke run short; the real run uses the gate spec
            spec = dict(N=3, Lt=10, Lc=6, Q=2, seed=workloads.GATE_SPEC["seed"]) if smoke else None
            self.ops = workloads.handoff_ops(seed, spec)
            self.profile = solvers.load_profiles(str(STANDIN_PROFILE))["standin"]
        elif name == "check-toy":
            names = ("ex1", "ex2") if smoke else tuple(workloads.TOY_VERDICTS)
            self.ops = workloads.toy_ops(ROOT, names)
        elif name == "check-timeline":
            self.ops = workloads.timeline_ops(seed, (4, 8), 2) if smoke else workloads.timeline_ops(seed)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_op(self, op):
        """The timed operation: KB text to verdict.  Returns the verdict and
        the pipeline trace."""
        kb = self.kbparse.parse_kb(op.text)
        diags = self.kb.validate(kb)
        if diags:
            raise checks.CheckFailed(f"{op.kb}: validation failed: {diags[0]}")
        return self.pipeline.check_kb(kb, op.flow, profile=self.profile)

    def check_op(self, op, verdict) -> None:
        """The checks against references made apart from the program;
        outside the timed region."""
        checks.check_verdict(verdict, op.expected, f"{op.kb} over {op.flow}")
        if self.profile is not None:
            if not RECEIVED.exists():
                raise checks.CheckFailed("the stand-in received no SMV file")
            checks.check_smv(RECEIVED.read_text(encoding="utf-8"))


def run_pass(wl: Workload, tracer=None, deadline=None) -> dict:
    """One pass over the workload's operations, each timed and checked.

    `deadline` is a `time.monotonic()` value.  An operation still running
    then is stopped, and it and every operation after it count as failed;
    the pass still attempts all of them, so `attempted` is always whole
    passes.  An operation that raises is a wrong output.
    """
    rows, errors = [], []
    failed = 0
    pass_ms = 0.0
    signal.signal(signal.SIGALRM, _expire)
    for op in wl.ops:
        if wl.profile is not None and RECEIVED.exists():
            RECEIVED.unlink()
        if tracer:
            tracer.begin_op()
        status, verdict, trace = "ok", "", None
        left = None if deadline is None else deadline - time.monotonic()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if left is not None:
                if left <= 0:
                    raise PassTimeout
                signal.setitimer(signal.ITIMER_REAL, left)
            verdict, trace = wl.run_op(op)
        except PassTimeout:
            status, verdict = "failed", "TIMEOUT"
        except Exception as e:  # noqa: BLE001 - the program's fault, reported with figures
            status = "wrong"
            errors.append(f"{op.kb} over {op.flow}: {type(e).__name__}: {e}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ms = (time.perf_counter() - t0) * 1000.0
        cpu_ms = (time.process_time() - c0) * 1000.0
        pass_ms += ms
        if status == "failed":
            failed += 1
            print(f"{op.kb} over {op.flow}: stopped at the pass deadline", file=sys.stderr)
        elif status == "ok":
            try:
                wl.check_op(op, verdict)
            except checks.CheckFailed as e:
                status = "wrong"
                errors.append(str(e))
        if tracer:
            tracer.end_op(status == "ok")
        nodes, props = formula_size(trace) if trace is not None else (0, 0)
        rows.append([wl.name, op.kb, op.flow, verdict, op.expected, status,
                     round(ms, 3), round(cpu_ms, 3), nodes, props])
    return {
        "attempted": len(wl.ops),
        "failed": failed,
        "errors": errors,
        "wall_s": pass_ms / 1000.0,
        "formula_nodes": sum(r[-2] for r in rows),
        "formula_props": sum(r[-1] for r in rows),
        "rows": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--deadline", type=float, help="time.monotonic() by which the pass must end")
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for the self-tests")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = Workload(args.workload, args.seed, smoke=args.smoke)
    RESULTS_DIR.mkdir(exist_ok=True)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    setup_layers = tracer.snapshot() if tracer else None
    report = run_pass(wl, tracer, args.deadline)
    report["ready"] = ready
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        layers = tracer.snapshot()
        report["layers"] = {k: v - setup_layers[k] for k, v in layers.items()}
        report["layers"]["randgen.ms"] = setup_layers["randgen.ms"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
