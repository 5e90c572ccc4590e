"""Compare two checkouts on one benchmark workload, or on the fixed
in-process inputs, and record the runs in a BENCH JSON file.

    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_n.json \
        --workload NAME --seed N --pairs K [--trace 0|1] [--seconds S]
    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_n.json \
        --fixed

With --workload, runs `benchmark/run.py` in each checkout, K pairs of runs
one after the other, the side that runs first alternating from pair to
pair.  Both runs of a pair are pinned to one CPU (`os.sched_setaffinity`
on the benchmark child, which its workers inherit), and the CPU
alternates from pair to pair over those this process may run on, since
one core can run a pass markedly slower than another; each pair records
its CPU.  Each checkout runs its own `benchmark/` on its own `src/`.  The
runs are added to the file under "<workload>/seed<N>/trace<T>" with, per
metric, each side's median and quartiles and, over untraced pairs, how
many pairs the change won (lower is better for every metric; ties count
for neither).

With --fixed, each checkout runs in-process `check_kb` on fixed inputs,
one child process per check under a 10 s CPU-time cap (and a 2 GB
address-space limit), the side that runs first alternating: the ℕ batch
`BatchSpec(F=50, N=2, Lt=2, Lc=2, Q=1, seed=777)`, the ℤ batch
`BatchSpec(F=20, N=2, Lt=2, Lc=2, Q=1, seed=777, abox_size=4)`,
`ex2_variant` over ℕ 5 times, and the ABox-timestamp sweep `A SUB A` with
`A(b)@t` for t in 100, 200, 400, 800, 1600 and 3200, in each flow; and,
under a 60 s CPU cap, instances 2 and 5 of the frontier spec
`BatchSpec(F=6, N=3, Lt=10, Lc=6, Q=2, seed=20260824)` over ℕ, one child
each (the in-process checks nearest to what does not decide).  Each
is added under "fixed/<input>" with, per side, how many checks were
decided within the cap, the verdicts, and the median and p90 (nearest
rank) of the checks' CPU seconds, an undecided check counting as over
the cap (a percentile that lands on one is recorded as null); each
check's run also records its wall seconds and the child's peak RSS.  With
--fixed it also records the benchmark-scale hand-off, instance 0 of
`BatchSpec(N=7, Lt=100, Lc=20, Q=5, seed=20260824)` over ℤ (the
`solver-handoff` gate instance), in one child per side under a 120 s CPU
cap: the milliseconds and node counts of `ground` of the whole grounding
(from the symbolic table `run_pipeline` keeps, on a checkout that keeps
one; else from the qtl1 formula), the `ltlp` and `ltl`
stages of `run_pipeline` (their recorded `wall_ms` and nodes), `optimize` of the
whole grounding and `pipeline.solver_formula` (what the hand-off runs;
on a checkout where it is that `optimize`, the two time the same work),
then the SMV emission of `solver_formula`'s result over ℤ (its
milliseconds, bytes, propositions and sha256), under
"fixed/handoff-gate0".  Last it times start-up, under "fixed/startup":
the wall time of a whole `python -m tdlite.cli` process, started without
a bytecode cache from the checkout's root, for `tdlite solve` on a
one-line formula and `tdlite check` of `ex1.kb`, 20 processes per side,
the side that runs first alternating, with each side's median and
quartiles in milliseconds and how many pairs the change won.

Every entry names the two trees it compared: each side's commit, when
the checkout is the top of a git work tree (else ""), and a sha256 over
its `src/` files, their sorted relative paths and contents, which also
names a copy made with `git archive`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

NORTH_STAR_BATCH = dict(F=50, N=2, Lt=2, Lc=2, Q=1, seed=777)
ABOX4_BATCH = dict(F=20, N=2, Lt=2, Lc=2, Q=1, seed=777, abox_size=4)
CHILD_CPU_SECONDS = 10
FRONTIER_SPEC = dict(F=6, N=3, Lt=10, Lc=6, Q=2, seed=20260824)
FRONTIER_INSTANCES = (2, 5)
FRONTIER_CPU_SECONDS = 60
CHILD_AS_BYTES = 2 << 30
EX2_VARIANT_REPEATS = 5
SWEEP_TIMESTAMPS = (100, 200, 400, 800, 1600, 3200)
SWEEP_KB = "SIG\nconcept A\nindividual b\nTBOX\nA SUB A\nABOX\nA(b)@{t}\n"

# one in-process check, in a child started from the checkout's root; argv
# is ["-c", kind, arg, flow, spec]: ("batch", index, flow, BatchSpec JSON),
# ("toy", kb name, flow, "") or ("text", KB text, flow, "")
CHECK_CHILD = """
import json, resource, sys, time
from tdlite.pipeline import check_kb
kind, arg, flow, spec = sys.argv[1:5]
if kind == "batch":
    from tdlite.randgen import BatchSpec, generate_instance
    kb = generate_instance(BatchSpec(**json.loads(spec)), int(arg), flow=flow)
else:
    from tdlite.kbparse import parse_kb
    if kind == "toy":
        arg = open(f"src/tdlite/data/{arg}.kb", encoding="utf-8").read()
    kb = parse_kb(arg)
cpu, wall = time.process_time(), time.perf_counter()
verdict, _ = check_kb(kb, flow)
print(json.dumps({"verdict": verdict, "cpu_s": time.process_time() - cpu,
                  "wall_s": time.perf_counter() - wall,
                  "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

HANDOFF_SPEC = dict(F=1, N=7, Lt=100, Lc=20, Q=5, seed=20260824)
HANDOFF_CPU_SECONDS = 120
# the hand-off's stages, in a child started from the checkout's root;
# argv is ["-c", BatchSpec JSON]
HANDOFF_CHILD = """
import hashlib, json, sys, time
from tdlite.ground import GroundingContext, ground
from tdlite.ltl import optimize
from tdlite.pastelim import build_table
from tdlite.pipeline import run_pipeline, solver_formula
from tdlite.randgen import BatchSpec, generate_instance
from tdlite.solvers import emit
kb = generate_instance(BatchSpec(**json.loads(sys.argv[1])), 0, flow="z")
stages = {}
def timed(name, fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    stages[name] = {"ms": (time.perf_counter() - t) * 1000.0,
                    "nodes": build_table(out).input_size()}
    return out
trace = run_pipeline(kb, "z")
if getattr(trace, "grounding", None) is not None:
    # built from the symbolic table that run_pipeline keeps
    g = timed("ground", ground, trace.grounding)
else:
    # a checkout whose `ground` walks the qtl1 formula
    g = timed("ground", ground, trace.qtl, GroundingContext.from_kb(kb, trace.qtl_ctx))
for name in ("ltlp", "ltl"):
    rec = trace.stage(name)
    stages[f"{name}-stage"] = {"ms": rec.wall_ms, "nodes": rec.nodes}
timed("optimize", optimize, g)
f = timed("solver-formula", solver_formula, trace)
t = time.perf_counter()
text, props = emit(f, "smv", "z")
stages["emit"] = {"ms": (time.perf_counter() - t) * 1000.0}
data = text.encode()
stages["emit"].update(bytes=len(data), props=len(props), sha256=hashlib.sha256(data).hexdigest())
print(json.dumps(stages))
"""

STARTUP_PAIRS = 20
STARTUP_FORMULA = "G (a -> F b) & F a\n"
STARTUP_COMMANDS = {"solve": ["solve", "{formula}"], "check-ex1": ["check", "src/tdlite/data/ex1.kb"]}


def run_once(root: Path, args, cpu: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: benchmark/run.py printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    report["exit"] = proc.returncode
    return report


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def run_child(root: Path, code: str, argv, cpu_seconds: int) -> dict:
    """The JSON report a child running `code` prints last, or why it
    printed none, under a CPU-time cap and the address-space limit."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 1))
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=limit,
    )
    if proc.returncode == 0:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode < 0:
        return {"reason": f"killed by signal {-proc.returncode}"}
    tail = proc.stderr.strip().splitlines()
    return {"reason": f"exit status {proc.returncode}: {tail[-1] if tail else ''}"}


def check_once(root: Path, check: tuple[str, str, str, str], cpu_seconds: int) -> dict:
    """One capped in-process check in a child; its report, or why it
    gave no verdict."""
    report = run_child(root, CHECK_CHILD, check, cpu_seconds)
    return report if "reason" not in report else {"verdict": None, **report}


def nearest_rank(values: list[float], p: float) -> float | None:
    v = sorted(values)[max(0, math.ceil(p * len(values)) - 1)]
    return None if v == math.inf else v


def fixed_summary(reports: list[dict]) -> dict:
    cpu = [r["cpu_s"] if r["verdict"] else math.inf for r in reports]
    verdicts: dict[str, int] = {}
    for r in reports:
        key = r["verdict"] or "undecided"
        verdicts[key] = verdicts.get(key, 0) + 1
    return {
        "attempted": len(reports),
        "decided": sum(1 for r in reports if r["verdict"]),
        "verdicts": verdicts,
        "cpu_s": {"median": nearest_rank(cpu, 0.5), "p90": nearest_rank(cpu, 0.9),
                  "max_decided": max((c for c in cpu if c != math.inf), default=None)},
    }


def run_fixed(roots: dict) -> dict:
    # each input is a CPU cap and a list of (label, child argv) checks
    def batch(spec: dict, flow: str, indices=None) -> list:
        return [(str(i), ("batch", str(i), flow, json.dumps(spec)))
                for i in (range(spec["F"]) if indices is None else indices)]

    def sweep(flow: str) -> list:
        return [(f"@{t}", ("text", SWEEP_KB.format(t=t), flow, "")) for t in SWEEP_TIMESTAMPS]

    inputs = {
        "north-star-batch-n": (CHILD_CPU_SECONDS, batch(NORTH_STAR_BATCH, "n")),
        "abox4-batch-z": (CHILD_CPU_SECONDS, batch(ABOX4_BATCH, "z")),
        "ex2_variant-n": (CHILD_CPU_SECONDS,
                          [("ex2_variant", ("toy", "ex2_variant", "n", ""))] * EX2_VARIANT_REPEATS),
        "abox-timestamp-sweep-n": (CHILD_CPU_SECONDS, sweep("n")),
        "abox-timestamp-sweep-z": (CHILD_CPU_SECONDS, sweep("z")),
        "frontier": (FRONTIER_CPU_SECONDS, batch(FRONTIER_SPEC, "n", FRONTIER_INSTANCES)),
    }
    out = {}
    for name, (cap, checks) in inputs.items():
        runs = []
        for i, (label, check) in enumerate(checks):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            run = {"input": label, "first": order[0]}
            for side in order:
                run[side] = check_once(roots[side], check, cap)
                print(f"{name} {label} {side}: {json.dumps(run[side])}", file=sys.stderr)
            runs.append(run)
        out[f"fixed/{name}"] = {
            "cpu_seconds_cap": cap,
            **{side: fixed_summary([r[side] for r in runs]) for side in roots},
            "runs": runs,
        }
    handoff = {"spec": HANDOFF_SPEC, "index": 0, "flow": "z",
               "cpu_seconds_cap": HANDOFF_CPU_SECONDS}
    for side in roots:
        handoff[side] = run_child(roots[side], HANDOFF_CHILD, [json.dumps(HANDOFF_SPEC)],
                                  HANDOFF_CPU_SECONDS)
        print(f"handoff-gate0 {side}: {json.dumps(handoff[side])}", file=sys.stderr)
    out["fixed/handoff-gate0"] = handoff
    out["fixed/startup"] = run_startup(roots)
    return out


def run_startup(roots: dict) -> dict:
    """Alternating start-up times of each side's command line, one whole
    process each."""
    out = {"pairs": STARTUP_PAIRS}
    with tempfile.TemporaryDirectory() as tmp:
        formula = Path(tmp) / "formula.ltl"
        formula.write_text(STARTUP_FORMULA)
        for name, argv in STARTUP_COMMANDS.items():
            argv = [a.replace("{formula}", str(formula)) for a in argv]
            ms: dict[str, list[float]] = {side: [] for side in roots}
            outputs = set()
            for i in range(STARTUP_PAIRS):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    env = dict(os.environ, PYTHONPATH=str(roots[side] / "src"),
                               PYTHONDONTWRITEBYTECODE="1")
                    t = time.perf_counter()
                    proc = subprocess.run([sys.executable, "-m", "tdlite.cli", *argv],
                                          cwd=roots[side], env=env, stdout=subprocess.PIPE,
                                          stderr=subprocess.DEVNULL, text=True)
                    ms[side].append((time.perf_counter() - t) * 1000.0)
                    outputs.add((proc.returncode, proc.stdout))
            out[name] = {
                "outputs": sorted(f"exit {code}: {text.strip()}" for code, text in outputs),
                **{side: summary(v) for side, v in ms.items()},
                "change_wins": sum(c < b for b, c in zip(ms["base"], ms["change"])),
            }
            print(f"startup {name}: {json.dumps(out[name])}", file=sys.stderr)
    return out


def identity(side: str, root: Path) -> dict:
    """The side's commit, if git knows the checkout, and its `src/` sha256."""
    h = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = git.stdout.splitlines()
    known = git.returncode == 0 and Path(lines[0]).resolve() == root
    return {f"{side}_commit": lines[1] if known else "", f"{side}_src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--fixed", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    commits = {k: v for side, root in roots.items() for k, v in identity(side, root).items()}
    if args.fixed:
        for key, entry in run_fixed(roots).items():
            doc[key] = {**commits, **entry}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        return 0

    cpus = sorted(os.sched_getaffinity(0))
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"first": order[0], "cpu": cpus[i % len(cpus)]}
        for side in order:
            pair[side] = run_once(roots[side], args, pair["cpu"])
            print(f"pair {i} {side} on cpu {pair['cpu']}: {json.dumps(pair[side]['metrics'])}",
                  file=sys.stderr)
        pairs.append(pair)

    metrics = {}
    for name in pairs[0]["base"]["metrics"]:
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in roots}
        entry = {"unit": pairs[0]["base"]["metrics"][name]["unit"],
                 **{side: summary(v) for side, v in vals.items()}}
        if not args.trace:
            entry["change_wins"] = sum(c < b for b, c in zip(vals["base"], vals["change"]))
            entry["base_wins"] = sum(b < c for b, c in zip(vals["base"], vals["change"]))
        metrics[name] = entry

    doc[f"{args.workload}/seed{args.seed}/trace{args.trace}"] = {
        **commits,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "metrics": metrics,
        "runs": [
            {"first": p["first"], "cpu": p["cpu"],
             **{side: {"correct": p[side]["correct"], "attempted": p[side]["attempted"],
                       "failed": p[side]["failed"], "exit": p[side]["exit"],
                       "metrics": {k: v["value"] for k, v in p[side]["metrics"].items()}}
                for side in roots}}
            for p in pairs
        ],
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
