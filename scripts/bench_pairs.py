"""Compare two checkouts on one benchmark workload, or on the fixed
in-process inputs, and record the runs in a BENCH JSON file.

    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_n.json \
        --workload NAME --seed N --pairs K [--trace 0|1] [--seconds S]
    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_n.json \
        --fixed

With --workload, runs `benchmark/run.py` in each checkout, K pairs of runs
one after the other, the side that runs first alternating from pair to
pair.  Each checkout runs its own `benchmark/` on its own `src/`.  The
runs are added to the file under "<workload>/seed<N>/trace<T>" with, per
metric, each side's median and quartiles and, over untraced pairs, how
many pairs the change won (lower is better for every metric; ties count
for neither).

With --fixed, each checkout runs in-process `check_kb` on fixed inputs,
one child process per check under a 10 s CPU-time cap (and a 2 GB
address-space limit), the side that runs first alternating: the ℕ batch
`BatchSpec(F=50, N=2, Lt=2, Lc=2, Q=1, seed=777)`, and `ex2_variant` over ℕ
5 times.  Each is added under "fixed/<input>" with, per side, how many
checks were decided within the cap, the verdicts, and the median and p90
(nearest rank) of the checks' CPU seconds, an undecided check counting as
over the cap (a percentile that lands on one is recorded as null).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

NORTH_STAR_BATCH = dict(F=50, N=2, Lt=2, Lc=2, Q=1, seed=777)
CHILD_CPU_SECONDS = 10
CHILD_AS_BYTES = 2 << 30
EX2_VARIANT_REPEATS = 5

# one in-process check, in a child started from the checkout's root; argv
# is ["-c", kind, arg]: ("batch", index) or ("toy", kb name), both over ℕ
CHECK_CHILD = """
import json, sys, time
from tdlite.pipeline import check_kb
kind, arg = sys.argv[1], sys.argv[2]
if kind == "batch":
    from tdlite.randgen import BatchSpec, generate_instance
    kb = generate_instance(BatchSpec(**json.loads(sys.argv[3])), int(arg), flow="n")
else:
    from tdlite.kbparse import parse_kb
    kb = parse_kb(open(f"src/tdlite/data/{arg}.kb", encoding="utf-8").read())
cpu, wall = time.process_time(), time.perf_counter()
verdict, _ = check_kb(kb, "n")
print(json.dumps({"verdict": verdict, "cpu_s": time.process_time() - cpu,
                  "wall_s": time.perf_counter() - wall}))
"""


def run_once(root: Path, args) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
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


def check_once(root: Path, kind: str, arg: str) -> dict:
    """One capped in-process check in a child; its report, or why it
    gave no verdict."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS + 1))
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK_CHILD, kind, arg, json.dumps(NORTH_STAR_BATCH)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=limit,
    )
    if proc.returncode == 0:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode < 0:
        reason = f"killed by signal {-proc.returncode}"
    else:
        tail = proc.stderr.strip().splitlines()
        reason = f"exit status {proc.returncode}: {tail[-1] if tail else ''}"
    return {"verdict": None, "reason": reason}


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
    inputs = {
        "north-star-batch-n": [("batch", str(i)) for i in range(NORTH_STAR_BATCH["F"])],
        "ex2_variant-n": [("toy", "ex2_variant")] * EX2_VARIANT_REPEATS,
    }
    out = {}
    for name, checks in inputs.items():
        runs = []
        for i, (kind, arg) in enumerate(checks):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            run = {"input": arg, "first": order[0]}
            for side in order:
                run[side] = check_once(roots[side], kind, arg)
                print(f"{name} {arg} {side}: {json.dumps(run[side])}", file=sys.stderr)
            runs.append(run)
        out[f"fixed/{name}"] = {
            "cpu_seconds_cap": CHILD_CPU_SECONDS,
            **{side: fixed_summary([r[side] for r in runs]) for side in roots},
            "runs": runs,
        }
    return out


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
    commits = {f"{side}_commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                                stdout=subprocess.PIPE).stdout.strip()
               for side, root in roots.items()}
    if args.fixed:
        for key, entry in run_fixed(roots).items():
            doc[key] = {**commits, **entry}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        return 0

    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args)
            print(f"pair {i} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
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
            {"first": p["first"],
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
