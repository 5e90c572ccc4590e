"""Compare two checkouts on one benchmark workload and record the runs in a
BENCH JSON file.

    python3 scripts/bench_pairs.py --base DIR --change DIR --out BENCH_n.json \
        --workload NAME --seed N --pairs K [--trace 0|1] [--seconds S]

Runs `benchmark/run.py` in each checkout, K pairs of runs one after the
other, the side that runs first alternating from pair to pair.  Each
checkout runs its own `benchmark/` on its own `src/`.  The runs are added
to the file under "<workload>/seed<N>/trace<T>" with, per metric, each
side's median and quartiles and, over untraced pairs, how many pairs the
change won (lower is better for every metric; ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
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

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[f"{args.workload}/seed{args.seed}/trace{args.trace}"] = {
        **{f"{side}_commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                            stdout=subprocess.PIPE).stdout.strip()
           for side, root in roots.items()},
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
