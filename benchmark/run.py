"""The benchmark's command: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from its `src/` there.  Each pass over the workload's operations runs in
a fresh child process (worker.py), one after another, single-threaded.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics, with --trace 1 the per-layer ones.  The
per-operation results go to benchmark/results/.  An operation still
running when the run's pass time limit is reached is stopped and counts
as failed.  The exit code is 0 when every output of the other operations
passed its check, 1 when one did not or an operation raised, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# set-up time is the median over at least this many processes: every pass
# process plus set-up-only ones
SETUP_SAMPLES = 30
# seconds from the run's start by which the last pass must end: an operation
# still running then is stopped and counts as failed (the slowest pass seen,
# solver-handoff on a loaded machine, took about 80 s)
PASS_LIMIT_S = 150.0
# the set-up-only processes start only until this many seconds in
SETUP_LIMIT_S = 165.0
# a worker that overruns its deadline by this much is killed: exit 2
GRACE_S = 10.0
TMP_DIR = HERE / "results" / "tmp"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "formula_nodes": "nodes",
    "formula_props": "propositions",
}
CSV_HEADER = ["pass", "workload", "kb", "flow", "verdict", "expected", "status",
              "ms", "cpu_ms", "formula_nodes", "formula_props"]


def _worker(args, root: Path, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    # the program's temporary files (run_solver's input file) stay in the checkout
    env = {**os.environ, "TMPDIR": str(TMP_DIR)}
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=timeout)
    lines = proc.stdout.decode("utf-8", errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    report = json.loads(lines[-1])
    # both clocks are the system-wide monotonic clock
    report["setup_s"] = report["ready"] - spawned
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tdlite" / "__init__.py").is_file():
        print("error: run from the root of a checkout: src/tdlite is missing", file=sys.stderr)
        return 2

    TMP_DIR.mkdir(parents=True, exist_ok=True)
    stem = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    deadline = start + PASS_LIMIT_S
    passes: list[dict] = []
    try:
        # whole passes, each in a fresh process, until the run's time is up
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(_worker(args, root, ["--deadline", repr(deadline)],
                                  deadline + GRACE_S - time.monotonic()))
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES and time.monotonic() - start < SETUP_LIMIT_S:
            setups.append(_worker(args, root, ["--setup-only"], GRACE_S)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    errors = [e for p in passes for e in p["errors"]]
    # a pass with a failed operation leaves that operation's sizes out
    whole = [p for p in passes if not p["failed"]] or passes
    for key in ("formula_nodes", "formula_props"):
        if len({p[key] for p in whole}) != 1:
            errors.append(f"{key} differs between passes of one run")
    if args.trace:
        import tracing

        metrics = {name: {"value": statistics.median(p["layers"][name] for p in passes), "unit": unit}
                   for name, unit in tracing.METRICS}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "formula_nodes": whole[0]["formula_nodes"],
            "formula_props": whole[0]["formula_props"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    with open(f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows([i, *row] for i, p in enumerate(passes) for row in p["rows"])
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "passes": len(passes), "setup_samples_s": setups if not args.trace else []},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
