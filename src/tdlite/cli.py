"""Command-line interface: translate, check, gen, bench, solve.

Exit codes: 0 satisfiable, 1 unsatisfiable, 2 parse or validation error,
3 flow violation (past constructs in the ℕ flow), 4 no definite verdict
(a solver's timeout, failure or skip, or an uncaught error, reported as
`error: <type>: <message>` on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .ground import ground
from .kb import validate
from .kbparse import KbSyntaxError, parse_kb
from .ltl import INFIX_TOKENS, optimize, to_infix, parse_infix, InfixSyntaxError
from .oracle import checked, z_sat
from .pastelim import print_past_free
from .pipeline import check_kb, run_pipeline, solver_formula
from .qtl import FlowViolation, qtl_to_text
from .solvers import RunResult, emit_infix, emit_smv, load_profiles, run_solver

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_PARSE = 2
EXIT_FLOW = 3
EXIT_INDEFINITE = 4


def _load_kb(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        kb = parse_kb(text)
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except KbSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    diags = validate(kb)
    if diags:
        for d in diags:
            print(str(d), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return kb


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def cmd_translate(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb_file)
    try:
        trace = run_pipeline(kb, args.flow)
    except FlowViolation as e:
        print(f"flow violation: {e}", file=sys.stderr)
        return EXIT_FLOW
    if args.to == "qtl1":
        text = qtl_to_text(trace.qtl)
    elif args.to in ("ltlp", "ltl"):
        g = ground(trace.grounding)
        if args.to == "ltl" and trace.flow == "z":
            text = print_past_free(g, INFIX_TOKENS)[0]
        else:
            text = to_infix(g)
    elif args.to == "smv":
        text = emit_smv(solver_formula(trace), trace.flow)
    else:  # infix
        text = emit_infix(solver_formula(trace), trace.flow)
    _write_out(text, args.out)
    _write_trace(trace, args.emit_trace)
    return EXIT_SAT


def _write_trace(trace, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace.as_dict(), fh, indent=2)
            fh.write("\n")


_VERDICT_EXIT = {"SAT": EXIT_SAT, "UNSAT": EXIT_UNSAT}


def cmd_check(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb_file)
    try:
        profiles = load_profiles(args.solvers_file)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INDEFINITE
    if args.solver != "oracle" and args.solver not in profiles:
        print(f"error: unknown solver profile {args.solver!r}", file=sys.stderr)
        return EXIT_INDEFINITE
    profile = None if args.solver == "oracle" else profiles[args.solver]
    try:
        verdict, trace = check_kb(
            kb,
            args.flow,
            profile=profile,
            cpu_seconds=args.cpu_seconds,
            memory_bytes=args.memory_bytes,
            keep_artifacts=args.keep_artifacts,
        )
    except FlowViolation as e:
        print(f"flow violation: {e}", file=sys.stderr)
        return EXIT_FLOW
    print(verdict)
    _write_trace(trace, args.emit_trace)
    return _VERDICT_EXIT.get(verdict, EXIT_INDEFINITE)


def cmd_gen(args: argparse.Namespace) -> int:
    from .randgen import write_batch

    spec = _batch_spec(args)
    paths = write_batch(
        spec,
        args.out,
        temporal=args.temporal,
        allow_bottom=args.allow_bottom,
        flow=args.flow,
    )
    print(f"wrote {len(paths)} instances to {args.out}")
    return 0


def _batch_spec(args: argparse.Namespace):
    from .randgen import BatchSpec

    return BatchSpec(
        F=args.F,
        N=args.N,
        Lt=args.Lt,
        Lc=args.Lc,
        Q=args.Q,
        Pt=args.Pt,
        Pg=args.Pg,
        abox_size=args.abox_size,
        seed=args.seed,
    )


CSV_HEADER = [
    "seed", "F-index", "N", "Lt", "Lc", "Q", "Pt", "Pg", "flow", "abox-size",
    "qtl-nodes", "ground-props", "ground-nodes", "depast-props", "depast-nodes",
    "translate-ms", "solver", "verdict", "solver-cpu-ms", "solver-mem-bytes", "reason",
]


def cmd_bench(args: argparse.Namespace) -> int:
    # a check or a solve, one process each, imports none of this
    import csv
    from concurrent.futures import ThreadPoolExecutor

    from .randgen import generate_instance

    spec = _batch_spec(args)
    try:
        profiles = load_profiles(args.solvers_file)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INDEFINITE
    solver_names = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for name in solver_names:
        if name not in profiles:
            print(f"error: unknown solver profile {name!r}", file=sys.stderr)
            return EXIT_INDEFINITE

    out_fh = sys.stdout if args.out in (None, "-") else open(args.out, "w", newline="", encoding="utf-8")
    writer = csv.writer(out_fh)
    writer.writerow(CSV_HEADER)
    out_fh.flush()

    def translate(index: int):
        kb = generate_instance(
            spec, index,
            temporal=args.temporal,
            allow_bottom=args.allow_bottom,
            flow=args.flow,
        )
        t0 = time.monotonic()
        trace = run_pipeline(kb, args.flow)
        translate_ms = (time.monotonic() - t0) * 1000.0
        return trace, solver_formula(trace), translate_ms

    def solve(job):
        # every profile — the oracle included — runs as a subprocess, so
        # the limits protect the harness from explosive instances
        formula, name = job
        res = run_solver(
            profiles[name],
            formula,
            args.flow,
            cpu_seconds=args.cpu_seconds,
            memory_bytes=args.memory_bytes,
            keep_artifacts=args.keep_artifacts,
        )
        return name, res

    try:
        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            for index in range(spec.F):
                try:
                    trace, formula, translate_ms = translate(index)
                except Exception as e:
                    failed = RunResult("FAIL", 0.0, 0.0, 0, "", f"{type(e).__name__}: {e}")
                    for name in solver_names:
                        _bench_row(writer, spec, args, index, None, 0.0, name, failed)
                        out_fh.flush()
                    print(f"instance {index}: translation failed: {e}", file=sys.stderr)
                    continue
                jobs = [(formula, name) for name in solver_names]
                for name, res in pool.map(solve, jobs):
                    _bench_row(writer, spec, args, index, trace, translate_ms, name, res)
                    out_fh.flush()
    finally:
        if out_fh is not sys.stdout:
            out_fh.close()
    return 0


def _bench_row(writer, spec, args, index, trace, translate_ms, solver, res) -> None:
    if trace is None:
        qtl_nodes = ground_props = ground_nodes = depast_props = depast_nodes = ""
    else:
        qtl_nodes = trace.stage("qtl1").nodes
        ground_props = trace.stage("ltlp").props
        ground_nodes = trace.stage("ltlp").nodes
        if args.flow == "z":
            depast_props = trace.stage("ltl").props
            depast_nodes = trace.stage("ltl").nodes
        else:
            depast_props = depast_nodes = ""
    writer.writerow([
        spec.seed, index, spec.N, spec.Lt, spec.Lc, spec.Q, spec.Pt, spec.Pg,
        args.flow, "" if spec.abox_size is None else spec.abox_size,
        qtl_nodes, ground_props, ground_nodes, depast_props, depast_nodes,
        round(translate_ms, 3), solver, res.verdict, round(res.cpu_ms, 3),
        res.max_memory_bytes, res.reason,
    ])


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        with open(args.formula_file, encoding="utf-8") as fh:
            f = parse_infix(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InfixSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    if checked(f, z_sat(optimize(f)), "solve") is not None:
        print("SAT")
        return EXIT_SAT
    print("UNSAT")
    return EXIT_UNSAT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tdlite",
        description="Temporal DL-Lite toolkit: translate knowledge bases to "
        "LTL, check satisfiability, generate and benchmark random instances.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_flow(sp):
        sp.add_argument("--flow", choices=("z", "n"), default="z",
                        help="temporal flow: z (integers, default) or n (naturals)")

    def add_limits(sp):
        sp.add_argument("--cpu-seconds", type=float, default=None,
                        help="CPU limit per solver run (default: profile's, 600)")
        sp.add_argument("--memory-bytes", type=int, default=None,
                        help="memory limit per solver run (default: profile's, 1 GiB)")
        sp.add_argument("--keep-artifacts", action="store_true",
                        help="keep per-run temporary solver input files")
        sp.add_argument("--solvers-file", default=None,
                        help="solver profile JSON (default: $TDLITE_SOLVERS)")

    sp = sub.add_parser("translate", help="translate a KB and write a stage artifact")
    sp.add_argument("kb_file")
    add_flow(sp)
    sp.add_argument("--to", choices=("qtl1", "ltlp", "ltl", "smv", "infix"),
                    default="ltl", help="which stage/format to emit (default ltl)")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--emit-trace", default=None,
                    help="also write the pipeline trace as JSON to this file")
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("check", help="decide satisfiability of a KB")
    sp.add_argument("kb_file")
    add_flow(sp)
    sp.add_argument("--solver", default="oracle",
                    help="solver profile name (default: built-in oracle)")
    add_limits(sp)
    sp.add_argument("--emit-trace", default=None,
                    help="also write the pipeline trace (stage sizes and timings, and how an "
                         "in-process check split the KB) as JSON to this file")
    sp.set_defaults(fn=cmd_check)

    def add_gen_params(sp):
        sp.add_argument("--F", type=int, default=10, help="instances per batch")
        sp.add_argument("--N", type=int, default=2, help="concept/role name count")
        sp.add_argument("--Lt", type=int, default=5, help="inclusions per TBox")
        sp.add_argument("--Lc", type=int, default=5, help="concept length")
        sp.add_argument("--Q", type=int, default=1, help="max cardinality")
        sp.add_argument("--Pt", type=float, default=0.5,
                        help="diamond/box probability mass (temporal mode)")
        sp.add_argument("--Pg", type=float, default=0.5, help="global-role probability")
        sp.add_argument("--abox-size", type=int, default=None,
                        help="assertions per instance (default: TBox only)")
        sp.add_argument("--seed", type=int, default=0, help="batch seed")
        sp.add_argument("--temporal", action="store_true",
                        help="use the temporal-behaviour operator distribution")
        sp.add_argument("--allow-bottom", action="store_true",
                        help="include ⊥ in the basic-concept pool")

    sp = sub.add_parser("gen", help="generate a random batch of KBs")
    add_gen_params(sp)
    add_flow(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="translate and solve a random batch, write CSV")
    add_gen_params(sp)
    add_flow(sp)
    sp.add_argument("--solvers", default="oracle",
                    help="comma-separated profile names (default: oracle)")
    sp.add_argument("--out", default=None, help="CSV output file (default stdout)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel solver runs over the profiles of one instance "
                         "(instances run one after another, so with one profile "
                         "this changes nothing)")
    add_limits(sp)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("solve", help="decide satisfiability of a raw LTL formula file")
    sp.add_argument("formula_file")
    sp.set_defaults(fn=cmd_solve)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # no verdict: never let a crash read as UNSAT
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INDEFINITE


if __name__ == "__main__":
    sys.exit(main())
