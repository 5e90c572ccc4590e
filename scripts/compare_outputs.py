"""Fingerprint what a checkout outputs, and compare two fingerprints.

    python3 scripts/compare_outputs.py [--root DIR] --out OUT.json
    python3 scripts/compare_outputs.py --diff A.json B.json

The first form imports the package from DIR/src (default: this
checkout) and writes one sha256 per item, computed under
PYTHONHASHSEED=0 (the script restarts itself with it).  The items are:

- `gate#i/smv`, `gate#i/infix`: the SMV and infix of `solver_formula`
  on instances 0, 1 and 5 of the translation gate's spec over ℤ;
- `handoff/<label>/smv|infix|stages`: the same, and the stage sizes, on
  each of the hand-off corpus's KBs (`tests/conftest.py::handoff_kbs`);
- `translate/<kb>/<flow>/<to>`: the output of `tdlite translate --to
  ltlp|ltl|smv|infix` on the toy corpus in both flows;
- `check/<corpus>/<label>/verdict|decomposition|word`: the in-process
  verdict, decomposition record and combined witness word on the toy
  corpus, the `check-timeline` KBs (`benchmark/workloads.timeline_ops`),
  the seed-777 ℕ batch and the `abox_size=4` batch over ℤ;
- `check/.../optimize`: the infix of `optimize` of each in-process
  component, in call order;
- `check/.../order`: the state-variable order (`_Engine._variable_order`)
  of each checker engine the check builds, in call order.

Alongside the items it records, per corpus, how many rounds `optimize`
ran (the `simplify` calls made by `optimize` itself): one per call where
`optimize` is a single `simplify` walk, and more in a checkout where it
ran rounds of `simplify` to a fixpoint.  It uses only
functions that have been in the package since the hand-off moved to
`solver_formula`, so one copy of the script can fingerprint an older
checkout too.

`--diff` prints every item that is missing on one side or differs, and
the round counts of both sides; it exits with 1 when an item differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GATE_SPEC = dict(F=1, N=7, Lt=100, Lc=20, Q=5, seed=20260824)
GATE_INSTANCES = (0, 1, 5)
NORTH_STAR_BATCH = dict(F=50, N=2, Lt=2, Lc=2, Q=1, seed=777)
ABOX4_BATCH = dict(F=20, N=2, Lt=2, Lc=2, Q=1, seed=777, abox_size=4)
TOYS = ("ex1", "ex1_tbox", "ex2", "ex2_variant")
TRANSLATIONS = ("ltlp", "ltl", "smv", "infix")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def word_text(word) -> str:
    if word is None:
        return "None"
    parts = [word.left_loop, word.left_prefix, (word.anchor,), word.right_prefix, word.right_loop]
    return json.dumps([[sorted(v) for v in part] for part in parts])


def fingerprint(root: Path) -> dict:
    for sub in ("src", "tests", "benchmark"):
        sys.path.insert(0, str(root / sub))
    from tdlite import components, ltl, oracle, pipeline
    from tdlite.cli import main as cli_main
    from tdlite.kbparse import parse_kb
    from tdlite.pipeline import check_kb, run_pipeline, solver_formula
    from tdlite.randgen import BatchSpec, generate_instance
    from tdlite.solvers import emit_infix, emit_smv
    from conftest import handoff_kbs
    from workloads import timeline_ops

    if not Path(ltl.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {ltl.__file__}, not the package under {root}")
    items: dict[str, str] = {}
    rounds: dict[str, int] = {}
    corpus = [""]

    simplify = ltl.simplify

    def counted_simplify(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "optimize":
            rounds[corpus[0]] = rounds.get(corpus[0], 0) + 1
        return simplify(*args, **kwargs)

    ltl.simplify = counted_simplify

    def handed_off(prefix: str, kb, flow: str, stages: bool) -> None:
        trace = run_pipeline(kb, flow)
        f = solver_formula(trace)
        items[f"{prefix}/smv"] = sha(emit_smv(f, flow))
        items[f"{prefix}/infix"] = sha(emit_infix(f, flow))
        if stages:
            items[f"{prefix}/stages"] = sha(json.dumps(
                [(rec.name, rec.nodes, rec.props) for rec in trace.stages]))

    for i in GATE_INSTANCES:
        corpus[0] = f"gate#{i}"
        handed_off(f"gate#{i}", generate_instance(BatchSpec(**GATE_SPEC), i, flow="z"), "z", False)
    corpus[0] = "handoff"
    for label, kb, flow in handoff_kbs():
        handed_off(f"handoff/{label}", kb, flow, True)

    corpus[0] = "translate"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for name in TOYS:
            path = str(root / "src" / "tdlite" / "data" / f"{name}.kb")
            for flow in ("n", "z"):
                for to in TRANSLATIONS:
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli_main(["translate", path, "--flow", flow, "--to", to, "--out", out])
                    items[f"translate/{name}/{flow}/{to}"] = sha(Path(out).read_text(encoding="utf-8"))

    # the combined word of each check, each component's optimize and
    # each engine's variable order
    seen: dict[str, object] = {}
    optimized: list[str] = []
    orders: list[list[int]] = []
    check_by_constant, optimize = pipeline.check_by_constant, components.optimize
    variable_order = oracle._Engine._variable_order

    def recording_check(*args):
        word, decomposition = check_by_constant(*args)
        seen["word"] = word
        return word, decomposition

    def recording_optimize(f):
        g = optimize(f)
        optimized.append(ltl.to_infix(g))
        return g

    def recording_order(engine):
        order = variable_order(engine)
        orders.append(order)
        return order

    pipeline.check_by_constant = recording_check
    components.optimize = recording_optimize
    oracle._Engine._variable_order = recording_order

    def checked(prefix: str, kb, flow: str) -> None:
        optimized.clear()
        orders.clear()
        verdict, trace = check_kb(kb, flow)
        items[f"{prefix}/verdict"] = verdict
        items[f"{prefix}/decomposition"] = sha(json.dumps(trace.decomposition.as_dict()))
        items[f"{prefix}/word"] = sha(word_text(seen["word"]))
        items[f"{prefix}/optimize"] = sha("\n".join(optimized))
        items[f"{prefix}/order"] = sha(json.dumps(orders))

    corpus[0] = "check-toy"
    for name in TOYS:
        text = (root / "src" / "tdlite" / "data" / f"{name}.kb").read_text(encoding="utf-8")
        for flow in ("n", "z"):
            checked(f"check/toy/{name}/{flow}", parse_kb(text), flow)
    corpus[0] = "check-timeline"
    for i, op in enumerate(timeline_ops(0)):
        checked(f"check/timeline/{i}:{op.kb}/{op.flow}", parse_kb(op.text), op.flow)
    for name, spec, flow in (("north-star-n", NORTH_STAR_BATCH, "n"), ("abox4-z", ABOX4_BATCH, "z")):
        corpus[0] = name
        for i in range(spec["F"]):
            checked(f"check/{name}/{i}", generate_instance(BatchSpec(**spec), i, flow=flow), flow)
    return {"root": str(root), "items": items, "optimize-rounds": rounds}


def diff(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (a_path, b_path))
    differ = 0
    for key in sorted(set(a["items"]) | set(b["items"])):
        x, y = a["items"].get(key), b["items"].get(key)
        if x != y:
            differ += 1
            print(f"DIFFERS {key}: {x} != {y}")
    print(f"{differ} of {len(set(a['items']) | set(b['items']))} items differ")
    for key in sorted(set(a["optimize-rounds"]) | set(b["optimize-rounds"])):
        print(f"optimize rounds {key}: {a['optimize-rounds'].get(key)} -> "
              f"{b['optimize-rounds'].get(key)}")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="the checkout to fingerprint (default: this one)")
    ap.add_argument("--out", help="where to write the fingerprint JSON")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two fingerprints")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        ap.error("one of --out and --diff is required")
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    result = fingerprint(Path(args.root).resolve())
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(result['items'])} items written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
