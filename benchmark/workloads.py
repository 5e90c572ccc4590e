"""The workloads' inputs, made from a seed, and the reference verdict of
each operation.

Every operation is one satisfiability check that starts from KB text, as
`tdlite check FILE` does.  The inputs are KB texts; the program receives
nothing else from the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("solver-handoff", "check-toy", "check-timeline")
DEFAULT_SEED = 0

# the benchmark-scale spec of the translation gate; the seed picks the
# instance index, so the default seed hands off the gate instance itself
GATE_SPEC = dict(N=7, Lt=100, Lc=20, Q=5, seed=20260824)

# hand-written expectations, from the comments in the KB files
TOY_VERDICTS = {"ex1": "UNSAT", "ex1_tbox": "SAT", "ex2": "UNSAT", "ex2_variant": "SAT"}
TOY_DIR = ("src", "tdlite", "data")
# left out: ex2_variant over ℕ takes over a minute and 1.9 GB of memory,
# longer than a run, and a cap that stops it early makes the figures
# measure the cap, not the check
TOY_LEFT_OUT = {("ex2_variant", "n")}

# ex1's terminology: adults stay adults, and nobody is both adult and minor
TIMELINE_TBOX = """\
SIG
concept Adult
concept Minor
concept Person
individual John
TBOX
Adult SUB Person
Minor SUB Person
Minor AND Adult SUB BOT
Adult SUB ALWF Adult
ABOX
"""
TIMELINE_SPANS = (8, 12, 16, 20, 24)
# timelines of each kind per span and flow.  Their two inner facts sit at
# the midpoints of that many equal strata of the allowed positions, and the
# seed pairs the strata of one fact with those of the other (a Latin
# hypercube on stratum midpoints).
TIMELINE_STRATA = 4


@dataclass(frozen=True)
class Op:
    """One check: a KB text, its flow and the verdict it must get."""

    kb: str  # a name for the results file
    flow: str
    text: str
    expected: str


def toy_ops(root: Path, names=tuple(TOY_VERDICTS)) -> list[Op]:
    data = root.joinpath(*TOY_DIR)
    return [
        Op(name, flow, (data / f"{name}.kb").read_text(encoding="utf-8"), TOY_VERDICTS[name])
        for name in names
        for flow in ("n", "z")
        if (name, flow) not in TOY_LEFT_OUT
    ]


def gate_kb_text(index: int, spec: Optional[dict] = None) -> str:
    """Instance `index` of the gate spec as KB text, made by the program's
    own generator and printer (the same path as `tdlite gen`)."""
    from tdlite.kbparse import print_kb
    from tdlite.randgen import BatchSpec, generate_instance

    return print_kb(generate_instance(BatchSpec(F=1, **(spec or GATE_SPEC)), index, flow="z"))


def handoff_ops(seed: int, spec: Optional[dict] = None) -> list[Op]:
    index = seed % (1 << 31)
    # the stand-in prints its token whatever it is given, so SAT is the
    # only correct outcome; the SMV check is what tests the hand-off
    return [Op(f"gate#{index}", "z", gate_kb_text(index, spec), "SAT")]


def _strata(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """k contiguous, near-equal, non-empty ranges covering lo..hi."""
    n = hi - lo + 1
    k = min(k, n)
    cuts = [lo + (n * i) // k for i in range(k + 1)]
    return [(cuts[i], cuts[i + 1] - 1) for i in range(k)]


def _latin_pairs(rng: random.Random, a: tuple[int, int], b: tuple[int, int], k: int):
    """k position pairs: the midpoints of k strata of each range, the strata
    of `a` paired with those of `b` by a random permutation."""
    mid_a = [(lo + hi) // 2 for lo, hi in _strata(*a, k)]
    mid_b = [(lo + hi) // 2 for lo, hi in _strata(*b, k)]
    rng.shuffle(mid_b)
    return [(x, mid_b[i % len(mid_b)]) for i, x in enumerate(mid_a)]


def timeline_text(facts: list[tuple[str, int]]) -> str:
    body = "".join(f"{c}(John)@{t}\n" for c, t in sorted(facts, key=lambda f: (f[1], f[0])))
    return TIMELINE_TBOX + body


def timeline_ops(seed: int, spans=TIMELINE_SPANS, strata: int = TIMELINE_STRATA) -> list[Op]:
    """Timelines about John over `0..span`, for each span and flow.

    Every timeline has `Minor@m` and `Adult@span` with `m = span // 2`, so
    the longest X-chain of each concept, and with it the oracle's state
    variables, depends on the span alone.  The seed pairs the positions of
    two inner facts: a consistent timeline adds a Minor fact before m and an Adult fact after
    it (every Minor fact before every Adult fact: SAT); an inconsistent one
    adds an Adult fact and a Minor fact, both before m (the Minor fact at m
    follows an Adult fact: UNSAT).
    """
    rng = random.Random(seed)
    ops = []
    for span in spans:
        m = span // 2
        early, late = (0, m - 1), (m + 1, span - 1)
        for flow in ("n", "z"):
            for a, b in _latin_pairs(rng, early, late, strata):
                ops.append(Op(f"timeline{span}+", flow,
                              timeline_text([("Minor", m), ("Adult", span), ("Minor", a), ("Adult", b)]), "SAT"))
            for a, b in _latin_pairs(rng, early, early, strata):
                ops.append(Op(f"timeline{span}-", flow,
                              timeline_text([("Minor", m), ("Adult", span), ("Adult", a), ("Minor", b)]), "UNSAT"))
    return ops
