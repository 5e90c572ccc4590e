"""End-to-end acceptance suite.

Each test exercises one user-visible guarantee of the toolkit: the toy
corpus verdicts, soundness of past elimination, its linear growth, the
counting identities of the translation, the generator's operator
distribution, translation speed at benchmark scale, cross-checked solver
verdicts, and resource-limit enforcement.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict

from scipy import stats

from tdlite.ground import GroundingContext, ground, symbolic_grounding
from tdlite.kb import normalize_kb
from tdlite.oracle import BiLassoWord, eval_on_lasso
from tdlite.pipeline import check_kb, run_pipeline, solver_formula
from tdlite.qtl import build_context, translate_kb, translate_tbox
from tdlite.randgen import (
    BatchSpec,
    generate_instance,
    random_concept,
    random_concept_temporal,
)
from tdlite.solvers import load_profiles, oracle_profile, run_solver

from conftest import (
    TOY_VERDICTS,
    count_monotonicity_conjuncts,
    load_toy,
    random_ltlp,
)
from references import (
    checked_z_sat,
    depast,
    depast_with_table,
    eq2_conjunct_count,
    reconstruct_value,
    tree_size,
    z_sat_bounded,
)

CORPUS_SEED = 97
CORPUS_SIZE = 500


def _corpus_formula(rng):
    return random_ltlp(rng.randint(1, 10), rng)


def _rebuild_z_word(word: BiLassoWord, table) -> BiLassoWord:
    """The integer-time model induced by a natural-time model of the
    past-free translation, the right half of `word`: non-negative instants
    read the plus copies, negative instants the minus copies, both at the
    mirrored index."""
    props = sorted(table.props)

    def proj(t):
        return frozenset(
            p for p in props
            if reconstruct_value(table, p, t, lambda name, n: name in word.valuation(n))
        )

    pre = len(word.right_prefix)
    k = len(word.right_loop)
    return BiLassoWord(
        left_loop=tuple(proj(-(pre + 1 + i)) for i in range(k)),
        left_prefix=tuple(proj(-t) for t in range(1, pre + 1)),
        anchor=proj(0),
        right_prefix=tuple(proj(t) for t in range(1, pre + 1)),
        right_loop=tuple(proj(pre + 1 + i) for i in range(k)),
    )


def _fit_line(pts):
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    a = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    b = (sy - a * sx) / n
    resid = sum(abs(y - (a * x + b)) for x, y in pts)
    fit = sum(abs(a * x + b) for x, _ in pts)
    return a, b, resid / fit


# --- 1: toy corpus verdicts --------------------------------------------------

def test_toy_corpus_verdicts_in_both_flows():
    t0 = time.monotonic()
    for name, want in sorted(TOY_VERDICTS.items()):
        kb = load_toy(name)
        for flow in ("n", "z"):
            verdict, _ = check_kb(kb, flow)
            assert verdict == want, f"{name} over {flow}: {verdict} != {want}"
    assert time.monotonic() - t0 < 60.0


# --- 2: past elimination is equisatisfiable ---------------------------------

def test_past_elimination_soundness_on_random_formulas():
    rng = random.Random(CORPUS_SEED)
    t0 = time.monotonic()
    n_sat = n_bounded = 0
    for i in range(CORPUS_SIZE):
        f = _corpus_formula(rng)
        past_free, table = depast_with_table(f)
        word = checked_z_sat(past_free)
        if z_sat_bounded(f) is not None:
            n_bounded += 1
            assert word is not None, f"formula {i}: model over Z but depast UNSAT"
        if word is not None:
            n_sat += 1
            z_word = _rebuild_z_word(word, table)
            assert eval_on_lasso(f, z_word, 0), f"formula {i}: bad reconstruction"
    assert time.monotonic() - t0 < 300.0
    # the corpus must exercise both outcomes to mean anything
    assert 0 < n_sat < CORPUS_SIZE
    assert n_bounded > 0


# --- 3: past elimination is linear ------------------------------------------

def _kb_series():
    out = []
    for lt in (5, 10, 20, 40):
        spec = BatchSpec(F=1, N=3, Lt=lt, Lc=6, Q=2, seed=11)
        kb = generate_instance(spec, 0, flow="z")
        q, ctx = translate_kb(kb, "z")
        g = ground(symbolic_grounding(q, GroundingContext.from_kb(normalize_kb(kb), ctx)))
        out.append((tree_size(g), tree_size(depast(g))))
    return out


def test_past_elimination_growth_is_linear():
    rng = random.Random(CORPUS_SEED)
    by_size = defaultdict(list)
    worst = 0.0
    for _ in range(CORPUS_SIZE):
        f = _corpus_formula(rng)
        x, y = tree_size(f), tree_size(depast(f))
        by_size[x].append(y)
        worst = max(worst, y / x)

    small = [(x, sum(ys) / len(ys)) for x, ys in sorted(by_size.items())]
    _, _, resid_ratio = _fit_line(small)
    assert resid_ratio < 0.05

    kb_pts = _kb_series()
    _, _, resid_ratio = _fit_line(kb_pts)
    assert resid_ratio < 0.05
    # a single constant bounds the output/input ratio across all sizes
    worst = max([worst] + [y / x for x, y in kb_pts])
    assert worst < 60

    # doubling the input must not grow the ratio super-linearly
    small_ratio = {x: y / x for x, y in small}
    for x in (3, 4, 5):
        ratio_of_ratios = small_ratio[2 * x] / small_ratio[x]
        assert 0.8 <= ratio_of_ratios <= 1.2
    kb_ratio = [y / x for x, y in kb_pts]
    for a, b in zip(kb_ratio, kb_ratio[1:]):
        assert 0.8 <= b / a <= 1.2


# --- 4: counting identities of the translation -------------------------------

def test_translation_counts_on_random_kbs():
    spec = BatchSpec(F=100, N=2, Lt=3, Lc=4, Q=2, abox_size=4, seed=23)
    for i in range(spec.F):
        kb = normalize_kb(generate_instance(spec, i, temporal=(i % 2 == 0)))
        ctx = build_context(kb, "z")
        tbox_formula = translate_tbox(kb, ctx)
        k = len(ctx.q_set)
        want = len(ctx.roles_of_k) * k * (k - 1) // 2
        assert eq2_conjunct_count(ctx) == want
        assert count_monotonicity_conjuncts(tbox_formula, len(kb.tbox)) == want
        gctx = GroundingContext.from_kb(kb, ctx)
        assert len(gctx.constants) == (
            len(kb.signature.individuals) + len(ctx.roles_of_k)
        )


# --- 5: generator operator distribution --------------------------------------

CHI2_SAMPLES = 10**5


def test_temporal_operator_distribution():
    spec = BatchSpec(N=2, Q=1, Pt=0.5)
    rng = random.Random(6)

    counts = Counter(
        type(random_concept_temporal(2, spec, rng)).__name__
        for _ in range(CHI2_SAMPLES)
    )
    diamonds = ("SomeF", "SomeP", "AlwF", "AlwP")
    others = ("Not", "NextF", "NextP")
    observed = [counts[k] for k in diamonds + others]
    expected = [CHI2_SAMPLES * spec.Pt / 4] * 4 + [
        CHI2_SAMPLES * (1 - spec.Pt) / 3
    ] * 3
    assert sum(observed) == CHI2_SAMPLES
    assert stats.chisquare(observed, expected).pvalue > 0.01

    counts = Counter(
        type(random_concept_temporal(5, spec, rng)).__name__
        for _ in range(CHI2_SAMPLES)
    )
    observed = [counts[k] for k in diamonds + others + ("And",)]
    expected = [CHI2_SAMPLES * spec.Pt / 4] * 4 + [
        CHI2_SAMPLES * (1 - spec.Pt) / 4
    ] * 4
    assert sum(observed) == CHI2_SAMPLES
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_generated_lengths_are_always_exact():
    from tdlite.kb import concept_size

    spec = BatchSpec(N=3, Q=2)
    rng = random.Random(7)
    for lc in (1, 2, 5, 9):
        for _ in range(500):
            assert concept_size(random_concept(lc, spec, rng)) == lc
            if lc >= 2:
                assert concept_size(random_concept_temporal(lc, spec, rng)) == lc


# --- 6: benchmark-scale translation speed ------------------------------------

def test_large_kb_translates_quickly():
    spec = BatchSpec(F=1, N=7, Lt=100, Lc=20, Q=5, seed=20260824)
    kb = generate_instance(spec, 0, flow="z")
    trace = run_pipeline(kb, "z")
    assert [s.name for s in trace.stages] == ["kb", "qtl1", "ltlp", "ltl"]
    assert trace.total_ms() < 2000.0, trace.as_dict()["stages"]


# --- 7: solver verdicts agree ------------------------------------------------

DEFINITE = {"SAT", "UNSAT"}


def _configured_profiles():
    profiles = dict(load_profiles())
    profiles.setdefault("oracle", oracle_profile())
    return profiles


def test_profile_verdicts_agree_on_the_toy_corpus():
    profiles = _configured_profiles()
    for name, want in sorted(TOY_VERDICTS.items()):
        kb = load_toy(name)
        for flow in ("n", "z"):
            trace = run_pipeline(kb, flow)
            for profile in profiles.values():
                res = run_solver(profile, solver_formula(trace), flow, cpu_seconds=10)
                if res.verdict in DEFINITE:
                    assert res.verdict == want, (name, flow, profile.name)


def test_profile_verdicts_agree_on_random_tboxes():
    profiles = _configured_profiles()
    spec = BatchSpec(F=50, N=2, Lt=2, Lc=2, Q=1, seed=777)
    compared = 0
    for i in range(spec.F):
        kb = generate_instance(spec, i, flow="n")
        trace = run_pipeline(kb, "n")
        for profile in profiles.values():
            res = run_solver(profile, solver_formula(trace), cpu_seconds=4)
            if res.verdict not in DEFINITE:
                continue
            # a profile verdict under a 1 GiB cap means the in-process
            # checker can safely recompute it as the reference
            reference, _ = check_kb(kb, "n")
            assert res.verdict == reference, (i, profile.name)
            compared += 1
    assert compared >= 10  # enough definite verdicts to be meaningful


# --- 8: resource limits are enforced -----------------------------------------

def test_cpu_limit_produces_timeout_within_slack():
    # instance 26 of this batch needs far more than two CPU seconds
    spec = BatchSpec(F=50, N=2, Lt=2, Lc=3, Q=1, seed=777)
    kb = generate_instance(spec, 26, flow="n")
    trace = run_pipeline(kb, "n")
    res = run_solver(oracle_profile(), solver_formula(trace), cpu_seconds=2)
    assert res.verdict == "TIMEOUT"
    assert res.cpu_ms <= 2000 + 500
