"""Random knowledge-base generation for the benchmark harness.

Concepts are drawn uniformly from the space of expressions with an exact
node count; a second, temporal-behaviour mode reweights the unary
operators so diamonds and boxes together receive a configurable
probability mass.  Everything is a pure function of the batch parameters
and the seed: instance i uses its own stream seeded with seed ⊕ i, so
batches can be produced in any order or in parallel.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Optional

from .kb import (
    AlwF,
    AlwP,
    And,
    AtLeast,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    ConceptInclusion,
    KnowledgeBase,
    NextF,
    NextP,
    Not,
    Role,
    RoleAssertion,
    Signature,
    SomeF,
    SomeP,
)
from .kbparse import print_kb
from .record import Record

Z_WINDOW = (-3, 3)
N_WINDOW = (0, 6)

_UNARY_OPS = (Not, NextF, NextP, SomeF, SomeP, AlwF, AlwP)
_DIAMOND_BOX = (SomeF, SomeP, AlwF, AlwP)
_OTHER = (Not, NextF, NextP)

# future-only pools, for instances meant for the ℕ flow (which rejects
# past operators); the probability mass is split evenly over what remains
_UNARY_OPS_F = (Not, NextF, SomeF, AlwF)
_DIAMOND_BOX_F = (SomeF, AlwF)
_OTHER_F = (Not, NextF)


class BatchSpec(Record):
    """Parameters of one generation batch.

    F TBoxes; N concept names and N role names; Lt inclusions per TBox,
    both sides of length exactly Lc; cardinalities up to Q; Pt the total
    probability mass of the diamond/box operators in temporal mode; Pg
    the probability of a role being global.
    """

    __slots__ = ("F", "N", "Lt", "Lc", "Q", "Pt", "Pg", "abox_size", "seed")

    def __init__(
        self,
        F: int = 1,
        N: int = 2,
        Lt: int = 5,
        Lc: int = 5,
        Q: int = 1,
        Pt: float = 0.5,
        Pg: float = 0.5,
        abox_size: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if min(F, N, Lt, Lc) < 1 or Q < 1:
            raise ValueError("F, N, Lt, Lc and Q must all be at least 1")
        if not (0.0 <= Pt <= 1.0 and 0.0 <= Pg <= 1.0):
            raise ValueError("Pt and Pg must lie in [0, 1]")
        self.F = F
        self.N = N
        self.Lt = Lt
        self.Lc = Lc
        self.Q = Q
        self.Pt = Pt
        self.Pg = Pg
        self.abox_size = abox_size
        self.seed = seed


def _basic_concept(spec: BatchSpec, rng: random.Random, allow_bottom: bool) -> Concept:
    """Uniform over the basic pool: atomic names and all (q, role,
    inversion) cardinality restrictions, plus ⊥ when explicitly allowed."""
    n_atomic = spec.N
    n_atleast = spec.N * spec.Q * 2
    total = n_atomic + n_atleast + (1 if allow_bottom else 0)
    k = rng.randrange(total)
    if k < n_atomic:
        return Atomic(f"A{k + 1}")
    k -= n_atomic
    if k < n_atleast:
        role_i, k = divmod(k, spec.Q * 2)
        q, inv = divmod(k, 2)
        return AtLeast(q + 1, Role(f"R{role_i + 1}", inverted=bool(inv)))
    return Bottom()


def random_concept(
    length: int,
    spec: BatchSpec,
    rng: random.Random,
    allow_bottom: bool = False,
    future_only: bool = False,
) -> Concept:
    """A random concept with exactly `length` AST nodes; unary operators
    are drawn uniformly, conjunction joins the pool from length 3 up."""
    if length < 1:
        raise ValueError("length must be at least 1")
    unary = _UNARY_OPS_F if future_only else _UNARY_OPS
    if length == 1:
        return _basic_concept(spec, rng, allow_bottom)
    if length == 2:
        op = rng.choice(unary)
        return op(random_concept(1, spec, rng, allow_bottom))
    op = rng.choice(unary + (And,))
    if op is And:
        k = rng.randint(1, length - 2)
        left = random_concept(k, spec, rng, allow_bottom, future_only)
        right = random_concept(length - 1 - k, spec, rng, allow_bottom, future_only)
        return And(left, right)
    return op(random_concept(length - 1, spec, rng, allow_bottom, future_only))


def random_concept_temporal(
    length: int,
    spec: BatchSpec,
    rng: random.Random,
    allow_bottom: bool = False,
    future_only: bool = False,
) -> Concept:
    """The temporal-behaviour variant: the diamonds and boxes share
    probability mass Pt evenly; the remaining mass splits evenly over
    {¬, ○F, ○P} at length 2 and over {¬, ○F, ○P, ⊓} above (with the past
    operators dropped from both pools in future-only mode)."""
    if length < 2:
        raise ValueError("temporal mode needs length at least 2")
    diamonds = _DIAMOND_BOX_F if future_only else _DIAMOND_BOX
    other = _OTHER_F if future_only else _OTHER

    def sub(n: int) -> Concept:
        if n == 1:
            return _basic_concept(spec, rng, allow_bottom)
        return random_concept_temporal(n, spec, rng, allow_bottom, future_only)

    if rng.random() < spec.Pt:
        op = rng.choice(diamonds)
        return op(sub(length - 1))
    if length == 2:
        op = rng.choice(other)
        return op(sub(1))
    op = rng.choice(other + (And,))
    if op is And:
        k = rng.randint(1, length - 2)
        return And(sub(k), sub(length - 1 - k))
    return op(sub(length - 1))


def random_tbox(
    spec: BatchSpec,
    rng: random.Random,
    temporal: bool = False,
    allow_bottom: bool = False,
    future_only: bool = False,
) -> KnowledgeBase:
    """A TBox-only knowledge base with exactly Lt inclusions whose sides
    have length exactly Lc each."""

    def side() -> Concept:
        if temporal and spec.Lc >= 2:
            return random_concept_temporal(spec.Lc, spec, rng, allow_bottom, future_only)
        return random_concept(spec.Lc, spec, rng, allow_bottom, future_only)

    tbox = tuple(ConceptInclusion(side(), side()) for _ in range(spec.Lt))
    global_roles = set()
    local_roles = set()
    for i in range(spec.N):
        name = f"R{i + 1}"
        (global_roles if rng.random() < spec.Pg else local_roles).add(name)
    sig = Signature(
        concepts=frozenset(f"A{i + 1}" for i in range(spec.N)),
        global_roles=frozenset(global_roles),
        local_roles=frozenset(local_roles),
        individuals=frozenset(),
    )
    return KnowledgeBase(signature=sig, tbox=tbox, abox=())


def random_abox(
    kb: KnowledgeBase,
    size: int,
    rng: random.Random,
    flow: str = "z",
    window: Optional[tuple[int, int]] = None,
) -> KnowledgeBase:
    """Attach `size` random assertions to a knowledge base.

    Individuals come from a fresh pool of ⌈√size⌉+1 names; each
    assertion is a concept fact or a role fact with equal probability,
    positive three times out of four, at a timestamp uniform in the flow
    window.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if window is None:
        window = N_WINDOW if flow == "n" else Z_WINDOW
    lo, hi = window
    pool = [f"ind{i + 1}" for i in range(math.ceil(math.sqrt(size)) + 1)]
    concepts = sorted(kb.signature.concepts)
    roles = sorted(kb.signature.role_names())
    abox = list(kb.abox)
    for _ in range(size):
        positive = rng.random() < 0.75
        t = rng.randint(lo, hi)
        if concepts and (not roles or rng.random() < 0.5):
            abox.append(
                ConceptAssertion(positive, rng.choice(concepts), rng.choice(pool), t)
            )
        else:
            abox.append(
                RoleAssertion(positive, rng.choice(roles), rng.choice(pool), rng.choice(pool), t)
            )
    sig = kb.signature
    new_sig = Signature(
        concepts=sig.concepts,
        global_roles=sig.global_roles,
        local_roles=sig.local_roles,
        individuals=sig.individuals | frozenset(pool),
    )
    return KnowledgeBase(signature=new_sig, tbox=kb.tbox, abox=tuple(abox))


def instance_seed(spec: BatchSpec, index: int) -> int:
    return (spec.seed ^ index) & (2**64 - 1)


def generate_instance(
    spec: BatchSpec,
    index: int,
    temporal: bool = False,
    allow_bottom: bool = False,
    flow: str = "z",
) -> KnowledgeBase:
    """Instance `index` of the batch: a TBox, plus an ABox when the spec
    asks for one.  The ℕ flow gets future-only operators and non-negative
    timestamps."""
    rng = random.Random(instance_seed(spec, index))
    kb = random_tbox(
        spec, rng,
        temporal=temporal,
        allow_bottom=allow_bottom,
        future_only=(flow == "n"),
    )
    if spec.abox_size is not None:
        kb = random_abox(kb, spec.abox_size, rng, flow=flow)
    return kb


def write_batch(
    spec: BatchSpec,
    outdir: str,
    temporal: bool = False,
    allow_bottom: bool = False,
    flow: str = "z",
) -> list[str]:
    """Write one .kb file per instance plus a manifest; returns the
    file paths in instance order."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    entries = []
    for i in range(spec.F):
        kb = generate_instance(spec, i, temporal=temporal, allow_bottom=allow_bottom, flow=flow)
        name = f"tbox_{i:04d}.kb"
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(print_kb(kb))
        paths.append(path)
        entries.append({"index": i, "file": name, "seed": instance_seed(spec, i)})
    manifest = {
        "spec": {
            "F": spec.F, "N": spec.N, "Lt": spec.Lt, "Lc": spec.Lc,
            "Q": spec.Q, "Pt": spec.Pt, "Pg": spec.Pg,
            "abox-size": spec.abox_size, "seed": spec.seed,
        },
        "temporal": temporal,
        "allow-bottom": allow_bottom,
        "flow": flow,
        "instances": entries,
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return paths
