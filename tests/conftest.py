"""Shared instances: each canonical graph is proved once per session.

The acceptance suite reuses these instead of re-proving, and the extraction
soundness check iterates over everything collected here, so any labeling a
fixture produces is automatically under the decode/extract invariants.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

import localcert as lc
from localcert import verifier


def random_family_graph(rng: random.Random) -> lc.BoundedDegreeGraph:
    """A small graph from a random family, for seeded property loops."""
    pick = rng.randrange(5)
    if pick == 0:
        return lc.generate(lc.FamilySpec("path", (rng.randint(2, 30),)))
    if pick == 1:
        return lc.generate(lc.FamilySpec("cycle", (rng.randint(3, 30),)))
    if pick == 2:
        return lc.generate(lc.FamilySpec("grid", (rng.randint(2, 6), rng.randint(2, 6))))
    if pick == 3:
        return lc.generate(lc.FamilySpec("full_tree", (rng.randint(1, 3), rng.randint(1, 4))))
    n = rng.randrange(6, 40, 2)
    return lc.generate(lc.FamilySpec("random_regular", (n, 3), seed=rng.randint(0, 10**6)))


class InProcessPool:
    """Stands in for the process pool: records its size and maps in this process."""

    def __init__(self, asked, processes, G, labeling):
        asked.append(processes)
        verifier._init_worker(G, labeling)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        verifier._WORKER.clear()

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


def encode_as_written(w: lc.WitnessFunction, eps_prime: Fraction) -> lc.ProofLabeling:
    """Labels for w exactly as written, over its one common denominator.

    `build_proof`'s distance-(2r+1) coloring and table scatter without its
    measurement or alpha sizing, so tests can encode rough witnesses,
    supports outside their balls, and witnesses quantized by hand.
    """
    (alpha,) = {w.dists[x].den for x in w.vertices}
    colors, sizes = lc.distance_coloring(w.graph, 2 * w.radius + 1)
    palette = max(colors) + 1
    tables = [[0] * palette for _ in range(w.graph.n)]
    for x, c in enumerate(colors):
        for z, t in w.dists[x].num.items():
            tables[z][c] = t
    params = lc.SchemeParams(r=w.radius, eps_prime=eps_prime, alpha=alpha, palette=palette)
    return lc.ProofLabeling(params, colors, tuple(map(tuple, tables)),
                            sizes[min(2 * w.radius, len(sizes) - 1)])


def discretized(w: lc.WitnessFunction, alpha: int) -> lc.WitnessFunction:
    """The whole witness quantized to denominator alpha at once: the staged reference."""
    return lc.WitnessFunction(w.graph, w.radius,
                              {x: lc.discretize(w.dists[x], alpha) for x in w.vertices})


@dataclass(frozen=True)
class ProvedInstance:
    name: str
    G: lc.BoundedDegreeGraph
    raw: lc.WitnessFunction
    measured: Fraction
    labeling: lc.ProofLabeling
    prove_seconds: float
    verify_seconds: float
    property_a: lc.Verdict


def prove_instance(name: str, w: lc.WitnessFunction, eps_prime: Fraction) -> ProvedInstance:
    G = w.graph
    t0 = time.monotonic()
    labeling = lc.build_proof(w, eps_prime)
    t1 = time.monotonic()
    verdict = lc.verify_property_a(G, labeling)
    t2 = time.monotonic()
    return ProvedInstance(
        name=name,
        G=G,
        raw=w,
        measured=lc.check_uniformity(w).max_edge_l1,  # cached by build_proof
        labeling=labeling,
        prove_seconds=t1 - t0,
        verify_seconds=t2 - t1,
        property_a=verdict,
    )


def prove_uniform(name: str, G: lc.BoundedDegreeGraph, r: int,
                  eps_prime: Fraction) -> ProvedInstance:
    return prove_instance(name, lc.uniform_ball_witness(G, r), eps_prime)


def tightened_separator_witness(dist: lc.SeparatorDistribution) -> lc.WitnessFunction:
    """Separator witness with its radius trimmed to the real support reach."""
    return lc.tighten_radius(lc.witness_from_separators(dist))


@pytest.fixture(scope="session")
def grid50() -> ProvedInstance:
    G = lc.generate(lc.FamilySpec("grid", (50, 50)))
    return prove_uniform("grid50x50_r10", G, 10, Fraction(1, 2))


@pytest.fixture(scope="session")
def p100() -> ProvedInstance:
    G = lc.generate(lc.FamilySpec("path", (100,)))
    return prove_uniform("path100_r5", G, 5, Fraction(1, 2))


@pytest.fixture(scope="session")
def c100() -> ProvedInstance:
    G = lc.generate(lc.FamilySpec("cycle", (100,)))
    return prove_uniform("cycle100_r5", G, 5, Fraction(1, 2))


@pytest.fixture(scope="session")
def tree511() -> ProvedInstance:
    G = lc.generate(lc.FamilySpec("full_tree", (2, 8)))
    w = tightened_separator_witness(lc.tree_depth_shift_distribution(G, 6))
    return prove_instance("tree_depth8_k6", w, Fraction(3, 4))


@pytest.fixture(scope="session")
def p11() -> ProvedInstance:
    G = lc.generate(lc.FamilySpec("path", (11,)))
    return prove_uniform("path11_r1", G, 1, Fraction(5, 6))


@pytest.fixture(scope="session")
def grid10x20() -> ProvedInstance:
    G = lc.generate(lc.FamilySpec("grid", (10, 20)))
    return prove_uniform("grid10x20_r3", G, 3, Fraction(3, 4))


@pytest.fixture(scope="session")
def accepted_instances(grid50, p100, c100, tree511, p11, grid10x20) -> tuple[ProvedInstance, ...]:
    """Every labeling the suite proves; extraction soundness runs over all."""
    return (grid50, p100, c100, tree511, p11, grid10x20)
