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


@dataclass(frozen=True)
class ProvedInstance:
    name: str
    G: lc.BoundedDegreeGraph
    raw: lc.WitnessFunction
    measured: Fraction
    quantized: lc.WitnessFunction
    labeling: lc.ProofLabeling
    prove_seconds: float
    verify_seconds: float
    property_a: lc.Verdict


def prove_instance(name: str, G: lc.BoundedDegreeGraph, w: lc.WitnessFunction,
                   eps_prime: Fraction) -> ProvedInstance:
    t0 = time.monotonic()
    report = lc.check_uniformity(w)
    assert report.support_ok
    eps = report.max_edge_l1
    alpha = lc.derive_alpha(G, w.radius, eps, eps_prime)
    quantized = lc.discretize_witness(w, eps, eps_prime, alpha)
    colors = lc.distance_coloring(G, 2 * w.radius + 2)
    labeling = lc.build_proof(G, quantized, colors, eps, eps_prime)
    t1 = time.monotonic()
    verdict = lc.verify_property_a(G, labeling)
    t2 = time.monotonic()
    return ProvedInstance(
        name=name,
        G=G,
        raw=w,
        measured=eps,
        quantized=quantized,
        labeling=labeling,
        prove_seconds=t1 - t0,
        verify_seconds=t2 - t1,
        property_a=verdict,
    )


def prove_uniform(name: str, G: lc.BoundedDegreeGraph, r: int,
                  eps_prime: Fraction) -> ProvedInstance:
    return prove_instance(name, G, lc.uniform_ball_witness(G, r), eps_prime)


def tightened_separator_witness(G: lc.BoundedDegreeGraph,
                                dist: lc.SeparatorDistribution) -> lc.WitnessFunction:
    """Separator witness with its radius trimmed to the real support reach."""
    return lc.tighten_radius(lc.witness_from_separators(G, dist))


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
    w = tightened_separator_witness(G, lc.tree_depth_shift_distribution(G, 6))
    return prove_instance("tree_depth8_k6", G, w, Fraction(3, 4))


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
