"""Distance coloring, label assembly, decode, and the labels file format."""

import random
from fractions import Fraction

import pytest

import localcert as lc
from conftest import random_family_graph
from localcert.errors import AmbiguousColor, FormatError
from localcert.graphs import bfs, max_ball_size_actual, max_ball_size_bound
from localcert.labeling import (
    ProofLabeling,
    SchemeParams,
    build_proof,
    decode_value,
    distance_coloring,
    format_labeling,
    parse_labeling,
)
from localcert.measures import (
    RationalDist,
    WitnessFunction,
    discretize_witness,
    uniform_ball_witness,
)


def quantized_path_witness():
    """P_3 with the uniform-ball witness written over the denominator 6."""
    G = lc.generate(lc.FamilySpec("path", (3,)))
    g = WitnessFunction(G, 1, {
        0: RationalDist(6, {0: 3, 1: 3}),
        1: RationalDist(6, {0: 2, 1: 2, 2: 2}),
        2: RationalDist(6, {1: 3, 2: 3}),
    })
    return G, g


def test_distance_coloring_path():
    G = lc.generate(lc.FamilySpec("path", (5,)))
    assert distance_coloring(G, 1) == (0, 1, 0, 1, 0)
    assert distance_coloring(G, 2) == (0, 1, 2, 0, 1)


def test_distance_coloring_is_proper():
    rng = random.Random(401)
    for _ in range(20):
        G = random_family_graph(rng)
        q = rng.randint(1, 4)
        colors = distance_coloring(G, q)
        assert len(colors) == G.n
        for v in range(G.n):
            for u in range(v):
                if colors[u] == colors[v]:
                    d = bfs(G.adj, (u,), q)[1].get(v)
                    assert d is None, f"color {colors[v]} repeats at distance {d}"
        assert max(colors) + 1 <= max_ball_size_bound(G.d, q)


def test_build_proof_path3_tables():
    G, g = quantized_path_witness()
    colors = distance_coloring(G, 4)
    labeling = build_proof(G, g, colors, Fraction(2, 3), Fraction(5, 6))
    p = labeling.params
    assert (p.r, p.alpha, p.palette) == (1, 6, 3)
    assert colors == (0, 1, 2)
    # the middle vertex is seen by all three, so its table holds each
    # owner's mass for vertex 1: 3/6, 2/6, 3/6
    assert labeling.tables[1] == (3, 2, 3)
    assert labeling.tables[0] == (3, 2, 0)
    assert labeling.k_local == max_ball_size_actual(G, 2)


def test_decode_value_round_trip():
    G, g = quantized_path_witness()
    labeling = build_proof(G, g, distance_coloring(G, 4), Fraction(2, 3), Fraction(5, 6))
    for x in range(G.n):
        for z in range(G.n):
            want = g.dists[x].value(z) if z in bfs(G.adj, (x,), 1)[1] else Fraction(0)
            assert decode_value(G, labeling, x, z) == want


def test_decode_round_trip_random():
    rng = random.Random(402)
    for _ in range(10):
        G = random_family_graph(rng)
        r = rng.randint(1, 2)
        w = uniform_ball_witness(G, r)
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = eps + Fraction(1, 4)
        if eps_prime >= 2:
            continue
        alpha = lc.derive_alpha(G, r, eps, eps_prime)
        g = discretize_witness(w, eps, eps_prime, alpha)
        labeling = build_proof(G, g, distance_coloring(G, 2 * r + 2), eps, eps_prime)
        for x in range(G.n):
            for z in g.dists[x].support():
                assert decode_value(G, labeling, x, z) == g.dists[x].value(z)


def test_build_proof_rejects_improper_coloring():
    G, g = quantized_path_witness()
    # vertices 0 and 2 share a color but both cover vertex 1
    with pytest.raises(AmbiguousColor) as err:
        build_proof(G, g, (0, 1, 0), Fraction(2, 3), Fraction(5, 6))
    assert err.value.vertex == 1


def test_build_proof_requires_common_denominator():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    w = uniform_ball_witness(G, 1)  # denominators 2, 3, 2
    with pytest.raises(ValueError):
        build_proof(G, w, (0, 1, 2), Fraction(0), Fraction(1))


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(d=2, r=0, eps=Fraction(0), eps_prime=Fraction(1), alpha=1, palette=1)
    with pytest.raises(ValueError):
        SchemeParams(d=2, r=1, eps=Fraction(1, 2), eps_prime=Fraction(1, 2), alpha=1, palette=1)
    with pytest.raises(ValueError):
        SchemeParams(d=2, r=1, eps=Fraction(0), eps_prime=Fraction(1), alpha=0, palette=1)


def test_proof_labeling_validation():
    params = SchemeParams(d=2, r=1, eps=Fraction(0), eps_prime=Fraction(1), alpha=4, palette=2)
    with pytest.raises(ValueError):
        ProofLabeling(params, (0, 2), ((0, 4), (4, 0)), k_local=3)
    with pytest.raises(ValueError):
        ProofLabeling(params, (0, 1), ((0, 4), (5, 0)), k_local=3)
    with pytest.raises(ValueError):
        ProofLabeling(params, (0, 1), ((0, 4),), k_local=3)


# --- text format -------------------------------------------------------------

def test_labeling_format_round_trip(tmp_path):
    G, g = quantized_path_witness()
    labeling = build_proof(G, g, distance_coloring(G, 4), Fraction(2, 3), Fraction(5, 6))
    text = format_labeling(labeling)
    back = parse_labeling(text)
    assert back.colors == labeling.colors
    assert back.tables == labeling.tables
    assert back.k_local == labeling.k_local
    assert back.params.alpha == labeling.params.alpha
    assert back.params.eps_prime == labeling.params.eps_prime
    assert format_labeling(back) == text
    path = tmp_path / "p3.labels"
    lc.write_labeling_file(labeling, path)
    assert lc.read_labeling_file(path).tables == labeling.tables


def test_labeling_format_golden():
    G, g = quantized_path_witness()
    labeling = build_proof(G, g, distance_coloring(G, 4), Fraction(2, 3), Fraction(5, 6))
    lines = format_labeling(labeling).splitlines()
    assert lines[0] == "labels 3 1 6 3 5/6 3"
    assert lines[1] == "0 0 3 2 0"


@pytest.mark.parametrize("text", [
    "",
    "labels 2 1 4 2 1/2\n0 0 4 0\n1 1 0 4\n",
    "labels 2 1 4 2 1/2 3\n0 0 4 0\n",
    "labels 2 1 4 2 1/2 3\n0 0 4 0 9\n1 1 0 4 0\n",
    "labels 2 1 4 2 1/2 3\n0 5 4 0\n1 1 0 4\n",
    "labels 2 1 4 2 2/1 3\n0 0 4 0\n1 1 0 4\n",
])
def test_parse_labeling_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_labeling(text)
