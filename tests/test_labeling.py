"""Distance coloring, label assembly, decode, and the labels file format."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localcert as lc
from conftest import discretized, encode_as_written, random_family_graph
from localcert.errors import FormatError, NotUniform
from localcert.graphs import bfs, max_ball_size_actual, max_ball_size_bound
from localcert.labeling import (
    ProofLabeling,
    SchemeParams,
    build_proof,
    distance_coloring,
    format_labeling,
    parse_labeling,
)
from localcert.measures import RationalDist, WitnessFunction, uniform_ball_witness
from localcert.verifier import CHECK_PROBABILITY, decode_accepted_witness, verify_property_a


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


def reference_greedy_coloring(G, q):
    """The greedy distance coloring as written before it shared the ball sweep."""
    colors = [-1] * G.n
    for v in range(G.n):
        taken = set()
        for u in bfs(G.adj, (v,), q)[0]:
            cu = colors[u]
            if cu >= 0:
                taken.add(cu)
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


def disjoint_union(G, H):
    edges = G.edges() + [(u + G.n, v + G.n) for u, v in H.edges()]
    return lc.build_graph(edges, max(G.d, H.d), n=G.n + H.n)


def sweep_cases():
    rng = random.Random(977)
    cases = []
    for _ in range(25):
        G = random_family_graph(rng)
        cases.append((G, rng.randint(1, 6)))
    for _ in range(5):
        G = disjoint_union(random_family_graph(rng), random_family_graph(rng))
        cases.append((G, rng.randint(1, 6)))
    cases.append((lc.generate(lc.FamilySpec("path", (1,))), 3))
    cases.append((lc.build_graph([], 2, n=0), 2))
    cases.append((lc.generate(lc.FamilySpec("cycle", (7,))), 9))  # q beyond the diameter 3
    cases.append((lc.generate(lc.FamilySpec("full_tree", (2, 3))), 12))
    return cases


@pytest.mark.parametrize("G, q", sweep_cases())
def test_coloring_sweep_records_ball_size_profile(G, q):
    colors = distance_coloring(G, q)
    assert colors == reference_greedy_coloring(G, q)
    assert sorted(G._ball_sizes) == list(range(q + 1))
    for s in range(q + 1):
        fresh = max((len(bfs(G.adj, (x,), s)[0]) for x in range(G.n)), default=0)
        assert G._ball_sizes[s] == fresh
        assert max_ball_size_actual(G, s) == fresh


def test_build_proof_path3_tables():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    labeling = build_proof(G, uniform_ball_witness(G, 1), Fraction(5, 6))
    p = labeling.params
    # the witness measures 2/3, so alpha = ceil(3 * 3 / (5/6 - 2/3)) = 54
    assert (p.r, p.alpha, p.palette) == (1, 54, 3)
    assert labeling.colors == (0, 1, 2)
    # the middle vertex is seen by all three, so its table holds each
    # owner's mass for vertex 1: 27/54, 18/54, 27/54
    assert labeling.tables[1] == (27, 18, 27)
    assert labeling.tables[0] == (27, 18, 0)
    assert labeling.k_local == max_ball_size_actual(G, 2)


def test_build_proof_refuses_a_support_outside_its_ball(monkeypatch):
    G = lc.generate(lc.FamilySpec("path", (10,)))
    dists = dict(uniform_ball_witness(G, 1).dists)
    dists[4] = RationalDist(2, {4: 1, 9: 1})  # d(4, 9) = 5 > r = 1
    w = WitnessFunction(G, 1, dists)
    coloring = []
    monkeypatch.setattr("localcert.labeling.distance_coloring", lambda *a: coloring.append(a))
    # the witness measures 4/3, below eps', so only the support fails
    with pytest.raises(NotUniform, match="support_ok=False"):
        build_proof(G, w, Fraction(3, 2))
    assert coloring == []  # refused before any coloring work


def test_decode_value_round_trip():
    G, g = quantized_path_witness()
    labeling = encode_as_written(G, g, Fraction(5, 6))
    decoded = decode_accepted_witness(G, labeling)
    for x in range(G.n):
        for z in range(G.n):
            want = g.dists[x].value(z) if z in bfs(G.adj, (x,), 1)[1] else Fraction(0)
            assert decoded.dists[x].value(z) == want


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
        labeling = build_proof(G, w, eps_prime)
        g = discretized(w, labeling.params.alpha)
        decoded = decode_accepted_witness(G, labeling)
        for x in range(G.n):
            for z in g.dists[x].support():
                assert decoded.dists[x].value(z) == g.dists[x].value(z)


def least_alpha(G, w, eps, eps_prime):
    """The sizing rule ceil(3 max |B_r| / (eps' - eps)), with the balls read afresh."""
    max_ball = max(len(bfs(G.adj, (x,), w.radius)[0]) for x in range(G.n))
    return math.ceil(Fraction(3 * max_ball) / (eps_prime - eps))


def fused_cases():
    """Exact witnesses with their eps' and an alpha at or above the least one:
    uniform balls and separator shifts."""
    rng = random.Random(404)
    cases = []
    while len(cases) < 20:
        G = random_family_graph(rng)
        w = uniform_ball_witness(G, rng.randint(1, 3))
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = eps + Fraction(rng.randint(1, 5), rng.randint(8, 40))
        if eps_prime >= 2:
            continue
        alpha = least_alpha(G, w, eps, eps_prime) + rng.choice((0, 0, 1, 17))
        cases.append((G, w, eps, eps_prime, alpha))
    for family, params, k in (("path", (23,), 4), ("cycle", (24,), 6), ("full_tree", (2, 5), 3)):
        G = lc.generate(lc.FamilySpec(family, params))
        w = lc.tighten_radius(lc.witness_from_separators(G, lc.shift_family_distribution(G, k)))
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = min(eps + Fraction(1, 8), (eps + 2) / 2)
        cases.append((G, w, eps, eps_prime, least_alpha(G, w, eps, eps_prime)))
    return cases


def assert_same_labeling(fused, staged):
    assert fused.params == staged.params
    assert fused.colors == staged.colors
    assert fused.tables == staged.tables
    assert fused.k_local == staged.k_local
    assert format_labeling(fused) == format_labeling(staged)


@pytest.mark.parametrize("G, w, eps, eps_prime, alpha", fused_cases())
def test_fused_build_proof_matches_discretize_witness(G, w, eps, eps_prime, alpha):
    """Quantizing while scattering writes the labeling the whole quantized witness gives.

    build_proof takes the least alpha the sizing rule allows; any alpha at or
    above it keeps the whole quantized witness within eps + 2(eps' - eps)/3.
    """
    fused = build_proof(G, w, eps_prime)
    least = fused.params.alpha
    assert least == least_alpha(G, w, eps, eps_prime) <= alpha
    assert_same_labeling(fused, encode_as_written(G, discretized(w, least), eps_prime))
    bound = eps + 2 * (eps_prime - eps) / 3
    assert lc.check_uniformity(discretized(w, alpha)).max_edge_l1 <= bound


def test_fused_build_proof_matches_on_proved_instances(accepted_instances):
    """The session's uniform-ball and separator instances against the staged quantization."""
    for inst in accepted_instances:
        p = inst.labeling.params
        staged = encode_as_written(inst.G, discretized(inst.raw, p.alpha), p.eps_prime)
        assert staged == inst.labeling, inst.name


def test_support_outside_the_ball_is_rejected_at_its_owner():
    """An atom beyond B_r(x) lands in a table that x cannot read, so x's masses fall short."""
    G = lc.generate(lc.FamilySpec("path", (6,)))
    dists = {x: RationalDist(6, {x: 6}) for x in range(G.n)}
    dists[0] = RationalDist(6, {0: 3, 3: 3})  # vertex 3 lies at distance 3 > r = 1
    labeling = encode_as_written(G, WitnessFunction(G, 1, dists), Fraction(1, 2))
    verdict = verify_property_a(G, labeling)
    assert verdict.decisions[0] == CHECK_PROBABILITY


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(r=0, eps_prime=Fraction(1), alpha=1, palette=1)
    with pytest.raises(ValueError):
        SchemeParams(r=1, eps_prime=Fraction(0), alpha=1, palette=1)
    with pytest.raises(ValueError):
        SchemeParams(r=1, eps_prime=Fraction(2), alpha=1, palette=1)
    with pytest.raises(ValueError):
        SchemeParams(r=1, eps_prime=Fraction(1), alpha=0, palette=1)


def test_proof_labeling_validation():
    params = SchemeParams(r=1, eps_prime=Fraction(1), alpha=4, palette=2)
    with pytest.raises(ValueError):
        ProofLabeling(params, (0, 2), ((0, 4), (4, 0)), k_local=3)
    with pytest.raises(ValueError):
        ProofLabeling(params, (0, 1), ((0, 4), (5, 0)), k_local=3)
    with pytest.raises(ValueError):
        ProofLabeling(params, (0, 1), ((0, 4),), k_local=3)


# --- text format -------------------------------------------------------------

def test_labeling_format_round_trip(tmp_path):
    G, g = quantized_path_witness()
    labeling = encode_as_written(G, g, Fraction(5, 6))
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


def test_header_round_trips(accepted_instances):
    """The header holds every scheme constant a labeling carries."""
    for inst in accepted_instances:
        assert parse_labeling(format_labeling(inst.labeling)) == inst.labeling, inst.name


def test_labeling_format_golden():
    G, g = quantized_path_witness()
    labeling = encode_as_written(G, g, Fraction(5, 6))
    lines = format_labeling(labeling).splitlines()
    assert lines[0] == "labels 3 1 6 3 5/6 3"
    assert lines[1] == "0 0 3 2 0"


VALID_TEXT = "labels 2 1 4 2 1/2 3\n0 0 4 0\n1 1 0 4\n"


@pytest.mark.parametrize("text", [
    "",
    "labels 2 1 4 2 1/2\n0 0 4 0\n1 1 0 4\n",
    "labels 2 1 4 2 1/2 3\n0 0 4 0\n",
    "labels 2 1 4 2 1/2 3\n0 0 4 0 9\n1 1 0 4 0\n",
    "labels 2 1 4 2 1/2 3\n0 5 4 0\n1 1 0 4\n",
    "labels 2 1 4 2 2/1 3\n0 0 4 0\n1 1 0 4\n",
    "labels 2 1 4 2 1/2 3\n0 0 x 0\n1 1 0 4\n",  # non-integer entry
    "labels 2 1 4 2 1/2 3\n0 0 4.0 0\n1 1 0 4\n",  # non-integer entry
    "labels 2 1 4 2 1/2 3\n0 0 4 -1\n1 1 0 4\n",  # negative entry
    "labels 2 1 4 2 1/2 3\n0 0 4 0\n1 1 0 5\n",  # entry above alpha
    "labels 2 1 4 2 1/2 3\n0 c 4 0\n1 1 0 4\n",  # non-integer colour
    "labels 2 1 4 2 1/2 3\n0 0 4 0\nv 1 0 4\n",  # non-integer vertex id
])
def test_parse_labeling_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_labeling(text)


def test_parse_labeling_keeps_no_state_between_calls():
    """A malformed text read between two reads of a valid one changes nothing."""
    first = parse_labeling(VALID_TEXT)
    with pytest.raises(FormatError):
        parse_labeling(VALID_TEXT.replace("0 4\n", "0 4.0\n"))
    assert parse_labeling(VALID_TEXT) == first


def reference_format(labeling):
    """The labels text spelled out one row at a time."""
    p = labeling.params
    out = (f"labels {labeling.n} {p.r} {p.alpha} {p.palette} "
           f"{p.eps_prime.numerator}/{p.eps_prime.denominator} {labeling.k_local}\n")
    for x, (c, row) in enumerate(zip(labeling.colors, labeling.tables)):
        out += f"{x} {c} " + " ".join(map(str, row)) + "\n"
    return out


@st.composite
def labelings(draw):
    """Small labelings whose tables repeat a few values, some above 256."""
    alpha = draw(st.integers(1, 5000))
    palette = draw(st.integers(1, 6))
    n = draw(st.integers(0, 8))
    eps_den = draw(st.integers(1, 9))
    params = SchemeParams(r=draw(st.integers(1, 4)),
                          eps_prime=Fraction(draw(st.integers(1, 2 * eps_den - 1)), eps_den),
                          alpha=alpha, palette=palette)
    values = draw(st.lists(st.integers(0, alpha), min_size=1, max_size=4))
    entry = st.sampled_from(values + [alpha])
    colors = draw(st.lists(st.integers(0, palette - 1), min_size=n, max_size=n))
    tables = draw(st.lists(st.tuples(*[entry] * palette), min_size=n, max_size=n))
    return ProofLabeling(params, tuple(colors), tuple(tables), draw(st.integers(0, 3000)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labeling=labelings())
def test_labeling_text_round_trip_property(labeling):
    text = format_labeling(labeling)
    assert text == reference_format(labeling)
    assert parse_labeling(text) == labeling
