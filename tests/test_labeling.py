"""Distance coloring, label assembly, decode, and the labels file format."""

import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localcert as lc
from conftest import discretized, encode_as_written, max_ball_size_actual, random_family_graph
from localcert.errors import FormatError, NotUniform
from localcert.graphs import _levels, bfs, max_ball_size_bound
from localcert.labeling import (
    ProofLabeling,
    SchemeParams,
    _least_alpha,
    build_proof,
    distance_coloring,
    format_labeling,
    parse_labeling,
)
from localcert.measures import (
    RationalDist,
    WitnessFunction,
    _floored,
    discretize,
    l1_distance,
    rounding_plan,
    uniform_ball_witness,
)
from localcert.verifier import CHECK_PROBABILITY, decode_accepted_witness, verify_property_a
from reference import reference_greedy_coloring, reference_least_alpha


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
    # (colors at distance 2r+1, max |B_2r|)
    assert distance_coloring(G, 0) == ((0, 1, 0, 1, 0), 1)
    assert distance_coloring(G, 1) == ((0, 1, 2, 3, 0), 5)
    assert distance_coloring(G, 2) == ((0, 1, 2, 3, 4), 5)
    # a radius far past the graph returns what radius 2 does
    assert distance_coloring(G, 10**9) == ((0, 1, 2, 3, 4), 5)


def test_distance_coloring_is_proper():
    rng = random.Random(401)
    for _ in range(20):
        G = random_family_graph(rng)
        r = rng.randint(0, 4)
        q = 2 * r + 1
        colors, _ = distance_coloring(G, r)
        assert len(colors) == G.n
        for v in range(G.n):
            for u in range(v):
                if colors[u] == colors[v]:
                    d = bfs(G.adj, (u,), q)[1].get(v)
                    assert d is None, f"color {colors[v]} repeats at distance {d}"
        assert max(colors) + 1 <= max_ball_size_bound(G.d, q)


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
    cases.append((lc.generate(lc.FamilySpec("cycle", (7,))), 9))  # r beyond the diameter 3
    cases.append((lc.generate(lc.FamilySpec("full_tree", (2, 3))), 12))
    return cases


def assert_matches_reference(G, r):
    """Colors equal the plain greedy loop's at distance 2r+1, and the size is
    the fresh max |B_2r|."""
    want = (reference_greedy_coloring(G, 2 * r + 1), max_ball_size_actual(G, 2 * r))
    assert distance_coloring(G, r) == want


@pytest.mark.parametrize("G, r", sweep_cases())
def test_coloring_sweep_records_ball_size_profile(G, r):
    assert_matches_reference(G, r)


def diameter(G):
    """The largest eccentricity within a component (0 on an empty graph)."""
    return max((max(bfs(G.adj, (x,), G.n)[1].values()) for x in range(G.n)), default=0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 3), past=st.integers(0, 4),
       relabel=st.booleans())
def test_coloring_matches_reference_property(seed, parts, past, relabel):
    """Random family graphs and their disjoint unions, with r up to a few past the
    largest diameter: some components are whole at 2r+1 and some not, and some
    whole ones reach past r (r < ecc <= 2r); ids optionally shuffled."""
    rng = random.Random(seed)
    G = random_family_graph(rng)
    for _ in range(parts - 1):
        G = disjoint_union(G, random_family_graph(rng))
    if relabel:
        perm = list(range(G.n))
        rng.shuffle(perm)
        G = lc.build_graph([(perm[u], perm[v]) for u, v in G.edges()], G.d, n=G.n)
    assert_matches_reference(G, rng.randint(1, diameter(G) + past))


def test_coloring_mixes_a_whole_component_with_a_larger_one():
    """At r = 2 (q = 5) the tree's balls are its component and the grid's are not."""
    tree = lc.generate(lc.FamilySpec("full_tree", (2, 2)))
    grid = lc.generate(lc.FamilySpec("grid", (6, 6)))
    for G in (disjoint_union(tree, grid), disjoint_union(grid, tree)):
        assert diameter(tree) < 5 < diameter(grid)
        assert_matches_reference(G, 2)


def spied_searches(monkeypatch):
    """Record (center, radius, |ball|) for every level search distance_coloring runs."""
    calls = []

    def spy(adj, x, radius, mark):
        order, ends = _levels(adj, x, radius, mark)
        calls.append((x, radius, len(order)))
        return order, ends

    monkeypatch.setattr("localcert.labeling._levels", spy)
    return calls


def test_first_vertex_at_eccentricity_q_gets_no_record(monkeypatch):
    """Path 6 at r = 2, so q = 5: vertex 0's search reaches everything only at
    radius q, so it cannot tell that it is whole.  Vertex 1 (eccentricity 4)
    records the component, and only vertex 2, with d(1, 2) + 4 <= 5, is spared
    its search."""
    G = lc.generate(lc.FamilySpec("path", (6,)))
    calls = spied_searches(monkeypatch)
    assert distance_coloring(G, 2) == ((0, 1, 2, 3, 4, 5), 6)
    assert [(x, radius) for x, radius, _ in calls] == [(0, 5), (1, 5), (3, 5), (4, 5), (5, 5)]
    assert_matches_reference(G, 2)


@pytest.mark.parametrize("q", [7, 8, 10**9])
def test_truncated_search_that_runs_out_is_a_whole_ball(monkeypatch, q):
    """Path 0-2-1-3-4, the centre numbered 1, coloured at distance q through
    r = q // 2 (distance 2r+1 >= q).  Vertex 0's search, cut at q, runs out
    at radius 4, its eccentricity, so its ball is the whole component and
    max |B_2r| = |C| = 5.  At r = 3 (q = 7) the centre and vertices 2 and 3,
    each with d(0, x) + 4 <= 7, take their colors with no search; vertex 4,
    at d(0, 4) + 4 = 8, is searched to 7.  At r >= 4 every vertex is within
    q - 4 of vertex 0, so vertex 0's is the only search."""
    r = q // 2
    G = lc.build_graph([(0, 2), (2, 1), (1, 3), (3, 4)], 2)
    calls = spied_searches(monkeypatch)
    assert distance_coloring(G, r) == ((0, 1, 2, 3, 4), 5)
    if r == 3:
        assert calls == [(0, 7, 5), (4, 7, 5)]
    else:
        assert calls == [(0, 2 * r + 1, 5)]
    if q < 10**9:
        assert_matches_reference(G, r)


@pytest.mark.parametrize("family, params, r, volume", [
    # B_29 is the whole tree: the root's search reaches it, so no other
    # vertex is searched
    ("full_tree", (2, 9), 14, 1_023),
    ("full_tree", (2, 12), 14, 8_191),
    # B_13 is the whole tree only for the 31 vertices within depth 4; the 30
    # after the root take their colors with no search, the rest are searched to 13
    ("full_tree", (2, 9), 6, 335_903),
    # no grid ball at radius 21 is its component: every vertex is searched to 2r+1
    ("grid", (50, 50), 10, 1_685_720),
])
def test_coloring_searched_volume(monkeypatch, family, params, r, volume):
    """Count, not time: the number of ball vertices the level searches visit."""
    calls = spied_searches(monkeypatch)
    distance_coloring(lc.generate(lc.FamilySpec(family, params)), r)
    assert sum(size for _, _, size in calls) == volume


def test_build_proof_path3_tables():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    labeling = build_proof(uniform_ball_witness(G, 1), Fraction(5, 6))
    p = labeling.params
    # the witness measures 2/3, so the budget is (5/6 - 2/3)/3 = 1/18; below
    # 18 an odd alpha leaves the halves off by 1/alpha, and below 24 an alpha
    # that 3 does not divide leaves the thirds off by 4/(3 alpha), so 6, where
    # both are exact, is the least alpha within budget
    assert (p.r, p.alpha, p.palette) == (1, 6, 3)
    assert labeling.colors == (0, 1, 2)
    # the middle vertex is seen by all three, so its table holds each
    # owner's mass for vertex 1: 3/6, 2/6, 3/6
    assert labeling.tables[1] == (3, 2, 3)
    assert labeling.tables[0] == (3, 2, 0)
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
        build_proof(w, Fraction(3, 2))
    assert coloring == []  # refused before any coloring work


@pytest.mark.parametrize("eps_prime", [Fraction(5, 2), Fraction(2), Fraction(0), Fraction(-1, 2)])
def test_build_proof_checks_eps_prime_before_measuring_or_coloring(monkeypatch, eps_prime):
    G = lc.generate(lc.FamilySpec("grid", (6, 6)))
    w = uniform_ball_witness(G, 2)
    calls = []
    monkeypatch.setattr("localcert.labeling.check_uniformity", lambda *a: calls.append("measure"))
    monkeypatch.setattr("localcert.labeling.distance_coloring", lambda *a: calls.append("color"))
    with pytest.raises(ValueError, match=f"need 0 < eps' < 2, got eps'={eps_prime}$"):
        build_proof(w, eps_prime)
    assert calls == []


def test_decode_value_round_trip():
    G, g = quantized_path_witness()
    labeling = encode_as_written(g, Fraction(5, 6))
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
        labeling = build_proof(w, eps_prime)
        g = discretized(w, labeling.params.alpha)
        decoded = decode_accepted_witness(G, labeling)
        for x in range(G.n):
            for z in g.dists[x].support():
                assert decoded.dists[x].value(z) == g.dists[x].value(z)


def formula_alpha(G, w, eps, eps_prime):
    """The worst-case rule ceil(3 max |B_r| / (eps' - eps)), with the balls read afresh:
    every remainder fits its budget there, so the least alpha is at most it."""
    max_ball = max(len(bfs(G.adj, (x,), w.radius)[0]) for x in range(G.n))
    return math.ceil(Fraction(3 * max_ball) / (eps_prime - eps))


def certified(w, alpha, eps, eps_prime):
    """Every vertex's rounding error at alpha, measured by l1, is within (eps' - eps)/3."""
    budget = (eps_prime - eps) / 3
    return all(l1_distance(f, discretize(f, alpha)) <= budget for f in w.dists.values())


def fused_cases():
    """Exact witnesses with their eps' and an alpha at or above the worst-case
    rule's: uniform balls and separator shifts."""
    rng = random.Random(404)
    cases = []
    while len(cases) < 20:
        G = random_family_graph(rng)
        w = uniform_ball_witness(G, rng.randint(1, 3))
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = eps + Fraction(rng.randint(1, 5), rng.randint(8, 40))
        if eps_prime >= 2:
            continue
        alpha = formula_alpha(G, w, eps, eps_prime) + rng.choice((0, 0, 1, 17))
        cases.append((G, w, eps, eps_prime, alpha))
    for family, params, shift, k in (("path", (23,), lc.path_shift_distribution, 4),
                                     ("cycle", (24,), lc.path_shift_distribution, 6),
                                     ("full_tree", (2, 5), lc.tree_depth_shift_distribution, 3)):
        G = lc.generate(lc.FamilySpec(family, params))
        w = lc.tighten_radius(lc.witness_from_separators(shift(G, k)))
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = min(eps + Fraction(1, 8), (eps + 2) / 2)
        cases.append((G, w, eps, eps_prime, formula_alpha(G, w, eps, eps_prime)))
    # alpha a prime above every ball size, so no ball size divides it and each
    # uniform ball's remainders tie across its whole support
    for family, params, r in (("cycle", (12,), 2), ("grid", (5, 7), 1), ("path", (9,), 3)):
        G = lc.generate(lc.FamilySpec(family, params))
        w = uniform_ball_witness(G, r)
        cases.append(at_prime_alpha(G, w))
    # random small numerators over each ball, so atoms tie often, vertex n - 1
    # (the largest key) among them
    for family, params, r in (("path", (8,), 2), ("grid", (4, 5), 1), ("full_tree", (2, 3), 2)):
        G = lc.generate(lc.FamilySpec(family, params))
        dists = {}
        for x in range(G.n):
            ball = bfs(G.adj, (x,), r)[0]
            num = {z: rng.randint(1, 3) for z in ball}
            if G.n - 1 in num:
                num[G.n - 1] = num[x]  # a tie with the center
            dists[x] = RationalDist(sum(num.values()), num)
        w = WitnessFunction(G, r, dists)
        cases.append(at_prime_alpha(G, w))
    # a grid shift with random sample weights: many distinct numerators per vertex
    G = lc.generate(lc.FamilySpec("grid", (6, 7)))
    base = lc.grid_shift_distribution(G, 6, 7, 3)
    weights = [rng.randint(1, 50) for _ in base.support]
    dist = lc.SeparatorDistribution(G, base.K, [
        (Y, Fraction(wt, sum(weights))) for (Y, _), wt in zip(base.support, weights)
    ])
    w = lc.tighten_radius(lc.witness_from_separators(dist))
    assert max(len(set(f.num.values())) for f in w.dists.values()) >= 8
    cases.append(at_prime_alpha(G, w))
    return cases


def at_prime_alpha(G, w):
    """A fused case at the least prime alpha above every ball size that keeps
    eps' = eps + 3 max |B_r| / alpha below 2; that alpha is the worst-case rule's."""
    eps = lc.check_uniformity(w).max_edge_l1
    max_ball = max(len(bfs(G.adj, (x,), w.radius)[0]) for x in range(G.n))
    alpha = max_ball + 1
    while Fraction(3 * max_ball, alpha) >= 2 - eps or any(alpha % d == 0 for d in range(2, alpha)):
        alpha += 1
    return G, w, eps, eps + Fraction(3 * max_ball, alpha), alpha


def assert_same_labeling(fused, staged):
    assert fused.params == staged.params
    assert fused.colors == staged.colors
    assert fused.tables == staged.tables
    assert fused.k_local == staged.k_local
    assert format_labeling(fused) == format_labeling(staged)


@pytest.mark.parametrize("G, w, eps, eps_prime, alpha", fused_cases())
def test_fused_build_proof_matches_discretize_witness(G, w, eps, eps_prime, alpha):
    """Quantizing while scattering writes the labeling the whole quantized witness gives.

    build_proof takes the least alpha the plain loop finds; that alpha, and
    any at or above the worst-case rule's, keeps the whole quantized witness
    within eps + 2(eps' - eps)/3.
    """
    fused = build_proof(w, eps_prime)
    chosen = fused.params.alpha
    assert chosen == reference_least_alpha(w, eps_prime)
    assert chosen <= formula_alpha(G, w, eps, eps_prime) <= alpha
    assert_same_labeling(fused, encode_as_written(discretized(w, chosen), eps_prime))
    bound = eps + 2 * (eps_prime - eps) / 3
    for a in (chosen, alpha):
        assert lc.check_uniformity(discretized(w, a)).max_edge_l1 <= bound


def least_alpha_cases():
    grid = lc.generate(lc.FamilySpec("grid", (9, 9)))
    tree = lc.generate(lc.FamilySpec("full_tree", (2, 5)))
    cycle = lc.generate(lc.FamilySpec("cycle", (24,)))
    return [
        pytest.param(uniform_ball_witness(grid, 3), Fraction(4, 5), id="grid9x9-ball3"),
        pytest.param(uniform_ball_witness(grid, 2), Fraction(1), id="grid9x9-ball2"),
        pytest.param(lc.tighten_radius(lc.witness_from_separators(
                         lc.tree_depth_shift_distribution(tree, 5))),
                     Fraction(9, 10), id="tree2x5-shift5"),
        pytest.param(lc.tighten_radius(lc.witness_from_separators(
                         lc.path_shift_distribution(cycle, 6))),
                     Fraction(3, 4), id="cycle24-shift6"),
        pytest.param(uniform_ball_witness(cycle, 2), Fraction(1, 2), id="cycle24-ball2"),
        # one vertex, no edge: every alpha is exact, so the scan stops at 1
        pytest.param(uniform_ball_witness(lc.generate(lc.FamilySpec("path", (1,))), 1),
                     Fraction(1, 2), id="path1-ball1"),
    ]


@pytest.mark.parametrize("w, eps_prime", least_alpha_cases())
def test_chosen_alpha_is_the_last_certified_rung(w, eps_prime):
    """The chosen alpha keeps every vertex's rounding error, measured by l1 against
    `discretize`, within (eps' - eps)/3, and no smaller alpha does: reading down
    from it, it is the last certified rung."""
    eps = lc.check_uniformity(w).max_edge_l1
    alpha = build_proof(w, eps_prime).params.alpha
    assert alpha <= formula_alpha(w.graph, w, eps, eps_prime)
    assert certified(w, alpha, eps, eps_prime)
    assert not any(certified(w, a, eps, eps_prime) for a in range(1, alpha))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nums=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       budget=st.fractions(Fraction(1, 200), Fraction(2)), top=st.integers(1, 80))
def test_least_alpha_integer_compare_matches_fraction_compare(nums, budget, top):
    """At every candidate alpha up to top, the scan's integer compare on a shape
    decides what the shape's Fraction error against the budget decides, and
    that error is discretize's l1; the scan stops at the first alpha that fits."""
    f = RationalDist(sum(nums), dict(enumerate(nums)))
    den, counts = f.den, Counter(nums)
    for alpha in range(1, top + 1):
        error = rounding_plan(den, counts, alpha).error
        assert error == l1_distance(f, discretize(f, alpha))
        assert (error <= budget) == (
            2 * budget.denominator * _floored(den, counts, alpha)
            <= budget.numerator * alpha * den)
    first = next(a for a in count(1) if rounding_plan(den, counts, a).error <= budget)
    assert _least_alpha([(den, counts)], budget) == first


def test_fused_build_proof_matches_on_proved_instances(accepted_instances):
    """The session's uniform-ball and separator instances against the staged quantization."""
    for inst in accepted_instances:
        p = inst.labeling.params
        staged = encode_as_written(discretized(inst.raw, p.alpha), p.eps_prime)
        assert staged == inst.labeling, inst.name


def test_support_outside_the_ball_is_rejected_at_its_owner():
    """An atom beyond B_r(x) lands in a table that x cannot read, so x's masses fall short."""
    G = lc.generate(lc.FamilySpec("path", (6,)))
    dists = {x: RationalDist(6, {x: 6}) for x in range(G.n)}
    dists[0] = RationalDist(6, {0: 3, 3: 3})  # vertex 3 lies at distance 3 > r = 1
    labeling = encode_as_written(WitnessFunction(G, 1, dists), Fraction(1, 2))
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
    # the first offending entry in (z, q) order is named, either side of [0, alpha]
    for tables, bad in ((((0, 4), (5, -1), (9, 0)), "5 at (1, 0)"),
                        (((0, 4), (4, -1), (5, 0)), "-1 at (1, 1)"),
                        (((0, 4), (4, 0), (0, 7)), "7 at (2, 1)")):
        with pytest.raises(ValueError, match=rf"^table entry {re.escape(bad)} outside \[0, 4\]$"):
            ProofLabeling(params, (0, 1, 0), tables, k_local=3)
    assert ProofLabeling(params, (), (), k_local=0).n == 0


# --- text format -------------------------------------------------------------

def test_labeling_format_round_trip(tmp_path):
    G, g = quantized_path_witness()
    labeling = encode_as_written(g, Fraction(5, 6))
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
    labeling = encode_as_written(g, Fraction(5, 6))
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
