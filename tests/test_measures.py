"""Distributions, uniformity measurement, quantization, projection."""

import random
from fractions import Fraction
from types import MappingProxyType

import pytest

import localcert as lc
from localcert.errors import EmptySubgraph, InfeasibleAlpha, WitnessTooRough
from localcert.measures import (
    RationalDist,
    WitnessFunction,
    check_uniformity,
    discretize,
    l1_distance,
    project_witness,
    tighten_radius,
    uniform_ball_witness,
)

from conftest import random_family_graph


def random_dist(rng, support, den_cap=60):
    """A random rational distribution on the given support."""
    vs = list(support)
    weights = [rng.randint(0, den_cap) for _ in vs]
    while sum(weights) == 0:
        weights = [rng.randint(0, den_cap) for _ in vs]
    return RationalDist(sum(weights), {z: c for z, c in zip(vs, weights) if c})


def test_rational_dist_basics():
    u = RationalDist.uniform([3, 1, 2])
    assert u.den == 3 and u.value(1) == Fraction(1, 3) and u.value(9) == 0
    assert u.support() == (1, 2, 3)
    d = RationalDist.delta(7)
    assert d.value(7) == 1 and d.support() == (7,)
    with pytest.raises(ValueError):
        RationalDist(4, {0: 1, 1: 2})
    with pytest.raises(ValueError):
        RationalDist(2, {0: 3, 1: -1})


@pytest.mark.parametrize("den, num, message", [
    (0, {0: 1}, "denominator must be positive, got 0"),
    (2, {0: 3, 1: -1}, "negative numerator -1 at vertex 1"),
    (4, {0: 1, 1: 2}, "numerators sum to 3, expected 4"),
    (4, {0: 1, 1: 0, 2: 2}, "numerators sum to 3, expected 4"),
    (1, {}, "numerators sum to 0, expected 1"),
])
def test_rational_dist_rejects_with_the_offending_entry(den, num, message):
    with pytest.raises(ValueError) as exc:
        RationalDist(den, num)
    assert str(exc.value) == message


def test_rational_dist_adopts_a_zero_free_dict_and_drops_zeros():
    num = {4: 1, 2: 2}
    assert RationalDist(3, num).num is num
    with_zero = {4: 1, 5: 0, 2: 2}
    d = RationalDist(3, with_zero)
    assert d.num == {4: 1, 2: 2} and d.num is not with_zero
    assert with_zero == {4: 1, 5: 0, 2: 2}
    proxy = RationalDist(3, MappingProxyType({0: 1, 1: 2}))
    assert type(proxy.num) is dict and proxy.num == {0: 1, 1: 2}
    assert RationalDist.uniform(range(4)).num == {0: 1, 1: 1, 2: 1, 3: 1}
    with pytest.raises(ValueError):
        RationalDist.uniform([])
    with pytest.raises(ValueError):
        RationalDist.uniform([1, 1])


def test_rational_dist_equality_ignores_representation():
    a = RationalDist(2, {0: 1, 1: 1})
    b = RationalDist(4, {0: 2, 1: 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a != RationalDist(2, {0: 2})


def test_l1_distance_hand_case():
    f = RationalDist(2, {0: 1, 1: 1})
    g = RationalDist(3, {0: 1, 1: 1, 2: 1})
    assert l1_distance(f, g) == Fraction(2, 3)
    assert l1_distance(f, f) == 0


def test_l1_distance_properties():
    rng = random.Random(201)
    for _ in range(100):
        supp = rng.sample(range(20), rng.randint(1, 6))
        f = random_dist(rng, supp)
        g = random_dist(rng, rng.sample(range(20), rng.randint(1, 6)))
        h = random_dist(rng, rng.sample(range(20), rng.randint(1, 6)))
        d = l1_distance(f, g)
        assert d == l1_distance(g, f)
        assert 0 <= d <= 2
        assert l1_distance(f, h) <= d + l1_distance(g, h)


# --- witnesses and their measurement ----------------------------------------

def test_uniform_ball_witness_path3():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    w = uniform_ball_witness(G, 1)
    assert w.dists[0] == RationalDist(2, {0: 1, 1: 1})
    assert w.dists[1] == RationalDist(3, {0: 1, 1: 1, 2: 1})
    rep = check_uniformity(w)
    assert rep.max_edge_l1 == Fraction(2, 3)
    assert rep.support_ok


def test_measured_values_on_cycles_and_paths():
    C20 = lc.generate(lc.FamilySpec("cycle", (20,)))
    assert check_uniformity(uniform_ball_witness(C20, 3)).max_edge_l1 == Fraction(2, 7)
    P100 = lc.generate(lc.FamilySpec("path", (100,)))
    assert check_uniformity(uniform_ball_witness(P100, 5)).max_edge_l1 == Fraction(2, 7)
    C100 = lc.generate(lc.FamilySpec("cycle", (100,)))
    assert check_uniformity(uniform_ball_witness(C100, 5)).max_edge_l1 == Fraction(2, 11)


def test_grid_interior_edge_value():
    # far from the boundary, adjacent radius-10 balls overlap in all but
    # 2(2r+1) = 42 of their 2r^2+2r+1 = 221 vertices
    G = lc.generate(lc.FamilySpec("grid", (22, 22)))
    w = uniform_ball_witness(G, 10)
    x = 10 * 22 + 10
    y = 10 * 22 + 11
    assert l1_distance(w.dists[x], w.dists[y]) == Fraction(42, 221)


def test_check_uniformity_flags_bad_support():
    G = lc.generate(lc.FamilySpec("path", (4,)))
    dists = {x: RationalDist.delta(x) for x in range(4)}
    dists[0] = RationalDist.delta(3)  # distance 3 > radius 1
    rep = check_uniformity(WitnessFunction(G, 1, dists))
    assert not rep.support_ok
    assert rep.bad_support_vertex == 0
    assert not rep.satisfies(Fraction(2))


@pytest.mark.parametrize("family, params", [("grid", (6, 6)), ("cycle", (20,)),
                                             ("full_tree", (2, 4))])
def test_recorded_supports_agree_with_a_fresh_sweep(family, params):
    """Witnesses whose builder read each support from a BFS skip the support sweep.

    The report they get must equal the one a copy with no record gets from
    a fresh radius-r sweep.
    """
    G = lc.generate(lc.FamilySpec(family, params))
    w = uniform_ball_witness(G, 2)
    eps = check_uniformity(w).max_edge_l1
    eps_prime = (eps + 2) / 2
    verdict, decoded = lc.verify_and_decode(G, lc.build_proof(G, w, eps_prime))
    assert verdict.accept
    for wit in (w, decoded):
        assert wit._supports_in_balls
        fresh = WitnessFunction(G, wit.radius, wit.dists, wit.vertices)
        assert not fresh._supports_in_balls
        assert check_uniformity(wit) == check_uniformity(fresh)


@pytest.mark.parametrize("family, params", [("path", (30,)), ("cycle", (30,)),
                                             ("full_tree", (2, 5))])
def test_tighten_radius_records_shift_witnesses(family, params):
    """Its searches saw every atom, so the measurement sweeps no ball again."""
    G = lc.generate(lc.FamilySpec(family, params))
    raw = lc.witness_from_separators(G, lc.shift_family_distribution(G, 5))
    w = tighten_radius(raw)
    assert w.radius < raw.radius
    assert w._supports_in_balls
    fresh = WitnessFunction(G, w.radius, w.dists, w.vertices)
    assert check_uniformity(w) == check_uniformity(fresh)
    assert check_uniformity(w).support_ok


def _unrecordable_witnesses():
    """(witness, bad vertex): an atom beyond the declared radius, one outside
    the graph, and a relative witness with an atom outside its domain."""
    G = lc.generate(lc.FamilySpec("path", (10,)))
    base = uniform_ball_witness(G, 1).dists
    beyond = {**base, 4: RationalDist(2, {4: 1, 9: 1})}  # d(4, 9) = 5 > 3
    outside = {**base, 2: RationalDist(2, {2: 1, 10: 1})}
    relative = {x: RationalDist.delta(x) for x in range(5)}
    relative[4] = RationalDist(2, {4: 1, 5: 1})
    return {
        "beyond": (WitnessFunction(G, 3, beyond), 4),
        "outside": (WitnessFunction(G, 3, outside), 2),
        "relative": (WitnessFunction(G, 3, relative, range(5)), 4),
    }


@pytest.mark.parametrize("case", ["beyond", "outside", "relative"])
def test_tighten_radius_leaves_unreached_atoms_unrecorded(case):
    w, bad = _unrecordable_witnesses()[case]
    tight = tighten_radius(w)
    assert tight.radius == 1
    assert not tight._supports_in_balls
    rep = check_uniformity(tight)
    assert (rep.support_ok, rep.bad_support_vertex) == (False, bad)
    fresh = WitnessFunction(w.graph, 1, w.dists, w.vertices)
    assert check_uniformity(fresh) == rep


def test_uniformity_per_edge_values():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    w = uniform_ball_witness(G, 1)
    per_edge = {(u, v): l1_distance(w.dist(u), w.dist(v)) for u, v in w.domain_edges()}
    assert per_edge == {(0, 1): Fraction(2, 3), (1, 2): Fraction(2, 3)}
    rep = check_uniformity(w)
    assert rep.max_edge_l1 == max(per_edge.values())
    assert rep.worst_edge == (0, 1)


# --- quantization ------------------------------------------------------------

def test_discretize_hand_cases():
    f = RationalDist(3, {0: 1, 1: 1, 2: 1})
    assert discretize(f, 6) == RationalDist(6, {0: 2, 1: 2, 2: 2})
    # alpha=5 on a half/half split: deficit 1 goes to the smaller id
    g = discretize(RationalDist(2, {4: 1, 9: 1}), 5)
    assert g.num == {4: 3, 9: 2}


def test_discretize_sums_and_error_bound():
    rng = random.Random(202)
    for _ in range(300):
        supp = rng.sample(range(30), rng.randint(1, 8))
        f = random_dist(rng, supp)
        alpha = rng.randint(len(supp), 500)
        g = discretize(f, alpha)
        assert g.den == alpha
        assert sum(g.num.values()) == alpha
        assert l1_distance(f, g) <= Fraction(len(supp), alpha)
        assert set(g.num) <= set(f.num)


def test_discretize_is_deterministic():
    f = RationalDist(7, {0: 3, 1: 2, 2: 2})
    assert discretize(f, 11) == discretize(f, 11)


def test_discretize_to_its_own_denominator_is_the_identity():
    f = RationalDist(7, {0: 3, 1: 2, 2: 2})
    assert discretize(f, 7) is f
    with pytest.raises(InfeasibleAlpha):
        discretize(f, 0)


def test_derive_alpha_examples():
    """build_proof derives alpha = ceil(3 max |B_r| / (eps' - eps)) and needs eps' > eps."""
    P = lc.generate(lc.FamilySpec("path", (11,)))
    w = uniform_ball_witness(P, 1)  # measures 2/3; max |B_1| = 3
    assert lc.build_proof(P, w, Fraction(5, 6)).params.alpha == 54
    for eps_prime in (Fraction(1, 2), Fraction(2, 3)):
        with pytest.raises(WitnessTooRough, match=f"witness measures 2/3 >= eps' = {eps_prime} "):
            lc.build_proof(P, w, eps_prime)


def test_discretize_witness_edge_bound():
    """The witness the labels encode, decoded, keeps every edge within eps + 2(eps' - eps)/3."""
    rng = random.Random(203)
    for _ in range(25):
        G = random_family_graph(rng)
        r = rng.randint(1, 3)
        w = uniform_ball_witness(G, r)
        eps = check_uniformity(w).max_edge_l1
        eps_prime = eps + Fraction(rng.randint(1, 5), rng.randint(20, 40))
        if eps_prime >= 2:
            continue
        g = lc.decode_accepted_witness(G, lc.build_proof(G, w, eps_prime))
        bound = 2 * (eps_prime - eps) / 3 + eps
        for u, v in G.edges():
            assert l1_distance(g.dists[u], g.dists[v]) <= bound
        assert check_uniformity(g).max_edge_l1 < eps_prime


# --- projection ---------------------------------------------------------------

def test_project_witness_hand_case():
    G = lc.generate(lc.FamilySpec("path", (5,)))
    w = uniform_ball_witness(G, 1)
    proj = project_witness(w, [0, 1, 3, 4])
    assert proj.radius == 2
    assert proj.vertices == (0, 1, 3, 4)
    # the atom at 2 is equidistant from 1 and 3; the smaller id wins
    assert proj.dists[3] == RationalDist(3, {1: 1, 3: 1, 4: 1})
    assert proj.dists[1] == RationalDist(3, {0: 1, 1: 2})


def test_project_witness_conserves_mass():
    rng = random.Random(204)
    for _ in range(25):
        G = random_family_graph(rng)
        w = uniform_ball_witness(G, rng.randint(1, 2))
        F = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        proj = project_witness(w, F)
        fset = set(F)
        for x in F:
            assert sum(proj.dists[x].num.values()) == proj.dists[x].den
            assert set(proj.dists[x].num) <= fset


def test_project_witness_identity_on_full_domain():
    G = lc.generate(lc.FamilySpec("cycle", (8,)))
    w = uniform_ball_witness(G, 1)
    proj = project_witness(w, range(8))
    for x in range(8):
        assert proj.dists[x] == w.dists[x]


def test_project_witness_errors():
    G = lc.generate(lc.FamilySpec("path", (5,)))
    w = uniform_ball_witness(G, 1)
    with pytest.raises(EmptySubgraph):
        project_witness(w, [])
    rel = project_witness(w, [0, 1])
    with pytest.raises(ValueError):
        project_witness(rel, [0])

