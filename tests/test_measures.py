"""Distributions, witnesses and their measurement, quantization, the reference projection."""

import math
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localcert as lc
from localcert.errors import InfeasibleAlpha, WitnessTooRough
from localcert.measures import (
    RationalDist,
    WitnessFunction,
    _l1_pair,
    check_uniformity,
    discretize,
    l1_distance,
    rounding_plan,
    tighten_radius,
    uniform_ball_witness,
)

from conftest import random_family_graph
from reference import project_witness, reference_uniformity


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


def test_uniform_keeps_its_contract_without_the_init_scan():
    """uniform raises on an empty support and on a repeat, from a list or a
    generator, and otherwise equals the distribution __init__ would build."""
    for bad in ([], [1, 1], (z % 3 for z in range(5))):
        with pytest.raises(ValueError):
            RationalDist.uniform(bad)
    assert RationalDist.uniform(range(4)).num == {0: 1, 1: 1, 2: 1, 3: 1}
    for vs in ([5], [3, 1, 2], list(range(9, -1, -1)), [7, 0, 40, 2]):
        u = RationalDist.uniform(iter(vs))
        built = RationalDist(len(vs), dict.fromkeys(vs, 1))
        assert u == built and hash(u) == hash(built)
        assert type(u.num) is dict and list(u.num) == vs and u.den == len(vs)


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


def dist_over(rng, support, den):
    """A random distribution on the support whose numerators sum to den, unreduced."""
    cuts = sorted(rng.randint(0, den) for _ in support[1:])
    weights = [hi - lo for lo, hi in zip([0] + cuts, cuts + [den])]
    return RationalDist(den, dict(zip(support, weights)))


def exact_l1(f, g):
    return sum(abs(f.value(z) - g.value(z)) for z in set(f.num) | set(g.num))


def test_l1_distance_properties():
    rng = random.Random(201)
    for _ in range(100):
        supp = rng.sample(range(20), rng.randint(1, 6))
        f = random_dist(rng, supp)
        g = random_dist(rng, rng.sample(range(20), rng.randint(1, 6)))
        h = random_dist(rng, rng.sample(range(20), rng.randint(1, 6)))
        d = l1_distance(f, g)
        assert d == exact_l1(f, g)
        assert d == l1_distance(g, f)
        assert 0 <= d <= 2
        assert l1_distance(f, h) <= d + l1_distance(g, h)
    # one shared large denominator, as separator witnesses have, and
    # denominators with a large common factor
    for _ in range(100):
        shared = rng.randint(2**27, 2**28)
        k = rng.randint(2, 5000)
        for pd, qd in ((shared, shared), (k * rng.randint(1, 400), k * rng.randint(1, 400))):
            f = dist_over(rng, rng.sample(range(20), rng.randint(1, 6)), pd)
            g = dist_over(rng, rng.sample(range(20), rng.randint(1, 6)), qd)
            assert l1_distance(f, g) == exact_l1(f, g) == l1_distance(g, f)
            assert l1_distance(f, f) == 0


@st.composite
def uniform_supports(draw):
    """Two supports in range(30) that are disjoint, nested, equal, singletons or random."""
    a = draw(st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True))
    relation = draw(st.sampled_from(["random", "disjoint", "nested", "equal", "singleton"]))
    if relation == "disjoint":
        rest = [z for z in range(30) if z not in a] or [30]
        b = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=len(rest), unique=True))
    elif relation == "nested":
        b = draw(st.lists(st.sampled_from(a), min_size=1, max_size=len(a), unique=True))
    elif relation == "equal":
        b = draw(st.permutations(a))
    elif relation == "singleton":
        a, b = a[:1], [draw(st.integers(0, 29))]
    else:
        b = draw(st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(supports=uniform_supports(), scale=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_l1_of_uniform_pairs_by_overlap_size(supports, scale, seed):
    """Two unit-numerator distributions, however built, take the closed form
    over |A| * |B|; a pair with a non-unit side keeps the gather over the
    least common denominator.  Every value is the exact l1, both ways."""
    a, b = supports
    p = RationalDist.uniform(a)
    for q in (RationalDist.uniform(b), RationalDist(len(b), dict.fromkeys(b, 1))):
        assert _l1_pair(p, q)[1] == len(a) * len(b)
        assert l1_distance(p, q) == exact_l1(p, q) == l1_distance(q, p)
    # uniform in value but not in numerators, and a random distribution on b
    scaled = RationalDist(scale * len(b), dict.fromkeys(b, scale))
    rough = dist_over(random.Random(seed), b, len(b) + scale)
    for q in (scaled, rough):
        for f, g in ((p, q), (q, p)):
            assert _l1_pair(f, g)[1] == math.lcm(f.den, g.den)
            assert l1_distance(f, g) == exact_l1(f, g)


# --- witnesses and their measurement ----------------------------------------

@pytest.mark.parametrize("keys, radius, message", [
    ([0, 1, 3], 1, "exactly one distribution per vertex 0..n-1"),
    ([-1, 0, 1, 2, 3], 1, "exactly one distribution per vertex 0..n-1"),
    ([0, 1, 2, 3, 4], 1, "exactly one distribution per vertex 0..n-1"),
    ([0, 1, 2, 3], -1, "radius must be nonnegative, got -1"),
], ids=["missing", "extra-below", "extra-n", "negative-radius"])
def test_witness_function_checks_its_keys_and_radius(keys, radius, message):
    G = lc.generate(lc.FamilySpec("path", (4,)))
    with pytest.raises(ValueError, match=message):
        WitnessFunction(G, radius, {x: RationalDist.delta(x % 4) for x in keys})
    assert WitnessFunction(G, 0, {x: RationalDist.delta(x) for x in range(4)}).radius == 0


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
    verdict, decoded = lc.verify_and_decode(G, lc.build_proof(w, eps_prime))
    assert verdict.accept
    for wit in (w, decoded):
        assert wit._supports_in_balls
        fresh = WitnessFunction(G, wit.radius, wit.dists)
        assert not fresh._supports_in_balls
        assert check_uniformity(wit) == check_uniformity(fresh)


@pytest.mark.parametrize("family, params", [("path", (30,)), ("cycle", (30,)),
                                             ("full_tree", (2, 5))])
def test_tighten_radius_records_shift_witnesses(family, params):
    """Its searches saw every atom, so the measurement sweeps no ball again."""
    G = lc.generate(lc.FamilySpec(family, params))
    shift = lc.tree_depth_shift_distribution if family == "full_tree" else lc.path_shift_distribution
    raw = lc.witness_from_separators(shift(G, 5))
    w = tighten_radius(raw)
    assert w.radius < raw.radius
    assert w._supports_in_balls
    fresh = WitnessFunction(G, w.radius, w.dists)
    assert check_uniformity(w) == check_uniformity(fresh)
    assert check_uniformity(w).support_ok


def _unrecordable_witnesses():
    """(witness, bad vertex): an atom beyond the declared radius, one outside the
    graph, and a negative one whose id, read as a list index, would be vertex 9's."""
    G = lc.generate(lc.FamilySpec("path", (10,)))
    base = uniform_ball_witness(G, 1).dists
    beyond = {**base, 4: RationalDist(2, {4: 1, 9: 1})}  # d(4, 9) = 5 > 3
    outside = {**base, 2: RationalDist(2, {2: 1, 10: 1})}
    negative = {**base, 9: RationalDist(2, {9: 1, -1: 1})}
    return {
        "beyond": (WitnessFunction(G, 3, beyond), 4),
        "outside": (WitnessFunction(G, 3, outside), 2),
        "negative": (WitnessFunction(G, 3, negative), 9),
    }


@pytest.mark.parametrize("case", ["beyond", "outside", "negative"])
def test_tighten_radius_leaves_unreached_atoms_unrecorded(case):
    w, bad = _unrecordable_witnesses()[case]
    tight = tighten_radius(w)
    assert tight.radius == 1
    assert not tight._supports_in_balls
    rep = check_uniformity(tight)
    assert (rep.support_ok, rep.bad_support_vertex) == (False, bad)
    fresh = WitnessFunction(w.graph, 1, w.dists)
    assert check_uniformity(fresh) == rep


def test_tighten_radius_lifts_a_valid_radius_zero_witness_to_one():
    """Point masses fit B_0, so they fit B_1, the least radius a labeling encodes;
    an atom outside B_0 keeps the witness at its declared radius 0, invalid."""
    G = lc.generate(lc.FamilySpec("path", (3,)))
    points = {x: RationalDist(1, {x: 1}) for x in range(G.n)}
    tight = tighten_radius(WitnessFunction(G, 0, points))
    assert tight.radius == 1
    assert tight._supports_in_balls
    assert check_uniformity(tight) == check_uniformity(WitnessFunction(G, 1, points))
    stray = {**points, 1: RationalDist(2, {1: 1, 2: 1})}  # d(1, 2) = 1 > 0
    w = WitnessFunction(G, 0, stray)
    tight = tighten_radius(w)
    assert tight is w and tight.radius == 0
    assert not tight._supports_in_balls
    rep = check_uniformity(tight)
    assert (rep.support_ok, rep.bad_support_vertex) == (False, 1)


def test_uniformity_per_edge_values():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    w = uniform_ball_witness(G, 1)
    per_edge = {(u, v): l1_distance(w.dists[u], w.dists[v]) for u, v in G.edges()}
    assert per_edge == {(0, 1): Fraction(2, 3), (1, 2): Fraction(2, 3)}
    rep = check_uniformity(w)
    assert rep.max_edge_l1 == max(per_edge.values())
    assert rep.worst_edge == (0, 1)


def mixed_denominator_witnesses(rng):
    """Witnesses whose distributions share values over different denominators.

    Uniform balls on a cycle put every edge at one l1, and on a grid at a few,
    so ties are everywhere; each distribution is rescaled by its own factor,
    and some vertices get a random distribution inside their ball instead.
    """
    for G, r in ((lc.generate(lc.FamilySpec("cycle", (rng.randint(5, 30),))), 2),
                 (lc.generate(lc.FamilySpec("grid", (rng.randint(3, 7), rng.randint(3, 7)))), 1),
                 (lc.generate(lc.FamilySpec("full_tree", (2, 4))), 2),
                 (random_family_graph(rng), rng.randint(1, 2))):
        base = uniform_ball_witness(G, r)
        dists = {}
        for x, f in base.dists.items():
            if rng.random() < 0.2:
                f = dist_over(rng, sorted(f.num), rng.randint(1, 40))
            k = rng.choice((1, 1, 2, 3, 7, 12))
            dists[x] = RationalDist(f.den * k, {z: c * k for z, c in f.num.items()})
        yield WitnessFunction(G, r, dists)


def test_check_uniformity_matches_the_plain_fraction_loop():
    rng = random.Random(207)
    tied = 0
    for _ in range(30):
        for w in mixed_denominator_witnesses(rng):
            want = reference_uniformity(w)
            assert check_uniformity(w) == want
            values = [l1_distance(w.dists[u], w.dists[v]) for u, v in w.graph.edges()]
            tied += values.count(want.max_edge_l1) > 1
    assert tied  # the first of several worst edges is named


def uniform_ball_cases():
    grid = lc.generate(lc.FamilySpec("grid", (7, 9)))
    two = lc.BoundedDegreeGraph(9, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                       (5, 6), (6, 7), (7, 8)])
    cases = [pytest.param(grid, r, id=f"grid7x9-r{r}") for r in range(1, 5)]
    for name, G, r in (
            ("path10", lc.generate(lc.FamilySpec("path", (10,))), 2),
            ("cycle13", lc.generate(lc.FamilySpec("cycle", (13,))), 3),
            ("tree2x4", lc.generate(lc.FamilySpec("full_tree", (2, 4))), 2),
            ("regular20x3", lc.generate(lc.FamilySpec("random_regular", (20, 3), seed=4)), 1),
            ("cycle5+path4", two, 2),
            ("path10-past-diameter", lc.generate(lc.FamilySpec("path", (10,))), 12)):
        cases.append(pytest.param(G, r, id=name))
    return cases


@pytest.mark.parametrize("G, r", uniform_ball_cases())
def test_uniform_ball_report_matches_the_plain_fraction_loop(G, r):
    """Every pair of a uniform-ball witness takes the closed form, over balls of
    several sizes at the grid's boundary; the report equals the plain loop's."""
    assert check_uniformity(uniform_ball_witness(G, r)) == reference_uniformity(
        uniform_ball_witness(G, r))


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
    with pytest.raises(InfeasibleAlpha):
        rounding_plan(7, {3: 1, 2: 2}, 0)


@st.composite
def rounding_cases(draw):
    """A distribution with few distinct numerators (ties are common) and an alpha."""
    numerators = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    scale = draw(st.integers(1, 3))  # a denominator that is not the least one
    ids = draw(st.permutations(range(40)))
    f = RationalDist(scale * sum(numerators),
                     {z: scale * c for z, c in zip(ids, numerators)})
    alpha = draw(st.one_of(st.integers(1, 3 * f.den), st.just(f.den)))
    return f, alpha


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=rounding_cases())
@example(case=(RationalDist(6, {0: 1, 1: 2, 2: 3}), 2))  # alpha < |supp|: an atom rounds to 0
@example(case=(RationalDist(7, {0: 3, 1: 2, 2: 2}), 7))  # alpha == den: no change
@example(case=(RationalDist(4, {5: 1, 2: 1, 9: 1, 0: 1}), 6))  # four equal remainders, two raised
@example(case=(RationalDist(12, {0: 2, 1: 4, 2: 6}), 9))  # numerators 2 and 6 tie on remainder 6
@example(case=(RationalDist(5, {3: 1, 1: 4}), 1))  # alpha 1: all mass on one atom
def test_rounding_plan_is_discretize_grouped(case):
    """The plan over numerator counts rounds as discretize does, and its
    closed-form error is l1(f, discretize(f, alpha)) exactly."""
    f, alpha = case
    g = discretize(f, alpha)
    plan = rounding_plan(f.den, Counter(f.num.values()), alpha)
    assert plan.error == l1_distance(f, g)
    num = {z: plan.lift[c] for z, c in f.num.items()}
    tied = sorted(z for z, c in f.num.items() if plan.tied is None or c in plan.tied)
    for z in tied[:plan.extra]:
        num[z] += 1
    assert RationalDist(alpha, num) == g


def test_derive_alpha_examples():
    """build_proof takes the least alpha within (eps' - eps)/3 and needs eps' > eps."""
    P = lc.generate(lc.FamilySpec("path", (11,)))
    w = uniform_ball_witness(P, 1)  # measures 2/3; its supports are halves and thirds
    # the budget is 1/18: an odd alpha below 18 leaves halves off by 1/alpha, and
    # one below 24 that 3 does not divide leaves thirds off by 4/(3 alpha); 6 is exact
    assert lc.build_proof(w, Fraction(5, 6)).params.alpha == 6
    for eps_prime in (Fraction(1, 2), Fraction(2, 3)):
        with pytest.raises(WitnessTooRough, match=f"witness measures 2/3 >= eps' = {eps_prime} "):
            lc.build_proof(w, eps_prime)


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
        g = lc.decode_accepted_witness(G, lc.build_proof(w, eps_prime))
        bound = 2 * (eps_prime - eps) / 3 + eps
        for u, v in G.edges():
            assert l1_distance(g.dists[u], g.dists[v]) <= bound
        assert check_uniformity(g).max_edge_l1 < eps_prime


# --- the reference projection (tests/reference.py) ------------------------------

def test_project_witness_hand_case():
    G = lc.generate(lc.FamilySpec("path", (5,)))
    w = uniform_ball_witness(G, 1)
    proj = project_witness(w, [0, 1, 3, 4])
    assert sorted(proj) == [0, 1, 3, 4]
    # the atom at 2 is equidistant from 1 and 3; the smaller id wins
    assert proj[3] == RationalDist(3, {1: 1, 3: 1, 4: 1})
    assert proj[1] == RationalDist(3, {0: 1, 1: 2})


def test_project_witness_conserves_mass():
    rng = random.Random(204)
    for _ in range(25):
        G = random_family_graph(rng)
        w = uniform_ball_witness(G, rng.randint(1, 2))
        F = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        proj = project_witness(w, F)
        fset = set(F)
        assert sorted(proj) == F
        for x in F:
            assert sum(proj[x].num.values()) == proj[x].den
            assert set(proj[x].num) <= fset


def test_project_witness_identity_on_full_domain():
    G = lc.generate(lc.FamilySpec("cycle", (8,)))
    w = uniform_ball_witness(G, 1)
    proj = project_witness(w, range(8))
    assert proj == w.dists

