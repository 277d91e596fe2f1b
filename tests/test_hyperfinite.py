"""Superlevel sweeps, the area/coarea identities, and partition extraction."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localcert as lc
from localcert import hyperfinite, measures, separators
from conftest import max_ball_size_actual, random_family_graph
from localcert.errors import FormatError, NoQualifyingSet, NotUniform, OutOfRange
from localcert.hyperfinite import (
    PartitionResult,
    _ShrinkingProjection,
    _pick_z0,
    _ratio_heap,
    area_coarea_check,
    check_hyperfinite,
    edit_distance_upper_bound,
    extract_partition,
    format_partition,
    parse_partition,
)
from localcert.measures import RationalDist, WitnessFunction, uniform_ball_witness
from localcert.verifier import is_planar
from reference import (
    coordinate_sums,
    edge_boundary,
    find_low_boundary_set,
    project_witness,
    reference_cuts,
    reference_edit_bound,
    reference_partition,
    threshold_set,
)


def zeta_path3():
    return {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(0)}


def test_threshold_set_is_strict():
    z = zeta_path3()
    assert threshold_set(z, Fraction(1, 2)) == {0}
    assert threshold_set(z, Fraction(0)) == {0, 1}
    assert threshold_set(z, Fraction(1)) == set()


def test_boundary_sets_hand_case():
    P = lc.generate(lc.FamilySpec("path", (4,)))
    assert edge_boundary(P, range(4), {0, 1}) == ((1, 2),)
    assert edge_boundary(P, range(4), {1, 2}) == ((1, 0), (2, 3))
    # restricting the domain hides edges that leave it
    assert edge_boundary(P, {0, 1}, {0, 1}) == ()
    with pytest.raises(ValueError):
        edge_boundary(P, {0, 1}, {2})


def test_area_coarea_hand_case():
    P = lc.generate(lc.FamilySpec("path", (3,)))
    res = area_coarea_check(P, zeta_path3())
    # both superlevel sets have one boundary edge, each interval has length 1/2
    assert res.coarea_lhs == res.coarea_rhs == 2
    assert res.area_lhs == res.area_rhs == Fraction(3, 2)
    assert res.ok


def test_area_coarea_rejects_out_of_range():
    P = lc.generate(lc.FamilySpec("path", (3,)))
    with pytest.raises(OutOfRange):
        area_coarea_check(P, {0: Fraction(2), 1: Fraction(0), 2: Fraction(0)})


def test_area_coarea_random():
    rng = random.Random(601)
    for _ in range(60):
        G = random_family_graph(rng)
        zeta = {
            x: Fraction(rng.randint(0, 12), 12)
            for x in rng.sample(range(G.n), rng.randint(1, G.n))
        }
        assert area_coarea_check(G, zeta).ok


# --- low-boundary sweep (the reference's) ----------------------------------------

def test_find_low_boundary_constant_witness():
    """A perfectly flat witness has an empty boundary at threshold zero."""
    P = lc.generate(lc.FamilySpec("path", (3,)))
    flat = RationalDist(3, {0: 1, 1: 1, 2: 1})
    res = find_low_boundary_set(P, {x: flat for x in range(3)}, Fraction(1, 100))
    assert res.vertices == (0, 1, 2)
    assert res.edges == ()
    assert res.z0 == 0


def test_find_low_boundary_respects_the_ratio():
    rng = random.Random(602)
    for _ in range(15):
        G = random_family_graph(rng)
        w = uniform_ball_witness(G, 1)
        eps = lc.check_uniformity(w).max_edge_l1
        if eps == 0:
            eps = Fraction(1, 10)
        res = find_low_boundary_set(G, w.dists, eps)
        size = len(res.vertices)
        assert size > 0
        assert 2 * len(res.edges) <= G.d * eps * size
        # the chosen set really is a superlevel set of f(.)(z0)
        inside = set(res.vertices)
        for x in range(G.n):
            assert (w.dists[x].value(res.z0) > res.threshold) == (x in inside)


def test_find_low_boundary_can_fail_on_rough_witness():
    P = lc.generate(lc.FamilySpec("path", (2,)))
    deltas = {0: RationalDist.delta(0), 1: RationalDist.delta(1)}
    with pytest.raises(NoQualifyingSet):
        find_low_boundary_set(P, deltas, Fraction(1, 2))
    res = find_low_boundary_set(P, deltas, Fraction(1))
    assert res.vertices == (0,)


# --- extraction ------------------------------------------------------------------

def test_extract_partition_path11():
    G = lc.generate(lc.FamilySpec("path", (11,)))
    w = uniform_ball_witness(G, 1)
    part = extract_partition(w, Fraction(5, 6))
    assert part.block_sizes == (3, 3, 3, 2)
    assert part.removed_edges == ((2, 3), (5, 6), (8, 9))
    assert part.max_block_size <= 5


def test_extract_partition_guards():
    G = lc.generate(lc.FamilySpec("path", (6,)))
    w = uniform_ball_witness(G, 1)
    with pytest.raises(NotUniform):
        extract_partition(w, Fraction(1, 100))


@pytest.mark.parametrize("atom", [-1, 3, 7])
def test_find_low_boundary_refuses_an_atom_outside_the_graph(atom):
    """Dense coordinate sums index by atom: -1 would wrap and 3 would overrun on path 3.

    The cut extract_partition runs never sees such an atom: the support
    check refuses the witness first.
    """
    P = lc.generate(lc.FamilySpec("path", (3,)))
    dists = {x: RationalDist.delta(x) for x in range(3)}
    dists[1] = RationalDist(2, {1: 1, atom: 1})
    with pytest.raises(NotUniform, match="support_ok=False"):
        extract_partition(WitnessFunction(P, 2, dists), Fraction(2))


def test_extract_partition_rejects_a_support_outside_its_ball():
    """f(0) = delta(3) lies outside B_1(0) on path 4: NotUniform, whatever eps allows."""
    G = lc.generate(lc.FamilySpec("path", (4,)))
    dists = dict(uniform_ball_witness(G, 1).dists)
    dists[0] = RationalDist.delta(3)
    with pytest.raises(NotUniform, match="support_ok=False"):
        extract_partition(WitnessFunction(G, 1, dists), Fraction(2))


def test_extract_partition_bounds_random():
    rng = random.Random(603)
    for _ in range(10):
        G = random_family_graph(rng)
        r = rng.randint(1, 2)
        w = uniform_ball_witness(G, r)
        eps = lc.check_uniformity(w).max_edge_l1
        if eps == 0:
            eps = Fraction(1, 4)
        part = extract_partition(w, eps)
        assert part.num_removed <= Fraction(G.d, 2) * eps * G.n
        assert part.max_block_size <= max_ball_size_actual(G, 2 * r)
        # removed edges all exist and joined different blocks
        block_of = {}
        for i, block in enumerate(part.blocks):
            for v in block:
                block_of[v] = i
        for u, v in part.removed_edges:
            assert G.has_edge(u, v)
            assert block_of[u] != block_of[v]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is part of the contract
        return type(exc)


def test_extract_partition_matches_reference_loop():
    rng = random.Random(604)
    graphs = [
        lc.generate(lc.FamilySpec("grid", (rng.randint(4, 8), rng.randint(4, 8)))),
        lc.generate(lc.FamilySpec("path", (rng.randint(20, 40),))),
        lc.generate(lc.FamilySpec("cycle", (rng.randint(20, 40),))),
        lc.generate(lc.FamilySpec("full_tree", (2, rng.randint(3, 5)))),
        lc.generate(lc.FamilySpec("random_regular", (2 * rng.randint(10, 16), 3),
                                  rng.randint(0, 999))),
    ]
    errors = set()
    for G in graphs:
        for r in (1, 2, 3):
            w = uniform_ball_witness(G, r)
            measured = lc.check_uniformity(w).max_edge_l1
            witnesses = [w]
            if measured < 1:
                eps_prime = (measured + 1) / 2
                # one denominator throughout: the witness a labeling decodes to
                witnesses.append(lc.decode_accepted_witness(G, lc.build_proof(w, eps_prime)))
            for wit in witnesses:
                # extraction measures a copy with no cached report in its own
                # pass; that report must be check_uniformity's, worst edge included
                copy = WitnessFunction(G, wit.radius, wit.dists)
                outcome(extract_partition, copy, measured / 2)
                assert copy._uniformity == lc.check_uniformity(wit), (G.n, r)
                for eps in (measured, Fraction(1), measured / 2):
                    got = outcome(extract_partition, wit, eps)
                    want = outcome(reference_partition, wit, eps)
                    assert got == want, (G.n, r, eps)
                    if isinstance(want, type):
                        errors.add(want)
    assert errors == {NotUniform}


def random_witness(G, r, rng, smooth):
    """Random supports inside B_r(x), random numerators over per-vertex denominators.

    A smooth witness spreads mass over the whole ball with numerators 3 or 4,
    so it measures below 1 on most graphs; a rough one takes a random subset.
    """
    dists = {}
    for x in range(G.n):
        _, dist = lc.bfs(G.adj, (x,), r)
        least = len(dist) if smooth else 1
        supp = rng.sample(sorted(dist), rng.randint(least, len(dist)))
        nums = [rng.randint(3 if smooth else 1, 4) for _ in supp]
        dists[x] = RationalDist(sum(nums), dict(zip(supp, nums)))
    return WitnessFunction(G, r, dists)


def random_witness_suite(seed):
    """Random witnesses on the five families at r = 1..3, with their measured eps."""
    rng = random.Random(seed)
    graphs = [
        lc.generate(lc.FamilySpec("grid", (rng.randint(4, 7), rng.randint(4, 7)))),
        lc.generate(lc.FamilySpec("path", (rng.randint(20, 40),))),
        lc.generate(lc.FamilySpec("cycle", (rng.randint(20, 40),))),
        lc.generate(lc.FamilySpec("full_tree", (2, rng.randint(3, 4)))),
        lc.generate(lc.FamilySpec("random_regular", (2 * rng.randint(10, 16), 3),
                                  rng.randint(0, 999))),
    ]
    for G in graphs:
        for r in (1, 2, 3):
            for smooth in (False, True):
                w = random_witness(G, r, rng, smooth)
                yield G, w, lc.check_uniformity(w).max_edge_l1


def test_extract_partition_matches_reference_loop_on_random_witnesses(monkeypatch):
    relocate = _ShrinkingProjection._relocate
    dropped = []

    def spy(self, block):
        out = relocate(self, block)
        dropped.extend(t for t, _, new in out if new is None)
        return out

    monkeypatch.setattr(_ShrinkingProjection, "_relocate", spy)
    for G, w, eps in random_witness_suite(605):
        got = outcome(extract_partition, w, eps)
        assert got == outcome(reference_partition, w, eps), (G.n, w.radius, eps)
        assert isinstance(got, PartitionResult)
    assert dropped  # some atom lost its last holder in R


def test_shrinking_projection_sums_after_every_cut():
    """The incrementally kept projection and sums equal the reference's recount over R.

    Every coordinate of a cut block reads 0 and has no key, the ratio keys
    are exactly floor(2 diff/mass * S), S = (n den)^2, over the coordinates
    with mass, and no vertex outside R still holds a distribution.  Each
    atom's holders in R are exactly the vertices of R whose witness
    distribution has it in its support, and the list of an atom the cut
    relocated holds vertices of R only.
    """
    pruned = False
    for G, w, eps in random_witness_suite(606):
        state = _ShrinkingProjection(w)
        S = (G.n * state.den) ** 2
        relocated = []
        relocate = state._relocate

        def spy(block):
            out = relocate(block)
            relocated[:] = [t for t, _, _ in out]
            return out

        state._relocate = spy
        while state.remaining:
            held_before = sum(map(len, state.holders))
            block = state.cut(eps).vertices
            R = state.remaining
            assert all(set(state.holders[t]) & R == {x for x in R if t in w.dists[x].num}
                       for t in range(G.n))
            assert all(x in R for t in relocated for x in state.holders[t])
            pruned = pruned or sum(map(len, state.holders)) < held_before
            want = project_witness(w, R)
            assert all(RationalDist(state.den, state.proj[x]) == want[x] for x in R)
            assert all(state.proj[x] is None for x in range(G.n) if x not in R)
            mass, diff = coordinate_sums(G, want)
            den = state.den
            assert {z: Fraction(m, den) for z, m in enumerate(state.mass) if m} == mass
            assert {z: Fraction(d, den) for z, d in enumerate(state.diff) if d} == {
                z: d for z, d in diff.items() if d
            }, (G.n, w.radius)
            assert all(state.mass[z] == state.diff[z] == 0 and z not in state.key
                       for z in block)
            assert state.key == {z: math.floor(2 * diff[z] / m * S) for z, m in mass.items()}
    assert pruned  # some cut shortened a holder list


@st.composite
def key_cases(draw):
    """(M, [(diff, mass)]) with every mass at most M, and Farey neighbours among them.

    A Farey pair d1/m1 < d2/m2 has d2 m1 - d1 m2 = 1, so its ratios differ
    by exactly 1/(m1 m2), the least gap two ratios over masses <= M can have;
    scaled copies (k d, k m) add equal ratios over different masses.
    """
    M = draw(st.integers(1, 10**6))
    mass = st.integers(1, M)
    pairs = draw(st.lists(st.tuples(st.integers(0, 4 * M), mass), max_size=12))
    for m1, m2 in draw(st.lists(st.tuples(mass, mass), max_size=4)):
        if math.gcd(m1, m2) != 1:
            continue
        d2 = pow(m1, -1, m2) or m2  # d2 m1 = 1 mod m2
        d1 = (d2 * m1 - 1) // m2
        shift = draw(st.integers(0, 3))
        pairs += [(d1 + shift * m1, m1), (d2 + shift * m2, m2)]
    if pairs:
        for d, m in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            k = draw(st.integers(2, 5))
            if k * m <= M:
                pairs.append((k * d, k * m))
    return M, draw(st.permutations(pairs))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=key_cases())
@example(case=(1, [(0, 1), (1, 1), (0, 1)]))
@example(case=(6, [(1, 6), (1, 5), (1, 6), (2, 4), (1, 2)]))  # 1/6, 1/5 Farey neighbours
@example(case=(10**6, [(499999, 999999), (500000, 1000000), (1, 2), (499999, 1000000)]))
def test_ratio_keys_order_exactly_as_ratios(case):
    """The key lemma: with every mass at most M, (2 diff M^2 // mass, z) sorts
    exactly as (2 diff/mass, z), ties included, and equal keys mean equal ratios."""
    M, pairs = case
    diff = [d for d, _ in pairs]
    mass = [m for _, m in pairs]
    key, heap = _ratio_heap(mass, diff, M * M)
    by_key = sorted((k, z) for z, k in key.items())
    by_ratio = sorted((Fraction(2 * d, m), z) for z, (d, m) in enumerate(pairs))
    assert [z for _, z in by_key] == [z for _, z in by_ratio]
    ratio = {z: r for r, z in by_ratio}
    for (k1, z1), (k2, z2) in zip(by_key, by_key[1:]):
        assert (k1 == k2) == (ratio[z1] == ratio[z2])
    if pairs:
        assert _pick_z0(heap, key) == by_ratio[0][1]


def test_extraction_and_measurement_build_only_returned_fractions(monkeypatch):
    """On an accepted cycle labeling's decoded witness, extraction builds one
    Fraction per cut (its threshold) plus the uniformity report's, the
    uniformity pass builds the report's alone, and mixing the edge-shift
    partitions builds none."""
    G = lc.generate(lc.FamilySpec("cycle", (200,)))
    samples = lc.edge_shift_partitions(G, 5)
    eps_prime = Fraction(1, 2)
    labeling = lc.build_proof(lc.tighten_radius(lc.witness_from_partitions(G, samples)),
                              eps_prime)
    verdict, decoded = lc.verify_and_decode(G, labeling)
    assert verdict.accept and decoded is not None

    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (hyperfinite, measures, separators):
        monkeypatch.setattr(module, "Fraction", CountingFraction)

    def fresh():
        return WitnessFunction(G, decoded.radius, decoded.dists)

    partition = extract_partition(fresh(), eps_prime)
    assert partition.num_blocks > 1 and len(made) == partition.num_blocks + 1
    made.clear()
    report = lc.check_uniformity(fresh())
    assert report.max_edge_l1 <= eps_prime and len(made) == 1
    made.clear()
    lc.witness_from_partitions(G, samples)
    assert made == []


def projection_cuts(w, eps):
    """The cuts extract_partition's shrinking projection takes, in order."""
    state = _ShrinkingProjection(w)
    while state.remaining:
        yield state.cut(eps)


def test_every_block_lies_within_2r_of_its_z0():
    """The soundness argument behind the verifier's predicate radius 2r.

    The projected witness moves each atom within 2r of its holder, so the
    superlevel set a cut takes around z0 lies in B_2r(z0) of G: in the
    reference loop and in the shrinking projection extract_partition runs.
    """
    graphs = [
        lc.generate(lc.FamilySpec("grid", (12, 12))),
        lc.generate(lc.FamilySpec("cycle", (60,))),
        lc.generate(lc.FamilySpec("full_tree", (2, 6))),
        lc.generate(lc.FamilySpec("random_regular", (40, 3), 7)),
        lc.generate(lc.FamilySpec("path", (30,))),
    ]
    reached = set()
    for G in graphs:
        for r in (1, 2, 3):
            w = uniform_ball_witness(G, r)
            eps = lc.check_uniformity(w).max_edge_l1
            for cuts in (reference_cuts, projection_cuts):
                for res in cuts(w, eps):
                    _, dist = lc.bfs(G.adj, (res.z0,), 2 * r)
                    assert all(x in dist for x in res.vertices), (cuts.__name__, G.n, r, res.z0)
                    reached.add((cuts, max(dist[x] for x in res.vertices) == 2 * r))
    # in both, some blocks reach exactly 2r
    assert reached == {(c, b) for c in (reference_cuts, projection_cuts) for b in (True, False)}


def test_extract_partition_golden_grid20():
    G = lc.generate(lc.FamilySpec("grid", (20, 20)))
    w = uniform_ball_witness(G, 4)
    part = extract_partition(w, lc.check_uniformity(w).max_edge_l1)
    assert (part.num_blocks, part.num_removed) == (16, 162)
    digest = hashlib.sha256(format_partition(part).encode()).hexdigest()
    assert digest == "9c55cfca7f541b9d025e01b816cd0980fc5c530814d161a4433f8bec4940bc85"


def test_partition_result_validation():
    with pytest.raises(ValueError):
        PartitionResult(3, ((0, 1), (1, 2)), ())
    with pytest.raises(ValueError):
        PartitionResult(3, ((0, 1),), ())
    p = PartitionResult(3, ((0, 1), (2,)), ((1, 2),))
    assert p.block_sizes == (2, 1)
    assert p.num_removed == 1


# --- certificates over partitions ------------------------------------------------

def test_check_hyperfinite_normalizations():
    C = lc.generate(lc.FamilySpec("cycle", (10,)))
    part = PartitionResult(
        10, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)), ((0, 9), (4, 5))
    )
    by_v = check_hyperfinite(C, part, Fraction(1, 5), K=5)
    assert by_v.ok and by_v.removed_per_vertex == Fraction(1, 5)
    assert by_v.removed_per_edge == Fraction(1, 5)
    tight = check_hyperfinite(C, part, Fraction(1, 6), K=5)
    assert not tight.ok
    small_k = check_hyperfinite(C, part, Fraction(1, 5), K=4)
    assert not small_k.ok


def grid_and_k5():
    """Grid 5x5 next to K5, cut into its two components."""
    grid = lc.generate(lc.FamilySpec("grid", (5, 5)))
    edges = grid.edges() + [
        (u + 25, v + 25) for u, v in itertools.combinations(range(5), 2)
    ]
    G = lc.build_graph(edges, d=4, n=30)
    blocks = (tuple(range(25)), tuple(range(25, 30)))
    return G, PartitionResult(30, blocks, ())


def test_edit_distance_bound():
    G, part = grid_and_k5()
    res = edit_distance_upper_bound(G, part, is_planar)
    assert not res.feasible and res.offending_block == 1
    fine = edit_distance_upper_bound(G, part, lambda H: True)
    assert fine.feasible and fine.bound == 0


@pytest.mark.parametrize("graph_n, part_n", [(5, 3), (3, 5)], ids=["fewer", "more"])
def test_certificate_checks_refuse_a_partition_of_another_vertex_count(graph_n, part_n):
    """A partition of 3 vertices does not certify path 5 (vertices 3 and 4 lie in no
    block), and one of 5 vertices names ids path 3 does not have."""
    G = lc.generate(lc.FamilySpec("path", (graph_n,)))
    part = PartitionResult(part_n, (tuple(range(part_n)),), ())
    want = f"partition of {part_n} vertices checked against a graph of {graph_n}"
    with pytest.raises(ValueError, match=want):
        check_hyperfinite(G, part, Fraction(1), K=part_n)
    with pytest.raises(ValueError, match=want):
        edit_distance_upper_bound(G, part, lambda H: True)


def test_edit_distance_bound_on_empty_graph():
    G = lc.BoundedDegreeGraph(0, 2, [])
    res = edit_distance_upper_bound(G, PartitionResult(0, (), ()), is_planar)
    assert res.feasible and res.bound == 0


@pytest.mark.parametrize("blocks, removed, want", [
    (((0, 1), (2,)), (), r"edge \(1, 2\) joins two blocks but is not in W"),
    (((0, 1), (2,)), ((1, 2), (0, 2)), r"removed edge \(0, 2\) is not an edge of G"),
    (((0, 1), (2,)), ((0, 1),), r"removed edge \(0, 1\) is not an edge of G"),
    (((0,), (1,), (2,)), ((0, 1), (1, 2), (2, 1)), r"removed edge \(1, 2\) is listed twice"),
], ids=["cross-edge-kept", "non-edge", "edge-inside-a-block", "listed-twice"])
def test_certificate_checks_refuse_a_W_that_is_not_the_cross_edges(blocks, removed, want):
    """On path 3, W must be exactly the edges between distinct blocks, each once."""
    G = lc.generate(lc.FamilySpec("path", (3,)))
    part = PartitionResult(3, blocks, removed)
    with pytest.raises(ValueError, match=want):
        check_hyperfinite(G, part, Fraction(1), K=3)
    with pytest.raises(ValueError, match=want):
        edit_distance_upper_bound(G, part, is_planar)


def test_certificate_checks_take_W_in_either_orientation():
    G = lc.generate(lc.FamilySpec("path", (3,)))
    part = PartitionResult(3, ((0, 1), (2,)), ((2, 1),))
    assert check_hyperfinite(G, part, Fraction(1, 3), K=2).ok
    assert edit_distance_upper_bound(G, part, is_planar) == lc.EditDistanceBound(
        True, Fraction(1, 3), None)


def _edit_bound_cases():
    """(name, G, partition): the three workloads' graphs and witnesses at small
    sizes with their extracted partitions, the grid + K5 case, and a cycle
    next to K3,3 cut into components and into singletons."""
    grid = lc.generate(lc.FamilySpec("grid", (12, 12)))
    w = uniform_ball_witness(grid, 2)
    yield "grid-ball", grid, extract_partition(w, lc.check_uniformity(w).max_edge_l1)
    for name, spec in [("cycle-shift", ("cycle", (60,))), ("tree-shift", ("full_tree", (2, 6)))]:
        G = lc.generate(lc.FamilySpec(*spec))
        w = measures.tighten_radius(
            separators.witness_from_tops(G, separators.edge_shift_partitions(G, 5)))
        yield name, G, extract_partition(w, lc.check_uniformity(w).max_edge_l1)
    yield "grid+K5", *grid_and_k5()
    k33 = [(u, v) for u in range(8, 11) for v in range(11, 14)]
    G = lc.build_graph([(i, (i + 1) % 8) for i in range(8)] + k33, d=3, n=14)
    yield "cycle+K33", G, PartitionResult(14, (tuple(range(8, 14)), tuple(range(8))), ())
    singletons = tuple((x,) for x in range(14))
    yield "cycle+K33-singletons", G, PartitionResult(14, singletons, tuple(G.edges()))


@pytest.mark.parametrize("predicate, outcomes", [
    (is_planar, {(True, True), (False, False), (False, True)}),
    (lc.is_acyclic, {(True, True), (False, False), (False, True)}),
    (lambda H: True, {(True, True)}),
], ids=["planar", "acyclic", "always-true"])
def test_edit_distance_bound_matches_the_per_block_loop(predicate, outcomes):
    """One call on G settles every block of a hereditary predicate; the block-by-block
    loop runs only when that call fails, and reports the same first failing block.

    `outcomes` lists the (G passes, bound feasible) pairs the cases reach.
    """
    seen = set()
    for name, G, part in _edit_bound_cases():
        calls = []

        def counted(H):
            calls.append(H.n)
            return predicate(H)

        got = edit_distance_upper_bound(G, part, counted)
        assert got == reference_edit_bound(G, part, predicate), name
        if predicate(G):
            assert calls == [G.n], name
        seen.add((predicate(G), got.feasible))
    assert seen == outcomes


# --- text format ------------------------------------------------------------------

def test_partition_file_round_trip(tmp_path):
    G = lc.generate(lc.FamilySpec("path", (11,)))
    part = extract_partition(uniform_ball_witness(G, 1), Fraction(5, 6))
    text = format_partition(part)
    back = parse_partition(text)
    assert back == part
    path = tmp_path / "p.partition"
    lc.write_partition_file(part, path)
    assert lc.read_partition_file(path) == part


def test_partition_format_golden():
    part = PartitionResult(3, ((0, 1), (2,)), ((1, 2),))
    assert format_partition(part) == "partition 3 2 1\n2 0 1\n1 2\nremoved\n1 2\n"


@pytest.mark.parametrize("text", [
    "",
    "partition 3 2 1\n2 0 1\n1 2\n1 2\n",
    "partition 3 2 0\n2 0 1\nremoved\n",
    "partition 3 1 0\n2 0 1\nremoved\n",
    "partition 3 2 1\n2 0 1\n1 2\nremoved\n",
])
def test_parse_partition_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_partition(text)
