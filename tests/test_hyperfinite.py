"""Superlevel sweeps, the area/coarea identities, and partition extraction."""

import hashlib
import random
from fractions import Fraction

import pytest

import localcert as lc
from conftest import random_family_graph
from localcert.errors import FormatError, NoQualifyingSet, NotUniform, OutOfRange
from localcert.hyperfinite import (
    PartitionResult,
    _coordinate_sums,
    _ShrinkingProjection,
    area_coarea_check,
    boundary_sets,
    check_hyperfinite,
    edit_distance_upper_bound,
    extract_partition,
    find_low_boundary_set,
    format_partition,
    parse_partition,
    threshold_set,
)
from localcert.measures import (
    RationalDist,
    WitnessFunction,
    project_witness,
    uniform_ball_witness,
)
from localcert.verifier import is_planar


def zeta_path3():
    return {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(0)}


def test_threshold_set_is_strict():
    z = zeta_path3()
    assert threshold_set(z, Fraction(1, 2)) == {0}
    assert threshold_set(z, Fraction(0)) == {0, 1}
    assert threshold_set(z, Fraction(1)) == set()


def test_boundary_sets_hand_case():
    P = lc.generate(lc.FamilySpec("path", (4,)))
    b = boundary_sets(P, range(4), {0, 1})
    assert b.edges == ((1, 2),)
    assert b.vertices == (1,)
    # restricting the domain hides edges that leave it
    b2 = boundary_sets(P, {0, 1}, {0, 1})
    assert b2.edges == ()
    with pytest.raises(ValueError):
        boundary_sets(P, {0, 1}, {2})


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


# --- low-boundary sweep --------------------------------------------------------

def test_find_low_boundary_constant_witness():
    """A perfectly flat witness has an empty boundary at threshold zero."""
    P = lc.generate(lc.FamilySpec("path", (3,)))
    flat = RationalDist(3, {0: 1, 1: 1, 2: 1})
    w = WitnessFunction(P, 2, {x: flat for x in range(3)})
    res = find_low_boundary_set(w, Fraction(1, 100))
    assert res.vertices == (0, 1, 2)
    assert res.boundary.edges == ()
    assert res.z0 == 0


def test_find_low_boundary_respects_the_ratio():
    rng = random.Random(602)
    for _ in range(15):
        G = random_family_graph(rng)
        w = uniform_ball_witness(G, 1)
        eps = lc.check_uniformity(w).max_edge_l1
        if eps == 0:
            eps = Fraction(1, 10)
        res = find_low_boundary_set(w, eps)
        size = len(res.vertices)
        assert size > 0
        assert 2 * len(res.boundary.edges) <= G.d * eps * size
        # the chosen set really is a superlevel set of f(.)(z0)
        inside = set(res.vertices)
        for x in w.vertices:
            assert (w.dists[x].value(res.z0) > res.threshold) == (x in inside)


@pytest.mark.parametrize("atom", [-1, 3, 7])
def test_find_low_boundary_refuses_an_atom_outside_the_graph(atom):
    """Dense coordinate sums index by atom: -1 would wrap and 3 would overrun on path 3."""
    P = lc.generate(lc.FamilySpec("path", (3,)))
    dists = {x: RationalDist.delta(x) for x in range(3)}
    dists[1] = RationalDist(2, {1: 1, atom: 1})
    with pytest.raises(ValueError, match=f"vertex 1 has atom {atom} outside"):
        find_low_boundary_set(WitnessFunction(P, 2, dists), Fraction(2))


def test_find_low_boundary_can_fail_on_rough_witness():
    P = lc.generate(lc.FamilySpec("path", (2,)))
    deltas = WitnessFunction(P, 1, {0: RationalDist.delta(0), 1: RationalDist.delta(1)})
    with pytest.raises(NoQualifyingSet):
        find_low_boundary_set(deltas, Fraction(1, 2))
    res = find_low_boundary_set(deltas, Fraction(1))
    assert res.vertices == (0,)


# --- extraction ------------------------------------------------------------------

def test_extract_partition_path11():
    G = lc.generate(lc.FamilySpec("path", (11,)))
    w = uniform_ball_witness(G, 1)
    part = extract_partition(G, w, Fraction(5, 6))
    assert part.block_sizes == (3, 3, 3, 2)
    assert part.removed_edges == ((2, 3), (5, 6), (8, 9))
    assert part.max_block_size <= 5


def test_extract_partition_guards():
    G = lc.generate(lc.FamilySpec("path", (6,)))
    w = uniform_ball_witness(G, 1)
    with pytest.raises(NotUniform):
        extract_partition(G, w, Fraction(1, 100))
    rel = lc.project_witness(w, [0, 1, 2])
    with pytest.raises(ValueError):
        extract_partition(G, rel, Fraction(1))


def test_extract_partition_rejects_a_support_outside_its_ball():
    """f(0) = delta(3) lies outside B_1(0) on path 4: NotUniform, whatever eps allows."""
    G = lc.generate(lc.FamilySpec("path", (4,)))
    dists = dict(uniform_ball_witness(G, 1).dists)
    dists[0] = RationalDist.delta(3)
    with pytest.raises(NotUniform, match="support_ok=False"):
        extract_partition(G, WitnessFunction(G, 1, dists), Fraction(2))


def test_extract_partition_bounds_random():
    rng = random.Random(603)
    for _ in range(10):
        G = random_family_graph(rng)
        r = rng.randint(1, 2)
        w = uniform_ball_witness(G, r)
        eps = lc.check_uniformity(w).max_edge_l1
        if eps == 0:
            eps = Fraction(1, 4)
        part = extract_partition(G, w, eps)
        assert part.num_removed <= Fraction(G.d, 2) * eps * G.n
        assert part.max_block_size <= lc.max_ball_size_actual(G, 2 * r)
        # removed edges all exist and joined different blocks
        block_of = {}
        for i, block in enumerate(part.blocks):
            for v in block:
                block_of[v] = i
        for u, v in part.removed_edges:
            assert G.has_edge(u, v)
            assert block_of[u] != block_of[v]


def reference_partition(G, w, eps):
    """The plain extraction loop: re-project onto the remaining vertices, cut, repeat."""
    if not w.is_full:
        raise ValueError("extraction expects a full-graph witness")
    if not lc.check_uniformity(w).satisfies(eps):
        raise NotUniform("witness is not eps-uniform")
    remaining = list(range(G.n))
    blocks, removed = [], []
    while remaining:
        res = find_low_boundary_set(project_witness(w, remaining), eps)
        blocks.append(res.vertices)
        removed.extend(tuple(sorted(e)) for e in res.boundary.edges)
        gone = set(res.vertices)
        remaining = [v for v in remaining if v not in gone]
    return PartitionResult(G.n, tuple(blocks), tuple(sorted(removed)))


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
                witnesses.append(lc.decode_accepted_witness(G, lc.build_proof(G, w, eps_prime)))
            for wit in witnesses:
                # extraction measures a copy with no cached report in its own
                # pass; that report must be check_uniformity's, worst edge included
                copy = WitnessFunction(G, wit.radius, wit.dists)
                outcome(extract_partition, G, copy, measured / 2)
                assert copy._uniformity == lc.check_uniformity(wit), (G.n, r)
                for eps in (measured, Fraction(1), measured / 2):
                    got = outcome(extract_partition, G, wit, eps)
                    want = outcome(reference_partition, G, wit, eps)
                    assert got == want, (G.n, r, eps)
                    if isinstance(want, type):
                        errors.add(want)
        rel = project_witness(w, range(G.n - 1))
        assert outcome(extract_partition, G, rel, Fraction(1)) is ValueError
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
        got = outcome(extract_partition, G, w, eps)
        assert got == outcome(reference_partition, G, w, eps), (G.n, w.radius, eps)
        assert isinstance(got, PartitionResult)
    assert dropped  # some atom lost its last holder in R


def test_shrinking_projection_sums_after_every_cut():
    """The incrementally kept sums equal a recount over R's current projection.

    Every coordinate of a cut block reads 0 and has no key, and the ratio
    keys are exactly 2 diff/mass over the coordinates with mass.
    """
    for G, w, eps in random_witness_suite(606):
        state = _ShrinkingProjection(w)
        while state.remaining:
            block = state.cut(eps).vertices
            R = state.remaining
            mass, diff, _, _ = _coordinate_sums(G, sorted(R), R, state.proj)
            assert (state.mass, state.diff) == (mass, diff), (G.n, w.radius)
            assert all(mass[z] == diff[z] == 0 and z not in state.key for z in block)
            assert state.key == {
                z: Fraction(2 * diff[z], m) for z, m in enumerate(mass) if m
            }
            if R:
                want = project_witness(w, R)
                assert all(
                    RationalDist(state.den, state.proj[x]) == want.dists[x] for x in R
                )


def test_every_block_lies_within_2r_of_its_z0():
    """The soundness argument behind the verifier's predicate radius 2r.

    The projected witness moves each atom within 2r of its holder, so the
    superlevel set a cut takes around z0 lies in B_2r(z0) of G.
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
            remaining = list(range(G.n))
            while remaining:
                res = find_low_boundary_set(project_witness(w, remaining), eps)
                _, dist = lc.bfs(G.adj, (res.z0,), 2 * r)
                assert all(x in dist for x in res.vertices), (G.n, r, res.z0)
                reached.add(max(dist[x] for x in res.vertices) == 2 * r)
                gone = set(res.vertices)
                remaining = [v for v in remaining if v not in gone]
    assert reached == {True, False}  # some blocks reach exactly 2r


def test_extract_partition_golden_grid20():
    G = lc.generate(lc.FamilySpec("grid", (20, 20)))
    w = uniform_ball_witness(G, 4)
    part = extract_partition(G, w, lc.check_uniformity(w).max_edge_l1)
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


def test_edit_distance_bound():
    import itertools

    grid = lc.generate(lc.FamilySpec("grid", (5, 5)))
    edges = grid.edges() + [
        (u + 25, v + 25) for u, v in itertools.combinations(range(5), 2)
    ]
    G = lc.build_graph(edges, d=4, n=30)
    blocks = (tuple(range(25)), tuple(range(25, 30)))
    part = PartitionResult(30, blocks, ())
    res = edit_distance_upper_bound(G, part, is_planar)
    assert not res.feasible and res.offending_block == 1
    fine = edit_distance_upper_bound(G, part, lambda H: True)
    assert fine.feasible and fine.bound == 0


def test_edit_distance_bound_on_empty_graph():
    G = lc.BoundedDegreeGraph(0, 2, [])
    res = edit_distance_upper_bound(G, PartitionResult(0, (), ()), is_planar)
    assert res.feasible and res.bound == 0


# --- text format ------------------------------------------------------------------

def test_partition_file_round_trip(tmp_path):
    G = lc.generate(lc.FamilySpec("path", (11,)))
    part = extract_partition(G, uniform_ball_witness(G, 1), Fraction(5, 6))
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
