"""Separator distributions, shift families, and the witnesses they induce."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localcert as lc
from conftest import random_family_graph
from localcert.errors import InvalidDistribution
from localcert.graphs import components
from localcert.measures import check_uniformity, l1_distance
from localcert.separators import (
    SeparatorDistribution,
    edge_shift_partitions,
    grid_shift_distribution,
    is_k_separator,
    max_marginal,
    path_shift_distribution,
    tree_depth_shift_distribution,
    witness_from_partitions,
    witness_from_separators,
    witness_from_tops,
)


def test_is_k_separator():
    P = lc.generate(lc.FamilySpec("path", (10,)))
    assert is_k_separator(P, {4}, 5)
    assert not is_k_separator(P, {4}, 4)
    assert is_k_separator(P, set(range(10)), 0)
    C = lc.generate(lc.FamilySpec("cycle", (10,)))
    assert not is_k_separator(C, {0}, 8)
    assert is_k_separator(C, {0, 5}, 4)
    for bad in (-1, 10):
        with pytest.raises(ValueError, match="outside graph"):
            is_k_separator(P, {4, bad}, 9)


def test_distribution_validation():
    P = lc.generate(lc.FamilySpec("path", (10,)))
    with pytest.raises(InvalidDistribution):
        SeparatorDistribution(P, 5, [((4,), Fraction(1, 2))])
    with pytest.raises(InvalidDistribution):
        SeparatorDistribution(P, 3, [((4,), Fraction(1))])
    d = SeparatorDistribution(P, 5, [((4,), Fraction(1, 2)), ((4,), Fraction(1, 2))])
    assert len(d) == 1
    assert d.support[0][1] == 1


def test_max_marginal_hand_case():
    P = lc.generate(lc.FamilySpec("path", (6,)))
    d = SeparatorDistribution(P, 4, [
        ((2,), Fraction(1, 2)),
        ((2, 4), Fraction(1, 2)),
    ])
    value, vertex = max_marginal(d)
    assert value == 1 and vertex == 2


# --- shift families ----------------------------------------------------------

def test_path_shift_marginals_and_witness():
    P = lc.generate(lc.FamilySpec("path", (20,)))
    d = path_shift_distribution(P, 4)
    assert d.K == 3
    value, _ = max_marginal(d)
    assert value == Fraction(1, 4)
    w = witness_from_separators(d)
    rep = check_uniformity(w)
    assert rep.support_ok
    assert rep.max_edge_l1 <= 4 * value


def test_path_shift_shared_factor_denominators():
    # k = 9 on P_11 leaves components of size 3; the mixing denominator has
    # to absorb 27, not just lcm(9, 3)
    P = lc.generate(lc.FamilySpec("path", (11,)))
    w = witness_from_separators(path_shift_distribution(P, 9))
    for x in range(11):
        assert sum(w.dists[x].num.values()) == w.dists[x].den
    assert check_uniformity(w).max_edge_l1 == Fraction(4, 9)


def test_cycle_shift_needs_divisibility():
    C12 = lc.generate(lc.FamilySpec("cycle", (12,)))
    d = path_shift_distribution(C12, 4)
    assert d.K == 3
    C10 = lc.generate(lc.FamilySpec("cycle", (10,)))
    with pytest.raises(InvalidDistribution):
        path_shift_distribution(C10, 4)


def test_path_shift_rejects_other_graphs():
    G = lc.generate(lc.FamilySpec("grid", (3, 3)))
    with pytest.raises(ValueError):
        path_shift_distribution(G, 3)


def test_grid_shift_small():
    G = lc.generate(lc.FamilySpec("grid", (8, 8)))
    d = grid_shift_distribution(G, 8, 8, 3)
    assert d.K == 4
    assert len(d) == 9
    value, _ = max_marginal(d)
    assert value <= Fraction(2, 3)
    w = witness_from_separators(d)
    rep = check_uniformity(w)
    assert rep.support_ok
    assert rep.max_edge_l1 <= 4 * value


def test_tree_depth_shift():
    T = lc.generate(lc.FamilySpec("full_tree", (2, 4)))
    d = tree_depth_shift_distribution(T, 3)
    assert len(d) == 3
    for Y, _ in d.support:
        assert is_k_separator(T, set(Y), d.K)
    w = witness_from_separators(d)
    assert check_uniformity(w).support_ok


def test_tree_depth_shift_rejects_non_tree():
    C = lc.generate(lc.FamilySpec("cycle", (8,)))
    with pytest.raises(ValueError):
        tree_depth_shift_distribution(C, 3)


def test_shift_family_distribution_recognizes_path_cycle_tree():
    """The edge-shift family: sample s cuts the edges whose level is s mod k.  A
    level is the child's depth from vertex 0; a cycle's edge (n-1, 0) is level n."""
    half = Fraction(1, 2)
    P = lc.generate(lc.FamilySpec("path", (5,)))
    assert edge_shift_partitions(P, 2) == [([[0, 1], [2, 3], [4]], half),
                                           ([[0], [1, 2], [3, 4]], half)]
    # 5 is odd, so no divisor is needed: level 5 is cut with levels 1 and 3
    C = lc.generate(lc.FamilySpec("cycle", (5,)))
    assert edge_shift_partitions(C, 2) == [([[0, 1, 4], [2, 3]], half),
                                           ([[0], [1, 2], [3, 4]], half)]
    T = lc.generate(lc.FamilySpec("full_tree", (2, 2)))
    assert edge_shift_partitions(T, 2) == [([[0, 1, 2], [3], [4], [5], [6]], half),
                                           ([[0], [1, 3, 4], [2, 5, 6]], half)]
    # a path whose ids are not in path order is still a tree, rooted at 0;
    # each piece is listed top first, so 2, nearer 0 than 1, leads its piece
    Q = lc.build_graph([(0, 2), (1, 2)], 2)
    assert edge_shift_partitions(Q, 2) == [([[0, 2], [1]], half), ([[0], [2, 1]], half)]
    # shifts past the top level cut nothing, as s = 0 does, and merge into it
    P3 = lc.generate(lc.FamilySpec("path", (3,)))
    assert edge_shift_partitions(P3, 5) == [([[0, 1, 2]], Fraction(3, 5)),
                                            ([[0], [1, 2]], Fraction(1, 5)),
                                            ([[0, 1], [2]], Fraction(1, 5))]


@pytest.mark.parametrize("G", [
    lc.generate(lc.FamilySpec("grid", (3, 3))),
    lc.generate(lc.FamilySpec("random_regular", (10, 3), seed=1)),
    # n - 1 edges but disconnected: a triangle beside an edge
    lc.build_graph([(0, 1), (0, 2), (1, 2), (3, 4)], 2),
])
def test_shift_family_distribution_declines_other_graphs(G):
    assert edge_shift_partitions(G, 3) is None


def test_shift_family_distribution_refuses_bad_moduli():
    G = lc.generate(lc.FamilySpec("grid", (3, 3)))
    with pytest.raises(ValueError, match="shift modulus must be positive, got 0"):
        edge_shift_partitions(G, 0)


edge_shift_graphs = st.one_of(
    st.builds(lambda n: lc.generate(lc.FamilySpec("path", (n,))), st.integers(1, 60)),
    st.builds(lambda n: lc.generate(lc.FamilySpec("cycle", (n,))), st.integers(3, 60)),
    st.builds(lambda b, depth: lc.generate(lc.FamilySpec("full_tree", (b, depth))),
              st.integers(1, 3), st.integers(0, 6)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(G=edge_shift_graphs, k=st.integers(2, 8))
def test_edge_shift_family_cuts_each_edge_once(G, k):
    """Sample s's pieces are the components of G minus the edges whose level is
    s mod k, each listed top first, and every edge is cut in exactly one sample.
    The uniform mix measures at most 2/k at a tightened radius of at most
    2k - 2.  Auto's witness, each sample's weight on the top of x's piece,
    has at most k atoms, each a top of x, measures at most 2/k, and its
    tightened radius is at most k - 1."""
    if G.m == G.n:  # a cycle: edge (i, i + 1) at level i + 1, (0, n - 1) at level n
        level = {(u, v): v if v == u + 1 else G.n for u, v in G.edges()}
        depth = range(G.n)  # the path 0..n-1 rooted at 0
    else:
        depth = lc.bfs(G.adj, (0,))[1]
        level = {(u, v): max(depth[u], depth[v]) for u, v in G.edges()}
    samples = edge_shift_partitions(G, k)
    assert sum(wt for _, wt in samples) == 1
    cut_in = dict.fromkeys(level, 0)
    tops = [set() for _ in range(G.n)]
    for s, (pieces, _) in enumerate(samples):
        cut = {e for e, lv in level.items() if lv % k == s}
        for e in cut:
            cut_in[e] += 1
        kept = lc.build_graph([e for e in level if e not in cut], G.d, G.n)
        assert [sorted(piece) for piece in pieces] == components(kept)
        for piece in pieces:
            assert piece[0] == min(piece, key=depth.__getitem__)
            for x in piece:
                tops[x].add(piece[0])
    assert all(c == 1 for c in cut_in.values())
    w = lc.tighten_radius(witness_from_partitions(G, samples))
    assert check_uniformity(w).max_edge_l1 <= Fraction(2, k)
    assert w.radius <= 2 * k - 2
    w = lc.tighten_radius(witness_from_tops(G, samples))
    for x, f in w.dists.items():
        assert len(f.num) <= k
        assert set(f.num) == tops[x]
    assert check_uniformity(w).max_edge_l1 <= Fraction(2, k)
    assert w.radius <= k - 1


# --- witness mixing ----------------------------------------------------------

def test_separator_witness_structure():
    """Mixed measure: delta on separator vertices, uniform over components."""
    P = lc.generate(lc.FamilySpec("path", (5,)))
    d = SeparatorDistribution(P, 2, [((2,), Fraction(1))])
    w = witness_from_separators(d)
    assert w.dists[2] == lc.RationalDist.delta(2)
    assert w.dists[0] == lc.RationalDist.uniform([0, 1])
    assert w.dists[4] == lc.RationalDist.uniform([3, 4])


def test_partition_witness_hand_case():
    """Half uniform on {0, 1} | {2, 3}, half on {0} | {1, 2} | {3}; the declared
    radius is the largest piece's size less one."""
    P = lc.generate(lc.FamilySpec("path", (4,)))
    half = Fraction(1, 2)
    w = witness_from_partitions(P, [([[0, 1], [2, 3]], half), ([[0], [1, 2], [3]], half)])
    assert w.radius == 1
    assert w.dists[0] == lc.RationalDist(4, {0: 3, 1: 1})
    assert w.dists[1] == lc.RationalDist(4, {0: 1, 1: 2, 2: 1})
    assert check_uniformity(w).max_edge_l1 == 1  # edge (1, 2) parts at weight 1/2


def test_top_witness_hand_case():
    """Half on the tops of {0, 1} | {2, 3}, half on those of {0} | {1, 2} | {3}:
    one atom per sample, over the weights' denominator, and the edge (1, 2)
    parts at weight 1/2 as with the uniform mix."""
    P = lc.generate(lc.FamilySpec("path", (4,)))
    half = Fraction(1, 2)
    w = witness_from_tops(P, [([[0, 1], [2, 3]], half), ([[0], [1, 2], [3]], half)])
    assert w.radius == 1
    assert w.dists[0] == lc.RationalDist.delta(0)
    assert w.dists[1] == lc.RationalDist(2, {0: 1, 1: 1})
    assert w.dists[2] == lc.RationalDist(2, {2: 1, 1: 1})
    assert w.dists[3] == lc.RationalDist(2, {2: 1, 3: 1})
    assert check_uniformity(w).max_edge_l1 == 1
    # thirds and a half: the denominator is the lcm of the weights' alone
    third = Fraction(1, 3)
    w = witness_from_tops(P, [([[0, 1, 2, 3]], half), ([[1, 0], [2, 3]], third),
                              ([[3, 2, 1, 0]], Fraction(1, 6))])
    assert w.dists[0] == lc.RationalDist(6, {0: 3, 1: 2, 3: 1})
    assert w.dists[3] == lc.RationalDist(6, {0: 3, 2: 2, 3: 1})


def fraction_rule_den(samples):
    """The common denominator by Fractions: the lcm of every weight's
    denominator and of every weight/size's."""
    return math.lcm(*(wt.denominator for _, wt in samples),
                    *((wt / len(piece)).denominator for pieces, wt in samples for piece in pieces))


def test_partition_witness_denominator_is_the_fraction_rule():
    """The mixer's integer gcd rule gives the lcm the Fraction quotients give,
    on random partitions whose weights share factors with the piece sizes."""
    rng = random.Random(231)
    for _ in range(200):
        n = rng.randint(1, 14)
        cuts = sorted(rng.sample(range(1, 61), rng.randint(0, 3)))
        weights = [Fraction(hi - lo, 60) for lo, hi in zip([0] + cuts, cuts + [60])]
        samples = []
        for wt in weights:
            order = rng.sample(range(n), n)
            bounds = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
            pieces = [order[a:b] for a, b in zip([0] + bounds, bounds + [n])]
            samples.append((pieces, wt))
        G = lc.build_graph([], 2, n)
        w = witness_from_partitions(G, samples)
        assert {f.den for f in w.dists.values()} == {fraction_rule_den(samples)}
    for G in (lc.generate(lc.FamilySpec("cycle", (13,))),
              lc.generate(lc.FamilySpec("full_tree", (3, 3)))):
        for k in (2, 3, 5, 6):
            samples = edge_shift_partitions(G, k)
            assert witness_from_partitions(G, samples).dists[0].den == fraction_rule_den(samples)


def test_separator_witness_per_sample_identity():
    """Vertices outside Y sharing an edge share their component of G - Y."""
    G = lc.generate(lc.FamilySpec("grid", (6, 6)))
    d = grid_shift_distribution(G, 6, 6, 3)
    for Y, _ in d.support:
        comps = components(G, Y)
        component_of = {v: i for i, comp in enumerate(comps) for v in comp}
        assert sorted(component_of) == sorted(set(range(G.n)) - set(Y))
        for u, v in G.edges():
            if u in Y or v in Y:
                continue
            assert component_of[u] == component_of[v]


def test_witness_mixes_the_pieces_the_k_check_swept(monkeypatch):
    """pieces[i] are the components of G - Y for the i-th sample of support, which
    merges and sorts the samples as given, and the mix sweeps no G - Y again."""
    P = lc.generate(lc.FamilySpec("path", (9,)))
    d = SeparatorDistribution(P, 4, [((4,), Fraction(1, 3)), ((6, 2), Fraction(1, 3)),
                                     ((2, 6), Fraction(1, 3))])
    assert [Y for Y, _ in d.support] == [(2, 6), (4,)]
    assert d.pieces == tuple(components(P, Y) for Y, _ in d.support)
    sweeps = []
    monkeypatch.setattr("localcert.separators.components", lambda *a: sweeps.append(a))
    w = witness_from_separators(d)
    assert sweeps == []
    # 2/3 uniform on {0, 1} (Y = {2, 6}) plus 1/3 uniform on {0, 1, 2, 3} (Y = {4})
    assert w.dists[0] == lc.RationalDist(12, {0: 5, 1: 5, 2: 1, 3: 1})
    # 2/3 on 6 itself (in Y = {2, 6}) plus 1/3 uniform on {5, 6, 7, 8} (Y = {4})
    assert w.dists[6] == lc.RationalDist(12, {5: 1, 6: 9, 7: 1, 8: 1})


def test_separator_witness_edge_bound_random():
    rng = random.Random(302)
    for _ in range(10):
        n = rng.randint(6, 25)
        P = lc.generate(lc.FamilySpec("path", (n,)))
        k = rng.randint(2, min(6, n - 1))
        d = path_shift_distribution(P, k)
        w = witness_from_separators(d)
        value, _ = max_marginal(d)
        for u, v in P.edges():
            assert l1_distance(w.dists[u], w.dists[v]) <= 4 * value


# --- text format -------------------------------------------------------------

def test_separator_file_round_trip(tmp_path):
    P = lc.generate(lc.FamilySpec("path", (12,)))
    d = path_shift_distribution(P, 3)
    path = tmp_path / "d.sepdist"
    lc.write_separator_distribution_file(d, path)
    back = lc.read_separator_distribution_file(path, P)
    assert back.K == d.K
    assert back.support == d.support
