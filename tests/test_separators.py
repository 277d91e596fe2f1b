"""Separator distributions, shift families, and the witnesses they induce."""

import random
from fractions import Fraction

import pytest

import localcert as lc
from conftest import random_family_graph
from localcert.errors import InvalidDistribution
from localcert.graphs import components
from localcert.measures import check_uniformity, l1_distance
from localcert.separators import (
    SeparatorDistribution,
    grid_shift_distribution,
    is_k_separator,
    max_marginal,
    path_shift_distribution,
    shift_family_distribution,
    tree_depth_shift_distribution,
    witness_from_separators,
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
    P = lc.generate(lc.FamilySpec("path", (11,)))
    assert shift_family_distribution(P, 4).support == path_shift_distribution(P, 4).support
    C = lc.generate(lc.FamilySpec("cycle", (12,)))
    rounded = shift_family_distribution(C, 5)  # 12 % 5 != 0: raised to the divisor 6
    assert rounded.support == path_shift_distribution(C, 6).support
    assert shift_family_distribution(C, 12).K == 11
    T = lc.generate(lc.FamilySpec("full_tree", (2, 4)))
    assert shift_family_distribution(T, 3).support == tree_depth_shift_distribution(T, 3).support
    # a path whose ids are not in path order is still a tree
    Q = lc.build_graph([(0, 2), (1, 2)], 2)
    assert shift_family_distribution(Q, 2).support == tree_depth_shift_distribution(Q, 2).support


@pytest.mark.parametrize("G", [
    lc.generate(lc.FamilySpec("grid", (3, 3))),
    lc.generate(lc.FamilySpec("random_regular", (10, 3), seed=1)),
    # n - 1 edges but disconnected: a triangle beside an edge
    lc.build_graph([(0, 1), (0, 2), (1, 2), (3, 4)], 2),
])
def test_shift_family_distribution_declines_other_graphs(G):
    assert shift_family_distribution(G, 3) is None


def test_shift_family_distribution_refuses_bad_moduli():
    C = lc.generate(lc.FamilySpec("cycle", (10,)))
    with pytest.raises(ValueError, match="k = 11 exceeds the cycle length n = 10"):
        shift_family_distribution(C, 11)
    G = lc.generate(lc.FamilySpec("grid", (3, 3)))
    with pytest.raises(ValueError, match="shift modulus must be positive, got 0"):
        shift_family_distribution(G, 0)


# --- witness mixing ----------------------------------------------------------

def test_separator_witness_structure():
    """Mixed measure: delta on separator vertices, uniform over components."""
    P = lc.generate(lc.FamilySpec("path", (5,)))
    d = SeparatorDistribution(P, 2, [((2,), Fraction(1))])
    w = witness_from_separators(d)
    assert w.dists[2] == lc.RationalDist.delta(2)
    assert w.dists[0] == lc.RationalDist.uniform([0, 1])
    assert w.dists[4] == lc.RationalDist.uniform([3, 4])


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
