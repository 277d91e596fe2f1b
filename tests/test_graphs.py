"""Graph container, families, balls, and the text format."""

import hashlib
import random

import networkx as nx
import pytest

import localcert as lc
from conftest import random_family_graph
from localcert.errors import DegreeExceeded, FormatError, InfeasibleSpec, NonSimple
from localcert.graphs import (
    ball,
    bfs,
    build_graph,
    components,
    induced_subgraph,
    max_ball_size_actual,
    max_ball_size_bound,
    remove_edges,
)


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


# --- families ---------------------------------------------------------------

def test_path_shape():
    G = lc.generate(lc.FamilySpec("path", (100,)))
    assert (G.n, G.m, G.d) == (100, 99, 2)
    assert G.edges() == [(i, i + 1) for i in range(99)]


def test_cycle_shape():
    G = lc.generate(lc.FamilySpec("cycle", (20,)))
    assert (G.n, G.m, G.d) == (20, 20, 2)
    assert G.has_edge(0, 19)


def test_grid_shape():
    G = lc.generate(lc.FamilySpec("grid", (50, 50)))
    assert G.n == 2500
    assert G.d == 4
    assert G.m == 2 * 50 * 49
    # row-major ids: (i, j) -> 50 i + j
    assert G.has_edge(0, 1) and G.has_edge(0, 50)
    assert not G.has_edge(49, 50)


def test_full_tree_shape():
    G = lc.generate(lc.FamilySpec("full_tree", (2, 8)))
    assert (G.n, G.m, G.d) == (511, 510, 3)
    assert sorted(G.neighbors(0)) == [1, 2]
    G1 = lc.generate(lc.FamilySpec("full_tree", (1, 5)))
    assert (G1.n, G1.m) == (6, 5)


def test_random_regular_is_regular_and_deterministic():
    G = lc.generate(lc.FamilySpec("random_regular", (200, 3), seed=42))
    assert G.n == 200 and G.d == 3
    assert all(G.degree(v) == 3 for v in range(200))
    again = lc.generate(lc.FamilySpec("random_regular", (200, 3), seed=42))
    h1 = hashlib.sha256(lc.format_graph(G).encode()).hexdigest()
    h2 = hashlib.sha256(lc.format_graph(again).encode()).hexdigest()
    assert h1 == h2
    other = lc.generate(lc.FamilySpec("random_regular", (200, 3), seed=43))
    assert lc.format_graph(other) != lc.format_graph(G)


def test_random_regular_infeasible():
    with pytest.raises(InfeasibleSpec):
        lc.generate(lc.FamilySpec("random_regular", (7, 3)))
    with pytest.raises(InfeasibleSpec):
        lc.generate(lc.FamilySpec("random_regular", (4, 5)))


def test_family_param_count_checked():
    with pytest.raises(InfeasibleSpec):
        lc.generate(lc.FamilySpec("grid", (5,)))
    with pytest.raises(InfeasibleSpec):
        lc.generate(lc.FamilySpec("nonesuch", (5,)))


# --- container validation ---------------------------------------------------

def test_build_graph_rejects_bad_input():
    with pytest.raises(NonSimple):
        build_graph([(0, 0)], d=2)
    with pytest.raises(NonSimple):
        build_graph([(0, 1), (1, 0)], d=2)
    with pytest.raises(DegreeExceeded) as err:
        build_graph([(0, 1), (0, 2), (0, 3)], d=2)
    assert err.value.vertex == 0


def test_graph_equality_and_adjacency():
    G = build_graph([(0, 1), (1, 2)], d=2)
    H = build_graph([(1, 2), (0, 1)], d=2)
    assert G == H
    assert G.neighbors(1) == (0, 2)
    assert G.degree(1) == 2 and G.degree(0) == 1


# --- balls and distances, against an independent BFS ------------------------

def assert_bfs_order(order, dist, sources):
    """Sources first, then nondecreasing distance, each vertex once."""
    assert order[:len(sources)] == list(sources)
    assert len(set(order)) == len(order)
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)


def test_ball_vertices_matches_networkx():
    """bfs balls, single- and multi-source, with and without a cutoff."""
    rng = random.Random(101)
    for _ in range(20):
        G = random_family_graph(rng)
        H = to_nx(G)
        x = rng.randrange(G.n)
        s = rng.randint(0, 5)
        order, dist = bfs(G.adj, (x,), s)
        theirs = nx.single_source_shortest_path_length(H, x, cutoff=s)
        assert dist == dict(theirs)
        assert_bfs_order(order, dist, [x])
        sources = rng.sample(range(G.n), rng.randint(1, min(4, G.n)))
        cutoff = rng.choice([None, rng.randint(0, 3)])
        order, dist = bfs(G.adj, sources, cutoff)
        theirs = nx.multi_source_dijkstra_path_length(H, set(sources), cutoff=cutoff)
        assert dist == dict(theirs)
        assert_bfs_order(order, dist, sources)


def test_graph_distance_matches_networkx():
    """bfs distances, cut off at one below, and around a pre-seeded dist map."""
    rng = random.Random(102)
    for _ in range(20):
        G = random_family_graph(rng)
        H = to_nx(G)
        x, z = rng.randrange(G.n), rng.randrange(G.n)
        want = nx.shortest_path_length(H, x, z) if nx.has_path(H, x, z) else None
        assert bfs(G.adj, (x,))[1].get(z) == want
        if want is not None and want > 0:
            assert z not in bfs(G.adj, (x,), want - 1)[1]
        blocked = set(rng.sample(range(G.n), rng.randint(0, G.n // 3))) - {x}
        seen = dict.fromkeys(blocked, 0)
        order, dist = bfs(G.adj, (x,), dist=seen)
        theirs = nx.single_source_shortest_path_length(H.subgraph(set(H) - blocked), x)
        assert dist is seen and set(dist) == blocked | set(theirs)
        assert {v: dist[v] for v in order} == dict(theirs)
        assert_bfs_order(order, dist, [x])
        # a source already in the map counts as visited
        assert bfs(G.adj, (x,), dist=seen)[0] == []


def test_rooted_ball_structure():
    G = lc.generate(lc.FamilySpec("grid", (4, 4)))
    b = ball(G, 5, 2)
    assert b.vertices[0] == 5
    assert b.dist[0] == 0
    assert b.actual_radius == 2
    assert all(d <= 2 for d in b.dist)
    sub = b.as_graph()
    for u, v in sub.edges():
        assert G.has_edge(*sorted((b.vertices[u], b.vertices[v])))
    assert b.to_local[5] == 0
    # every in-ball edge of G shows up locally
    inside = set(b.vertices)
    want = sum(1 for u, v in G.edges() if u in inside and v in inside)
    assert len(b.edges_local) == want


def test_ball_size_bounds():
    assert max_ball_size_bound(2, 3) == 7
    assert max_ball_size_bound(3, 2) == 10
    rng = random.Random(103)
    for _ in range(15):
        G = random_family_graph(rng)
        r = rng.randint(0, 4)
        assert max_ball_size_actual(G, r) <= max_ball_size_bound(G.d, r)


def test_max_ball_size_actual_examples():
    P = lc.generate(lc.FamilySpec("path", (11,)))
    assert max_ball_size_actual(P, 2) == 5
    assert max_ball_size_actual(P, 100) == 11
    assert P._ball_sizes == {2: 5, 100: 11}
    assert P == lc.generate(lc.FamilySpec("path", (11,)))


# --- subgraphs and components -----------------------------------------------

def test_induced_subgraph_matches_networkx():
    rng = random.Random(104)
    for _ in range(15):
        G = random_family_graph(rng)
        chosen = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
        sub = induced_subgraph(G, chosen)
        want = to_nx(G).subgraph(chosen)
        assert sub.n == len(chosen)
        relabel = {v: i for i, v in enumerate(chosen)}
        expected = sorted(
            tuple(sorted((relabel[u], relabel[v]))) for u, v in want.edges()
        )
        assert sub.edges() == expected


def test_components_match_networkx():
    rng = random.Random(105)
    for _ in range(15):
        G = random_family_graph(rng)
        cut = [e for e in G.edges() if rng.random() < 0.3]
        H = remove_edges(G, cut)
        mine = {frozenset(c) for c in components(H)}
        theirs = {frozenset(c) for c in nx.connected_components(to_nx(H))}
        assert mine == theirs


def test_remove_edges_keeps_vertex_count():
    G = lc.generate(lc.FamilySpec("cycle", (10,)))
    H = remove_edges(G, [(0, 1), (5, 6)])
    assert H.n == 10 and H.m == 8
    assert not H.has_edge(0, 1)


# --- text format ------------------------------------------------------------

def test_graph_format_round_trip(tmp_path):
    rng = random.Random(106)
    for _ in range(10):
        G = random_family_graph(rng)
        text = lc.format_graph(G)
        back = lc.parse_graph(text)
        assert back == G and back.d == G.d
    path = tmp_path / "g.graph"
    G = lc.generate(lc.FamilySpec("grid", (3, 4)))
    lc.write_graph_file(G, path)
    assert lc.read_graph_file(path) == G


def test_graph_format_golden():
    G = build_graph([(0, 1), (1, 2)], d=2, n=4)
    assert lc.format_graph(G) == "graph 4 2 2\n0 1\n1 2\n"


@pytest.mark.parametrize("text", [
    "",
    "graph 2 1\n0 1\n",
    "graph 2 1 2\n1 0\n",
    "graph 2 2 2\n0 1\n0 1\n",
    "graph 3 2 2\n1 2\n0 1\n",
    "graph 2 2 2\n0 1\n",
    "graph 2 1 2\n0 1\nextra junk\n",
    "graph 2 1 2\n0 2\n",
    "not a graph\n",
])
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(FormatError):
        lc.parse_graph(text)


def test_parse_graph_rejects_degree_overflow():
    with pytest.raises(FormatError):
        lc.parse_graph("graph 4 3 2\n0 1\n0 2\n0 3\n")
