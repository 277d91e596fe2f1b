"""Graph container, families, balls, and the text format."""

import hashlib
import random

import networkx as nx
import pytest

import localcert as lc
from conftest import max_ball_size_actual, random_family_graph
from localcert.errors import DegreeExceeded, FormatError, InfeasibleSpec, NonSimple
from localcert.graphs import (
    ball,
    bfs,
    build_graph,
    components,
    induced_subgraph,
    max_ball_size_bound,
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


def test_family_spec_rejects_a_missing_seed():
    """random.Random(None) seeds from the OS, so a None seed is refused, not run."""
    with pytest.raises(InfeasibleSpec):
        lc.FamilySpec("random_regular", (30, 3), None)


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
    """A graph is the value (n, d, adj): edge order does not matter, ids are range-checked."""
    assert lc.BoundedDegreeGraph.__slots__ == ("n", "d", "adj", "m")
    G = build_graph([(0, 1), (1, 2)], d=2)
    H = build_graph([(1, 2), (0, 1)], d=2)
    assert G == H and hash(G) == hash(H)
    assert G != build_graph([(0, 1), (1, 2)], d=3)
    assert G.neighbors(1) == (0, 2)
    assert G.degree(1) == 2 and G.degree(0) == 1
    assert G.has_edge(0, 1) and G.has_edge(1, 0) and not G.has_edge(0, 2)
    # -1 must not read vertex n-1's row, which holds 1
    assert not G.has_edge(-1, 1) and not G.has_edge(-1, 0)
    assert not G.has_edge(0, G.n) and not G.has_edge(G.n, 0)
    rng = random.Random(106)
    for _ in range(15):
        G = random_family_graph(rng)
        edges = G.edges()
        assert edges == sorted(tuple(sorted(e)) for e in to_nx(G).edges())
        assert G.m == len(edges)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(shuffled)
        H = lc.BoundedDegreeGraph(G.n, G.d, shuffled)
        assert H == G and hash(H) == hash(G)


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
    rng = random.Random(131)
    for _ in range(25):
        G = random_family_graph(rng)
        for s in range(4):
            for x in range(G.n):
                b = ball(G, x, s)
                order, dist = bfs(G.adj, (x,), s)
                assert b.vertices == tuple(order)
                # ends stops where the component runs out: each level grows
                assert len(b.ends) <= s + 1
                assert all(a < c for a, c in zip(b.ends, b.ends[1:]))
                for t in range(s + 2):
                    assert b.within(t) == sum(1 for d in dist.values() if d <= t)
                inside = set(order)
                got = {
                    tuple(sorted((b.vertices[i], b.vertices[j])))
                    for i, row in enumerate(b.local_adj) for j in row
                }
                assert got == {(u, v) for u, v in G.edges() if u in inside and v in inside}
                assert all(list(row) == sorted(row) for row in b.local_adj)
    G = lc.generate(lc.FamilySpec("path", (3,)))
    for x, s in ((-1, 1), (3, 1), (0, -1)):
        with pytest.raises(ValueError):
            ball(G, x, s)


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
    for s in range(101):
        assert max_ball_size_actual(P, s) == min(2 * s + 1, 11)
    assert max_ball_size_actual(P, 10**9) == 11
    assert max_ball_size_actual(lc.build_graph([], 2, n=0), 3) == 0
    with pytest.raises(ValueError):
        max_ball_size_actual(P, -1)
    # profiles are bounded by the graph, not by the radius
    P = lc.generate(lc.FamilySpec("path", (20,)))
    assert len(ball(P, 0, 10**9).ends) <= 21
    assert max_ball_size_actual(P, 10**9) == 20
    assert max_ball_size_actual(P, 9) == 19
    assert max_ball_size_actual(P, 10) == 20


def test_ball_sweep_yields_bfs_balls():
    G = lc.generate(lc.FamilySpec("grid", (4, 5)))
    sweep = lc.ball_sweep(G, 3)
    first = next(sweep)
    assert first == (0, lc.bfs(G.adj, (0,), 3)[0], [1, 3, 6, 10])
    rest = list(sweep)
    assert [x for x, _, _ in rest] == list(range(1, G.n))
    assert all(ball == lc.bfs(G.adj, (x,), 3)[0] for x, ball, _ in rest)
    assert G == lc.generate(lc.FamilySpec("grid", (4, 5)))
    with pytest.raises(ValueError):
        next(lc.ball_sweep(G, -1))


def test_ball_sweep_matches_bfs_on_random_graphs():
    """Each swept ball is bfs's, in the same order; within(s) counts distance <= s.

    Also over part of the vertex range, which yields the same balls.
    """
    rng = random.Random(132)
    for _ in range(25):
        G = random_family_graph(rng)
        q = rng.randint(0, 6)
        lo = rng.randrange(G.n)
        hi = rng.randint(lo, G.n)
        part = list(lc.ball_sweep(G, q, range(lo, hi)))
        assert [x for x, _, _ in part] == list(range(lo, hi))
        swept = list(lc.ball_sweep(G, q))
        assert [x for x, _, _ in swept] == list(range(G.n))
        assert swept[lo:hi] == part
        within = []
        for x, order, ends in swept:
            want, dist = bfs(G.adj, (x,), q)
            assert order == want
            assert len(ends) <= q + 1
            b = lc.RootedBall(G.adj, order, ends)
            within.append([b.within(s) for s in range(q + 1)])
            assert within[-1] == [sum(1 for d in dist.values() if d <= s) for s in range(q + 1)]
        for s in range(q + 1):
            assert max_ball_size_actual(G, s) == max(sizes[s] for sizes in within)


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


def test_induced_subgraph_refuses_ids_outside_the_graph():
    P = lc.generate(lc.FamilySpec("path", (5,)))
    # -1 would otherwise index vertex 4's row and give a 2-vertex graph
    for chosen in ([-1, 0], [3, 5], [-2, 7]):
        with pytest.raises(ValueError, match=r"outside vertex range \[0, 5\)"):
            induced_subgraph(P, chosen)
    assert induced_subgraph(P, []).n == 0
    assert induced_subgraph(P, [4, 0]).n == 2


def test_components_match_networkx():
    """components(H, removed) lists the components of H - removed, sorted, by smallest member."""
    rng = random.Random(105)
    for _ in range(15):
        G = random_family_graph(rng)
        H = lc.BoundedDegreeGraph(G.n, G.d, [e for e in G.edges() if rng.random() >= 0.3])
        for removed in ((), [v for v in range(H.n) if rng.random() < 0.4], range(H.n)):
            rest = to_nx(H)
            rest.remove_nodes_from(removed)
            theirs = sorted(sorted(c) for c in nx.connected_components(rest))
            assert components(H, removed) == theirs, (H, list(removed))
        assert components(H) == components(H, ())


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
