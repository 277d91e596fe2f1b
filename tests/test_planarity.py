"""The LR planarity kernel against networkx's `check_planarity`.

`planarity.lr_planar` decides planarity alone, with no fallback, so these
tests hold it, and `verifier.is_planar` in front of it, to networkx on every
graph with at most 7 vertices, on graphs near the edge bound 3n - 6, on
Kuratowski subdivisions hung off planar graphs, and on a DFS 10 000 deep.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from localcert.graphs import build_graph
from localcert.planarity import lr_planar
from localcert.verifier import is_planar


def both_answers(n, edges):
    """(is_planar, lr_planar) on the graph with vertices 0..n-1 and these edges."""
    G = build_graph(edges, d=max(2, n - 1), n=n)
    return is_planar(G), lr_planar(G.adj)


def networkx_answer(n, edges):
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(edges)
    return nx.check_planarity(H)[0]


def test_every_graph_on_at_most_seven_vertices():
    planar = 0
    for H in nx.graph_atlas_g():
        n, edges = H.number_of_nodes(), list(H.edges())
        want = nx.check_planarity(H)[0]
        assert both_answers(n, edges) == (want, want), edges
        planar += want
    assert planar == 1016  # of the atlas's 1253 graphs


def stacked_triangulation(n, rng):
    """A maximal planar graph on n >= 3 vertices: each new vertex goes in a face."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


def relabelled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def near_dense(n, rng):
    """A stacked triangulation with random edges removed and fewer random
    chords added, ids shuffled: at most 3n - 6 edges, planar or not."""
    edges = stacked_triangulation(n, rng)
    rng.shuffle(edges)
    removed = rng.randint(1, n)
    kept = edges[removed:]
    present = {frozenset(e) for e in kept}
    for _ in range(rng.randint(0, removed - 1)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            kept.append((u, v))
    return relabelled(n, kept, rng)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(5, 60), rng=st.randoms(use_true_random=False))
def test_near_dense_graphs_match_networkx(n, rng):
    edges = near_dense(n, rng)
    want = networkx_answer(n, edges)
    assert both_answers(n, edges) == (want, want)


def test_near_dense_family_has_both_answers():
    """The property above is not vacuous: its family yields both verdicts."""
    rng = random.Random(7)
    seen = {networkx_answer(n, near_dense(n, rng)) for n in range(5, 61) for _ in range(3)}
    assert seen == {False, True}


def kuratowski_hung_off_planar(n, rng):
    """K5 or K3,3 with every edge subdivided 0-3 times, joined by one edge or
    one shared vertex to a planar graph on n vertices; ids shuffled."""
    edges = stacked_triangulation(n, rng)
    rng.shuffle(edges)
    edges = edges[rng.randint(0, n):]
    if rng.random() < 0.5:
        k, core = 5, [(a, b) for a in range(5) for b in range(a + 1, 5)]
    else:
        k, core = 6, [(a, 3 + b) for a in range(3) for b in range(3)]
    shared = rng.random() < 0.5
    base = n - 1 if shared else n  # the shared vertex is the planar graph's last
    total = base + k
    for a, b in core:
        path = [base + a]
        for _ in range(rng.randint(0, 3)):
            path.append(total)
            total += 1
        path.append(base + b)
        edges += zip(path, path[1:])
    if not shared:
        edges.append((rng.randrange(n), rng.randrange(n, total)))
    return total, relabelled(total, edges, rng)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(3, 40), rng=st.randoms(use_true_random=False))
def test_kuratowski_subdivisions_are_not_planar(n, rng):
    total, edges = kuratowski_hung_off_planar(n, rng)
    assert not networkx_answer(total, edges)
    assert both_answers(total, edges) == (False, False)


def ladder(length):
    """Rails 0..L-1 and L..2L-1, rung i joining i and L+i."""
    rails = [(i, i + 1) for i in range(length - 1)]
    return (rails + [(length + u, length + v) for u, v in rails]
            + [(i, length + i) for i in range(length)])


def test_ladder_with_a_deep_dfs():
    """2 x 5000: the DFS runs 10 000 deep, and m > n + 2 keeps the cyclomatic
    exit from settling it.  Two chords across the outer face, from each
    rail's first vertex to the other rail's last, cross each other and every
    middle rung: a K3,3 subdivision."""
    length = 5000
    edges = ladder(length)
    n = 2 * length
    assert len(edges) > n + 2
    assert both_answers(n, edges) == (True, True)
    crossed = edges + [(0, 2 * length - 1), (length - 1, length)]
    assert both_answers(n, crossed) == (False, False)
