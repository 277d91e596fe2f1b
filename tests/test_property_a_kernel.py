"""The property-A kernel against a reference copy of the re-indexing verifier.

`reference_verdict` is the verifier as it was before balls were read in BFS
order: each ball is re-indexed into its own local graph, and the checks walk
it with Python loops.  The kernel in `localcert.verifier` must reach the same
decision, reason included, at every vertex, sequentially and on a pool.
"""

import functools
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localcert as lc
from localcert.errors import NotAccepted
from localcert.labeling import ProofLabeling
from localcert.measures import RationalDist
from localcert.verifier import (
    CHECK_L1,
    CHECK_PROBABILITY,
    CHECK_PROPERNESS,
    decode_accepted_witness,
    verify_property_a,
)


# --- the reference --------------------------------------------------------------

def reference_bfs(adj, source, cutoff):
    dist = {source: 0}
    order = [source]
    queue = deque(order)
    while queue:
        u = queue.popleft()
        if dist[u] == cutoff:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                order.append(w)
                queue.append(w)
    return order


def reference_ball(G, x, radius):
    """B_radius(x) re-indexed: local 0 is x, BFS order, ascending local rows."""
    order = reference_bfs(G.adj, x, radius)
    local = {p: i for i, p in enumerate(order)}
    local_adj = tuple(
        tuple(sorted(local[w] for w in G.adj[u] if w in local)) for u in order
    )
    return order, local_adj


def reference_check(adj, colors, tables, params):
    c0 = colors[0]
    r = params.r
    by_color = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    for c in sorted(by_color):
        members = by_color[c]
        if len(members) < 2:
            continue
        mset = set(members)
        for y in members:
            if any(z != y and z in mset for z in reference_bfs(adj, y, r)):
                return CHECK_PROPERNESS
    if sum(tables[z][c0] for z in reference_bfs(adj, 0, r)) != params.alpha:
        return CHECK_PROBABILITY
    enum, eden = params.eps_prime.numerator, params.eps_prime.denominator
    budget = enum * params.alpha
    for y in adj[0]:
        cy = colors[y]
        if cy == c0:
            continue
        total = 0
        for row in tables:
            total += abs(row[c0] - row[cy])
        if total * eden > budget:
            return CHECK_L1
    return None


def reference_verdict(G, labeling):
    params = labeling.params
    decisions = []
    for x in range(G.n):
        order, adj = reference_ball(G, x, params.r + 1)
        decisions.append(reference_check(
            adj,
            [labeling.colors[p] for p in order],
            [labeling.tables[p] for p in order],
            params,
        ))
    return tuple(decisions)


def assert_kernel_matches_reference(G, labeling):
    want = reference_verdict(G, labeling)
    assert verify_property_a(G, labeling).decisions == want
    assert verify_property_a(G, labeling, jobs=2).decisions == want
    return want


# --- instances and mutations -------------------------------------------------------

INSTANCES = {
    "grid6x7_r2": (lambda: lc.generate(lc.FamilySpec("grid", (6, 7))), 2),
    "cycle12_r2": (lambda: lc.generate(lc.FamilySpec("cycle", (12,))), 2),
    # B_3(x) misses only the antipode, so the ball's two ends are 2 apart in
    # the cycle and 6 apart inside the ball
    "cycle8_r2": (lambda: lc.generate(lc.FamilySpec("cycle", (8,))), 2),
    "full_tree2x4_r1": (lambda: lc.generate(lc.FamilySpec("full_tree", (2, 4))), 1),
    "random_regular20_r1": (
        lambda: lc.generate(lc.FamilySpec("random_regular", (20, 3), seed=7)), 1),
}


@functools.lru_cache(maxsize=None)
def honest(name):
    make, r = INSTANCES[name]
    G = make()
    w = lc.uniform_ball_witness(G, r)
    eps = lc.check_uniformity(w).max_edge_l1
    eps_prime = (eps + 2) / 2 if eps >= Fraction(1, 2) else Fraction(1, 2)
    return G, lc.build_proof(G, w, eps_prime)


def relabeled(labeling, colors=None, tables=None):
    return ProofLabeling(
        labeling.params,
        tuple(colors if colors is not None else labeling.colors),
        tuple(tuple(row) for row in (tables if tables is not None else labeling.tables)),
        labeling.k_local,
    )


def recolor(labeling, a, b):
    """Vertex a takes vertex b's color."""
    colors = list(labeling.colors)
    colors[a] = colors[b]
    return relabeled(labeling, colors=colors)


def bump(labeling, z, q, delta):
    """Entry (z, q) moves by delta, clamped to [0, alpha]."""
    tables = [list(row) for row in labeling.tables]
    tables[z][q] = min(labeling.params.alpha, max(0, tables[z][q] + delta))
    return relabeled(labeling, tables=tables)


def concentrate(G, labeling, x):
    """x's whole mass moves onto x: probability still holds, l1 to a neighbor does not."""
    c = labeling.colors[x]
    tables = [list(row) for row in labeling.tables]
    for z in reference_bfs(G.adj, x, labeling.params.r):
        tables[z][c] = 0
    tables[x][c] = labeling.params.alpha
    return relabeled(labeling, tables=tables)


# --- honest labelings --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernel_matches_reference_on_honest_labelings(name):
    G, labeling = honest(name)
    assert assert_kernel_matches_reference(G, labeling) == (None,) * G.n


# --- one mutation per reason ------------------------------------------------------

def test_repeated_color_within_r_fails_properness():
    G, labeling = honest("grid6x7_r2")
    decisions = assert_kernel_matches_reference(G, recolor(labeling, 15, 17))
    assert decisions[16] == CHECK_PROPERNESS


def test_neighbor_with_the_center_color_fails_properness():
    G, labeling = honest("full_tree2x4_r1")
    decisions = assert_kernel_matches_reference(G, recolor(labeling, 1, 0))
    assert decisions[0] == decisions[1] == CHECK_PROPERNESS


def test_repeated_color_farther_than_r_inside_the_ball_passes_properness():
    # 3 and 5 are 2 <= r apart through the antipode 4, which B_3(0) leaves
    # out; inside the ball they are 6 apart, so vertex 0 accepts while 4,
    # whose ball holds the short path, rejects
    G, labeling = honest("cycle8_r2")
    decisions = assert_kernel_matches_reference(G, recolor(labeling, 5, 3))
    assert decisions[0] is None
    assert decisions[4] == CHECK_PROPERNESS


def test_moved_entry_fails_probability():
    G, labeling = honest("random_regular20_r1")
    decisions = assert_kernel_matches_reference(
        G, bump(labeling, 4, labeling.colors[4], 1))
    assert decisions[4] == CHECK_PROBABILITY


def test_concentrated_mass_fails_l1():
    G, labeling = honest("grid6x7_r2")
    decisions = assert_kernel_matches_reference(G, concentrate(G, labeling, 20))
    assert decisions[20] == CHECK_L1


# --- random mutations ---------------------------------------------------------------

MUTATION = st.tuples(
    st.sampled_from(["recolor", "bump", "concentrate"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-3, 3),
)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INSTANCES)),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_kernel_matches_reference_on_mutated_labelings(name, mutations):
    G, labeling = honest(name)
    palette = labeling.params.palette
    for kind, i, j, delta in mutations:
        if kind == "recolor":
            labeling = recolor(labeling, i % G.n, j % G.n)
        elif kind == "bump":
            labeling = bump(labeling, i % G.n, j % palette, delta)
        else:
            labeling = concentrate(G, labeling, i % G.n)
    assert_kernel_matches_reference(G, labeling)


# --- decoding from the verifier's own pass ------------------------------------------

def reference_decode(G, labeling):
    """The decoder as it was before it shared the verifier's pass: one
    radius-r BFS per vertex, reading x's color column over B_r(x)."""
    p = labeling.params
    dists = {}
    for x in range(G.n):
        cx = labeling.colors[x]
        dists[x] = RationalDist(p.alpha, {
            z: labeling.tables[z][cx]
            for z in reference_bfs(G.adj, x, p.r) if labeling.tables[z][cx]
        })
    return dists


@pytest.mark.parametrize("fixture", ["grid10x20", "tree511"])
def test_decode_without_verdict_equals_decode_with_verdict(fixture, request):
    inst = request.getfixturevalue(fixture)
    G, labeling = inst.G, inst.labeling
    decoded = decode_accepted_witness(G, labeling)
    want = reference_decode(G, labeling)
    assert decoded.radius == labeling.params.r
    assert list(decoded.dists) == list(want)
    for x in range(G.n):
        assert decoded.dists[x] == want[x]

    bad = bump(labeling, 7, labeling.colors[7], 1)
    with pytest.raises(NotAccepted) as err:
        decode_accepted_witness(G, bad)
    rejecting = verify_property_a(G, bad).rejecting()
    assert str(err.value) == (
        f"verifier rejects at {len(rejecting)} vertices, first: {rejecting[0]}")
