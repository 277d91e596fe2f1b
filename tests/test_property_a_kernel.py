"""The property-A kernel against a plain-loop reference copy of its three checks.

`reference_verdict` reads each ball with a dict-based BFS and walks the
ball's rows with Python loops: the probability sum over B_r(x), the support
scan of shell r+1, and for each neighbor color the l1 sum over B_r(x) plus
the neighbor's mass missing from B_r(x).  The kernel in `localcert.verifier`
must reach the same decision, reason included, at every vertex,
sequentially and on a pool.
"""

import functools
from collections import defaultdict, deque
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localcert as lc
from conftest import InProcessPool
from localcert import verifier
from localcert.errors import NotAccepted
from localcert.labeling import ProofLabeling
from localcert.measures import RationalDist
from localcert.verifier import (
    CHECK_L1,
    CHECK_PROBABILITY,
    CHECK_SUPPORT,
    decode_accepted_witness,
    verify_property_a,
)


# --- the reference --------------------------------------------------------------

def reference_levels(adj, source, cutoff):
    """{vertex: distance from source} for the ball of radius cutoff, in BFS order."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == cutoff:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_bfs(adj, source, cutoff):
    return list(reference_levels(adj, source, cutoff))


def reference_check(levels, colors, tables, params):
    """x's decision from its ball: levels[z], colors[z] and tables[z] for each z in B_{r+1}(x)."""
    x = next(iter(levels))
    c0 = colors[x]
    r, alpha = params.r, params.alpha
    inner = [z for z, level in levels.items() if level <= r]
    if sum(tables[z][c0] for z in inner) != alpha:
        return CHECK_PROBABILITY
    for z, level in levels.items():
        if level == r + 1 and tables[z][c0] != 0:
            return CHECK_SUPPORT
    for y, level in levels.items():
        cy = colors[y]
        if level != 1 or cy == c0:
            continue
        total = alpha
        for z in inner:
            total += abs(tables[z][c0] - tables[z][cy]) - tables[z][cy]
        if total * params.eps_prime.denominator > params.eps_prime.numerator * alpha:
            return CHECK_L1
    return None


def reference_verdict(G, labeling):
    params = labeling.params
    return tuple(
        reference_check(reference_levels(G.adj, x, params.r + 1),
                        labeling.colors, labeling.tables, params)
        for x in range(G.n)
    )


def assert_kernel_matches_reference(G, labeling):
    want = reference_verdict(G, labeling)
    assert verify_property_a(G, labeling).decisions == want
    assert verify_property_a(G, labeling, jobs=2).decisions == want
    return want


# --- instances and mutations -------------------------------------------------------

INSTANCES = {
    "grid6x7_r2": (lambda: lc.generate(lc.FamilySpec("grid", (6, 7))), 2),
    "cycle12_r2": (lambda: lc.generate(lc.FamilySpec("cycle", (12,))), 2),
    # B_3(x) misses only the antipode, so shell r+1 is the antipode's two
    # neighbors, 2 apart in the cycle
    "cycle8_r2": (lambda: lc.generate(lc.FamilySpec("cycle", (8,))), 2),
    "full_tree2x4_r1": (lambda: lc.generate(lc.FamilySpec("full_tree", (2, 4))), 1),
    "random_regular20_r1": (
        lambda: lc.generate(lc.FamilySpec("random_regular", (20, 3), seed=7)), 1),
    # one-vertex balls: a gather at a single index must still give a tuple
    "path1_r1": (lambda: lc.generate(lc.FamilySpec("path", (1,))), 1),
    "path3_plus_isolated_r1": (lambda: lc.BoundedDegreeGraph(4, 2, [(0, 1), (1, 2)]), 1),
}


@functools.lru_cache(maxsize=None)
def honest(name):
    make, r = INSTANCES[name]
    G = make()
    w = lc.uniform_ball_witness(G, r)
    eps = lc.check_uniformity(w).max_edge_l1
    eps_prime = (eps + 2) / 2 if eps >= Fraction(1, 2) else Fraction(1, 2)
    return G, lc.build_proof(w, eps_prime)


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


def shell(G, labeling, x, k):
    """One unit of x's own color lands on the k-th vertex of shell r+1 of x's ball.

    x then fails support, unless probability fails first, and so shares no
    l1 sums: its neighbors must compute theirs.  A ball with no shell r+1
    (x's component lies within B_r(x)) is left as it is.
    """
    r = labeling.params.r
    ring = [z for z, level in reference_levels(G.adj, x, r + 1).items() if level == r + 1]
    if not ring:
        return labeling
    return bump(labeling, ring[k % len(ring)], labeling.colors[x], 1)


def mutate(G, labeling, mutations):
    palette = labeling.params.palette
    for kind, i, j, delta in mutations:
        if kind == "recolor":
            labeling = recolor(labeling, i % G.n, j % G.n)
        elif kind == "bump":
            labeling = bump(labeling, i % G.n, j % palette, delta)
        elif kind == "shell":
            labeling = shell(G, labeling, i % G.n, j)
        else:
            labeling = concentrate(G, labeling, i % G.n)
    return labeling


# --- honest labelings --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernel_matches_reference_on_honest_labelings(name):
    G, labeling = honest(name)
    assert assert_kernel_matches_reference(G, labeling) == (None,) * G.n


# --- one mutation per reason ------------------------------------------------------

def test_mass_on_shell_r_plus_1_fails_support():
    # vertex 16's own color gains a unit at a vertex 3 = r + 1 away
    G, labeling = honest("grid6x7_r2")
    decisions = assert_kernel_matches_reference(G, shell(G, labeling, 16, 0))
    assert decisions[16] == CHECK_SUPPORT


def test_moved_entry_fails_probability():
    G, labeling = honest("random_regular20_r1")
    decisions = assert_kernel_matches_reference(
        G, bump(labeling, 4, labeling.colors[4], 1))
    assert decisions[4] == CHECK_PROBABILITY


def test_concentrated_mass_fails_l1():
    G, labeling = honest("grid6x7_r2")
    decisions = assert_kernel_matches_reference(G, concentrate(G, labeling, 20))
    assert decisions[20] == CHECK_L1


@pytest.mark.parametrize("transposed_first", [False, True])
def test_pool_workers_read_the_sequential_columns(monkeypatch, transposed_first):
    """Two real worker processes judge tampered labels as one process does,
    whether they inherit the transposed columns or transpose their own."""
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    G, labeling = honest("grid6x7_r2")
    bad = concentrate(G, bump(labeling, 30, labeling.colors[30], 2), 9)
    want = reference_verdict(G, bad)
    assert None in want and set(want) != {None}
    if transposed_first:
        assert verify_property_a(G, bad).decisions == want
    assert ("columns" in vars(bad)) == transposed_first
    assert verify_property_a(G, bad, jobs=2).decisions == want
    assert verify_property_a(G, bad).decisions == want


# --- each edge summed once ------------------------------------------------------------

def spy_l1_sums(patch, labeling):
    """Record each l1 sum the kernel computes (`verifier._l1_sum`) as (center, color).

    The center is the vertex whose level search (`verifier._levels`) ran
    last, and the color the one whose labeling column was summed.
    """
    color_of = {id(column): q for q, column in enumerate(labeling.columns)}
    levels, l1_sum = verifier._levels, verifier._l1_sum
    center = [None]
    computed = []

    def searching(adj, x, q, mark):
        center[0] = x
        return levels(adj, x, q, mark)

    def summing(own, column, gather, alpha):
        computed.append((center[0], color_of[id(column)]))
        return l1_sum(own, column, gather, alpha)

    patch.setattr(verifier, "_levels", searching)
    patch.setattr(verifier, "_l1_sum", summing)
    return computed


@pytest.mark.parametrize("fixture", ["grid10x20", "tree511"])
def test_each_edge_is_summed_once(fixture, request, monkeypatch):
    """On honest labels the sequential sweep gathers one column per edge whose
    ends differ in color, at its earlier end; a pool range shares only
    within itself, so an edge across the cut is gathered at both ends."""
    inst = request.getfixturevalue(fixture)
    G, labeling = inst.G, inst.labeling
    colors = labeling.colors
    assert set(inst.property_a.decisions) == {None}
    gathered = spy_l1_sums(monkeypatch, labeling)
    edges = [(u, v) for u, v in G.edges() if colors[u] != colors[v]]
    assert verify_property_a(G, labeling) == inst.property_a
    assert sorted(gathered) == sorted((u, colors[v]) for u, v in edges)

    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    assert verify_property_a(G, labeling, jobs=2) == inst.property_a
    gathered.clear()
    monkeypatch.setattr(verifier, "_make_pool", functools.partial(InProcessPool, []))
    assert verify_property_a(G, labeling, jobs=2) == inst.property_a
    cut = G.n // 2
    across = [(v, colors[u]) for u, v in edges if u < cut <= v]
    assert across
    assert sorted(gathered) == sorted([(u, colors[v]) for u, v in edges] + across)


def test_a_vertex_failing_support_hands_on_no_sums():
    """Path 0..6 at r = 1, alpha = 2: vertices 2 and 4 share color 0, with
    f(2) = delta_1 and f(4) = delta_5, and vertex 3 between them fails
    support.  Vertex 2's l1 sum for color 1 is 4, vertex 4's is 0; had 3
    passed on the sum it was handed from 2, vertex 4 would reject."""
    G = lc.generate(lc.FamilySpec("path", (7,)))
    params = lc.SchemeParams(r=1, eps_prime=Fraction(1, 2), alpha=2, palette=6)
    colors = (2, 3, 0, 1, 0, 4, 5)
    tables = [[0] * 6 for _ in range(7)]
    tables[1][0] = tables[5][0] = 2   # color 0: vertex 2's mass on 1, vertex 4's on 5
    tables[3][1] = tables[5][1] = 2   # color 1: alpha on B_1(3), and 2 more on its shell
    tables[5][4] = 2                  # color 4: vertex 5 holds its own mass
    labeling = ProofLabeling(params, colors, tuple(map(tuple, tables)), 3)
    decisions = assert_kernel_matches_reference(G, labeling)
    assert decisions[2:5] == (CHECK_L1, CHECK_SUPPORT, None)


# --- random mutations ---------------------------------------------------------------

MUTATION = st.tuples(
    st.sampled_from(["recolor", "bump", "concentrate", "shell"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-3, 3),
)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INSTANCES)),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_kernel_matches_reference_on_mutated_labelings(name, mutations):
    G, labeling = honest(name)
    assert_kernel_matches_reference(G, mutate(G, labeling, mutations))


def reference_l1_sum(G, labeling, x, q):
    """x's l1 sum for color q, computed alone from the rows of B_r(x)."""
    tables, cx = labeling.tables, labeling.colors[x]
    inner = reference_levels(G.adj, x, labeling.params.r)
    return labeling.params.alpha + sum(abs(tables[z][cx] - tables[z][q]) - tables[z][q]
                                       for z in inner)


def handed_sums(G, labeling):
    """(x, color, total) for each l1 sum the sequential sweep hands a vertex x,
    and the sweep's decisions.

    The sweep is paused at each vertex it yields, where its `totals` holds
    x's sums per neighbor color: the ones handed to x and the ones x
    computed (`spy_l1_sums`).  The rest were handed.
    """
    handed, decisions = [], []
    with pytest.MonkeyPatch.context() as mp:
        computed = spy_l1_sums(mp, labeling)
        sweep = verifier._judged(G, labeling)
        for x, decision, _, _ in sweep:
            decisions.append(decision)
            handed.extend((x, cy, total) for cy, total in sweep.gi_frame.f_locals["totals"].items()
                          if (x, cy) not in computed)
    assert tuple(decisions) == verify_property_a(G, labeling).decisions
    return handed, decisions


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INSTANCES)),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_shared_sums_equal_the_sums_a_vertex_computes_alone(name, mutations):
    """Every l1 sum the sweep hands a vertex that passed probability and
    support is the sum that vertex computes from its own ball."""
    G, labeling = honest(name)
    labeling = mutate(G, labeling, mutations)
    handed, decisions = handed_sums(G, labeling)
    for x, cy, total in handed:
        if decisions[x] not in (CHECK_PROBABILITY, CHECK_SUPPORT):
            assert total == reference_l1_sum(G, labeling, x, cy)


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
    x, check = verify_property_a(G, bad).rejecting()[0]
    assert str(err.value) == f"verifier rejects at vertex {x} ({check} check)"


def test_decode_refuses_at_the_first_rejecting_vertex(monkeypatch):
    G, labeling = honest("grid6x7_r2")
    bad = bump(labeling, 0, labeling.colors[0], 1)
    assert verify_property_a(G, bad).decisions[0] == CHECK_PROBABILITY
    judged = []
    levels = verifier._levels

    def counting_levels(adj, x, q, mark):
        judged.append(x)
        return levels(adj, x, q, mark)

    monkeypatch.setattr(verifier, "_levels", counting_levels)
    with pytest.raises(NotAccepted, match=r"^verifier rejects at vertex 0 \(probability check\)$"):
        decode_accepted_witness(G, bad)
    assert judged == [0]
    # verify_and_decode still judges every vertex, for report's whole verdict
    judged.clear()
    verdict, witness = verifier.verify_and_decode(G, bad)
    assert witness is None and judged == list(range(G.n))
    assert verdict == verify_property_a(G, bad)


# --- constant work per vertex ---------------------------------------------------------

@pytest.mark.parametrize("side", [30, 60, 120])
def test_interior_grid_vertices_do_constant_work(side, monkeypatch):
    """Counts, not times: on honest uniform-ball labels at r = 2, eps' = 1,
    every vertex farther than r + 1 from the border makes one level search,
    of the 25 rows of B_3, and computes two l1 sums, one per later neighbor
    (its earlier neighbors hand theirs over), on grids of every side alike;
    the predicate half makes one call for the whole grid."""
    G = lc.generate(lc.FamilySpec("grid", (side, side)))
    labeling = lc.build_proof(lc.uniform_ball_witness(G, 2), Fraction(1))
    colors = labeling.colors
    summed = spy_l1_sums(monkeypatch, labeling)
    levels, searched = verifier._levels, []

    def searching(adj, x, q, mark):
        order, ends = levels(adj, x, q, mark)
        searched.append((x, q, len(order)))
        return order, ends

    monkeypatch.setattr(verifier, "_levels", searching)
    planar, predicate_calls = verifier.PREDICATES["planar"], []

    def counting_planar(H):
        predicate_calls.append(H.n)
        return planar(H)

    monkeypatch.setitem(verifier.PREDICATES, "planar", counting_planar)
    assert lc.pipeline_verify(G, labeling, "planar").accept
    assert predicate_calls == [G.n]

    searches_of, sums_of = defaultdict(list), defaultdict(list)
    for x, q, rows in searched:
        searches_of[x].append((q, rows))
    for x, q in summed:
        sums_of[x].append(q)
    interior = [i * side + j for i in range(4, side - 4) for j in range(4, side - 4)]
    for x in interior:
        assert searches_of[x] == [(3, 25)]
        assert sorted(sums_of[x]) == sorted([colors[x + 1], colors[x + side]])
