"""The property-A kernel against a plain-loop reference copy of its three checks.

`reference_verdict` reads each ball with a dict-based BFS and walks the
ball's rows with Python loops: the probability sum over B_r(x), the support
scan of shell r+1, and for each neighbor color the l1 sum over B_r(x) plus
the neighbor's mass missing from B_r(x).  The kernel in `localcert.verifier`
must reach the same decision, reason included, at every vertex,
sequentially and on a pool.
"""

import functools
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localcert as lc
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


# --- honest labelings --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernel_matches_reference_on_honest_labelings(name):
    G, labeling = honest(name)
    assert assert_kernel_matches_reference(G, labeling) == (None,) * G.n


# --- one mutation per reason ------------------------------------------------------

def test_mass_on_shell_r_plus_1_fails_support():
    # vertex 16's own color gains a unit at a vertex 3 = r + 1 away
    G, labeling = honest("grid6x7_r2")
    far = next(z for z, level in reference_levels(G.adj, 16, 3).items() if level == 3)
    decisions = assert_kernel_matches_reference(G, bump(labeling, far, labeling.colors[16], 1))
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
    x, check = verify_property_a(G, bad).rejecting()[0]
    assert str(err.value) == f"verifier rejects at vertex {x} ({check} check)"


def test_decode_refuses_at_the_first_rejecting_vertex(monkeypatch):
    G, labeling = honest("grid6x7_r2")
    bad = bump(labeling, 0, labeling.colors[0], 1)
    assert verify_property_a(G, bad).decisions[0] == CHECK_PROBABILITY
    judged = []
    check = verifier.check_vertex

    def counting_check(lball, params):
        judged.append(lball.vertices[0])
        return check(lball, params)

    monkeypatch.setattr(verifier, "check_vertex", counting_check)
    with pytest.raises(NotAccepted, match=r"^verifier rejects at vertex 0 \(probability check\)$"):
        decode_accepted_witness(G, bad)
    assert judged == [0]
    # verify_and_decode still judges every vertex, for report's whole verdict
    judged.clear()
    verdict, witness = verifier.verify_and_decode(G, bad)
    assert witness is None and judged == list(range(G.n))
    assert verdict == verify_property_a(G, bad)
