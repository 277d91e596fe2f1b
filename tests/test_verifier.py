"""Per-vertex checks, pipeline verdicts, predicates, and ball-set verifiers."""

import functools
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localcert as lc
from conftest import (
    InProcessPool,
    discretized,
    encode_as_written,
    prove_uniform,
    random_family_graph,
)
from localcert import verifier
from localcert.errors import MalformedLabeling, NotAccepted
from localcert.graphs import ball_sweep, build_graph, induced_subgraph
from localcert.labeling import ProofLabeling, SchemeParams
from localcert.verifier import (
    CHECK_L1,
    CHECK_LOCAL_P,
    CHECK_PROBABILITY,
    CHECK_SUPPORT,
    BallSetVerifier,
    LabeledBall,
    ProductVerifier,
    canonical_ball,
    check_vertex,
    combine_verdicts,
    Verdict,
    decode_accepted_witness,
    format_verdict,
    is_acyclic,
    is_planar,
    locality_radius,
    pipeline_verify,
    resolve_predicate,
    run_ball_verifier,
    verify_locally_p,
    verify_property_a,
)


def permute_instance(G, labeling, perm):
    """Relabel vertex ids by perm; the labeling travels with the vertices."""
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in G.edges()]
    H = build_graph(edges, d=G.d, n=G.n)
    colors = [0] * G.n
    tables = [None] * G.n
    for v in range(G.n):
        colors[perm[v]] = labeling.colors[v]
        tables[perm[v]] = labeling.tables[v]
    permuted = ProofLabeling(labeling.params, tuple(colors), tuple(tables), labeling.k_local)
    return H, permuted


def petersen():
    edges = []
    for i in range(5):
        edges.append(tuple(sorted((i, (i + 1) % 5))))
        edges.append((i, i + 5))
        edges.append(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
    return build_graph(edges, d=3)


def complete_graph(n, d=None):
    return build_graph(list(itertools.combinations(range(n), 2)), d=d or n - 1)


def grid_plus_k5():
    """5x5 grid on ids 0..24, disjoint K5 on ids 25..29."""
    grid = lc.generate(lc.FamilySpec("grid", (5, 5)))
    edges = grid.edges() + [(u + 25, v + 25) for u, v in itertools.combinations(range(5), 2)]
    return build_graph(edges, d=4, n=30)


# --- pipeline completeness ---------------------------------------------------

def test_pipeline_accepts_path11(p11):
    assert p11.property_a.accept
    verdict = pipeline_verify(p11.G, p11.labeling, "planar")
    assert verdict.accept
    assert verdict.decisions == (None,) * 11


def test_completeness_on_random_families():
    rng = random.Random(501)
    done = 0
    while done < 12:
        G = random_family_graph(rng)
        r = rng.randint(1, 2)
        w = lc.uniform_ball_witness(G, r)
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = eps + Fraction(1, rng.randint(3, 8))
        if eps_prime >= 2:
            continue
        labeling = lc.build_proof(w, eps_prime)
        verdict = verify_property_a(G, labeling)
        assert verdict.accept, (G.n, G.m, r, verdict.rejecting()[:3])
        done += 1


def test_decode_returns_the_encoded_witness(p11):
    decoded = decode_accepted_witness(p11.G, p11.labeling)
    encoded = discretized(p11.raw, p11.labeling.params.alpha)
    assert decoded.radius == encoded.radius
    for x in range(p11.G.n):
        assert decoded.dists[x] == encoded.dists[x]


def test_check_vertex_agrees_with_driver(p11):
    params = p11.labeling.params
    for x, order, ends in ball_sweep(p11.G, params.r + 1):
        lball = LabeledBall(p11.G.adj, order, ends, p11.labeling)
        assert check_vertex(lball, params) == p11.property_a.decisions[x]


def test_jobs_do_not_change_decisions(p11):
    v2 = verify_property_a(p11.G, p11.labeling, jobs=2)
    assert v2 == p11.property_a


@pytest.mark.parametrize("cpus, jobs, want", [(4, 100000, [4]), (64, 100000, [11]),
                                              (64, 3, [3]), (1, 8, [])])
def test_pool_size_is_capped_by_cpus_and_vertices(p11, monkeypatch, cpus, jobs, want):
    """The pool gets min(jobs, usable CPUs, n) processes, none when that is 1."""
    asked = []
    monkeypatch.setattr(verifier, "_make_pool", functools.partial(InProcessPool, asked))
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: cpus)
    lab = p11.labeling
    assert verify_property_a(p11.G, lab, jobs=jobs) == p11.property_a
    q = lab.colors[5]
    bad = tampered(lab, 5, q, lab.tables[5][q] + 1)
    want_bad = verify_property_a(p11.G, bad)
    assert not want_bad.accept
    assert verify_property_a(p11.G, bad, jobs=jobs) == want_bad
    assert asked == want * 2


# --- soundness pressure --------------------------------------------------------

def tampered(labeling, z, q, value):
    tables = list(labeling.tables)
    row = list(tables[z])
    row[q] = value
    tables[z] = tuple(row)
    return ProofLabeling(labeling.params, labeling.colors, tuple(tables), labeling.k_local)


def test_tampered_mass_is_caught(p11):
    lab = p11.labeling
    z = 5
    q = lab.colors[5]
    bad = tampered(lab, z, q, lab.tables[z][q] + 1)
    verdict = verify_property_a(p11.G, bad)
    assert not verdict.accept
    assert any(check == CHECK_PROBABILITY for _, check in verdict.rejecting())


def test_tampered_color_is_caught(p11):
    # vertex 4 takes vertex 5's color: its new column misses alpha on B_r(4)
    lab = p11.labeling
    colors = list(lab.colors)
    colors[4] = colors[5]
    bad = ProofLabeling(lab.params, tuple(colors), lab.tables, lab.k_local)
    verdict = verify_property_a(p11.G, bad)
    assert not verdict.accept
    assert verdict.rejecting() == [(4, CHECK_PROBABILITY)]


def test_l1_check_catches_rough_witness():
    # two deltas across an edge are as far apart as distributions get;
    # with eps' < 2 the l1 check has to fire
    G = lc.generate(lc.FamilySpec("path", (2,)))
    g = lc.WitnessFunction(G, 1, {
        0: lc.RationalDist(4, {0: 4}),
        1: lc.RationalDist(4, {1: 4}),
    })
    labeling = encode_as_written(g, Fraction(1, 2))
    verdict = verify_property_a(G, labeling)
    assert set(verdict.decisions) == {CHECK_L1}


def test_accepted_labeling_decodes_eps_prime_uniform():
    """Soundness: whatever the verifier accepts decodes to an eps'-uniform witness.

    Every table entry 1 passes the probability check on a 3-regular graph
    (|B_1| = alpha = 4), and an l1 sum over every row of the ball would pass
    it too (equal columns), while the decoded uniform balls differ by l1 = 1
    across each edge; every B_2 ball of this graph is planar.  The support
    check rejects it: every column holds mass on shell 2.
    """
    G = lc.generate(lc.FamilySpec("random_regular", (200, 3), seed=42))
    colors, _ = lc.distance_coloring(G, 2)
    palette = max(colors) + 1
    assert palette == 8
    eps_prime = Fraction(3, 10)
    params = SchemeParams(r=1, eps_prime=eps_prime, alpha=4, palette=palette)
    forged = ProofLabeling(params, colors, ((1,) * palette,) * G.n, k_local=0)
    if pipeline_verify(G, forged, "planar").accept:
        decoded = decode_accepted_witness(G, forged)
        assert lc.check_uniformity(decoded).max_edge_l1 <= eps_prime


def test_mass_cancelling_outside_the_decoded_ball_fails_support():
    """Path 4, r = 1: vertex 2's column 0 (1,1,0,1) and column 1 (1,1,0,2)
    differ by 1 <= eps' * alpha over every row of its ball, because row 0
    cancels, yet f(2) = (delta_1 + delta_3)/2 and f(3) = delta_3 are 1 apart
    in l1.  Rows 0 and 3 sit on shell 2 of the balls of 1, 2 and 3."""
    G = lc.generate(lc.FamilySpec("path", (4,)))
    params = SchemeParams(r=1, eps_prime=Fraction(1, 2), alpha=2, palette=2)
    forged = ProofLabeling(params, (0, 1, 0, 1), ((1, 1), (1, 1), (0, 0), (1, 2)), k_local=0)
    assert verify_property_a(G, forged).decisions == (
        None, CHECK_SUPPORT, CHECK_SUPPORT, CHECK_SUPPORT)


@pytest.mark.parametrize("family, params, sound_accepts", [
    ("path", (4,), 0),
    ("full_tree", (3, 1), 88),
], ids=["path4", "star3"])
def test_exhaustive_search_finds_no_unsound_accept(family, params, sound_accepts):
    """Every coloring (vertex 0 takes color 0; swapping the two colors and
    their columns changes nothing) and every table with entries in [0, 2],
    at palette 2, alpha 2, r = 1, eps' = 1/2: each accepted labeling decodes
    to a witness with every edge within eps'.  The star has sound accepts,
    so the search is not empty there."""
    G = lc.generate(lc.FamilySpec(family, params))
    scheme = SchemeParams(r=1, eps_prime=Fraction(1, 2), alpha=2, palette=2)
    balls = [(tuple(order), tuple(ends)) for _, order, ends in ball_sweep(G, 2)]
    accepted = 0
    for colors in itertools.product((0, 1), repeat=G.n - 1):
        colors = (0, *colors)
        for flat in itertools.product(range(3), repeat=2 * G.n):
            labeling = ProofLabeling(scheme, colors, tuple(zip(flat[::2], flat[1::2])), 0)
            if any(check_vertex(LabeledBall(G.adj, order, ends, labeling), scheme)
                   for order, ends in balls):
                continue
            accepted += 1
            decoded = decode_accepted_witness(G, labeling)
            assert lc.check_uniformity(decoded).max_edge_l1 <= scheme.eps_prime, labeling
    assert accepted == sound_accepts


@pytest.mark.parametrize("fixture", ["grid10x20", "c100", "tree511"])
def test_honest_l1_sums_are_exact(fixture, request):
    """On honest labels every edge's l1 sum, read from B_r(x) rows alone, is
    exactly alpha * l1(g(x), g(y)) for the quantized witness g."""
    inst = request.getfixturevalue(fixture)
    G, lab = inst.G, inst.labeling
    alpha, r = lab.params.alpha, lab.params.r
    g = decode_accepted_witness(G, lab)
    for x in range(G.n):
        inner, _ = lc.bfs(G.adj, (x,), r)
        cx = lab.colors[x]
        for y in G.adj[x]:
            cy = lab.colors[y]
            assert cy != cx
            total = sum(abs(lab.tables[z][cx] - lab.tables[z][cy]) for z in inner)
            total += alpha - sum(lab.tables[z][cy] for z in inner)
            assert total == alpha * lc.l1_distance(g.dists[x], g.dists[y])


def test_transplanted_labeling_rejected(p11):
    C = lc.generate(lc.FamilySpec("cycle", (11,)))
    verdict = verify_property_a(C, p11.labeling)
    assert not verdict.accept
    with pytest.raises(NotAccepted):
        decode_accepted_witness(C, p11.labeling)


def test_vertex_count_mismatch_is_malformed(p11):
    C = lc.generate(lc.FamilySpec("cycle", (12,)))
    with pytest.raises(MalformedLabeling):
        verify_property_a(C, p11.labeling)


# --- anonymity -----------------------------------------------------------------

def test_verdicts_are_permutation_equivariant(p11):
    rng = random.Random(502)
    for _ in range(5):
        perm = list(range(11))
        rng.shuffle(perm)
        H, permuted = permute_instance(p11.G, p11.labeling, perm)
        verdict = verify_property_a(H, permuted)
        for v in range(11):
            assert verdict.decisions[perm[v]] == p11.property_a.decisions[v]


def test_rejections_travel_with_the_permutation(p11):
    bad = tampered(p11.labeling, 5, p11.labeling.colors[5], 0)
    base = verify_property_a(p11.G, bad)
    perm = [(v + 3) % 11 for v in range(11)]
    H, permuted = permute_instance(p11.G, bad, perm)
    moved = verify_property_a(H, permuted)
    assert {perm[x] for x, _ in base.rejecting()} == {x for x, _ in moved.rejecting()}


# --- structural predicates -------------------------------------------------------

def test_planarity_table():
    assert not is_planar(complete_graph(5))
    k33 = build_graph([(a, b + 3) for a in range(3) for b in range(3)], d=3)
    assert not is_planar(k33)
    assert not is_planar(petersen())
    assert is_planar(lc.generate(lc.FamilySpec("grid", (5, 7))))
    assert is_planar(lc.generate(lc.FamilySpec("full_tree", (3, 3))))
    assert is_planar(lc.generate(lc.FamilySpec("cycle", (50,))))
    wheel = build_graph(
        [(0, i) for i in range(1, 9)] + [(i, i + 1) for i in range(1, 8)] + [(1, 8)],
        d=8,
    )
    assert is_planar(wheel)


@pytest.mark.parametrize("isolated", [1, 2])
def test_k33_with_isolated_vertices_is_not_planar(isolated):
    """m <= n + 2 here, but the cyclomatic number is 4: the LR test must still run."""
    k33 = build_graph([(a, b + 3) for a in range(3) for b in range(3)], d=3, n=6 + isolated)
    assert k33.m <= k33.n + 2
    assert not is_planar(k33)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), data=st.data())
def test_is_planar_matches_networkx(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    G = build_graph(edges, d=max(2, n - 1), n=n)
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(edges)
    assert is_planar(G) == nx.check_planarity(H)[0]


def test_acyclic_predicate():
    assert is_acyclic(lc.generate(lc.FamilySpec("full_tree", (2, 5))))
    assert is_acyclic(lc.generate(lc.FamilySpec("path", (9,))))
    assert not is_acyclic(lc.generate(lc.FamilySpec("cycle", (9,))))


def _minor_carriers():
    """Small non-planar graphs: K5 and K3,3, each with a pendant path, and Petersen."""
    tail = [(v, v + 1) for v in range(5, 11)]
    k5 = build_graph(list(itertools.combinations(range(5), 2)) + [(4, 5)] + tail, d=5)
    k33 = build_graph([(a, b) for a in range(3) for b in range(3, 6)] + tail, d=4)
    return [k5, k33, petersen()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(verifier.PREDICATES)), pick=st.integers(0, 3),
       seed=st.integers(0, 10**6))
def test_predicates_are_hereditary(name, pick, seed):
    """Along a chain of induced subgraphs, one vertex removed at a time in a
    random order, a predicate that holds never fails again.

    locality_radius's soundness argument and verify_locally_p's one call per
    passing component both rest on this.
    """
    rng = random.Random(seed)
    pred = verifier.PREDICATES[name]
    G = ([random_family_graph(rng)] + _minor_carriers())[pick]
    order = list(range(G.n))
    rng.shuffle(order)
    held = pred(G)
    for k in range(G.n - 1, -1, -1):
        now = pred(induced_subgraph(G, order[:k]))
        assert now or not held, (name, G.edges(), order[:k])
        held = now


def test_resolve_predicate():
    assert resolve_predicate("acyclic") is is_acyclic
    with pytest.raises(ValueError):
        resolve_predicate("no-such-predicate")


def test_locally_p_flags_exactly_the_k5_component():
    G = grid_plus_k5()
    verdict = verify_locally_p(G, 2, "planar")
    assert {x for x, _ in verdict.rejecting()} == {25, 26, 27, 28, 29}
    assert all(check == CHECK_LOCAL_P for _, check in verdict.rejecting())


def test_locally_p_matches_per_vertex_bruteforce():
    from localcert.graphs import bfs

    rng = random.Random(503)
    for _ in range(10):
        G = random_family_graph(rng)
        K = rng.randint(0, 3)
        name = rng.choice(["planar", "acyclic"])
        pred = resolve_predicate(name)
        verdict = verify_locally_p(G, K, name)
        for x in range(G.n):
            want = pred(induced_subgraph(G, bfs(G.adj, (x,), K)[0]))
            assert (verdict.decisions[x] is None) == want


@pytest.mark.parametrize("side", [8, 12])
def test_locally_p_covering_probe_spares_per_vertex_bfs(monkeypatch, side):
    """K5 hung off a grid corner: the probe from the corner sees the whole
    component, so every ball within K - ecc of it is the failing component."""
    from localcert.graphs import bfs

    grid = lc.generate(lc.FamilySpec("grid", (side, side)))
    n0 = side * side
    k5 = [(n0 + a, n0 + b) for a, b in itertools.combinations(range(5), 2)]
    G = build_graph(grid.edges() + k5 + [(0, n0)], d=5)
    K = 4 * side - 5
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return bfs(*args, **kwargs)

    monkeypatch.setattr(verifier, "bfs", counted)
    verdict = verify_locally_p(G, K, "planar")
    monkeypatch.undo()
    for x in range(G.n):
        want = is_planar(induced_subgraph(G, bfs(G.adj, (x,), K)[0]))
        assert (verdict.decisions[x] is None) == want
    assert len(calls) < G.n


def test_locally_p_named_predicate_settles_a_passing_component_once(monkeypatch):
    calls = []

    def counted(H):
        calls.append(H.n)
        return is_planar(H)

    monkeypatch.setitem(verifier.PREDICATES, "planar", counted)
    C = lc.generate(lc.FamilySpec("cycle", (200,)))
    assert verify_locally_p(C, 5, "planar").accept
    assert calls == [200]


def test_pipeline_conjunction(p11):
    a = verify_property_a(p11.G, p11.labeling)
    b = verify_locally_p(p11.G, locality_radius(p11.labeling.params), "planar")
    both = combine_verdicts(a, b)
    assert both.accept
    bad = combine_verdicts(a, Verdict((CHECK_LOCAL_P,) * p11.G.n))
    assert not bad.accept
    assert len(bad.rejecting()) == 11


# --- ball-set verifiers ------------------------------------------------------------

def test_canonical_ball_is_isomorphism_invariant():
    rng = random.Random(504)
    for _ in range(50):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        labels = tuple(rng.randint(0, 1) for _ in range(n))
        center = rng.randrange(n)
        perm = list(range(n))
        rng.shuffle(perm)
        padj = [[] for _ in range(n)]
        for u, v in edges:
            padj[perm[u]].append(perm[v])
            padj[perm[v]].append(perm[u])
        plabels = [0] * n
        for v in range(n):
            plabels[perm[v]] = labels[v]
        assert canonical_ball(adj, labels, center) == canonical_ball(
            padj, plabels, perm[center]
        )


def test_canonical_ball_separates_labels():
    adj = ((1,), (0,))
    assert canonical_ball(adj, ("a", "b"), 0) != canonical_ball(adj, ("b", "a"), 0)


def test_ball_set_verifier_round_trip():
    G = lc.generate(lc.FamilySpec("path", (6,)))
    labels = (0, 1, 0, 0, 1, 1)
    seen = frozenset(
        canonical_ball(b.local_adj, tuple(labels[p] for p in b.vertices), 0)
        for b in (lc.ball(G, x, 1) for x in range(6))
    )
    verifier = BallSetVerifier(1, seen)
    assert run_ball_verifier(G, labels, verifier).accept
    pruned = BallSetVerifier(1, frozenset(list(seen)[:-1]))
    assert not run_ball_verifier(G, labels, pruned).accept


def test_product_verifier_agrees_with_intersection():
    rng = random.Random(505)
    G = lc.generate(lc.FamilySpec("cycle", (5,)))
    balls = [lc.ball(G, x, 1) for x in range(5)]

    def universe():
        out = set()
        for labs in itertools.product((0, 1), repeat=5):
            for b in balls:
                out.add(canonical_ball(b.local_adj, tuple(labs[p] for p in b.vertices), 0))
        return sorted(out)

    U = universe()
    for _ in range(10):
        V1 = BallSetVerifier(1, frozenset(rng.sample(U, rng.randint(1, len(U)))))
        V2 = BallSetVerifier(1, frozenset(rng.sample(U, rng.randint(1, len(U)))))
        V3 = ProductVerifier(V1, V2)
        for l1 in itertools.product((0, 1), repeat=5):
            for l2 in itertools.product((0, 1), repeat=5):
                pair = tuple(zip(l1, l2))
                got = run_ball_verifier(G, pair, V3).accept
                want = (run_ball_verifier(G, l1, V1).accept
                        and run_ball_verifier(G, l2, V2).accept)
                assert got == want


# --- verdict report ------------------------------------------------------------

def test_format_verdict_golden():
    v = lc.Verdict((None, CHECK_L1, None))
    assert format_verdict(v) == "verdict reject\nreject 1 l1\n"
    assert format_verdict(lc.Verdict((None, None))) == "verdict accept\n"
