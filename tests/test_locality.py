"""Locality: each vertex's decision is a function of its own labeled ball.

Property A reads B_{r+1}(x) and the header; the predicate reads B_2r(x).  So
cutting that ball out of G as an induced subgraph, with its vertices' colors
and rows, must leave x's decision as it was, and so must any renaming of the
ids inside the cut-out ball.  Labelings are honest or carry random edits
inside x's ball, so accepts and every kind of reject are exercised.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localcert as lc
from conftest import random_family_graph
from localcert.graphs import build_graph, induced_subgraph
from localcert.labeling import ProofLabeling


def honest_labeling(rng):
    G = random_family_graph(rng)
    w = lc.uniform_ball_witness(G, rng.randint(1, 2))
    eps = lc.check_uniformity(w).max_edge_l1
    eps_prime = (eps + 2) / 2 if eps >= Fraction(1, 2) else Fraction(1, 2)
    return G, lc.build_proof(w, eps_prime)


def edited(labeling, ball, edits):
    """Entries moved by small amounts and colors copied, all at vertices of `ball`."""
    p = labeling.params
    colors = list(labeling.colors)
    tables = [list(row) for row in labeling.tables]
    for recolor, i, j, delta in edits:
        z = ball[i % len(ball)]
        if recolor:
            colors[z] = colors[ball[j % len(ball)]]
        else:
            q = colors[ball[j % len(ball)]]
            tables[z][q] = min(p.alpha, max(0, tables[z][q] + delta))
    return ProofLabeling(p, tuple(colors), tuple(map(tuple, tables)), labeling.k_local)


def excised(G, x, radius, rng):
    """B_radius(x) as an induced subgraph, and a copy with its ids shuffled.

    Each comes as (H, ids): H's vertex i is vertex ids[i] of G.
    """
    ids = sorted(lc.bfs(G.adj, (x,), radius)[0])
    H = induced_subgraph(G, ids)
    perm = list(range(H.n))
    rng.shuffle(perm)
    shuffled = [0] * H.n
    for i, v in enumerate(ids):
        shuffled[perm[i]] = v
    K = build_graph([(perm[u], perm[v]) for u, v in H.edges()], d=H.d, n=H.n)
    return (H, ids), (K, shuffled)


def restricted(labeling, ids):
    return ProofLabeling(labeling.params, tuple(labeling.colors[v] for v in ids),
                         tuple(labeling.tables[v] for v in ids), labeling.k_local)


EDIT = st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 10**6),
                 st.integers(-2, 2))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), edits=st.lists(EDIT, max_size=6),
       predicate=st.sampled_from(["planar", "acyclic"]))
def test_decisions_are_functions_of_their_balls(seed, edits, predicate):
    rng = random.Random(seed)
    G, labeling = honest_labeling(rng)
    r = labeling.params.r
    x = rng.randrange(G.n)
    labeling = edited(labeling, lc.bfs(G.adj, (x,), r + 1)[0], edits)
    want_a = lc.verify_property_a(G, labeling).decisions[x]
    want_p = lc.verify_locally_p(G, 2 * r, predicate).decisions[x]

    for H, ids in excised(G, x, r + 1, rng):
        got = lc.verify_property_a(H, restricted(labeling, ids))
        assert got.decisions[ids.index(x)] == want_a
    for H, ids in excised(G, x, 2 * r, rng):
        got = lc.verify_locally_p(H, 2 * r, predicate)
        assert got.decisions[ids.index(x)] == want_p
