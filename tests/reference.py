"""Plain loops written from their definitions, for tests to compare against.

`reference_greedy_coloring` searches every vertex's q-ball afresh, where
`distance_coloring` skips the searches a whole component makes needless.

`reference_least_alpha` tries alpha = 1, 2, ... against every vertex's
`rounding_plan` error as a Fraction, where `build_proof` compares integers
per distinct shape and tries the shape that failed last first.

`reference_uniformity` takes every edge's l1 distance as a sum of
`Fraction` differences and keeps the running maximum as a `Fraction`, where
`check_uniformity` compares integer pairs by cross-multiplication.

`reference_edit_bound` judges every block's induced subgraph in turn, where
`edit_distance_upper_bound` lets one passing call on the whole graph settle
every block of a hereditary predicate.

`extract_partition` keeps one projection up to date across cuts; this module
recomputes everything after every cut instead.  Each round projects the
witness onto the remaining vertices R (every atom moves to its nearest point
of R in G, ties by the smaller id), picks z0 minimizing
2 * sum_{edges uv in R} |f(u)(z) - f(v)(z)| / sum_{x in R} f(x)(z) over the
coordinates z with mass (ties by the smaller id), and cuts off the first
nonempty strict superlevel set of f(.)(z0), thresholds ascending from 0,
whose edge boundary within R is at most d*eps/2 of its size.  Nothing here
reads a private name of the package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count

import localcert as lc
from localcert.errors import NoQualifyingSet, NotUniform
from localcert.graphs import bfs
from localcert.measures import rounding_plan


def reference_greedy_coloring(G, q):
    """The greedy coloring of the q-th power, vertices in id order.

    Each vertex takes the least color absent from its q-ball, read by a fresh
    BFS.
    """
    colors = [-1] * G.n
    for v in range(G.n):
        taken = {colors[u] for u in bfs(G.adj, (v,), q)[0]}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


def reference_least_alpha(w, eps_prime):
    """The least alpha >= 1 at which every vertex's rounding error is within (eps' - eps)/3."""
    budget = (eps_prime - lc.check_uniformity(w).max_edge_l1) / 3
    for alpha in count(1):
        if all(rounding_plan(f.den, Counter(f.num.values()), alpha).error <= budget
               for f in w.dists.values()):
            return alpha


def reference_uniformity(w):
    """check_uniformity's report by the plain loop: the largest edge l1, the first
    edge in ascending order attaining it, and the first vertex whose support
    leaves its ball."""
    G = w.graph
    bad = next((x for x in range(G.n)
                if not w.dists[x].num.keys() <= bfs(G.adj, (x,), w.radius)[1].keys()), None)
    best, worst = Fraction(0), None
    for u, v in sorted((u, v) for u in range(G.n) for v in G.adj[u] if u < v):
        f, g = w.dists[u], w.dists[v]
        d = sum((abs(f.value(z) - g.value(z)) for z in f.num.keys() | g.num.keys()), Fraction(0))
        if d > best:
            best, worst = d, (u, v)
    return lc.UniformityReport(best, worst, bad is None, bad)


def threshold_set(zeta, t):
    """Strict superlevel set {x : zeta(x) > t}."""
    return {x for x, v in zeta.items() if v > t}


def edge_boundary(G, domain, A):
    """Edges of the subgraph induced on domain that leave A, as (inside, outside), ascending."""
    domain, A = set(domain), set(A)
    if not A <= domain:
        raise ValueError("A must be a subset of the domain")
    return tuple(sorted((x, y) for x in A for y in G.adj[x] if y in domain and y not in A))


def nearest_point(G, F, t):
    """The vertex of F closest to t in G, ties by the smaller id; None when none is reachable."""
    level, seen = [t], {t}
    while level:
        hits = [v for v in level if v in F]
        if hits:
            return min(hits)
        nxt = []
        for u in level:
            for v in G.adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        level = nxt
    return None


def project_witness(w, F):
    """{x: f(x) with every atom moved to its nearest point of F} for each x in F."""
    F = set(F)
    tau = {}
    out = {}
    for x in sorted(F):
        f = w.dists[x]
        moved = {}
        for t, c in f.num.items():
            if t not in tau:
                tau[t] = nearest_point(w.graph, F, t)
            moved[tau[t]] = moved.get(tau[t], 0) + c
        out[x] = lc.RationalDist(f.den, moved)
    return out


def coordinate_sums(G, dists):
    """Per coordinate z with mass: (sum_x f(x)(z), sum_{edges uv} |f(u)(z) - f(v)(z)|).

    x ranges over the keys of dists and uv over the edges of the subgraph
    they induce.
    """
    mass, diff = {}, {}
    for f in dists.values():
        for z in f.num:
            mass[z] = mass.get(z, 0) + f.value(z)
    for u in dists:
        for v in G.adj[u]:
            if u < v and v in dists:
                fu, fv = dists[u], dists[v]
                for z in fu.num.keys() | fv.num.keys():
                    diff[z] = diff.get(z, 0) + abs(fu.value(z) - fv.value(z))
    return mass, {z: diff.get(z, Fraction(0)) for z in mass}


def find_low_boundary_set(G, dists, eps):
    """The cut one round takes on the domain dists.keys(), as a LowBoundaryResult."""
    mass, diff = coordinate_sums(G, dists)
    z0 = min(mass, key=lambda z: (2 * diff[z] / mass[z], z))
    zeta = {x: f.value(z0) for x, f in dists.items()}
    for t in sorted({Fraction(0), *zeta.values()}):
        A = threshold_set(zeta, t)
        edges = edge_boundary(G, dists, A)
        if A and 2 * len(edges) <= G.d * eps * len(A):
            return lc.LowBoundaryResult(tuple(sorted(A)), z0, t, edges)
    raise NoQualifyingSet(f"no superlevel set of zeta(.)({z0}) meets the boundary bound")


def reference_cuts(w, eps):
    """The loop's cuts, in order: re-project onto the remaining vertices, cut, repeat."""
    G = w.graph
    remaining = set(range(G.n))
    while remaining:
        res = find_low_boundary_set(G, project_witness(w, remaining), eps)
        remaining -= set(res.vertices)
        yield res


def reference_partition(w, eps):
    """The blocks of the plain loop, in cut order, and the edges its cuts remove."""
    if not lc.check_uniformity(w).satisfies(eps):
        raise NotUniform("witness is not eps-uniform")
    cuts = list(reference_cuts(w, eps))
    removed = sorted(tuple(sorted(e)) for res in cuts for e in res.edges)
    return lc.PartitionResult(w.graph.n, tuple(res.vertices for res in cuts), tuple(removed))


def reference_edit_bound(G, partition, predicate):
    """The first block whose induced subgraph fails the predicate, else |W|/|V|."""
    for i, block in enumerate(partition.blocks):
        if not predicate(lc.induced_subgraph(G, block)):
            return lc.EditDistanceBound(False, None, i)
    bound = Fraction(partition.num_removed, G.n) if G.n else Fraction(0)
    return lc.EditDistanceBound(True, bound, None)
