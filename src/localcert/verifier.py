"""Local verification: per-vertex acceptance from labeled balls alone.

Each vertex x decides from its labeled ball N = B_{r+1}(x), read from one
level-by-level sweep over G (`graphs.ball_sweep`): the ball in BFS order with
its level boundaries, so B_r(x) and x's neighbors are prefixes, each ball
vertex's color and mass table, and, only when some color repeats inside N,
the ball's own adjacency.
A decision never reads parent vertex ids, so verdicts are oblivious to
vertex identities and to any parallelism in the driver.  Beyond its ball, a
vertex reads only the labels header (`labeling.params`).  Three checks run
per vertex:

  properness   equal colors never repeat within ball-distance r of each other
  probability  the masses stored for x's color across B_r(x) sum to alpha
  l1           for every neighbor y, sum_z |T2(z)(C(x)) - T2(z)(C(y))| over
               z in N stays at or below eps' * alpha

`verify_and_decode` also returns the witness the accepting vertices read from
those same balls.  The structural half checks a hereditary graph predicate
on B_2r(x), a radius derived from the header's r (`locality_radius`); the
pipeline verdict is the conjunction.  Verdict report format:

    verdict <accept|reject>
    reject <x> <check>        (one line per rejecting vertex)
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from operator import itemgetter, sub
from typing import Callable, Sequence

import networkx as nx

from .errors import MalformedLabeling, NotAccepted
from .graphs import BoundedDegreeGraph, RootedBall, ball_sweep, bfs, components, induced_subgraph
from .labeling import ProofLabeling, SchemeParams
from .measures import RationalDist, WitnessFunction, _record_supports_in_balls

CHECK_PROPERNESS = "properness"
CHECK_PROBABILITY = "probability"
CHECK_L1 = "l1"
CHECK_LOCAL_P = "localP"


@dataclass(frozen=True)
class Verdict:
    """Per-vertex outcomes: None for accept, else the failed check's name."""

    decisions: tuple[str | None, ...]

    @property
    def accept(self) -> bool:
        return all(d is None for d in self.decisions)

    def rejecting(self) -> list[tuple[int, str]]:
        return [(x, d) for x, d in enumerate(self.decisions) if d is not None]


class LabeledBall(RootedBall):
    """A rooted ball as its center sees it: `colors[i]` and `tables[i]` are local i's label.

    A decision reads the level boundaries (`within`), the labels and, only
    when some color repeats inside the ball, `local_adj`; never `vertices`,
    which is there for the decoder.
    """

    __slots__ = ("colors", "tables")

    def __init__(self, adj: Sequence[Sequence[int]], order: Sequence[int],
                 ends: Sequence[int], labeling: ProofLabeling):
        super().__init__(adj, order, ends)
        self.colors = tuple(map(labeling.colors.__getitem__, order))
        self.tables = tuple(map(labeling.tables.__getitem__, order))


def check_vertex(lball: LabeledBall, params: SchemeParams) -> str | None:
    """Decide one vertex from its labeled ball; None means accept.

    On multiple failures the first check in the fixed order properness,
    probability, l1 is reported.  Sums run over whole columns of exact
    integers; the l1 sum covers every row of the ball.
    """
    colors = lball.colors
    tables = lball.tables
    c0 = colors[0]
    r = params.r

    if len(set(colors)) < len(colors):
        adj = lball.local_adj
        by_color: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            by_color.setdefault(c, []).append(i)
        for members in by_color.values():
            if len(members) < 2:
                continue
            mset = set(members)
            for y in members:
                reach, _ = bfs(adj, (y,), r)
                if any(z != y and z in mset for z in reach):
                    return CHECK_PROPERNESS

    col0 = tuple(map(itemgetter(c0), tables))
    if sum(col0[:lball.within(r)]) != params.alpha:
        return CHECK_PROBABILITY

    enum, eden = params.eps_prime.numerator, params.eps_prime.denominator
    budget = enum * params.alpha
    for cy in colors[1:lball.within(1)]:
        if cy == c0:
            continue
        total = sum(map(abs, map(sub, col0, map(itemgetter(cy), tables))))
        if total * eden > budget:
            return CHECK_L1
    return None


def _validate_against_graph(G: BoundedDegreeGraph, labeling: ProofLabeling) -> None:
    if labeling.n != G.n:
        raise MalformedLabeling(
            f"labeling covers {labeling.n} vertices, graph has {G.n}"
        )


def _judged_balls(G: BoundedDegreeGraph, labeling: ProofLabeling,
                  vertices: range | None = None):
    """Yield (x, labeled B_{r+1}(x), decision) for x = 0..n-1, or for `vertices` only."""
    params = labeling.params
    adj = G.adj
    for x, order, ends in ball_sweep(G, params.r + 1, vertices):
        lball = LabeledBall(adj, order, ends, labeling)
        yield x, lball, check_vertex(lball, params)


_WORKER: dict[str, object] = {}


def _init_worker(G: BoundedDegreeGraph, labeling: ProofLabeling) -> None:
    _WORKER["G"] = G
    _WORKER["labeling"] = labeling


def _check_range(vertices: range) -> list[str | None]:
    """Pool task: decide a contiguous vertex range from the state _init_worker left here."""
    G: BoundedDegreeGraph = _WORKER["G"]  # type: ignore[assignment]
    labeling: ProofLabeling = _WORKER["labeling"]  # type: ignore[assignment]
    return [decision for _, _, decision in _judged_balls(G, labeling, vertices)]


def _usable_cpus() -> int:
    """CPUs this process may run on; a pool larger than that only adds processes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _make_pool(processes: int, G: BoundedDegreeGraph, labeling: ProofLabeling):
    """A pool whose workers hold G and the labeling (tests put an in-process fake here)."""
    import multiprocessing as mp

    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
    return ctx.Pool(processes, initializer=_init_worker, initargs=(G, labeling))


def verify_property_a(G: BoundedDegreeGraph, labeling: ProofLabeling,
                      jobs: int = 1) -> Verdict:
    """Run the three-check verifier at every vertex of G.

    With jobs > 1 the vertices are cut into contiguous ranges, one per
    process, and each process sweeps its own range; the pool has
    min(jobs, usable CPUs, n) processes, and one means no pool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _validate_against_graph(G, labeling)
    workers = min(jobs, _usable_cpus(), G.n)
    if workers > 1:
        cuts = [G.n * i // workers for i in range(workers + 1)]
        ranges = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        with _make_pool(workers, G, labeling) as pool:
            parts = pool.map(_check_range, ranges, chunksize=1)
        return Verdict(tuple(itertools.chain.from_iterable(parts)))
    return Verdict(tuple(decision for _, _, decision in _judged_balls(G, labeling)))


def verify_and_decode(G: BoundedDegreeGraph,
                      labeling: ProofLabeling) -> tuple[Verdict, WitnessFunction | None]:
    """The sequential verifier, plus the encoded witness when every vertex accepts.

    Each accepting x decodes f(x)(z) = T2(z)(C(x)) / alpha over z in B_r(x)
    from the ball it was judged on; the probability check guarantees each
    f(x) sums to 1 exactly.  Every support is read from that ball's B_r(x)
    prefix, so the witness records that its supports lie in their balls.
    """
    _validate_against_graph(G, labeling)
    params = labeling.params
    decisions = []
    dists = {}
    for x, lball, decision in _judged_balls(G, labeling):
        decisions.append(decision)
        # after the first reject no witness is returned, so decoding stops
        if decision is None and len(dists) == x:
            # B_r(x) is the ball's prefix; RationalDist drops the zero entries
            inner = lball.within(params.r)
            column = map(itemgetter(lball.colors[0]), lball.tables[:inner])
            dists[x] = RationalDist(params.alpha, dict(zip(lball.vertices[:inner], column)))
    verdict = Verdict(tuple(decisions))
    if not verdict.accept:
        return verdict, None
    return verdict, _record_supports_in_balls(WitnessFunction(G, params.r, dists))


def decode_accepted_witness(G: BoundedDegreeGraph, labeling: ProofLabeling) -> WitnessFunction:
    """The witness an accepted labeling encodes; raises NotAccepted on any reject."""
    verdict, witness = verify_and_decode(G, labeling)
    if witness is None:
        rejecting = verdict.rejecting()
        raise NotAccepted(f"verifier rejects at {len(rejecting)} vertices, first: {rejecting[0]}")
    return witness


# --- structural predicates --------------------------------------------------

def is_planar(G: BoundedDegreeGraph) -> bool:
    """Planarity via the linear-time LR test, with cheap short-circuits."""
    if G.n <= 4:
        return True
    if G.m > 3 * G.n - 6:
        return False
    # A non-planar graph contains a subdivision of K5 or K3,3, whose
    # cyclomatic number m - n + c is 6 or 4, and neither subgraphs nor
    # subdivisions raise it; so at most 3 means planar.  m <= n + 2 keeps
    # the components pass to graphs where that test can succeed.
    if G.m <= G.n + 2 and G.m - G.n + len(components(G)) <= 3:
        return True
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    ok, _ = nx.check_planarity(H, counterexample=False)
    return ok


def is_acyclic(G: BoundedDegreeGraph) -> bool:
    return G.m == G.n - len(components(G))


# Every built-in predicate must be hereditary (closed under induced
# subgraphs): verify_locally_p lets one passing call on a whole component
# stand for all of its balls, and locality_radius's argument carries the
# predicate from a ball to every block inside it.
PREDICATES: dict[str, Callable[[BoundedDegreeGraph], bool]] = {
    "planar": is_planar,
    "acyclic": is_acyclic,
    "always-true": lambda G: True,
}


def resolve_predicate(name: str) -> Callable[[BoundedDegreeGraph], bool]:
    try:
        return PREDICATES[name]
    except KeyError:
        raise ValueError(
            f"unknown predicate {name!r}; known: {sorted(PREDICATES)}"
        ) from None


def locality_radius(params: SchemeParams) -> int:
    """The radius 2r at which every vertex checks the predicate.

    Soundness: every block `extract_partition` cuts is a superlevel set
    {x : f'(x)(z0) > t} with t >= 0, where f' is the witness projected onto
    the remaining set R and z0 is a vertex of R.  An atom a held by x in R
    moves to its nearest point of R, so it lands within
    d(x, a) + d(a, R) <= 2r of x (x is in R, so d(a, R) <= d(a, x) <= r).
    Hence every x with f'(x)(z0) > 0 lies in B_2r(z0), and so does the
    block.  z0 is a vertex of G that accepted the predicate on B_2r(z0),
    and every PREDICATES entry is hereditary, so the predicate holds on the
    block's induced subgraph.  The radius comes from the header's r alone;
    the header's K plays no part in it.
    """
    return 2 * params.r


def verify_locally_p(G: BoundedDegreeGraph, K: int, predicate: str) -> Verdict:
    """Check the named predicate on B_K(x) for every x.

    Every PREDICATES entry is hereditary, so when the predicate holds on a
    whole component it holds on every ball inside it: one call settles the
    component.  Inside a component where it fails, each vertex is judged on
    its own ball, and balls with identical vertex sets share one call.  A
    radius-K BFS from a probe vertex that reaches the whole component shows,
    with no further BFS, that B_K(x) is the component wherever
    dist(probe, x) + ecc(probe) <= K, and those vertices reuse the failed
    component call.
    """
    if K < 0:
        raise ValueError(f"locality radius must be nonnegative, got {K}")
    pred = resolve_predicate(predicate)
    decisions: list[str | None] = [None] * G.n
    cache: dict[frozenset[int], bool] = {}
    for comp in components(G):
        whole = frozenset(comp)
        cache[whole] = bool(pred(induced_subgraph(G, comp)))
        if cache[whole]:
            continue
        probe, dist = bfs(G.adj, (comp[0],), K)
        # ecc(probe) is known only when the probe reached the whole component
        slack = K - dist[probe[-1]] if len(probe) == len(comp) else -1
        for x in comp:
            if 0 <= slack and dist[x] <= slack:
                key = whole
            else:
                key = frozenset(bfs(G.adj, (x,), K)[0])
            if key not in cache:
                cache[key] = bool(pred(induced_subgraph(G, key)))
            if not cache[key]:
                decisions[x] = CHECK_LOCAL_P
    return Verdict(tuple(decisions))


def combine_verdicts(first: Verdict, second: Verdict) -> Verdict:
    """Conjunction; a vertex reports its first half's failure if any."""
    if len(first.decisions) != len(second.decisions):
        raise ValueError("verdicts cover different vertex counts")
    return Verdict(tuple(
        a if a is not None else b
        for a, b in zip(first.decisions, second.decisions)
    ))


def pipeline_verify(G: BoundedDegreeGraph, labeling: ProofLabeling,
                    predicate: str = "planar", jobs: int = 1) -> Verdict:
    """Full scheme verdict: uniformity checks plus the predicate on B_2r balls.

    The radius is `locality_radius` of the header's r; the header's K, a
    prover's claim nobody checks, never steers verification.
    """
    a = verify_property_a(G, labeling, jobs=jobs)
    b = verify_locally_p(G, locality_radius(labeling.params), predicate)
    return combine_verdicts(a, b)


# --- generic ball-set verifiers and their product ---------------------------

_CANON_LIMIT = 8


def canonical_ball(adj: Sequence[Sequence[int]], labels: Sequence, center: int) -> tuple:
    """Canonical form of a labeled rooted ball under center-fixing isomorphism.

    Brute force over permutations of the non-center vertices, so only
    sensible for tiny balls (<= 8 vertices).
    """
    return _canonical_ball_cached(
        tuple(tuple(row) for row in adj), tuple(labels), center
    )


@functools.lru_cache(maxsize=1 << 16)
def _canonical_ball_cached(adj: tuple[tuple[int, ...], ...], labels: tuple, center: int) -> tuple:
    k = len(adj)
    if k > _CANON_LIMIT:
        raise ValueError(f"canonicalization is brute force; {k} vertices is too many")
    others = [v for v in range(k) if v != center]
    edges = {(u, v) for u in range(k) for v in adj[u] if u < v}
    best = None
    for perm in itertools.permutations(others):
        pos = {center: 0}
        for i, v in enumerate(perm, start=1):
            pos[v] = i
        relabeled_edges = tuple(sorted(
            tuple(sorted((pos[u], pos[v]))) for u, v in edges
        ))
        relabeled_labels = tuple(labels[v] for v in sorted(pos, key=pos.get))
        cand = (k, relabeled_labels, relabeled_edges)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


class BallSetVerifier:
    """A local verifier given extensionally: the set of accepted balls."""

    def __init__(self, radius: int, accepted: frozenset):
        self.radius = radius
        self.accepted = accepted

    def accepts(self, adj: Sequence[Sequence[int]], labels: Sequence, center: int) -> bool:
        return canonical_ball(adj, labels, center) in self.accepted


class ProductVerifier:
    """Accepts a pair-labeled ball iff both factors accept their projections.

    Horizon is the max of the factors'; each factor sees its own coordinate
    of the labels on its own sub-ball.
    """

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.radius = max(first.radius, second.radius)

    def accepts(self, adj: Sequence[Sequence[int]], labels: Sequence, center: int) -> bool:
        for idx, factor in ((0, self.first), (1, self.second)):
            sub = RootedBall.around(adj, center, factor.radius)
            if not factor.accepts(sub.local_adj, [labels[v][idx] for v in sub.vertices], 0):
                return False
        return True


def product_verify(first, second) -> ProductVerifier:
    return ProductVerifier(first, second)


def run_ball_verifier(G: BoundedDegreeGraph, labels: Sequence, verifier) -> Verdict:
    """Apply a ball-set (or product) verifier at every vertex."""
    if len(labels) != G.n:
        raise MalformedLabeling(f"got {len(labels)} labels for {G.n} vertices")
    decisions = []
    for _, order, ends in ball_sweep(G, verifier.radius):
        b = RootedBall(G.adj, order, ends)
        lab = tuple(labels[p] for p in order)
        decisions.append(None if verifier.accepts(b.local_adj, lab, 0) else "ballset")
    return Verdict(tuple(decisions))


# --- verdict report ---------------------------------------------------------

def format_verdict(verdict: Verdict) -> str:
    lines = ["verdict accept" if verdict.accept else "verdict reject"]
    lines.extend(f"reject {x} {check}" for x, check in verdict.rejecting())
    return "\n".join(lines) + "\n"

