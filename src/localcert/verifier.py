"""Local verification: per-vertex acceptance from labeled balls alone.

Each vertex's decision is a pure function of its labeled (r+1)-ball after
local re-indexing, so verdicts are oblivious to vertex identities and to any
parallelism in the driver.  Three checks run per vertex x over N = B_{r+1}(x):

  properness   equal colors never repeat within ball-distance r of each other
  probability  the masses stored for x's color across B_r(x, N) sum to alpha
  l1           for every neighbor y, sum_z |T2(z)(C(x)) - T2(z)(C(y))| stays
               at or below eps' * alpha

The structural half checks a graph predicate on B_K(x); the pipeline verdict
is the conjunction.  Verdict report format:

    verdict <accept|reject>
    reject <x> <check>        (one line per rejecting vertex)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import networkx as nx

from .errors import MalformedLabeling, NotAccepted
from .graphs import BoundedDegreeGraph, ball, bfs, components, induced_subgraph
from .labeling import ProofLabeling
from .measures import RationalDist, WitnessFunction

CHECK_PROPERNESS = "properness"
CHECK_PROBABILITY = "probability"
CHECK_L1 = "l1"
CHECK_LOCAL_P = "localP"


@dataclass(frozen=True)
class VerifierParams:
    """What a single vertex check is allowed to know beyond its ball."""

    r: int
    alpha: int
    eps_prime: Fraction
    palette: int

    @classmethod
    def from_labeling(cls, labeling: ProofLabeling) -> "VerifierParams":
        p = labeling.params
        return cls(r=p.r, alpha=p.alpha, eps_prime=p.eps_prime, palette=p.palette)


@dataclass(frozen=True)
class Verdict:
    """Per-vertex outcomes: None for accept, else the failed check's name."""

    decisions: tuple[str | None, ...]

    @property
    def accept(self) -> bool:
        return all(d is None for d in self.decisions)

    def rejecting(self) -> list[tuple[int, str]]:
        return [(x, d) for x, d in enumerate(self.decisions) if d is not None]


@dataclass(frozen=True)
class LabeledBall:
    """A rooted ball carried entirely in local coordinates.

    `adj[i]` lists local neighbors of local vertex i; the center is local 0.
    Colors and tables are indexed by local ids.  Nothing here references
    parent vertex ids, which is what makes decisions anonymous.
    """

    adj: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]
    tables: tuple[tuple[int, ...], ...]
    center: int = 0


def extract_labeled_ball(G: BoundedDegreeGraph, labeling: ProofLabeling,
                         x: int, radius: int) -> LabeledBall:
    b = ball(G, x, radius)
    return LabeledBall(
        adj=b.local_adj,
        colors=tuple(labeling.colors[p] for p in b.vertices),
        tables=tuple(labeling.tables[p] for p in b.vertices),
        center=0,
    )


def check_vertex(lball: LabeledBall, params: VerifierParams) -> str | None:
    """Decide one vertex from its labeled ball; None means accept.

    On multiple failures the first check in the fixed order properness,
    probability, l1 is reported.
    """
    adj = lball.adj
    colors = lball.colors
    tables = lball.tables
    c0 = colors[lball.center]
    r = params.r

    by_color: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    for c in sorted(by_color):
        members = by_color[c]
        if len(members) < 2:
            continue
        mset = set(members)
        for y in members:
            reach, _ = bfs(adj, (y,), r)
            if any(z != y and z in mset for z in reach):
                return CHECK_PROPERNESS

    inner, _ = bfs(adj, (lball.center,), r)
    if sum(tables[z][c0] for z in inner) != params.alpha:
        return CHECK_PROBABILITY

    enum, eden = params.eps_prime.numerator, params.eps_prime.denominator
    budget = enum * params.alpha
    for y in adj[lball.center]:
        cy = colors[y]
        if cy == c0:
            continue
        total = 0
        for row in tables:
            total += abs(row[c0] - row[cy])
        if total * eden > budget:
            return CHECK_L1
    return None


def _validate_against_graph(G: BoundedDegreeGraph, labeling: ProofLabeling) -> None:
    if labeling.n != G.n:
        raise MalformedLabeling(
            f"labeling covers {labeling.n} vertices, graph has {G.n}"
        )


_WORKER: dict[str, object] = {}


def _init_worker(G: BoundedDegreeGraph, labeling: ProofLabeling, params: VerifierParams) -> None:
    _WORKER["G"] = G
    _WORKER["labeling"] = labeling
    _WORKER["params"] = params


def _check_one(x: int) -> str | None:
    """Pool task: decide vertex x from the state _init_worker left in this process."""
    G: BoundedDegreeGraph = _WORKER["G"]  # type: ignore[assignment]
    labeling: ProofLabeling = _WORKER["labeling"]  # type: ignore[assignment]
    params: VerifierParams = _WORKER["params"]  # type: ignore[assignment]
    return check_vertex(extract_labeled_ball(G, labeling, x, params.r + 1), params)


def verify_property_a(G: BoundedDegreeGraph, labeling: ProofLabeling,
                      jobs: int = 1) -> Verdict:
    """Run the three-check verifier at every vertex of G, on `jobs` processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _validate_against_graph(G, labeling)
    params = VerifierParams.from_labeling(labeling)
    if jobs > 1 and G.n > 1:
        import multiprocessing as mp

        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        with ctx.Pool(jobs, initializer=_init_worker, initargs=(G, labeling, params)) as pool:
            chunk = max(1, G.n // (4 * jobs))
            decisions = tuple(pool.map(_check_one, range(G.n), chunksize=chunk))
        return Verdict(decisions)
    radius = params.r + 1
    return Verdict(tuple(
        check_vertex(extract_labeled_ball(G, labeling, x, radius), params)
        for x in range(G.n)
    ))


def decode_accepted_witness(G: BoundedDegreeGraph, labeling: ProofLabeling,
                            verdict: Verdict | None = None) -> WitnessFunction:
    """Reconstruct the encoded witness from an accepted labeling.

    f(x)(z) = T2(z)(C(x)) / alpha over z in B_r(x); the probability check
    guarantees each row sums to alpha exactly.
    """
    if verdict is None:
        verdict = verify_property_a(G, labeling)
    if not verdict.accept:
        raise NotAccepted(
            f"verifier rejects at {len(verdict.rejecting())} vertices, "
            f"first: {verdict.rejecting()[0]}"
        )
    p = labeling.params
    dists = {}
    for x in range(G.n):
        reach, _ = bfs(G.adj, (x,), p.r)
        cx = labeling.colors[x]
        num = {}
        for z in reach:
            t = labeling.tables[z][cx]
            if t:
                num[z] = t
        dists[x] = RationalDist(p.alpha, num)
    return WitnessFunction(G, p.r, dists)


# --- structural predicates --------------------------------------------------

def is_planar(G: BoundedDegreeGraph) -> bool:
    """Planarity via the linear-time LR test, with cheap short-circuits."""
    if G.n <= 4:
        return True
    if G.m > 3 * G.n - 6:
        return False
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    ok, _ = nx.check_planarity(H, counterexample=False)
    return ok


def is_acyclic(G: BoundedDegreeGraph) -> bool:
    return G.m == G.n - len(components(G))


PREDICATES: dict[str, Callable[[BoundedDegreeGraph], bool]] = {
    "planar": is_planar,
    "acyclic": is_acyclic,
    "always-true": lambda G: True,
}


def resolve_predicate(predicate: str | Callable[[BoundedDegreeGraph], bool]) -> Callable[[BoundedDegreeGraph], bool]:
    if callable(predicate):
        return predicate
    try:
        return PREDICATES[predicate]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; known: {sorted(PREDICATES)}"
        ) from None


def verify_locally_p(G: BoundedDegreeGraph, K: int,
                     predicate: str | Callable[[BoundedDegreeGraph], bool]) -> Verdict:
    """Check predicate(B_K(x)) for every x.

    Balls with identical vertex sets share one predicate call, which makes
    the common case (K beyond the component diameter) a handful of calls.
    """
    if K < 0:
        raise ValueError(f"locality radius must be nonnegative, got {K}")
    pred = resolve_predicate(predicate)
    decisions: list[str | None] = [None] * G.n
    cache: dict[frozenset[int], bool] = {}
    for comp in components(G):
        probe, dist = bfs(G.adj, (comp[0],), K)
        # 2 * ecc(probe vertex) bounds every eccentricity in the component,
        # so one predicate call can settle the whole component
        if len(probe) == len(comp) and 2 * dist[probe[-1]] <= K:
            ok = bool(pred(induced_subgraph(G, comp)))
            if not ok:
                for x in comp:
                    decisions[x] = CHECK_LOCAL_P
            continue
        for x in comp:
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
                    predicate: str | Callable[[BoundedDegreeGraph], bool] = "planar",
                    jobs: int = 1) -> Verdict:
    """Full scheme verdict: uniformity checks plus predicate on B_K balls.

    K comes from the labeling header, never from the graph, so a transplanted
    labeling is judged on the prover's own claim.
    """
    _validate_against_graph(G, labeling)
    a = verify_property_a(G, labeling, jobs=jobs)
    b = verify_locally_p(G, labeling.k_local, predicate)
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


def _truncate_ball(adj: Sequence[Sequence[int]], labels: Sequence, center: int,
                   radius: int) -> tuple[tuple[tuple[int, ...], ...], tuple, int]:
    _, dist = bfs(adj, (center,), radius)
    order = sorted(dist, key=lambda v: (dist[v], v))
    pos = {v: i for i, v in enumerate(order)}
    sub_adj = tuple(
        tuple(sorted(pos[w] for w in adj[v] if w in pos)) for v in order
    )
    sub_labels = tuple(labels[v] for v in order)
    return sub_adj, sub_labels, pos[center]


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
            sub_adj, sub_labels, sub_center = _truncate_ball(
                adj, [lab[idx] for lab in labels], center, factor.radius
            )
            if not factor.accepts(sub_adj, sub_labels, sub_center):
                return False
        return True


def product_verify(first, second) -> ProductVerifier:
    return ProductVerifier(first, second)


def run_ball_verifier(G: BoundedDegreeGraph, labels: Sequence, verifier) -> Verdict:
    """Apply a ball-set (or product) verifier at every vertex."""
    if len(labels) != G.n:
        raise MalformedLabeling(f"got {len(labels)} labels for {G.n} vertices")
    decisions = []
    for x in range(G.n):
        b = ball(G, x, verifier.radius)
        lab = tuple(labels[p] for p in b.vertices)
        decisions.append(None if verifier.accepts(b.local_adj, lab, 0) else "ballset")
    return Verdict(tuple(decisions))


# --- verdict report ---------------------------------------------------------

def format_verdict(verdict: Verdict) -> str:
    lines = ["verdict accept" if verdict.accept else "verdict reject"]
    lines.extend(f"reject {x} {check}" for x, check in verdict.rejecting())
    return "\n".join(lines) + "\n"


def write_verdict_file(verdict: Verdict, path: str | Path) -> None:
    Path(path).write_text(format_verdict(verdict))
