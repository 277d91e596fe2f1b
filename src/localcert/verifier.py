"""Local verification: per-vertex acceptance from labeled balls alone.

Each vertex x decides from its labeled ball N = B_{r+1}(x), read from one
level-by-level sweep over G (`graphs.ball_sweep`): the ball in BFS order with
its level boundaries, so B_r(x) and x's neighbors are prefixes, the colors
of x and its neighbors, and the label columns the checks sum: x's own color
column over N, and one column per neighbor color over B_r(x), each gathered
in one C call from the labeling's transposed tables (`ProofLabeling.columns`).
A decision never reads parent vertex ids or the ball's adjacency, so verdicts
are oblivious to vertex identities and to how `verify_property_a` splits the work.
Beyond its ball, a vertex reads only the labels header (`labeling.params`).
The sweep reads ids only to hand a vertex l1 sums its neighbors already
computed, which equal its own (below).  Three
checks run per vertex on N, with T2(z)(q) the table entry of z for color q,
and the structural half adds a fourth on B_2r(x):

  probability  sum_{z in B_r(x)} T2(z)(C(x)) = alpha
  support      T2(z)(C(x)) = 0 on shell r+1 of N, the z with d(x, z) = r+1
  l1           for every neighbor color q = C(y) != C(x),
               sum_{z in B_r(x)} |T2(z)(C(x)) - T2(z)(q)|
                 + alpha - sum_{z in B_r(x)} T2(z)(q)  <=  eps' * alpha
  localP       a hereditary graph predicate holds on B_2r(x), a radius
               derived from the header's r (`locality_radius`)

Soundness, in the sense of approximate proof labeling schemes
(Censor-Hillel, Paz and Perry): whatever the labels, if every vertex accepts,
the decoded witness is eps'-uniform.  The decoder reads
f(x)(z) = T2(z)(C(x)) / alpha on B_r(x), zero elsewhere.  Let y be a neighbor of x that passes its probability and support
checks, with C(y) != C(x).  A z in B_r(x) outside B_r(y) lies on shell r+1
of y's ball, so T2(z)(C(y)) = 0 there, and y's mass on B_r(y) outside B_r(x)
is alpha minus its mass on B_r(x).  So x's l1 sum is exactly
alpha * l1(f(x), f(y)), read from B_r(x) rows alone.  When C(y) = C(x), the
support checks at both ends make f(x) = f(y).  Hence when every vertex
accepts, every edge of the decoded witness measures at most eps'.  No step
uses a proper coloring.  Honest labels keep the sums exact because the
prover colors at distance 2r+1 (`labeling.build_proof`): a second owner of
C(x) on shell r+1, or of C(y) inside B_r(x), would lie within 2r+1 of x or y.

The same identity lets a sweep sum each edge once.  Let x and its neighbor y
both pass their probability and support checks.  Then x's l1 sum for C(y) is
alpha * l1(f(x), f(y)) because y passes, and y's sum for C(x) is
alpha * l1(f(y), f(x)) because x passes: one integer.  So the sweep keeps,
for each vertex that passed both checks, the sums it computed per neighbor
color until its last neighbor in the sweep has read them, and a later
neighbor that has passed both checks of its own takes its sum for that color
from there instead of gathering a column and summing (`check_vertex`'s
`totals`).  Every decision, and so every verdict byte, is the one each
vertex reaches alone; a pool worker shares within its own range.

`verify_and_decode` also returns the witness the accepting vertices read from
those same balls, the B_r(x) prefix of x's own column;
`decode_accepted_witness` reads the same and stops at the first reject.  The
pipeline verdict is the conjunction of property A and the predicate, and a
vertex reports its first failed check in the order listed.  Verdict report
format:

    verdict <accept|reject>
    reject <x> <check>        (one line per rejecting vertex; <check> is
                               probability, support, l1 or localP)
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from operator import itemgetter, sub
from typing import Callable, Sequence

from .errors import MalformedLabeling, NotAccepted
from .graphs import BoundedDegreeGraph, RootedBall, ball_sweep, bfs, components, induced_subgraph
from .labeling import ProofLabeling, SchemeParams
from .measures import RationalDist, WitnessFunction, _record_supports_in_balls
from .planarity import lr_planar

CHECK_PROBABILITY = "probability"
CHECK_SUPPORT = "support"
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


def _gatherer(order: Sequence[int]) -> Callable[[Sequence], tuple]:
    """One C call that reads a sequence at the positions in `order`, as a tuple.

    `itemgetter` of a single index returns the item bare, so a one-vertex
    ball gets a function that wraps it.
    """
    if len(order) == 1:
        (i,) = order
        return lambda seq: (seq[i],)
    return itemgetter(*order)


class LabeledBall(RootedBall):
    """A rooted ball as its center sees it: its colors and its label columns, in local order.

    `colors[i]` is local i's color over the B_1 prefix (the center, then its
    neighbors); `own_column` is the center's own color column over the whole
    ball, and `column(q)` color q's column over the B_r prefix, `inner`
    vertices long.  Each is gathered from the labeling (the columns from its
    transposed tables, `ProofLabeling.columns`) in one C call.  A decision
    reads the level boundaries and the labels; never `vertices`, which is
    there for the decoder.
    """

    __slots__ = ("colors", "own_column", "inner", "_gather_inner", "_columns")

    def __init__(self, adj: Sequence[Sequence[int]], order: Sequence[int],
                 ends: Sequence[int], labeling: ProofLabeling):
        super().__init__(adj, order, ends)
        columns = self._columns = labeling.columns
        self.colors = _gatherer(order[:self.within(1)])(labeling.colors)
        self.own_column = _gatherer(order)(columns[self.colors[0]])
        self.inner = self.within(labeling.params.r)
        self._gather_inner = _gatherer(order[:self.inner])

    def column(self, q: int) -> tuple[int, ...]:
        """Color q's table entries over B_r of the center, in local order."""
        return self._gather_inner(self._columns[q])


def check_vertex(lball: LabeledBall, params: SchemeParams,
                 totals: dict[int, int] | None = None) -> str | None:
    """Decide one vertex from its labeled ball; None means accept.

    On multiple failures the first check in the fixed order probability,
    support, l1 is reported.  Sums run over columns of exact integers; the
    l1 sum is alpha * l1(f(x), f(y)) whenever y passes its own first two
    checks (module docstring).  `totals` maps a neighbor color to the
    center's l1 sum for it: once the center passes its first two checks,
    the sums already there are used as they stand, and the ones computed
    here are written back.
    """
    col0 = lball.own_column
    inner = lball.inner
    own = col0[:inner]
    alpha = params.alpha
    if sum(own) != alpha:
        return CHECK_PROBABILITY
    if any(col0[inner:]):
        return CHECK_SUPPORT

    colors = lball.colors
    if totals is None:
        totals = {}
    enum, eden = params.eps_prime.numerator, params.eps_prime.denominator
    budget = enum * alpha
    # a neighbor of the center's color decodes to f(x) itself
    for cy in set(colors[1:]) - {colors[0]}:
        total = totals.get(cy)
        if total is None:
            col = lball.column(cy)
            total = totals[cy] = sum(map(abs, map(sub, own, col))) + alpha - sum(col)
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
    """Yield (x, labeled B_{r+1}(x), decision) for x = 0..n-1, or for `vertices` only.

    Each edge's l1 sum is computed once when both ends pass probability and
    support (module docstring): once y has passed both, `sums[y]` holds its
    sums per neighbor color until its largest neighbor reads them, and a
    neighbor x is handed y's sum for C(x) as its own sum for C(y).
    """
    params = labeling.params
    adj = G.adj
    colors = labeling.colors
    sums: dict[int, dict[int, int]] = {}
    for x, order, ends in ball_sweep(G, params.r + 1, vertices):
        lball = LabeledBall(adj, order, ends, labeling)
        cx = colors[x]
        totals = {}
        for y in adj[x]:
            held = sums.pop(y, ()) if adj[y][-1] == x else sums.get(y, ())
            if cx in held:
                totals[colors[y]] = held[cx]
        decision = check_vertex(lball, params, totals)
        if decision in (None, CHECK_L1) and adj[x] and adj[x][-1] > x:
            sums[x] = totals
        yield x, lball, decision


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


def _decoding_sweep(G: BoundedDegreeGraph, labeling: ProofLabeling):
    """Yield (x, decision, f(x)) for x = 0..n-1; f(x) is None from the first reject on.

    Each accepting x decodes f(x)(z) = T2(z)(C(x)) / alpha over z in B_r(x)
    from the ball it was judged on: the B_r(x) prefix of its own column,
    zeros dropped in C.  The probability check guarantees each f(x) sums to
    1 exactly, and every support lies in its ball, so a witness built from
    these may record that.  After a reject no witness is returned, so
    decoding stops.
    """
    _validate_against_graph(G, labeling)
    alpha = labeling.params.alpha
    decoding = True
    for x, lball, decision in _judged_balls(G, labeling):
        decoding = decoding and decision is None
        dist = None
        if decoding:
            inner = lball.inner
            mass = lball.own_column[:inner]
            support = itertools.compress(lball.vertices[:inner], mass)
            dist = RationalDist(alpha, dict(zip(support, itertools.compress(mass, mass))))
        yield x, decision, dist


def verify_and_decode(G: BoundedDegreeGraph,
                      labeling: ProofLabeling) -> tuple[Verdict, WitnessFunction | None]:
    """The sequential verifier, plus the encoded witness when every vertex accepts.

    Both come from one pass over the balls (`_decoding_sweep`), and every
    vertex is judged, so the verdict is the whole of `verify_property_a`'s.
    """
    decisions = []
    dists = {}
    for x, decision, dist in _decoding_sweep(G, labeling):
        decisions.append(decision)
        if dist is not None:
            dists[x] = dist
    verdict = Verdict(tuple(decisions))
    if not verdict.accept:
        return verdict, None
    return verdict, _record_supports_in_balls(WitnessFunction(G, labeling.params.r, dists))


def decode_accepted_witness(G: BoundedDegreeGraph, labeling: ProofLabeling) -> WitnessFunction:
    """The witness an accepted labeling encodes; raises NotAccepted at the first reject.

    The sweep stops at the first rejecting vertex in id order, so no vertex
    after it is judged.
    """
    dists = {}
    for x, decision, dist in _decoding_sweep(G, labeling):
        if decision is not None:
            raise NotAccepted(f"verifier rejects at vertex {x} ({decision} check)")
        dists[x] = dist
    return _record_supports_in_balls(WitnessFunction(G, labeling.params.r, dists))


# --- structural predicates --------------------------------------------------

def is_planar(G: BoundedDegreeGraph) -> bool:
    """Planarity by the package's own LR test, after cheap short-circuits.

    `planarity.lr_planar` runs the testing half of the LR test on G's own
    adjacency and builds no embedding.
    """
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
    return lr_planar(G.adj)


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


def verify_locally_p(G: BoundedDegreeGraph, radius: int, predicate: str) -> Verdict:
    """Check the named predicate on B_radius(x) for every x.

    Every PREDICATES entry is hereditary, so when the predicate holds on a
    whole component it holds on every ball inside it: one call settles the
    component.  Inside a component where it fails, each vertex is judged on
    its own ball, and balls with identical vertex sets share one call.  A BFS
    of that radius from a probe vertex that reaches the whole component
    shows, with no further BFS, that B_radius(x) is the component wherever
    dist(probe, x) + ecc(probe) <= radius, and those vertices reuse the
    failed component call.
    """
    if radius < 0:
        raise ValueError(f"locality radius must be nonnegative, got {radius}")
    pred = resolve_predicate(predicate)
    decisions: list[str | None] = [None] * G.n
    cache: dict[frozenset[int], bool] = {}
    for comp in components(G):
        whole = frozenset(comp)
        # a connected G is its own component, and needs no copy
        cache[whole] = bool(pred(G if len(comp) == G.n else induced_subgraph(G, comp)))
        if cache[whole]:
            continue
        probe, dist = bfs(G.adj, (comp[0],), radius)
        # ecc(probe) is known only when the probe reached the whole component
        slack = radius - dist[probe[-1]] if len(probe) == len(comp) else -1
        for x in comp:
            if 0 <= slack and dist[x] <= slack:
                key = whole
            else:
                key = frozenset(bfs(G.adj, (x,), radius)[0])
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

