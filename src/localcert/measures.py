"""Vertex-indexed probability measures and uniformity witnesses.

Everything here is exact: distributions are integer numerators over one
positive denominator, l1 distances are Fractions, and no float appears
anywhere.  A witness assigns each vertex x a distribution supported inside
B_r(x); its quality is the maximum l1 distance across edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import EmptySubgraph, InfeasibleAlpha, NotUniform
from .graphs import BoundedDegreeGraph, ball_sweep, bfs


class RationalDist:
    """Probability distribution over vertex ids with one shared denominator.

    Stored sparsely: `num` maps vertex -> positive integer numerator and the
    numerators sum to `den` exactly.
    """

    __slots__ = ("den", "num")

    def __init__(self, den: int, num: Mapping[int, int]):
        """Validate and adopt `num`: a dict without zero entries is kept, not copied.

        The caller hands such a dict over and must not mutate it afterwards;
        zero entries are dropped into a fresh dict.
        """
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        values = num.values()
        # min and sum scan the numerators in C; only a failing dist is walked for its entry
        if values and min(values) < 0:
            z, c = next((z, c) for z, c in num.items() if c < 0)
            raise ValueError(f"negative numerator {c} at vertex {z}")
        total = sum(values)
        if total != den:
            raise ValueError(f"numerators sum to {total}, expected {den}")
        if 0 in values:
            num = {z: c for z, c in num.items() if c}
        elif not isinstance(num, dict):
            num = dict(num)
        self.den = den
        self.num = num

    @classmethod
    def delta(cls, z: int) -> "RationalDist":
        return cls(1, {z: 1})

    @classmethod
    def uniform(cls, vertices: Iterable[int]) -> "RationalDist":
        vs = list(vertices)
        if not vs:
            raise ValueError("uniform distribution needs a nonempty support")
        return cls(len(vs), dict.fromkeys(vs, 1))

    def value(self, z: int) -> Fraction:
        return Fraction(self.num.get(z, 0), self.den)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.num))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalDist):
            return NotImplemented
        if set(self.num) != set(other.num):
            return False
        return all(c * other.den == other.num[z] * self.den for z, c in self.num.items())

    def __hash__(self) -> int:
        g = math.gcd(self.den, *self.num.values()) if self.num else self.den
        return hash((self.den // g, tuple(sorted((z, c // g) for z, c in self.num.items()))))

    def __repr__(self) -> str:
        inside = ", ".join(f"{z}: {c}/{self.den}" for z, c in sorted(self.num.items()))
        return f"RationalDist({inside})"


def l1_distance(p: RationalDist, q: RationalDist) -> Fraction:
    """Exact l1 distance between two distributions."""
    pd, qd = p.den, q.den
    total = 0
    for z, c in p.num.items():
        total += abs(c * qd - q.num.get(z, 0) * pd)
    for z, c in q.num.items():
        if z not in p.num:
            total += c * pd
    return Fraction(total, pd * qd)


class WitnessFunction:
    """Per-vertex distributions with a declared support radius.

    `vertices` lists the domain; a full-graph witness has domain 0..n-1.  A
    relative witness (domain a proper subset) arises from projection and also
    keeps its distributions supported on the domain.

    Immutable after construction: nothing may rebind or mutate its fields or
    distributions, because check_uniformity caches its report on the witness.
    Next to that report, `_supports_in_balls` records that a ball sweep has
    already shown every support inside B_radius(x) (see `_record_supports_in_balls`),
    so the measurement need not sweep the balls again.
    """

    def __init__(self, graph: BoundedDegreeGraph, radius: int,
                 dists: Mapping[int, RationalDist],
                 vertices: Iterable[int] | None = None):
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        if vertices is None:
            vs = tuple(range(graph.n))
        else:
            vs = tuple(sorted(set(vertices)))
            if vs and not (0 <= vs[0] and vs[-1] < graph.n):
                raise ValueError("domain vertex outside graph")
        if set(dists) != set(vs):
            raise ValueError("witness must assign exactly one distribution per domain vertex")
        self.graph = graph
        self.radius = radius
        self.dists = dict(dists)
        self.vertices = vs
        self.vertex_set = frozenset(vs)
        self._uniformity: UniformityReport | None = None
        self._supports_in_balls = False

    @property
    def is_full(self) -> bool:
        return len(self.vertices) == self.graph.n

    def dist(self, x: int) -> RationalDist:
        return self.dists[x]

    def domain_edges(self) -> list[tuple[int, int]]:
        """Edges of the subgraph induced on the domain, ascending."""
        if self.is_full:
            return self.graph.edges()
        vset = self.vertex_set
        out = []
        for u in self.vertices:
            for w in self.graph.adj[u]:
                if u < w and w in vset:
                    out.append((u, w))
        return sorted(out)


@dataclass(frozen=True)
class UniformityReport:
    """Exact measurement of a witness: max edge l1 plus support validity."""

    max_edge_l1: Fraction
    worst_edge: tuple[int, int] | None
    support_ok: bool
    bad_support_vertex: int | None

    def satisfies(self, eps: Fraction) -> bool:
        return self.support_ok and self.max_edge_l1 <= eps


def _record_supports_in_balls(w: WitnessFunction) -> WitnessFunction:
    """Record on w that a ball sweep already showed each support inside B_radius(x) and the domain.

    Only a builder that read each support from that sweep (or took it from a
    witness whose supports were checked) may record it; w is returned.
    """
    w._supports_in_balls = True
    return w


def _bad_support_vertex(w: WitnessFunction) -> int | None:
    """The first domain vertex whose support leaves B_radius(x) or the domain, or None.

    A recorded witness, or one with a cached report, needs no sweep.  The
    balls come from `ball_sweep`, so a pass that finds every support valid
    leaves max |B_s| in G's memo for every s <= radius.
    """
    if w._supports_in_balls:
        return None
    if w._uniformity is not None:
        return w._uniformity.bad_support_vertex
    for x, reach, _ in ball_sweep(w.graph, w.radius):
        if x not in w.vertex_set:
            continue
        supp = w.dists[x].num.keys()
        if not (supp <= w.vertex_set and supp <= set(reach)):
            return x
    return None


def check_uniformity(w: WitnessFunction) -> UniformityReport:
    """Measure max edge l1 over the domain and validate supports.

    Support of each f(x) must lie in B_radius(x, G) intersected with the
    domain; the radius-r sweep that checks it runs only for a witness whose
    builder did not record the fact.  The measured maximum is exact, and the
    worst edge is the first edge attaining it, ascending; thresholding is the
    caller's business.  The report is computed once per witness and then
    cached on it.
    """
    if w._uniformity is not None:
        return w._uniformity
    bad_vertex = _bad_support_vertex(w)
    best = Fraction(0)
    worst = None
    for u, v in w.domain_edges():
        d = l1_distance(w.dists[u], w.dists[v])
        if d > best:
            best = d
            worst = (u, v)
    w._uniformity = UniformityReport(best, worst, bad_vertex is None, bad_vertex)
    return w._uniformity


def _require_uniform(rep: UniformityReport, eps: Fraction) -> None:
    """Raise NotUniform unless the report shows valid supports and max edge l1 <= eps."""
    if not rep.satisfies(eps):
        raise NotUniform(
            f"witness measures {rep.max_edge_l1} at edge {rep.worst_edge}, "
            f"support_ok={rep.support_ok}; need max <= {eps}"
        )


def tighten_radius(w: WitnessFunction) -> WitnessFunction:
    """The same witness with its radius cut to the farthest support atom (at least 1).

    Exact, one BFS per vertex.  Each BFS stops at the best reach found so far,
    and only a vertex with an atom beyond it is searched again out to the
    declared radius, so the total work tracks the final reach rather than the
    declared radius.  These searches see every atom, so when the witness is
    full and every atom was reached within the final radius, the result
    records that its supports lie in their balls and check_uniformity runs
    no sweep of its own; otherwise nothing is recorded.
    """
    adj = w.graph.adj
    best = 1
    reached = w.is_full
    for x in w.vertices:
        supp = w.dists[x].num.keys()
        _, dist = bfs(adj, (x,), best)
        if all(z in dist for z in supp):
            continue
        _, dist = bfs(adj, (x,), w.radius)
        found = [dist[z] for z in supp if z in dist]
        reached = reached and len(found) == len(supp)
        best = max([best] + found)
    # best exceeds the declared radius only when that is 0
    out = w if best >= w.radius else WitnessFunction(w.graph, best, w.dists, w.vertices)
    return _record_supports_in_balls(out) if reached and best <= w.radius else out


def uniform_ball_witness(G: BoundedDegreeGraph, r: int) -> WitnessFunction:
    """The canonical witness: f(x) = uniform on B_r(x, G).

    Each support is the ball itself, so the witness records that its supports
    lie in their balls, and the completed sweep leaves max |B_s| in G's memo
    for every s <= r.
    """
    if r < 1:
        raise ValueError(f"witness radius must be at least 1, got {r}")
    dists = {x: RationalDist.uniform(ball) for x, ball, _ in ball_sweep(G, r)}
    return _record_supports_in_balls(WitnessFunction(G, r, dists))


def discretize(f: RationalDist, alpha: int) -> RationalDist:
    """Round f to a distribution with denominator alpha, exactly preserving mass.

    Each value is floored to a multiple of 1/alpha; the mass deficit
    alpha - sum(floors) is returned by raising that many entries by 1/alpha,
    chosen by largest fractional part, ties by smaller vertex id.  Per entry
    the error is < 1/alpha, so ||f - g||_1 <= |support| / alpha.  A
    distribution already over alpha is returned as it is.
    """
    if alpha < 1:
        raise InfeasibleAlpha(f"alpha must be a positive integer, got {alpha}")
    if f.den == alpha:
        return f
    floors: dict[int, int] = {}
    fracs: list[tuple[int, int]] = []  # (-frac_numerator, vertex)
    total = 0
    for z, c in f.num.items():
        q, rem = divmod(c * alpha, f.den)
        floors[z] = q
        total += q
        if rem:
            fracs.append((-rem, z))
    need = alpha - total
    assert 0 <= need <= len(fracs), "rounding deficit out of range"
    fracs.sort()
    for _, z in fracs[:need]:
        floors[z] += 1
    return RationalDist(alpha, floors)


def project_witness(w: WitnessFunction, f_vertices: Iterable[int]) -> WitnessFunction:
    """Push a full-graph witness onto an induced subgraph via nearest points.

    Every atom at t moves to the vertex of F closest to t in G (ties by
    smallest id).  The result is a relative witness on F with radius 2r:
    the moved atom stays within d(x,t) + d(t,F) <= 2r of x.
    """
    if not w.is_full:
        raise ValueError("projection expects a full-graph witness")
    G = w.graph
    fvs = sorted(set(f_vertices))
    if not fvs:
        raise EmptySubgraph("cannot project onto an empty vertex set")
    if fvs[0] < 0 or fvs[-1] >= G.n:
        raise ValueError("projection target outside graph")

    # pass 1: multi-source BFS distances to F
    order, dist = bfs(G.adj, fvs)

    # pass 2: nearest point in F, ties by smallest id; by induction the
    # minimum over already-resolved closer neighbors realizes the tie rule
    tau: list[int | None] = [None] * G.n
    for v in fvs:
        tau[v] = v
    for u in order:
        if tau[u] is not None:
            continue
        du = dist[u]
        tau[u] = min(
            tau[z] for z in G.adj[u] if dist[z] == du - 1 and tau[z] is not None
        )

    dists: dict[int, RationalDist] = {}
    for x in fvs:
        src = w.dists[x]
        moved: dict[int, int] = {}
        for t, c in src.num.items():
            target = tau[t]
            assert target is not None, "support atom unreachable from F"
            moved[target] = moved.get(target, 0) + c
        dists[x] = RationalDist(src.den, moved)
    return WitnessFunction(G, 2 * w.radius, dists, fvs)
