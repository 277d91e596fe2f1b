"""Vertex-indexed probability measures and uniformity witnesses.

Everything here is exact: distributions are integer numerators over one
positive denominator, l1 distances are Fractions, and no float appears
anywhere.  A witness assigns each vertex x a distribution supported inside
B_r(x); its quality is the maximum l1 distance across edges.  The
uniformity pass keeps each edge's l1 as an integer (numerator, denominator)
pair and its running maximum the same way, comparing by
cross-multiplication; only the reported maximum becomes a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter, mul, sub
from typing import Iterable, Mapping, NamedTuple

from .errors import InfeasibleAlpha, NotUniform
from .graphs import BoundedDegreeGraph, _levels, ball_sweep, bfs


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
    """Exact l1 distance between two distributions (see `_l1_pair`)."""
    return Fraction(*_l1_pair(p, q))


def _l1_pair(p: RationalDist, q: RationalDist) -> tuple[int, int]:
    """The l1 distance of p and q as an integer pair (numerator, denominator), unreduced.

    Both are brought onto the least common denominator pd * (qd // g), with
    g = gcd(pd, qd): p's numerators scale by qd // g and q's by pd // g.
    Over one shared denominator both factors are 1, so witnesses that share
    a large denominator (the separator witnesses) cost no multi-digit
    cross-multiplication.  q's values on p's support are gathered in one C
    call; the rest of q's mass, qd minus what that gathered, lies outside
    p's support.
    """
    pd, qd = p.den, q.den
    g = math.gcd(pd, qd)
    ps, qs = qd // g, pd // g
    pn = p.num
    qv = list(map(q.num.get, pn, repeat(0)))
    pv = pn.values() if ps == 1 else map(mul, pn.values(), repeat(ps))
    qw = qv if qs == 1 else map(mul, qv, repeat(qs))
    total = sum(map(abs, map(sub, pv, qw))) + qs * (qd - sum(qv))
    return total, pd * ps


class WitnessFunction:
    """Per-vertex distributions on the whole graph, with a declared support radius.

    `dists` maps each vertex 0..n-1 of `graph` to its distribution.
    Immutable after construction: nothing may rebind or mutate its fields or
    distributions, because check_uniformity caches its report on the witness.
    Next to that report, `_supports_in_balls` records that a ball sweep has
    already shown every support inside B_radius(x) (see `_record_supports_in_balls`),
    so the measurement need not sweep the balls again.
    """

    def __init__(self, graph: BoundedDegreeGraph, radius: int,
                 dists: Mapping[int, RationalDist]):
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        if set(dists) != set(range(graph.n)):
            raise ValueError("witness must assign exactly one distribution per vertex 0..n-1")
        self.graph = graph
        self.radius = radius
        self.dists = dict(dists)
        self._uniformity: UniformityReport | None = None
        self._supports_in_balls = False


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
    """Record on w that a ball sweep already showed each support inside B_radius(x).

    Only a builder that read each support from that sweep (or took it from a
    witness whose supports were checked) may record it; w is returned.
    """
    w._supports_in_balls = True
    return w


def _bad_support_vertex(w: WitnessFunction) -> int | None:
    """The first vertex whose support leaves B_radius(x), or None.

    A recorded witness, or one with a cached report, needs no sweep.
    """
    if w._supports_in_balls:
        return None
    if w._uniformity is not None:
        return w._uniformity.bad_support_vertex
    for x, reach, _ in ball_sweep(w.graph, w.radius):
        if not w.dists[x].num.keys() <= set(reach):
            return x
    return None


def check_uniformity(w: WitnessFunction) -> UniformityReport:
    """Measure max edge l1 over the graph's edges and validate supports.

    Support of each f(x) must lie in B_radius(x, G); the radius-r sweep that
    checks it runs only for a witness whose builder did not record the fact.
    The measured maximum is exact, and the worst edge is the first edge
    attaining it, ascending; thresholding is the caller's business.  The
    running maximum is an integer pair compared by cross-multiplication, and
    only the reported one becomes a Fraction.  The report is computed once
    per witness and then cached on it.
    """
    if w._uniformity is not None:
        return w._uniformity
    bad_vertex = _bad_support_vertex(w)
    dists = w.dists
    best, best_den = 0, 1
    worst = None
    for u, v in w.graph.edges():
        num, den = _l1_pair(dists[u], dists[v])
        if num * best_den > best * den:
            best, best_den = num, den
            worst = (u, v)
    w._uniformity = UniformityReport(Fraction(best, best_den), worst, bad_vertex is None,
                                     bad_vertex)
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

    A radius-0 witness whose atoms all lie in B_0 (every f(x) is the point
    mass at x) comes back at radius 1.  When some atom lies beyond the
    declared radius, the witness stays invalid: its radius becomes the
    farthest distance of an atom the searches did reach, at least 1, and a
    witness declared at radius 0 keeps radius 0.

    Exact, one level search per vertex with one stamp list (`graphs._levels`),
    so an atom was reached iff its stamp is the vertex's own.  Each search
    stops at the best reach found so far, and only a vertex with an atom
    beyond it is searched again, by BFS out to the declared radius, so the
    total work tracks the final reach rather than the declared radius.
    These searches see every atom, so when every atom was reached within
    the final radius, the result records that its supports lie in their
    balls and check_uniformity runs no sweep of its own; otherwise nothing
    is recorded.
    """
    adj, n = w.graph.adj, w.graph.n
    mark = [-1] * n
    # the reach so far: a radius-0 witness is first searched at 0, not beyond it
    best = min(1, w.radius)
    reached = True
    # an atom the search missed keeps an earlier center's stamp, or -1; an id
    # past n - 1 raises IndexError, and one check per witness leaves a negative
    # id, which would index from the end, to the re-searches
    stamped = min(map(min, map(attrgetter("num"), w.dists.values())), default=0) >= 0
    for x in range(n):
        supp = w.dists[x].num.keys()
        _levels(adj, x, best, mark)
        try:
            if stamped and min(map(mark.__getitem__, supp)) == x:
                continue
        except IndexError:
            pass
        _, dist = bfs(adj, (x,), w.radius)
        found = [dist[z] for z in supp if z in dist]
        reached = reached and len(found) == len(supp)
        best = max([best] + found)
    radius = max(best, 1) if reached else best
    out = w if radius == w.radius else WitnessFunction(w.graph, radius, w.dists)
    return _record_supports_in_balls(out) if reached else out


def uniform_ball_witness(G: BoundedDegreeGraph, r: int) -> WitnessFunction:
    """The canonical witness: f(x) = uniform on B_r(x, G).

    Each support is the ball itself, so the witness records that its supports
    lie in their balls.
    """
    if r < 1:
        raise ValueError(f"witness radius must be at least 1, got {r}")
    dists = {x: RationalDist.uniform(ball) for x, ball, _ in ball_sweep(G, r)}
    return _record_supports_in_balls(WitnessFunction(G, r, dists))


class RoundingPlan(NamedTuple):
    """`discretize`'s rule for one (denominator, numerator counts) shape; see `rounding_plan`.

    An atom with numerator c gets lift[c] units of 1/alpha, and `extra` more
    units go to the smallest ids among the atoms whose numerator lies in
    `tied` (None: every atom).  `error` is ||discretize(f, alpha) - f||_1.
    """

    lift: dict[int, int]
    tied: frozenset[int] | None
    extra: int
    error: Fraction


def discretize(f: RationalDist, alpha: int) -> RationalDist:
    """Round f to a distribution with denominator alpha, exactly preserving mass.

    Each value is floored to a multiple of 1/alpha; the mass deficit
    alpha - sum(floors) is returned by raising that many entries by 1/alpha,
    chosen by largest fractional part, ties by smaller vertex id.  Per entry
    the error is < 1/alpha, so ||f - g||_1 < |support| / alpha; the exact
    error is `rounding_plan`'s.  A distribution already over alpha is
    returned as it is.  The prover (`labeling.build_proof`) applies this
    rule while it writes its tables; this function is the reference its
    tests compare against.
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


def _floored(den: int, counts: Mapping[int, int], alpha: int) -> int:
    """The remainders c * alpha mod den that `discretize`'s rule leaves floored, summed.

    counts is as in `rounding_plan`.  The remainders sum to the deficit times
    den, and the deficit's worth of largest remainders are raised; the rest
    is the sum.  Twice it, over alpha * den, is the rounding's l1 error.
    """
    rems = sorted([(c * alpha % den, k) for c, k in counts.items()], reverse=True)
    total = sum([rem * k for rem, k in rems])
    need = total // den
    for rem, k in rems:
        if need <= k:
            return total - rem * need
        total -= rem * k
        need -= k
    return total


def rounding_plan(den: int, counts: Mapping[int, int], alpha: int) -> RoundingPlan:
    """`discretize`'s rule at alpha for every f over den whose numerators occur `counts` times.

    counts maps each distinct numerator c to how many atoms carry it; the
    rounding depends on nothing else but the atoms' ids, which only break
    ties.  An atom's remainder is rem = c * alpha mod den.  Whole classes of
    equal remainders are raised, largest first, while the deficit covers
    them; the next class is raised in part, at its smallest ids.  A floored
    atom is off by rem / (alpha * den) and a raised one by
    (den - rem) / (alpha * den); the remainders sum to the deficit times
    den, so the raised atoms' costs sum to the floored atoms' remainders,
    and the error is twice those (`_floored`) over alpha * den.
    """
    if alpha < 1:
        raise InfeasibleAlpha(f"alpha must be a positive integer, got {alpha}")
    lift, by_rem = {}, {}
    for c in counts:
        lift[c], rem = divmod(c * alpha, den)
        by_rem.setdefault(rem, []).append(c)
    need = alpha - sum(lift[c] * k for c, k in counts.items())
    tied, extra = None, 0
    for rem in sorted(by_rem, reverse=True):
        cs = by_rem[rem]
        size = sum(map(counts.__getitem__, cs))
        raised = min(need, size)
        need -= raised
        if raised == size:
            for c in cs:
                lift[c] += 1
        elif raised:
            tied, extra = (None if len(cs) == len(counts) else frozenset(cs)), raised
    error = Fraction(2 * _floored(den, counts, alpha), alpha * den)
    return RoundingPlan(lift, tied, extra, error)
