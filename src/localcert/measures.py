"""Vertex-indexed probability measures and uniformity witnesses.

Everything here is exact: distributions are integer numerators over one
positive denominator, l1 distances are Fractions, and no float appears
anywhere.  A witness assigns each vertex x a distribution supported inside
B_r(x); its quality is the maximum l1 distance across edges.

Witness text format (full-graph witnesses only):

    witness <n> <r>
    <x> <D> <z>:<num> <z>:<num> ...   (one line per vertex, z ascending)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from .errors import (
    EmptySubgraph,
    FormatError,
    InfeasibleAlpha,
    NotUniform,
)
from .graphs import BoundedDegreeGraph, bfs, max_ball_size_actual


class RationalDist:
    """Probability distribution over vertex ids with one shared denominator.

    Stored sparsely: `num` maps vertex -> positive integer numerator and the
    numerators sum to `den` exactly.
    """

    __slots__ = ("den", "num")

    def __init__(self, den: int, num: Mapping[int, int]):
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        cleaned: dict[int, int] = {}
        total = 0
        for z, c in num.items():
            if c < 0:
                raise ValueError(f"negative numerator {c} at vertex {z}")
            if c:
                cleaned[z] = c
                total += c
        if total != den:
            raise ValueError(f"numerators sum to {total}, expected {den}")
        self.den = den
        self.num = cleaned

    @classmethod
    def delta(cls, z: int) -> "RationalDist":
        return cls(1, {z: 1})

    @classmethod
    def uniform(cls, vertices: Iterable[int]) -> "RationalDist":
        vs = list(vertices)
        if not vs:
            raise ValueError("uniform distribution needs a nonempty support")
        return cls(len(vs), {z: 1 for z in vs})

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
        self._uniformity: dict[bool, UniformityReport] = {}

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
    per_edge: dict[tuple[int, int], Fraction] | None = None

    def satisfies(self, eps: Fraction, strict: bool = False) -> bool:
        if not self.support_ok:
            return False
        return self.max_edge_l1 < eps if strict else self.max_edge_l1 <= eps


def check_uniformity(w: WitnessFunction, include_table: bool = False) -> UniformityReport:
    """Measure max edge l1 over the domain and validate supports.

    Support of each f(x) must lie in B_radius(x, G) intersected with the
    domain.  The measured maximum is exact; thresholding is the caller's
    business.  The report is computed once per witness and then cached on it.
    """
    cached = w._uniformity.get(include_table)
    if cached is not None:
        return cached
    G = w.graph
    support_ok = True
    bad_vertex = None
    for x in w.vertices:
        supp = w.dists[x].num.keys()
        if not supp <= w.vertex_set:
            support_ok = False
            bad_vertex = x
            break
        _, reach = bfs(G.adj, (x,), w.radius)
        if not all(z in reach for z in supp):
            support_ok = False
            bad_vertex = x
            break
    best = Fraction(0)
    worst = None
    table: dict[tuple[int, int], Fraction] | None = {} if include_table else None
    for u, v in w.domain_edges():
        d = l1_distance(w.dists[u], w.dists[v])
        if table is not None:
            table[(u, v)] = d
        if d > best:
            best = d
            worst = (u, v)
    report = UniformityReport(best, worst, support_ok, bad_vertex, table)
    w._uniformity[include_table] = report
    return report


def tighten_radius(w: WitnessFunction) -> WitnessFunction:
    """The same witness with its radius cut to the farthest support atom (at least 1).

    Exact, one BFS per vertex.  Each BFS stops at the best reach found so far,
    and only a vertex with an atom beyond it is searched again out to the
    declared radius, so the total work tracks the final reach rather than the
    declared radius.
    """
    adj = w.graph.adj
    best = 1
    for x in w.vertices:
        supp = w.dists[x].num.keys()
        _, dist = bfs(adj, (x,), best)
        if all(z in dist for z in supp):
            continue
        _, dist = bfs(adj, (x,), w.radius)
        best = max([best] + [dist[z] for z in supp if z in dist])
    if best >= w.radius:
        return w
    return WitnessFunction(w.graph, best, w.dists, w.vertices)


def uniform_ball_witness(G: BoundedDegreeGraph, r: int) -> WitnessFunction:
    """The canonical witness: f(x) = uniform on B_r(x, G)."""
    if r < 1:
        raise ValueError(f"witness radius must be at least 1, got {r}")
    dists = {x: RationalDist.uniform(bfs(G.adj, (x,), r)[0]) for x in range(G.n)}
    return WitnessFunction(G, r, dists)


def discretize(f: RationalDist, alpha: int) -> RationalDist:
    """Round f to a distribution with denominator alpha, exactly preserving mass.

    Each value is floored to a multiple of 1/alpha; the mass deficit
    alpha - sum(floors) is returned by raising that many entries by 1/alpha,
    chosen by largest fractional part, ties by smaller vertex id.  Per entry
    the error is < 1/alpha, so ||f - g||_1 <= |support| / alpha.
    """
    if alpha < 1:
        raise InfeasibleAlpha(f"alpha must be a positive integer, got {alpha}")
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


def derive_alpha(G: BoundedDegreeGraph, r: int, eps: Fraction, eps_prime: Fraction) -> int:
    """Smallest alpha meeting the discretization sizing rule.

    alpha >= 3 * max_x |B_r(x,G)| / (eps' - eps) guarantees the per-vertex
    rounding error is at most (eps' - eps)/3.
    """
    if not eps_prime > eps:
        raise InfeasibleAlpha(f"need eps' > eps, got eps={eps}, eps'={eps_prime}")
    return math.ceil(Fraction(3 * max_ball_size_actual(G, r)) / (eps_prime - eps))


def discretize_witness(w: WitnessFunction, eps: Fraction, eps_prime: Fraction,
                       alpha: int) -> WitnessFunction:
    """Quantize every distribution of an eps-uniform witness to denominator alpha.

    Requires w to measure at most eps and alpha to satisfy the sizing rule
    against max ball size, so that every edge of the result measures at most
    2(eps' - eps)/3 + eps < eps'.
    """
    rep = check_uniformity(w)
    if not rep.satisfies(eps):
        raise NotUniform(
            f"witness measures {rep.max_edge_l1} at edge {rep.worst_edge}, "
            f"support_ok={rep.support_ok}; need max <= {eps}"
        )
    if alpha < 1:
        raise InfeasibleAlpha(f"alpha must be a positive integer, got {alpha}")
    bound = Fraction(3 * max_ball_size_actual(w.graph, w.radius))
    if Fraction(bound, alpha) > eps_prime - eps:
        raise InfeasibleAlpha(
            f"alpha={alpha} too small: need alpha >= {bound}/(eps'-eps) "
            f"= {math.ceil(bound / (eps_prime - eps))}"
        )
    dists = {x: discretize(w.dists[x], alpha) for x in w.vertices}
    return WitnessFunction(w.graph, w.radius, dists, w.vertices)


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


# --- text format ----------------------------------------------------------

def format_witness(w: WitnessFunction) -> str:
    if not w.is_full:
        raise ValueError("only full-graph witnesses are serialized")
    lines = [f"witness {w.graph.n} {w.radius}"]
    for x in w.vertices:
        d = w.dists[x]
        entries = " ".join(f"{z}:{c}" for z, c in sorted(d.num.items()))
        lines.append(f"{x} {d.den} {entries}")
    return "\n".join(lines) + "\n"


def parse_witness(text: str, G: BoundedDegreeGraph) -> WitnessFunction:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty witness file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "witness":
        raise FormatError(f"bad witness header: {lines[0]!r}")
    try:
        n, r = int(head[1]), int(head[2])
    except ValueError as exc:
        raise FormatError(f"non-integer witness header field: {lines[0]!r}") from exc
    if n != G.n:
        raise FormatError(f"witness is for n={n}, graph has n={G.n}")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, got {len(lines) - 1}")
    dists: dict[int, RationalDist] = {}
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) < 3:
            raise FormatError(f"bad witness line: {ln!r}")
        try:
            x, den = int(parts[0]), int(parts[1])
            num: dict[int, int] = {}
            prev = -1
            for tok in parts[2:]:
                zs, cs = tok.split(":")
                z, c = int(zs), int(cs)
                if z <= prev:
                    raise FormatError(f"support must be strictly ascending: {ln!r}")
                prev = z
                num[z] = c
        except (ValueError, IndexError) as exc:
            raise FormatError(f"bad witness line: {ln!r}") from exc
        if x != i:
            raise FormatError(f"expected vertex {i}, got line for {x}")
        try:
            dists[x] = RationalDist(den, num)
        except ValueError as exc:
            raise FormatError(f"invalid distribution at vertex {x}: {exc}") from exc
    try:
        return WitnessFunction(G, r, dists)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_witness_file(w: WitnessFunction, path: str | Path) -> None:
    Path(path).write_text(format_witness(w))


def read_witness_file(path: str | Path, G: BoundedDegreeGraph) -> WitnessFunction:
    return parse_witness(Path(path).read_text(), G)
