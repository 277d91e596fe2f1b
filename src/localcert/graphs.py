"""Bounded-degree graphs: construction, BFS, the ball sweep, families, text format.

Vertices are always 0..n-1.  Graphs are simple, undirected, and carry a hard
degree bound d >= 2 that every operation preserves.  The text format is

    graph <n> <m> <d>
    <u> <v>            (one line per edge, u < v, lexicographically ascending)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DegreeExceeded, FormatError, InfeasibleSpec, NonSimple

_RANDOM_REGULAR_TRIES = 2000


class BoundedDegreeGraph:
    """Immutable simple graph on vertices 0..n-1 with max degree <= d.

    A plain value: `adj[v]` lists v's neighbours ascending, `m` counts the
    edges, and nothing else is stored, so equality and hashing read
    (n, d, adj).
    """

    __slots__ = ("n", "d", "adj", "m")

    def __init__(self, n: int, d: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if d < 2:
            raise ValueError(f"degree bound must be at least 2, got {d}")
        buckets: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise NonSimple(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise NonSimple(f"repeated edge {key}")
            seen.add(key)
            buckets[u].append(v)
            buckets[v].append(u)
        for v, nbrs in enumerate(buckets):
            if len(nbrs) > d:
                raise DegreeExceeded(v, len(nbrs), d)
        self.n = n
        self.d = d
        self.m = len(seen)
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in buckets
        )

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically ascending."""
        return [(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        # the range guard keeps a negative u from indexing from the end
        return 0 <= u < self.n and v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundedDegreeGraph):
            return NotImplemented
        return (self.n, self.d, self.adj) == (other.n, other.d, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.adj))

    def __repr__(self) -> str:
        return f"BoundedDegreeGraph(n={self.n}, m={self.m}, d={self.d})"


def build_graph(edges: Iterable[tuple[int, int]], d: int, n: int | None = None) -> BoundedDegreeGraph:
    """Build a graph from an edge list, inferring n = max id + 1 if not given."""
    edges = list(edges)
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return BoundedDegreeGraph(n, d, edges)


def bfs(adj: Sequence[Sequence[int]], sources: Iterable[int], cutoff: int | None = None,
        dist: dict[int, int] | None = None) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search from `sources`, the package's search from a source set.

    Returns (order, dist): `order` lists the newly reached vertices in FIFO
    discovery order, sources first, and `dist` maps each of them to its hop
    distance from the nearest source, exploring no further than `cutoff`.
    Vertices already in a caller-passed `dist` count as visited: they are
    neither entered nor expanded.  That blocks a vertex set (seed it with the
    set) and lets a component sweep share one map across calls.  A ball with
    its level boundaries comes from `ball_sweep` (every center) or
    `RootedBall.around` (one center) instead; per-vertex searches that read
    only a ball's distances (`measures.tighten_radius`'s re-search past the
    reach so far, `verifier.verify_locally_p`) run here.
    """
    if dist is None:
        dist = {}
    order = []
    for s in sources:
        if s not in dist:
            dist[s] = 0
            order.append(s)
    # the list doubles as the FIFO queue: iteration picks up appended vertices
    for u in order:
        du = dist[u]
        if du == cutoff:
            continue
        du += 1
        for w in adj[u]:
            if w not in dist:
                dist[w] = du
                order.append(w)
    return order, dist


def _levels(adj: Sequence[Sequence[int]], x: int, q: int,
            mark: list[int]) -> tuple[list[int], list[int]]:
    """B_q(x) level by level: (order, ends), with ends[s] = |B_s(x)|.

    `ends` runs over s = 0..q, or stops early at x's eccentricity once the
    component is exhausted: every larger ball is the same, so its length is
    bounded by the graph and not by q.  `order` is the FIFO BFS order from
    x, so B_s(x) is its prefix of length ends[s].  `mark` is the visited
    stamp: w counts as reached iff mark[w] == x, and every vertex of the
    ball is stamped x on return, so one list serves a whole sweep as long
    as no center repeats.
    """
    mark[x] = x
    order = [x]
    ends = [1]
    start = 0
    for _ in range(q):
        stop = len(order)
        for u in order[start:stop]:
            for w in adj[u]:
                if mark[w] != x:
                    mark[w] = x
                    order.append(w)
        if len(order) == stop:
            break
        ends.append(len(order))
        start = stop
    return order, ends


class RootedBall:
    """B_q(x) in local coordinates, from the (order, ends) of one level sweep from x.

    Local vertex i is the i-th vertex of the FIFO BFS from x over `adj`, so
    x is local 0 and `vertices[i]` is local i's parent id.  `ends[s]` is
    |B_s(x)| for s = 0..q, cut short where the component runs out, so every
    smaller ball is a prefix (`within`, which maps any radius past the end
    of `ends` to the whole ball).
    `local_adj[i]` lists local i's neighbors inside the ball, ascending; it
    is built from the parent adjacency on first read.
    """

    __slots__ = ("vertices", "ends", "_adj", "_local_adj")

    def __init__(self, adj: Sequence[Sequence[int]], order: Sequence[int],
                 ends: Sequence[int]):
        self.vertices = tuple(order)
        self.ends = ends
        self._adj = adj
        self._local_adj: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def around(cls, adj: Sequence[Sequence[int]], x: int, q: int) -> "RootedBall":
        """B_q(x) over `adj`, from one level sweep with a fresh stamp list."""
        return cls(adj, *_levels(adj, x, q, [-1] * len(adj)))

    def within(self, radius: int) -> int:
        """How many local vertices lie within `radius` of the center: B_radius is that prefix."""
        ends = self.ends
        return ends[radius] if radius < len(ends) else len(self.vertices)

    @property
    def local_adj(self) -> tuple[tuple[int, ...], ...]:
        if self._local_adj is None:
            local = dict(zip(self.vertices, range(len(self.vertices))))
            adj = self._adj
            self._local_adj = tuple(
                tuple(sorted([local[w] for w in adj[u] if w in local]))
                for u in self.vertices
            )
        return self._local_adj


def ball(G: BoundedDegreeGraph, x: int, s: int) -> RootedBall:
    """Rooted ball of radius s around x, from one level sweep."""
    if not 0 <= x < G.n:
        raise ValueError(f"center {x} outside vertex range [0, {G.n})")
    if s < 0:
        raise ValueError(f"radius must be nonnegative, got {s}")
    return RootedBall.around(G.adj, x, s)


def max_ball_size_bound(d: int, r: int) -> int:
    """Worst-case |B_r(x)| over all graphs of max degree d: the tree bound."""
    if d < 2:
        raise ValueError(f"degree bound must be at least 2, got {d}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if d == 2:
        return 2 * r + 1
    return 1 + d * ((d - 1) ** r - 1) // (d - 2)


def ball_sweep(G: BoundedDegreeGraph, q: int,
               vertices: range | None = None) -> Iterator[tuple[int, list[int], list[int]]]:
    """Yield (x, order, ends) for x = 0..n-1: the per-vertex ball sweep.

    The uniform-ball witness, the uniformity support check and the
    property-A verifier read their balls from it.  The prover's coloring
    drives `_levels` itself, with one stamp list in the same way, since it
    skips the vertices whose balls are known to be their whole component;
    so does `measures.tighten_radius`, which reads only the stamps.

    `order` is B_q(x) in FIFO BFS order and ends[s] = |B_s(x)| for s <= q,
    cut short where x's component runs out (see `RootedBall`).  One stamp
    list serves the whole sweep.  Passing `vertices` sweeps only those
    centers (a pool worker's share).
    """
    if q < 0:
        raise ValueError(f"radius must be nonnegative, got {q}")
    adj = G.adj
    mark = [-1] * G.n
    for x in range(G.n) if vertices is None else vertices:
        order, ends = _levels(adj, x, q, mark)
        yield x, order, ends


def components(G: BoundedDegreeGraph, removed: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of G - removed as sorted id lists, ordered by smallest member."""
    seen = dict.fromkeys(removed, 0)
    return [sorted(bfs(G.adj, (x,), dist=seen)[0]) for x in range(G.n) if x not in seen]


def induced_subgraph(G: BoundedDegreeGraph, vertices: Iterable[int]) -> BoundedDegreeGraph:
    """Subgraph induced on the given vertices, re-indexed to 0..k-1 by rank."""
    order = sorted(set(vertices))
    if order and not (0 <= order[0] and order[-1] < G.n):
        raise ValueError(f"vertex ids {order[0]}..{order[-1]} outside vertex range [0, {G.n})")
    pos = {v: i for i, v in enumerate(order)}
    edges = [
        (pos[u], pos[w])
        for u in order
        for w in G.adj[u]
        if u < w and w in pos
    ]
    return BoundedDegreeGraph(len(order), G.d, edges)


# --- graph families -------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance: family name, integer params, seed."""

    family: str
    params: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InfeasibleSpec(
                f"unknown family {self.family!r}; known: {sorted(FAMILIES)}"
            )
        # random.Random(None) would seed from the OS: a different graph per run
        if not isinstance(self.seed, int):
            raise InfeasibleSpec(f"seed must be an integer, got {self.seed!r}")


def _gen_path(params: tuple[int, ...], seed: int) -> BoundedDegreeGraph:
    (n,) = params
    if n < 1:
        raise InfeasibleSpec(f"path needs n >= 1, got {n}")
    return BoundedDegreeGraph(n, 2, ((i, i + 1) for i in range(n - 1)))


def _gen_cycle(params: tuple[int, ...], seed: int) -> BoundedDegreeGraph:
    (n,) = params
    if n < 3:
        raise InfeasibleSpec(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return BoundedDegreeGraph(n, 2, edges)


def _gen_grid(params: tuple[int, ...], seed: int) -> BoundedDegreeGraph:
    n1, n2 = params
    if n1 < 1 or n2 < 1:
        raise InfeasibleSpec(f"grid needs positive side lengths, got {n1}x{n2}")
    edges = []
    for i in range(n1):
        for j in range(n2):
            v = i * n2 + j
            if j + 1 < n2:
                edges.append((v, v + 1))
            if i + 1 < n1:
                edges.append((v, v + n2))
    return BoundedDegreeGraph(n1 * n2, 4, edges)


def _gen_full_tree(params: tuple[int, ...], seed: int) -> BoundedDegreeGraph:
    branching, depth = params
    if branching < 1 or depth < 0:
        raise InfeasibleSpec(f"full_tree needs branching >= 1, depth >= 0, got {params}")
    if branching == 1:
        n = depth + 1
    else:
        n = (branching ** (depth + 1) - 1) // (branching - 1)
    # heap layout: children of i are branching*i + 1 .. branching*i + branching
    edges = [((i - 1) // branching, i) for i in range(1, n)]
    return BoundedDegreeGraph(n, max(2, branching + 1), edges)


def _gen_random_regular(params: tuple[int, ...], seed: int) -> BoundedDegreeGraph:
    n, d = params
    if d < 2:
        raise InfeasibleSpec(f"random_regular needs d >= 2, got {d}")
    if d >= n or (n * d) % 2 != 0:
        raise InfeasibleSpec(f"no {d}-regular simple graph on {n} vertices")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_RANDOM_REGULAR_TRIES):
        rng.shuffle(stubs)
        pairs = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                ok = False
                break
            pairs.add(key)
        if ok:
            return BoundedDegreeGraph(n, d, pairs)
    raise InfeasibleSpec(
        f"pairing model found no simple {d}-regular graph on {n} vertices "
        f"after {_RANDOM_REGULAR_TRIES} tries (seed {seed})"
    )


# family name -> (generator, parameter count); `gen --family` offers these names
FAMILIES = {
    "path": (_gen_path, 1),
    "cycle": (_gen_cycle, 1),
    "grid": (_gen_grid, 2),
    "full_tree": (_gen_full_tree, 2),
    "random_regular": (_gen_random_regular, 2),
}


def generate(spec: FamilySpec) -> BoundedDegreeGraph:
    """Deterministically generate the graph described by spec."""
    gen, want = FAMILIES[spec.family]
    if len(spec.params) != want:
        raise InfeasibleSpec(
            f"family {spec.family!r} takes {want} parameter(s), got {spec.params}"
        )
    return gen(spec.params, spec.seed)


# --- text format ----------------------------------------------------------

def format_graph(G: BoundedDegreeGraph) -> str:
    lines = [f"graph {G.n} {G.m} {G.d}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> BoundedDegreeGraph:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "graph":
        raise FormatError(f"bad graph header: {lines[0]!r}")
    try:
        n, m, d = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise FormatError(f"non-integer graph header field: {lines[0]!r}") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"header claims {m} edges, file has {len(body)} edge lines")
    edges: list[tuple[int, int]] = []
    prev: tuple[int, int] | None = None
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"non-integer edge line: {ln!r}") from exc
        if not u < v:
            raise FormatError(f"edge line must satisfy u < v: {ln!r}")
        if prev is not None and (u, v) <= prev:
            raise FormatError(f"edge lines must be strictly ascending: {ln!r}")
        prev = (u, v)
        edges.append((u, v))
    try:
        return BoundedDegreeGraph(n, d, edges)
    except (NonSimple, DegreeExceeded, ValueError) as exc:
        raise FormatError(f"graph body violates declared bounds: {exc}") from exc


def write_graph_file(G: BoundedDegreeGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(G))


def read_graph_file(path: str | Path) -> BoundedDegreeGraph:
    return parse_graph(Path(path).read_text())
