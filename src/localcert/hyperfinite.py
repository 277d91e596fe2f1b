"""Hyperfinite partition extraction from uniformity witnesses.

An eps-uniform witness of radius r forces the graph to split into blocks of
at most max |B_2r| vertices after removing at most (d^2 eps / 2)|V| edges.
The constructive loop: project the witness onto the remaining vertices, pick
a coordinate z0 with a low smoothed boundary-to-mass ratio, sweep superlevel
sets of zeta(x) = f(x)(z0) until one has edge boundary at most (d eps/2) of
its size, cut it off, repeat.  tests/reference.py runs that loop as written,
re-projecting after every cut; extract_partition keeps the projection and
its per-coordinate sums (dense lists over the vertex ids) up to date across
cuts instead, and a cut zeroes its block's own coordinates at once.

The loop compares integers only.  Each coordinate's ratio 2 diff/mass is
keyed by the integer floor(2 diff S / mass) at S = (n den)^2, den the
projection's common denominator: every mass is at most M = n den, two
different ratios with denominators at most M differ by at least 1/M^2, so
their keys are strictly ordered and equal ratios share a key.  Thresholds
stay numerators over den; a Fraction is built only for a value returned.

Partition text format:

    partition <n> <num_blocks> <|W|>
    <size> <v1> <v2> ...     (one line per block, extraction order)
    removed
    <u> <v>                  (|W| edge lines, ascending)
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Container, Mapping

from .errors import FormatError, NoQualifyingSet, OutOfRange
from .graphs import BoundedDegreeGraph, induced_subgraph
from .measures import (
    RationalDist,
    UniformityReport,
    WitnessFunction,
    _bad_support_vertex,
    _require_uniform,
    check_uniformity,
)


@dataclass(frozen=True)
class AreaCoareaResult:
    coarea_lhs: Fraction
    coarea_rhs: Fraction
    area_lhs: Fraction
    area_rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.coarea_lhs == self.coarea_rhs and self.area_lhs == self.area_rhs


def area_coarea_check(G: BoundedDegreeGraph, zeta: Mapping[int, Fraction]) -> AreaCoareaResult:
    """Exact check of the area and coarea identities for zeta : domain -> [0,1].

    coarea:  sum_x sum_{x~y} |zeta(x)-zeta(y)|  =  2 * int_0^1 |edge boundary of
    the superlevel set| dt;  area:  sum_x zeta(x) = int_0^1 |superlevel set| dt.
    The integrals are finite sums over the intervals between distinct values.
    """
    domain = sorted(zeta)
    dom = set(domain)
    for x, v in zeta.items():
        if not 0 <= v <= 1:
            raise OutOfRange(f"zeta({x}) = {v} outside [0, 1]")
    edges = [
        (u, w) for u in domain for w in G.adj[u] if u < w and w in dom
    ]
    coarea_lhs = 2 * sum((abs(zeta[u] - zeta[w]) for u, w in edges), Fraction(0))
    area_lhs = sum(zeta.values(), Fraction(0))

    points = sorted({Fraction(0), Fraction(1), *zeta.values()})
    coarea_rhs = Fraction(0)
    area_rhs = Fraction(0)
    for a, b in zip(points, points[1:]):
        if b <= a:
            continue
        omega = {x for x in domain if zeta[x] > a}
        cut = sum(1 for u, w in edges if (u in omega) != (w in omega))
        coarea_rhs += (b - a) * 2 * cut
        area_rhs += (b - a) * len(omega)
    return AreaCoareaResult(coarea_lhs, coarea_rhs, area_lhs, area_rhs)


@dataclass(frozen=True)
class LowBoundaryResult:
    """A nonempty set with edge boundary at most (d*eps/2) times its size.

    `edges` is that boundary as (inside, outside) pairs, ascending.
    """

    vertices: tuple[int, ...]
    z0: int
    threshold: Fraction
    edges: tuple[tuple[int, int], ...]


def _scaled(d: RationalDist, den: int) -> dict[int, int]:
    """Numerators of d over the common denominator den (d's own dict when equal)."""
    scale = den // d.den
    return d.num if scale == 1 else {z: c * scale for z, c in d.num.items()}


def _add_edge(diff: list[int], pu: Mapping[int, int], pv: Mapping[int, int]) -> int:
    """Add |pu(z) - pv(z)| to diff[z] for every z.

    Returns sum_z |pu(z) - pv(z)|: the edge's l1 distance times the denominator.
    """
    edge = 0
    get = pv.get
    for z, c in pu.items():
        delta = c - get(z, 0)
        if delta:
            if delta < 0:
                delta = -delta
            diff[z] += delta
            edge += delta
    for z in pv.keys() - pu.keys():
        c = pv[z]
        diff[z] += c
        edge += c
    return edge


def _drop_edge(diff: list[int], pu: Mapping[int, int], pv: Mapping[int, int],
               coords: set[int]) -> None:
    """Subtract |pu(z) - pv(z)| from diff[z] for every z in coords."""
    get_u, get_v = pu.get, pv.get
    for z in coords:
        diff[z] -= abs(get_u(z, 0) - get_v(z, 0))


def _coordinate_sums(G: BoundedDegreeGraph, num: list[Mapping[int, int]]
                     ) -> tuple[list[int], list[int], int, tuple[int, int] | None]:
    """Per coordinate z: summed mass over every vertex and summed edge differences.

    Both are dense lists over 0..n-1, 0 where no distribution has mass; each
    edge counts once in diff (the ratio key doubles it, for the edge's two
    ordered pairs).  Also the largest per-edge sum of differences and the
    first edge attaining it, ascending (adjacency lists are sorted); over the
    common denominator that is the max edge l1 and its worst edge.
    """
    mass = [0] * G.n
    diff = [0] * G.n
    best, worst = 0, None
    for u, nu in enumerate(num):
        for z, c in nu.items():
            mass[z] += c
        for v in G.adj[u]:
            if u < v:
                edge = _add_edge(diff, nu, num[v])
                if edge > best:
                    best, worst = edge, (u, v)
    return mass, diff, best, worst


def _ratio_heap(mass: list[int], diff: list[int], scale: int
                ) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Key 2 diff * scale // mass per coordinate with mass, and a heap of (key, z).

    With every mass at most M and scale = M^2, (key, z) orders exactly as
    (2 diff/mass, z), ties included (module docstring).
    """
    key = {z: 2 * diff[z] * scale // m for z, m in enumerate(mass) if m}
    heap = [(k, z) for z, k in key.items()]
    heapq.heapify(heap)
    return key, heap


def _pick_z0(heap: list[tuple[int, int]], key: Mapping[int, int]) -> int:
    """Coordinate with the least diff/mass ratio, ties by smallest id.

    Heap entries whose key differs from the current one in `key` are stale
    and dropped; an entry equal to it stands for the current ratio.
    """
    while key.get(heap[0][1]) != heap[0][0]:
        heapq.heappop(heap)
    return heap[0][1]


def _superlevel_cut(G: BoundedDegreeGraph, domain: Container[int], zeta: Mapping[int, int],
                    den: int, z0: int, eps: Fraction) -> LowBoundaryResult:
    """First superlevel set of zeta (positive numerators over den), in ascending
    threshold order, whose boundary within the domain is at most d*eps/2 of its size."""
    # superlevel sets, largest first: vertices sorted by zeta descending and
    # added one at a time, the boundary edge count snapshotted per
    # distinct-value batch (an edge inside a batch counts +1, then -1)
    order = sorted(zeta, key=lambda x: (-zeta[x], x))
    snapshots: list[tuple[int, int]] = []  # (|Omega|, |edge boundary|) per batch
    values: list[int] = []
    added: set[int] = set()
    cut = 0
    for val, batch in itertools.groupby(order, key=zeta.__getitem__):
        for x in batch:
            for y in G.adj[x]:
                if y in domain:
                    cut += -1 if y in added else 1
            added.add(x)
        values.append(val)
        snapshots.append((len(added), cut))

    # ascending thresholds, as numerators over den: 0 pairs with the full
    # positive support, then each positive value t = values[j] pairs with the
    # prefix above it
    enum, eden = eps.numerator, eps.denominator
    candidates = [(0, len(values) - 1)]
    for j in range(len(values) - 1, 0, -1):
        candidates.append((values[j], j - 1))
    for t, snap in candidates:
        size, boundary_edges = snapshots[snap]
        if size and 2 * boundary_edges * eden <= G.d * enum * size:
            break
    else:
        raise NoQualifyingSet(
            f"no superlevel set of zeta(.)({z0}) meets the boundary bound {G.d}*{eps}/2"
        )

    # materialize the prefix for the chosen snapshot
    chosen = order[:snapshots[snap][0]]
    inside = set(chosen)
    edges = tuple(sorted((x, y) for x in chosen for y in G.adj[x]
                         if y in domain and y not in inside))
    assert len(edges) == snapshots[snap][1]
    return LowBoundaryResult(tuple(sorted(chosen)), z0, Fraction(t, den), edges)


class _ShrinkingProjection:
    """The projection of w onto R and its coordinate sums, kept up to date as R shrinks.

    tests/reference.py recomputes from scratch what this keeps.
    R starts as every vertex.  tau[t]/dist[t] hold the nearest point of R to
    t and its distance (ties by smallest id), for every t within w.radius of
    R; a farther t can never again be an atom of a distribution rooted in R,
    so it is dropped for good (tau[t] is None).  cell[z] lists the atoms t
    with tau[t] == z, holders[t] the vertices whose distribution has an atom
    at t; when a cut relocates t, holders[t] is pruned to its members still
    in R, so no later walk over it meets a cut vertex.  proj[x] is x's
    pushed-forward distribution over the common denominator `den`; it
    shares the witness's own dict until a cut first relocates one of x's
    atoms, and it is dropped (None) once x leaves R, so the projection
    holds a distribution only for the vertices in R.
    mass/diff are the per-coordinate sums of mass and of edge
    differences that pick z0, as dense lists indexed by coordinate (0: no
    mass there), and a lazy heap of (key, z) yields the least ratio, ties by
    smallest id.  key[z] is the integer floor(2 diff[z] * S / mass[z]) at
    S = (n den)^2: every distribution keeps total den, so 0 < mass[z] <=
    n den, and the keys order exactly as the ratios do (module docstring).
    The pass that first fills them also measures the witness: `uniformity`
    is its exact report, given that every support lies in its ball.

    A cut kills every coordinate inside its block at once.  Projected
    distributions live on R, and each atom mapped into the block is either
    relocated into the rest of R or dropped because no vertex left in R
    holds it, so after the cut no distribution has mass at a block
    coordinate: their mass and diff are set to 0 and their keys dropped,
    with no per-atom bookkeeping, and the block's distributions and edges
    are subtracted at the coordinates outside the block only.  At those
    coordinates the sums move only by the block's own distributions and
    edges, which leave, and by the mass each holder gains where its
    relocated atoms land; an edge's difference changes only at the
    coordinates one of its endpoints gains, so those are the only ones the
    per-edge update visits.
    """

    def __init__(self, w: WitnessFunction):
        G = self.G = w.graph
        self.radius = w.radius
        self.den = den = math.lcm(*(d.den for d in w.dists.values()))
        self.atoms = [w.dists[x].num for x in range(G.n)]
        self.scale = [den // w.dists[x].den for x in range(G.n)]
        self.proj: list[dict[int, int] | None] = [_scaled(w.dists[x], den) for x in range(G.n)]
        self.holders: list[list[int]] = [[] for _ in range(G.n)]
        for x, a in enumerate(self.atoms):
            for t in a:
                self.holders[t].append(x)
        self.remaining = set(range(G.n))
        self.tau: list[int | None] = list(range(G.n))
        self.dist = [0] * G.n
        self.cell = {z: [z] for z in range(G.n)}
        self.mass, self.diff, best, worst = _coordinate_sums(G, self.proj)
        self.uniformity = UniformityReport(Fraction(best, den), worst, True, None)
        self.key_scale = (G.n * den) ** 2
        self.key, self.heap = _ratio_heap(self.mass, self.diff, self.key_scale)

    def cut(self, eps: Fraction) -> LowBoundaryResult:
        """Cut the first qualifying superlevel set of f(.)(z0) on R, then remove it from R."""
        z0 = _pick_z0(self.heap, self.key)
        R, proj = self.remaining, self.proj
        zeta = {
            x: proj[x][z0] for t in self.cell[z0] for x in self.holders[t] if x in R
        }
        res = _superlevel_cut(self.G, R, zeta, self.den, z0, eps)
        self._remove(res.vertices)
        return res

    def _remove(self, block: tuple[int, ...]) -> None:
        adj, R, proj, mass, diff = self.G.adj, self.remaining, self.proj, self.mass, self.diff
        atoms, scale, holders = self.atoms, self.scale, self.holders
        changed: set[int] = set()
        # the block's distributions and every edge touching it leave the sums,
        # at the coordinates outside the block only: the block's own are zeroed below
        bset = set(block)
        # a block vertex's coordinates outside the block, from the first
        # lower neighbour that needs them until its own turn (block ascends)
        outside: dict[int, set[int]] = {}
        for x in block:
            px = proj[x]
            ox = outside.pop(x, None)
            if ox is None:
                ox = px.keys() - bset
            for z in ox:
                mass[z] -= px[z]
            changed |= ox
            for y in adj[x]:
                if y in R:
                    if y not in bset:
                        oy = proj[y].keys() - bset
                        changed |= oy  # the edge's difference moves on y's coordinates too
                    elif y < x:
                        continue  # an edge inside the block, dropped from y's side
                    else:
                        oy = outside.get(y)
                        if oy is None:
                            oy = outside[y] = proj[y].keys() - bset
                    _drop_edge(diff, px, proj[y], ox | oy)
        R.difference_update(block)
        for x in block:  # nothing reads a cut vertex's distribution again
            proj[x] = None

        # holders left in R of relocated atoms: the block coordinate goes, and
        # the atom's mass is gained where it lands.  The atom's holder list
        # keeps only those, so no later walk meets a cut vertex there again.
        gain: dict[int, dict[int, int]] = {}
        in_R = R.__contains__
        for t, old, new in self._relocate(block):
            live = holders[t]
            live[:] = filter(in_R, live)
            assert new is not None or not live, "dropped atom still held inside R"
            for x in live:
                px = proj[x]
                if px is atoms[x]:
                    px = proj[x] = dict(px)  # stop sharing the witness's dict
                px.pop(old, None)
                gx = gain.get(x)
                if gx is None:
                    gx = gain[x] = {}
                gx[new] = gx.get(new, 0) + atoms[x][t] * scale[x]
        for x, gx in gain.items():
            px = proj[x]
            for z, c in gx.items():
                px[z] = px.get(z, 0) + c
                mass[z] += c
            changed.update(gx)
        # edges with a gaining endpoint: only the gained coordinates move
        no_gain: dict[int, int] = {}
        for x, gx in gain.items():
            px = proj[x]
            for y in adj[x]:
                if y not in R:
                    continue
                gy = gain.get(y)
                if gy is None:
                    gy = no_gain
                elif y < x:
                    continue  # handled from y's side
                py = proj[y]
                for z in gx.keys() | gy.keys():
                    a, b = px.get(z, 0), py.get(z, 0)
                    diff[z] += abs(a - b) - abs(a - gx.get(z, 0) - b + gy.get(z, 0))

        key, heap, key_scale = self.key, self.heap, self.key_scale
        for z in block:
            mass[z] = diff[z] = 0
            key.pop(z, None)
        for z in changed:
            m = mass[z]
            if m:
                k = key[z] = 2 * diff[z] * key_scale // m
                heapq.heappush(heap, (k, z))
            else:
                key.pop(z, None)

    def _relocate(self, block: tuple[int, ...]) -> list[tuple[int, int, int | None]]:
        """Re-resolve the atoms whose nearest point was cut: (atom, old, new or None).

        Lexicographic (distance, id) Dijkstra seeded from neighbors whose
        nearest point survives; atoms that end up farther than the radius are
        dropped.
        """
        adj, tau, dist, cell, r = self.G.adj, self.tau, self.dist, self.cell, self.radius
        old: dict[int, int] = {}
        for b in block:
            for t in cell.pop(b):
                old[t] = b
                tau[t] = None
        best: dict[int, tuple[int, int]] = {}
        for t in old:
            for v in adj[t]:
                f = tau[v]
                if f is not None and dist[v] < r:
                    cand = (dist[v] + 1, f)
                    if t not in best or cand < best[t]:
                        best[t] = cand
        frontier = [(d, f, t) for t, (d, f) in best.items()]
        heapq.heapify(frontier)
        while frontier:
            d, f, t = heapq.heappop(frontier)
            if tau[t] is not None:
                continue  # settled by a smaller key
            tau[t], dist[t] = f, d
            cell[f].append(t)
            if d < r:
                cand = (d + 1, f)
                for u in adj[t]:
                    if u in old and tau[u] is None and (u not in best or cand < best[u]):
                        best[u] = cand
                        heapq.heappush(frontier, (d + 1, f, u))
        return [(t, b, tau[t]) for t, b in old.items()]


@dataclass(frozen=True)
class PartitionResult:
    """Blocks in extraction order plus the removed edge set W."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    removed_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            bset = set(block)
            if seen & bset:
                raise ValueError("blocks must be disjoint")
            seen |= bset
        if seen != set(range(self.n)):
            raise ValueError("blocks must partition 0..n-1")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def max_block_size(self) -> int:
        return max(self.block_sizes, default=0)

    @property
    def num_removed(self) -> int:
        return len(self.removed_edges)


def extract_partition(w: WitnessFunction, eps: Fraction) -> PartitionResult:
    """Greedy low-boundary decomposition of G = w.graph, driven by the eps-uniform w.

    Each iteration projects w onto the remaining vertices R, cuts off a
    low-boundary superlevel set and records the edges leaving it.  The
    projection is of the ORIGINAL witness (it keeps its distance and support
    guarantees relative to G, not the shrinking subgraph), and it is not
    recomputed: one state object carries the nearest-point map, the projected
    distributions and their coordinate sums across cuts, and a cut updates
    only the atoms whose nearest point it removed, their holders, and the
    edges touching those.  Blocks, their order and W are exactly those of
    the plain loop, `reference_partition` in tests/reference.py; the work
    per cut tracks what the cut changed, not |R|.
    Every removed edge joins two distinct blocks, so block-induced subgraphs
    survive intact in G - W.

    The witness is measured in the projection's first pass over the edges,
    and that report is cached on it; only supports nobody has shown inside
    their balls are swept first.  A witness that is not eps-uniform raises
    NotUniform, exactly as check_uniformity would judge it.
    """
    if _bad_support_vertex(w) is not None:
        # an atom outside its ball, or outside G, would break the projection
        _require_uniform(check_uniformity(w), eps)
    state = _ShrinkingProjection(w)
    if w._uniformity is None:
        w._uniformity = state.uniformity
    _require_uniform(state.uniformity, eps)
    blocks: list[tuple[int, ...]] = []
    removed: list[tuple[int, int]] = []
    while state.remaining:
        res = state.cut(eps)
        blocks.append(res.vertices)
        removed.extend(tuple(sorted(e)) for e in res.edges)
    return PartitionResult(w.graph.n, tuple(blocks), tuple(sorted(removed)))


@dataclass(frozen=True)
class HyperfiniteReport:
    ok: bool
    removed_per_vertex: Fraction
    removed_per_edge: Fraction
    max_block_size: int
    component_bound: int


def _require_partition_of(G: BoundedDegreeGraph, partition: PartitionResult) -> None:
    """A partition certifies G only if its blocks cover exactly G's vertices and
    W is exactly the set of G's edges between distinct blocks, each listed once
    (either orientation).  O(n + m)."""
    if partition.n != G.n:
        raise ValueError(f"partition of {partition.n} vertices checked against a graph of {G.n}")
    block_of = [0] * G.n
    for i, block in enumerate(partition.blocks):
        for x in block:
            block_of[x] = i
    cross = {(u, v) for u in range(G.n) for v in G.adj[u]
             if u < v and block_of[u] != block_of[v]}
    removed: set[tuple[int, int]] = set()
    for u, v in partition.removed_edges:
        e = (u, v) if u < v else (v, u)
        if e not in cross:
            raise ValueError(f"removed edge {e} is not an edge of G between two blocks")
        if e in removed:
            raise ValueError(f"removed edge {e} is listed twice")
        removed.add(e)
    missing = cross - removed
    if missing:
        raise ValueError(f"edge {min(missing)} joins two blocks but is not in W")


def check_hyperfinite(G: BoundedDegreeGraph, partition: PartitionResult,
                      eps_e: Fraction, K: int) -> HyperfiniteReport:
    """Is (blocks, W) an (eps_e, K) certificate?

    `ok` judges |W| per vertex; |W| per edge is reported alongside.
    """
    _require_partition_of(G, partition)
    removed = partition.num_removed
    per_vertex = Fraction(removed, G.n) if G.n else Fraction(0)
    per_edge = Fraction(removed, G.m) if G.m else Fraction(0)
    ok = partition.max_block_size <= K and per_vertex <= eps_e
    return HyperfiniteReport(
        ok=ok,
        removed_per_vertex=per_vertex,
        removed_per_edge=per_edge,
        max_block_size=partition.max_block_size,
        component_bound=K,
    )


@dataclass(frozen=True)
class EditDistanceBound:
    feasible: bool
    bound: Fraction | None
    offending_block: int | None


def edit_distance_upper_bound(G: BoundedDegreeGraph, partition: PartitionResult,
                              predicate: Callable[[BoundedDegreeGraph], bool]) -> EditDistanceBound:
    """|W|/|V| bounds the edit distance to the property when all blocks satisfy it.

    Removing W turns G into the disjoint union of the block-induced
    subgraphs; if each lies in the (monotone, union-closed) property, the
    whole edited graph does, and only |W| edge edits were spent.

    The predicate must be hereditary (closed under induced subgraphs), as
    every PREDICATES entry is: then one call on G that passes settles every
    block, and only when it fails is each block judged on its own, the first
    failing one reported.
    """
    _require_partition_of(G, partition)
    if not predicate(G):
        for i, block in enumerate(partition.blocks):
            if not predicate(induced_subgraph(G, block)):
                return EditDistanceBound(False, None, i)
    bound = Fraction(partition.num_removed, G.n) if G.n else Fraction(0)
    return EditDistanceBound(True, bound, None)


# --- text format ----------------------------------------------------------

def format_partition(partition: PartitionResult) -> str:
    lines = [
        f"partition {partition.n} {partition.num_blocks} {partition.num_removed}"
    ]
    for block in partition.blocks:
        lines.append(f"{len(block)} " + " ".join(str(v) for v in block))
    lines.append("removed")
    lines.extend(f"{u} {v}" for u, v in partition.removed_edges)
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> PartitionResult:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty partition file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "partition":
        raise FormatError(f"bad partition header: {lines[0]!r}")
    try:
        n, num_blocks, num_removed = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise FormatError(f"non-integer partition header field: {lines[0]!r}") from exc
    if len(lines) != 1 + num_blocks + 1 + num_removed:
        raise FormatError("partition file has wrong line count")
    blocks = []
    for ln in lines[1 : 1 + num_blocks]:
        parts = ln.split()
        try:
            size = int(parts[0])
            verts = tuple(int(t) for t in parts[1:])
        except (ValueError, IndexError) as exc:
            raise FormatError(f"bad block line: {ln!r}") from exc
        if len(verts) != size:
            raise FormatError(f"block line claims {size} vertices, lists {len(verts)}")
        blocks.append(verts)
    if lines[1 + num_blocks] != "removed":
        raise FormatError("expected 'removed' marker line")
    removed = []
    for ln in lines[2 + num_blocks :]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad removed-edge line: {ln!r}")
        try:
            removed.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"bad removed-edge line: {ln!r}") from exc
    try:
        return PartitionResult(n, tuple(blocks), tuple(removed))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_partition_file(partition: PartitionResult, path: str | Path) -> None:
    Path(path).write_text(format_partition(partition))


def read_partition_file(path: str | Path) -> PartitionResult:
    return parse_partition(Path(path).read_text())
