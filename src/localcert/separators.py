"""Random partitions, separator distributions, and the witnesses they induce.

A random partition of V into pieces induces the witness f(x) = E[uniform on
x's piece], whose l1 on an edge is at most twice the probability that the
edge's ends part; so does f(x) = E[delta on the top of x's piece], one
chosen vertex per piece, at the distance from x to that top instead of the
piece's diameter.  Cutting edges (`edge_shift_partitions`) pays that once
per cut edge, and `prove`'s automatic witness takes the tops.  A
K-separator Y leaves every component of G - Y with at most K vertices; as a
partition, each vertex of Y is its own piece, so the induced witness has
every edge l1 bounded by four times the max marginal.

Text format:

    sepdist <n> <K> <support_size>
    <wnum>/<wden> <|Y|> <y1> <y2> ...   (y ascending; samples sorted by Y)
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .errors import FormatError, InvalidDistribution
from .graphs import BoundedDegreeGraph, bfs, components, max_ball_size_bound
from .measures import RationalDist, WitnessFunction


def _pieces(G: BoundedDegreeGraph, removed: set[int] | frozenset[int]) -> list[list[int]]:
    """The components of G - removed, after checking that removed lies in G."""
    for v in removed:
        if not 0 <= v < G.n:
            raise ValueError(f"separator vertex {v} outside graph")
    return components(G, removed)


def is_k_separator(G: BoundedDegreeGraph, Y: Iterable[int], K: int) -> bool:
    """True iff every component of G - Y has at most K vertices."""
    return all(len(c) <= K for c in _pieces(G, set(Y)))


class SeparatorDistribution:
    """A finitely supported probability measure over K-separators of G.

    Samples with identical separator sets are merged.  Construction validates
    everything: positive weights summing to one, and every Y a K-separator.
    `pieces[i]` keeps the components of G - Y that the K check swept, for
    the i-th sample of `support`, so the witness mix reads them instead of
    sweeping again.
    """

    def __init__(self, graph: BoundedDegreeGraph, K: int,
                 samples: Iterable[tuple[Iterable[int], Fraction]]):
        if K < 0:
            raise InvalidDistribution(f"K must be nonnegative, got {K}")
        merged: dict[frozenset[int], Fraction] = {}
        for Y, wt in samples:
            fs = frozenset(Y)
            merged[fs] = merged.get(fs, Fraction(0)) + Fraction(wt)
        if not merged:
            raise InvalidDistribution("empty support")
        total = Fraction(0)
        pieces: dict[frozenset[int], list[list[int]]] = {}
        for fs, wt in merged.items():
            if wt <= 0:
                raise InvalidDistribution(f"nonpositive weight {wt}")
            total += wt
            comps = pieces[fs] = _pieces(graph, fs)
            if any(len(c) > K for c in comps):
                raise InvalidDistribution(
                    f"sample {sorted(fs)} leaves a component larger than K={K}"
                )
        if total != 1:
            raise InvalidDistribution(f"weights sum to {total}, expected 1")
        self.graph = graph
        self.K = K
        order = sorted((tuple(sorted(fs)), wt, fs) for fs, wt in merged.items())
        self.support: tuple[tuple[tuple[int, ...], Fraction], ...] = tuple(
            (Y, wt) for Y, wt, _ in order
        )
        self.pieces: tuple[list[list[int]], ...] = tuple(pieces[fs] for _, _, fs in order)

    def __len__(self) -> int:
        return len(self.support)


def max_marginal(dist: SeparatorDistribution) -> tuple[Fraction, int | None]:
    """Largest P[x in Y] over vertices, with its smallest witness vertex."""
    acc: dict[int, Fraction] = {}
    for Y, wt in dist.support:
        for v in Y:
            acc[v] = acc.get(v, Fraction(0)) + wt
    if not acc:
        return Fraction(0), None
    best = max(acc.values())
    vertex = min(v for v, w in acc.items() if w == best)
    return best, vertex


def witness_from_partitions(G: BoundedDegreeGraph, samples: list[tuple[list[list[int]], Fraction]],
                            radius: int | None = None) -> WitnessFunction:
    """f(x) = the sum over samples of weight * uniform on x's piece, exact over one denominator.

    Each sample is (pieces, weight), its pieces a partition of 0..n-1 and the
    weights summing to one.  An edge whose ends part with probability p has
    l1 at most 2p.  The declared radius defaults to the largest piece's size
    less one (at least 1), which bounds every distance in a connected piece.
    """
    den = 1
    for pieces, wt in samples:
        a, b = wt.numerator, wt.denominator
        den = math.lcm(den, b)
        for size in {len(piece) for piece in pieces}:
            # weight/size itself must scale to an integer; lcm with the bare
            # size is not enough when it shares factors with the weight: a/b
            # over size reduces to denominator b * size / gcd(a, size)
            den = math.lcm(den, b * size // math.gcd(a, size))
    nums: list[dict[int, int]] = [dict() for _ in range(G.n)]
    for pieces, wt in samples:
        w_int = wt.numerator * (den // wt.denominator)
        for piece in pieces:
            share = w_int // len(piece)
            assert share * len(piece) == w_int, "denominator must absorb piece size"
            for x in piece:
                row = nums[x]
                for z in piece:
                    row[z] = row.get(z, 0) + share
    return _mixed_witness(G, samples, radius, den, nums)


def witness_from_tops(G: BoundedDegreeGraph,
                      samples: list[tuple[list[list[int]], Fraction]]) -> WitnessFunction:
    """f(x) = the sum over samples of weight * delta on the first vertex of x's piece.

    Samples are as for `witness_from_partitions`; each piece's first vertex
    is its top.  A sample's pieces are disjoint and each top lies in its own
    piece, so an edge whose ends part with probability p still has l1 at
    most 2p, while f(x) has at most one atom per sample.  The common
    denominator is the lcm of the weights' denominators, and the mix costs
    one step per vertex of each piece.  The declared radius is the largest
    piece's size less one (at least 1), as `witness_from_partitions` defaults.
    """
    den = math.lcm(*(wt.denominator for _, wt in samples))
    nums: list[dict[int, int]] = [dict() for _ in range(G.n)]
    for pieces, wt in samples:
        w_int = wt.numerator * (den // wt.denominator)
        for piece in pieces:
            top = piece[0]
            for x in piece:
                row = nums[x]
                row[top] = row.get(top, 0) + w_int
    return _mixed_witness(G, samples, None, den, nums)


def _mixed_witness(G: BoundedDegreeGraph, samples: list[tuple[list[list[int]], Fraction]],
                   radius: int | None, den: int, nums: list[dict[int, int]]) -> WitnessFunction:
    """The witness of the mixed numerator rows over den; the radius defaults to
    the largest piece's size less one (at least 1)."""
    if radius is None:
        radius = max([1] + [len(piece) - 1 for pieces, _ in samples for piece in pieces])
    # one vertex at a time: each row is handed to its distribution and
    # dropped from nums, so no row is held twice
    dists = {}
    for x in range(G.n):
        dists[x], nums[x] = RationalDist(den, nums[x]), None
    return WitnessFunction(G, radius, dists)


def witness_from_separators(dist: SeparatorDistribution) -> WitnessFunction:
    """The separator witness f(x) = E_Y[ delta_x if x in Y else uniform on x's
    component of G - Y ], at radius max(K, 1) on dist.graph.

    Each sample is the partition into the singletons of Y and the components
    of G - Y, read from `dist.pieces`, the sweep the distribution's K check
    already ran.  Components have at most K vertices, so every support lies
    within K of its vertex.  A labeling needs radius at least 1, and K = 0
    (every Y is all of V, so f(x) = delta_x) would declare 0.
    """
    samples = [([[y] for y in Y] + comps, wt)
               for (Y, wt), comps in zip(dist.support, dist.pieces)]
    return witness_from_partitions(dist.graph, samples, max(dist.K, 1))


# --- analytic shift families ----------------------------------------------

def _expect_structure(G: BoundedDegreeGraph, expected: set[tuple[int, int]], what: str) -> None:
    if set(G.edges()) != expected:
        raise ValueError(f"graph is not a canonical {what} on ids 0..n-1")


def _path_or_cycle(G: BoundedDegreeGraph) -> str | None:
    """"path" or "cycle" when G is that graph with ids in path order, else None."""
    n = G.n
    edges = set(G.edges())
    path_edges = {(i, i + 1) for i in range(n - 1)}
    if edges == path_edges:
        return "path"
    if n >= 3 and edges == path_edges | {(0, n - 1)}:
        return "cycle"
    return None


def path_shift_distribution(G: BoundedDegreeGraph, k: int) -> SeparatorDistribution:
    """Uniform over the k residue-class separators Y_s = {v : v = s mod k}.

    Works on canonical paths and cycles (ids in path order).  K = k - 1 on a
    path; on a cycle the same bound holds only when k divides n, otherwise
    the wrap-around leaves a longer run and the construction is refused.
    """
    if k < 1:
        raise ValueError(f"shift modulus must be positive, got {k}")
    n = G.n
    shape = _path_or_cycle(G)
    if shape is None:
        raise ValueError("graph is not a canonical path or cycle on ids 0..n-1")
    if shape == "cycle" and n % k:
        raise InvalidDistribution(
            f"cycle shifts need k | n to keep K = k-1 (n={n}, k={k})"
        )
    samples = [
        (tuple(v for v in range(n) if v % k == s), Fraction(1, k))
        for s in range(k)
    ]
    return SeparatorDistribution(G, k - 1, samples)


def grid_shift_distribution(G: BoundedDegreeGraph, n1: int, n2: int, k: int) -> SeparatorDistribution:
    """Uniform over k^2 shifted row/column deletions; K = (k-1)^2."""
    if k < 1:
        raise ValueError(f"shift modulus must be positive, got {k}")
    if G.n != n1 * n2:
        raise ValueError(f"graph has {G.n} vertices, grid claims {n1}x{n2}")
    expected = set()
    for i in range(n1):
        for j in range(n2):
            v = i * n2 + j
            if j + 1 < n2:
                expected.add((v, v + 1))
            if i + 1 < n1:
                expected.add((v, v + n2))
    _expect_structure(G, expected, f"{n1}x{n2} grid")
    samples = []
    for s1 in range(k):
        for s2 in range(k):
            Y = tuple(
                i * n2 + j
                for i in range(n1)
                for j in range(n2)
                if i % k == s1 or j % k == s2
            )
            samples.append((Y, Fraction(1, k * k)))
    return SeparatorDistribution(G, (k - 1) ** 2, samples)


def tree_depth_shift_distribution(G: BoundedDegreeGraph, k: int) -> SeparatorDistribution:
    """Uniform over k depth residue classes of a tree rooted at 0.

    Removing every vertex at depth = s mod k leaves components spanning at
    most k-1 consecutive levels, so K = max ball size at radius k-1 for the
    degree bound.
    """
    if k < 1:
        raise ValueError(f"shift modulus must be positive, got {k}")
    depth = bfs(G.adj, (0,))[1] if G.n else {}
    if G.m != G.n - 1 or len(depth) != G.n:
        raise ValueError("depth shifts need a connected tree")
    samples = [
        (tuple(v for v in range(G.n) if depth[v] % k == s), Fraction(1, k))
        for s in range(k)
    ]
    return SeparatorDistribution(G, max_ball_size_bound(G.d, k - 1), samples)


def edge_shift_partitions(G: BoundedDegreeGraph, k: int) -> list[tuple[list[list[int]], Fraction]] | None:
    """The edge-shift family of modulus k on a connected tree or a canonical cycle; else None.

    An edge's level is its child's depth on a tree rooted at 0; a cycle with
    ids in cycle order is the path 0..n-1 so rooted, plus the edge (n-1, 0)
    at level n.  Sample s = 0..k-1, of weight 1/k, cuts the edges whose level
    is s mod k; its pieces are the components of what is left.  Each edge is
    cut in exactly one sample, so the mixed witness measures at most 2/k for
    any n (Klein-Plotkin-Rao layering), and a piece spans at most k levels,
    so at most 2k - 2 hops.  Each piece is listed top first: its vertex
    nearest 0 (0 itself for the cycle's piece through (n-1, 0)), then the
    rest ascending; every vertex of the piece lies within k - 1 of its top.
    Shifts past the top level cut nothing, as s = 0 then does, and are
    merged into it.
    """
    if k < 1:
        raise ValueError(f"shift modulus must be positive, got {k}")
    n = G.n
    cycle = _path_or_cycle(G) == "cycle"
    if cycle:
        order, depth, parent, top = range(n), range(n), range(-1, n - 1), n
    else:
        order, depth = bfs(G.adj, (0,))
        if G.m != n - 1 or len(order) != n:
            return None
        parent = {w: u for u in order for w in G.adj[u] if depth[w] > depth[u]}
        top = depth[order[-1]]
    shifts = min(k, top + 1)
    samples = []
    for s in range(shifts):
        head = [0] * n
        for v in order[1:]:
            head[v] = v if depth[v] % k == s else head[parent[v]]
        if cycle and n % k != s:
            # the uncut edge (n-1, 0) joins n-1's piece to 0's
            tail = head[n - 1]
            head = [0 if h == tail else h for h in head]
        pieces: dict[int, list[int]] = {}
        for v in range(n):
            h = head[v]
            if h not in pieces:
                pieces[h] = [h]
            if v != h:
                pieces[h].append(v)
        samples.append((list(pieces.values()), Fraction(k - shifts + 1 if s == 0 else 1, k)))
    return samples


# --- text format ----------------------------------------------------------

def format_separator_distribution(dist: SeparatorDistribution) -> str:
    lines = [f"sepdist {dist.graph.n} {dist.K} {len(dist.support)}"]
    for Y, wt in dist.support:
        ys = " ".join(str(y) for y in Y)
        line = f"{wt.numerator}/{wt.denominator} {len(Y)}"
        lines.append(f"{line} {ys}" if Y else line)
    return "\n".join(lines) + "\n"


def parse_separator_distribution(text: str, G: BoundedDegreeGraph) -> SeparatorDistribution:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty separator distribution file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "sepdist":
        raise FormatError(f"bad sepdist header: {lines[0]!r}")
    try:
        n, K, count = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise FormatError(f"non-integer sepdist header field: {lines[0]!r}") from exc
    if n != G.n:
        raise FormatError(f"distribution is for n={n}, graph has n={G.n}")
    if len(lines) - 1 != count:
        raise FormatError(f"expected {count} samples, got {len(lines) - 1}")
    samples = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            wnum, wden = parts[0].split("/")
            wt = Fraction(int(wnum), int(wden))
            size = int(parts[1])
            Y = tuple(int(t) for t in parts[2:])
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise FormatError(f"bad sepdist line: {ln!r}") from exc
        if len(Y) != size:
            raise FormatError(f"sample claims {size} vertices, lists {len(Y)}: {ln!r}")
        if list(Y) != sorted(set(Y)):
            raise FormatError(f"sample vertices must be ascending and distinct: {ln!r}")
        samples.append((Y, wt))
    try:
        return SeparatorDistribution(G, K, samples)
    except InvalidDistribution as exc:
        raise FormatError(str(exc)) from exc


def write_separator_distribution_file(dist: SeparatorDistribution, path: str | Path) -> None:
    Path(path).write_text(format_separator_distribution(dist))


def read_separator_distribution_file(path: str | Path, G: BoundedDegreeGraph) -> SeparatorDistribution:
    return parse_separator_distribution(Path(path).read_text(), G)
