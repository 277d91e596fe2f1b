"""Separator distributions and the witnesses they induce.

A K-separator Y leaves every component of G - Y with at most K vertices.  A
distribution over K-separators with small vertex marginals certifies strong
hyperfiniteness; the induced witness f(x) = E_Y[ delta_x if x in Y else
uniform on x's component of G - Y ] has every edge l1 bounded by four times
the max marginal.

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


def is_k_separator(G: BoundedDegreeGraph, Y: Iterable[int], K: int) -> bool:
    """True iff every component of G - Y has at most K vertices."""
    removed = set(Y)
    for v in removed:
        if not 0 <= v < G.n:
            raise ValueError(f"separator vertex {v} outside graph")
    return all(len(c) <= K for c in components(G, removed))


class SeparatorDistribution:
    """A finitely supported probability measure over K-separators of G.

    Samples with identical separator sets are merged.  Construction validates
    everything: positive weights summing to one, and every Y a K-separator.
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
        for fs, wt in merged.items():
            if wt <= 0:
                raise InvalidDistribution(f"nonpositive weight {wt}")
            total += wt
            if not is_k_separator(graph, fs, K):
                raise InvalidDistribution(
                    f"sample {sorted(fs)} leaves a component larger than K={K}"
                )
        if total != 1:
            raise InvalidDistribution(f"weights sum to {total}, expected 1")
        self.graph = graph
        self.K = K
        self.support: tuple[tuple[tuple[int, ...], Fraction], ...] = tuple(
            sorted(((tuple(sorted(fs)), wt) for fs, wt in merged.items()))
        )

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


def witness_from_separators(dist: SeparatorDistribution) -> WitnessFunction:
    """Mix per-separator measures into a witness of radius K on dist.graph.

    For each sample Y: a vertex x in Y contributes weight * delta_x, a vertex
    x outside Y spreads weight uniformly over its component of G - Y.  All
    arithmetic happens over one common denominator, so the mix is exact.
    """
    G = dist.graph
    samples = [(Y, wt, components(G, Y)) for Y, wt in dist.support]
    den = 1
    for _, wt, comps in samples:
        den = math.lcm(den, wt.denominator)
        for comp in comps:
            # weight/size itself must scale to an integer; lcm with the bare
            # size is not enough when it shares factors with the weight
            den = math.lcm(den, (wt / len(comp)).denominator)
    nums: list[dict[int, int]] = [dict() for _ in range(G.n)]
    for Y, wt, comps in samples:
        w_scaled = wt * den
        assert w_scaled.denominator == 1
        w_int = w_scaled.numerator
        for y in Y:
            row = nums[y]
            row[y] = row.get(y, 0) + w_int
        for comp in comps:
            share = w_int // len(comp)
            assert share * len(comp) == w_int, "denominator must absorb component size"
            for x in comp:
                row = nums[x]
                for z in comp:
                    row[z] = row.get(z, 0) + share
    # one vertex at a time: each row is handed to its distribution and
    # dropped from nums, so no row is held twice
    dists = {}
    for x in range(G.n):
        dists[x], nums[x] = RationalDist(den, nums[x]), None
    return WitnessFunction(G, dist.K, dists)


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


def shift_family_distribution(G: BoundedDegreeGraph, k: int) -> SeparatorDistribution | None:
    """The shift distribution of modulus k for a canonical path, cycle or tree; else None.

    A path (ids in path order) and a connected tree (rooted at 0) take k as
    given.  A cycle needs k | n, so k is raised to the least divisor of n that
    is at least k; k beyond n is refused.
    """
    if k < 1:
        raise ValueError(f"shift modulus must be positive, got {k}")
    n = G.n
    shape = _path_or_cycle(G)
    if shape == "path":
        return path_shift_distribution(G, k)
    if shape == "cycle":
        if k > n:
            raise ValueError(
                f"shift modulus k = {k} exceeds the cycle length n = {n}; "
                "a larger eps' gives a smaller k"
            )
        while n % k:
            k += 1
        return path_shift_distribution(G, k)
    if G.m == n - 1 and len(components(G)) == 1:
        return tree_depth_shift_distribution(G, k)
    return None


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
