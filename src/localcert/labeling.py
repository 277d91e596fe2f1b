"""Proof labels: distance coloring plus per-vertex mass tables.

A labeling encodes a quantized witness g so that any vertex can recover
g(x)(z) for nearby x from labels alone: T1 colors vertices so that equal
colors never appear within distance 2r of each other, and T2(z) stores, per
color q, alpha * g(x)(z) for the unique q-colored x with z in B_r(x).

Text format:

    labels <n> <r> <alpha> <palette> <epsnum>/<epsden> <K>
    <x> <color> <t_0> <t_1> ... <t_{palette-1}>

where eps is the scheme's target eps' and K is the locality radius for the
locally-checkable half of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import AmbiguousColor, FormatError
from .graphs import BoundedDegreeGraph, bfs, max_ball_size_actual
from .measures import WitnessFunction


@dataclass(frozen=True)
class SchemeParams:
    """Shared scheme constants: degree bound, radius, gap, denominator, palette."""

    d: int
    r: int
    eps: Fraction
    eps_prime: Fraction
    alpha: int
    palette: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"degree bound must be at least 2, got {self.d}")
        if self.r < 1:
            raise ValueError(f"radius must be at least 1, got {self.r}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.palette < 1:
            raise ValueError(f"palette must be positive, got {self.palette}")
        if not (0 <= self.eps < self.eps_prime < 2):
            raise ValueError(
                f"need 0 <= eps < eps' < 2, got eps={self.eps}, eps'={self.eps_prime}"
            )


@dataclass(frozen=True)
class ProofLabeling:
    """One label per vertex: a color and a full mass table over the palette.

    `k_local` is the locality radius the pipeline's structural half runs at;
    it travels with the labeling because the verifier reads it from the
    header, never from the graph.
    """

    params: SchemeParams
    colors: tuple[int, ...]
    tables: tuple[tuple[int, ...], ...]
    k_local: int

    def __post_init__(self):
        p = self.params
        if len(self.colors) != len(self.tables):
            raise ValueError("colors and tables must have equal length")
        if self.k_local < 0:
            raise ValueError(f"k_local must be nonnegative, got {self.k_local}")
        for x, c in enumerate(self.colors):
            if not 0 <= c < p.palette:
                raise ValueError(f"color {c} at vertex {x} outside palette {p.palette}")
        for z, row in enumerate(self.tables):
            if len(row) != p.palette:
                raise ValueError(f"table at vertex {z} has length {len(row)}, want {p.palette}")
            for q, t in enumerate(row):
                if not 0 <= t <= p.alpha:
                    raise ValueError(f"table entry {t} at ({z}, {q}) outside [0, {p.alpha}]")

    @property
    def n(self) -> int:
        return len(self.colors)


def distance_coloring(G: BoundedDegreeGraph, q: int) -> tuple[int, ...]:
    """Greedy coloring of the q-th graph power, vertices in id order.

    Any two vertices within distance q receive different colors; each vertex
    takes the smallest color unused in its q-ball so far.  Palette size is
    whatever the greedy run needed (at most max |B_q| by a counting argument).
    """
    if q < 1:
        raise ValueError(f"coloring distance must be positive, got {q}")
    colors = [-1] * G.n
    for v in range(G.n):
        taken = set()
        for u in bfs(G.adj, (v,), q)[0]:
            cu = colors[u]
            if cu >= 0:
                taken.add(cu)
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


def build_proof(G: BoundedDegreeGraph, gtilde: WitnessFunction,
                colors: tuple[int, ...], eps: Fraction,
                eps_prime: Fraction) -> ProofLabeling:
    """Assemble the labeling that encodes a quantized witness.

    Requires colors to be distance-2r proper (so the encoded owner of each
    table slot is unique; violations raise AmbiguousColor) and gtilde to have
    one common denominator alpha.  k_local is fixed to the measured max size
    of B_{2r}, the component bound the scheme certifies.
    """
    if not gtilde.is_full:
        raise ValueError("labels encode full-graph witnesses only")
    if len(colors) != G.n:
        raise ValueError(f"got {len(colors)} colors for {G.n} vertices")
    r = gtilde.radius
    alphas = {gtilde.dists[x].den for x in gtilde.vertices}
    if len(alphas) != 1:
        raise ValueError(f"witness must share one denominator, found {sorted(alphas)}")
    (alpha,) = alphas
    palette = max(colors) + 1
    params = SchemeParams(
        d=G.d, r=r, eps=eps, eps_prime=eps_prime, alpha=alpha, palette=palette
    )
    tables = []
    for z in range(G.n):
        row = [0] * palette
        owner = [-1] * palette
        for x in bfs(G.adj, (z,), r)[0]:
            q = colors[x]
            if owner[q] >= 0:
                raise AmbiguousColor(z, q)
            owner[q] = x
            row[q] = gtilde.dists[x].num.get(z, 0)
        tables.append(tuple(row))
    k_local = max_ball_size_actual(G, 2 * r)
    return ProofLabeling(params, tuple(colors), tuple(tables), k_local)


def decode_value(G: BoundedDegreeGraph, labeling: ProofLabeling, x: int, z: int) -> Fraction:
    """Recover the encoded g(x)(z) = T2(z)(T1(x)) / alpha, or 0 beyond radius r."""
    p = labeling.params
    if z not in bfs(G.adj, (x,), p.r)[1]:
        return Fraction(0)
    return Fraction(labeling.tables[z][labeling.colors[x]], p.alpha)


# --- text format ----------------------------------------------------------

def format_labeling(labeling: ProofLabeling) -> str:
    p = labeling.params
    head = (
        f"labels {labeling.n} {p.r} {p.alpha} {p.palette} "
        f"{p.eps_prime.numerator}/{p.eps_prime.denominator} {labeling.k_local}"
    )
    lines = [head]
    for x in range(labeling.n):
        row = " ".join(str(t) for t in labeling.tables[x])
        lines.append(f"{x} {labeling.colors[x]} {row}")
    return "\n".join(lines) + "\n"


def parse_labeling(text: str) -> ProofLabeling:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty labeling file")
    head = lines[0].split()
    if len(head) != 7 or head[0] != "labels":
        raise FormatError(f"bad labels header: {lines[0]!r}")
    try:
        n, r, alpha, palette = (int(t) for t in head[1:5])
        enum, eden = head[5].split("/")
        eps_prime = Fraction(int(enum), int(eden))
        k_local = int(head[6])
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad labels header: {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} label lines, got {len(lines) - 1}")
    colors = []
    tables = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2 + palette:
            raise FormatError(
                f"label line needs vertex, color and {palette} entries: {ln!r}"
            )
        try:
            x = int(parts[0])
            colors.append(int(parts[1]))
            tables.append(tuple(int(t) for t in parts[2:]))
        except ValueError as exc:
            raise FormatError(f"non-integer label line: {ln!r}") from exc
        if x != i:
            raise FormatError(f"expected vertex {i}, got line for {x}")
    try:
        # d and the measured eps are not serialized; the verifier never reads
        # them (balls come from the graph, the check threshold is eps').
        params = SchemeParams(
            d=2, r=r, eps=Fraction(0), eps_prime=eps_prime, alpha=alpha, palette=palette
        )
        return ProofLabeling(params, tuple(colors), tuple(tables), k_local)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_labeling_file(labeling: ProofLabeling, path: str | Path) -> None:
    Path(path).write_text(format_labeling(labeling))


def read_labeling_file(path: str | Path) -> ProofLabeling:
    return parse_labeling(Path(path).read_text())
