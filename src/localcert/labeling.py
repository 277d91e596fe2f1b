"""Proof labels: distance coloring plus per-vertex mass tables.

A labeling encodes a quantized witness g so that any vertex can recover
g(x)(z) for nearby x from labels alone: T1 colors vertices so that equal
colors never appear within distance 2r+1 of each other, and T2(z) stores, per
color q, alpha * g(x)(z) for the unique q-colored x with z in B_r(x).
`build_proof` is the whole prover: it measures the exact witness, colors,
sizes alpha by halving the worst-case rule's value while every vertex's
exact rounding error stays within the budget that rule guarantees, and
quantizes the witness into g while it writes the tables.  The rounding is
`measures.discretize`'s rule, applied in the scatter loop itself; tests hold
the tables to `discretize` as the reference.

Text format:

    labels <n> <r> <alpha> <palette> <epsnum>/<epsden> <K>
    <x> <color> <t_0> <t_1> ... <t_{palette-1}>

where eps is the scheme's target eps' and K is the component bound
max |B_2r|, the block size a certificate is judged against.  K is a size,
not a radius: the verifier checks its predicate at radius 2r, derived from
r (`verifier.locality_radius`), and never reads K.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, filterfalse
from pathlib import Path

from .errors import FormatError, WitnessTooRough
from .graphs import BoundedDegreeGraph, ball_sweep
from .measures import WitnessFunction, _require_uniform, check_uniformity, rounding_plan


@dataclass(frozen=True)
class SchemeParams:
    """The labels header's scheme constants: radius, target eps', denominator, palette."""

    r: int
    eps_prime: Fraction
    alpha: int
    palette: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"radius must be at least 1, got {self.r}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.palette < 1:
            raise ValueError(f"palette must be positive, got {self.palette}")
        _require_eps_prime(self.eps_prime)


def _require_eps_prime(eps_prime: Fraction) -> None:
    if not 0 < eps_prime < 2:
        raise ValueError(f"need 0 < eps' < 2, got eps'={eps_prime}")


@dataclass(frozen=True)
class ProofLabeling:
    """One label per vertex: a color and a full mass table over the palette.

    `k_local` is the header's K: the component bound max |B_2r| that
    `check_hyperfinite` holds extracted blocks to.  It is a size, not a
    radius; the verifier's predicate radius is `verifier.locality_radius`.
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
            # min and max scan the row in C; only a failing row is walked for its entry
            if min(row) < 0 or max(row) > p.alpha:
                q, t = next((q, t) for q, t in enumerate(row) if not 0 <= t <= p.alpha)
                raise ValueError(f"table entry {t} at ({z}, {q}) outside [0, {p.alpha}]")

    @property
    def n(self) -> int:
        return len(self.colors)

    @functools.cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The tables transposed on first read: `columns[q][z] == tables[z][q]`.

        A ball's view of color q is then one C-level gather from `columns[q]`
        (`verifier.LabeledBall`).  The cache lives and dies with the labeling.
        """
        return tuple(zip(*self.tables))


def distance_coloring(G: BoundedDegreeGraph, q: int) -> tuple[tuple[int, ...], list[int]]:
    """Greedy coloring of the q-th graph power, vertices in id order; and ball sizes.

    Any two vertices within distance q receive different colors; each vertex
    takes the smallest color unused in its q-ball so far.  Palette size is
    whatever the greedy run needed (at most max |B_q| by a counting argument).
    The sweep measures G on the way: sizes[s] = max_x |B_s(x)| (0 on an
    empty graph) for s up to the deepest ball profile.  When that lies below
    q every ball is whole, and the last entry holds for every larger radius.
    """
    if q < 1:
        raise ValueError(f"coloring distance must be positive, got {q}")
    colors = [-1] * G.n
    sizes = [0]
    last = None
    for v, ball, ends in ball_sweep(G, q):
        # -1 (not yet colored) never blocks a color
        taken = set(map(colors.__getitem__, ball))
        colors[v] = next(filterfalse(taken.__contains__, count()))
        # neighbouring balls mostly share a profile, and a repeat changes no max
        if ends != last:
            last = ends
            # the shorter profile is of whole balls: it extends by its last size
            gap = len(sizes) - len(ends)
            if gap < 0:
                sizes += [sizes[-1]] * -gap
            sizes = list(map(max, sizes, ends if gap <= 0 else ends + [ends[-1]] * gap))
    return tuple(colors), sizes


def build_proof(w: WitnessFunction, eps_prime: Fraction) -> ProofLabeling:
    """The prover: measure w, size alpha, color w.graph, and encode w at target eps'.

    w must measure below eps' (WitnessTooRough otherwise) with every support
    inside its ball B_r(x) (NotUniform otherwise).  The coloring is at
    distance 2r+1, not 2r: two vertices of one color are then more than 2r+1
    apart, so no table slot has two owners, x's own color is zero on shell
    r+1 of its ball, and a neighbor y's color has no owner but y whose
    radius-r ball meets B_r(x); the verifier's support check and exact l1
    sums hold for honest labels.  The coloring's sweep also measures max
    |B_s| for every s <= 2r+1, so alpha's max |B_r| and k_local = max
    |B_2r|, the component bound the scheme certifies, need no sweep of
    their own.

    Rounding may move each distribution by at most (eps' - eps)/3, so every
    edge of the quantized witness g measures at most eps + 2(eps' - eps)/3
    < eps'.  alpha = ceil(3 max |B_r| / (eps' - eps)) keeps every vertex
    inside that budget whatever its remainders, so it is the top rung of a
    ladder: alpha is halved (rounding up) while every vertex's exact error
    (`measures.rounding_plan`) stays within the budget, and the first rung
    that fails ends the descent.

    Each table is scattered from the supports, T[z][c(x)] = alpha * g(x)(z),
    one vertex at a time, so g never exists as a whole.  g(x) follows
    `measures.discretize`'s rule without a call to it: each alpha * w(x)(z)
    is floored, and the units still missing go to the atoms with the
    largest remainders, ties to the smaller id.  The error and the rounding
    depend only on a distribution's denominator and the multiset of its
    numerators, its shape, so both are worked out once per shape
    (grid 50^2 at r = 10 has 57 shapes among 2500 vertices).
    """
    if not w.is_full:
        raise ValueError("labels encode full-graph witnesses only")
    _require_eps_prime(eps_prime)  # before the measurement and the coloring it would waste
    r = w.radius
    report = check_uniformity(w)
    eps = report.max_edge_l1
    if eps >= eps_prime:
        raise WitnessTooRough(
            f"witness measures {eps} >= eps' = {eps_prime} at radius "
            f"{r}; this graph does not admit the claimed smoothness here"
        )
    _require_uniform(report, eps_prime)  # only a support outside its ball fails here
    G = w.graph
    n = G.n
    colors, sizes = distance_coloring(G, 2 * r + 1)
    budget = (eps_prime - eps) / 3
    alpha = math.ceil(sizes[min(r, len(sizes) - 1)] / budget)
    # each vertex's shape, the index of its (denominator, numerator multiset)
    index = {}
    shape_of = [index.setdefault((f.den, tuple(sorted(f.num.values()))), len(index))
                for f in map(w.dists.__getitem__, range(n))]
    shapes = [(den, Counter(nums)) for den, nums in index]
    plans = [rounding_plan(den, counts, alpha) for den, counts in shapes]
    while alpha > 1:
        half = (alpha + 1) // 2
        lower = [rounding_plan(den, counts, half) for den, counts in shapes]
        if any(plan.error > budget for plan in lower):
            break
        alpha, plans = half, lower
    palette = max(colors) + 1
    params = SchemeParams(r=r, eps_prime=eps_prime, alpha=alpha, palette=palette)
    tables = [[0] * palette for _ in range(n)]
    for x, col in enumerate(colors):
        num = w.dists[x].num
        lift, tied, extra, _ = plans[shape_of[x]]
        for z, c in num.items():
            tables[z][col] = lift[c]
        if extra:
            # the tied class's units go to its smallest ids
            ids = sorted(num) if tied is None else sorted(z for z, c in num.items() if c in tied)
            for z in ids[:extra]:
                tables[z][col] += 1
    # in place, so each list row is freed as its tuple is made
    for z, row in enumerate(tables):
        tables[z] = tuple(row)
    k_local = sizes[min(2 * r, len(sizes) - 1)]
    return ProofLabeling(params, colors, tuple(tables), k_local)


# --- text format ----------------------------------------------------------

class _Converted(dict):
    """token -> convert(token), computed on first lookup and kept.

    Label files repeat a few values (grid 50^2: 767 500 tokens, 2 500
    distinct), so the text format converts each distinct token once per call;
    equal entries then share one object.  A fresh instance per call keeps no
    state between calls.
    """

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, token):
        value = self[token] = self.convert(token)
        return value


def format_labeling(labeling: ProofLabeling) -> str:
    p = labeling.params
    head = (
        f"labels {labeling.n} {p.r} {p.alpha} {p.palette} "
        f"{p.eps_prime.numerator}/{p.eps_prime.denominator} {labeling.k_local}"
    )
    to_str = _Converted(str).__getitem__
    lines = [head]
    for x, (c, row) in enumerate(zip(labeling.colors, labeling.tables)):
        lines.append(f"{x} {c} " + " ".join(map(to_str, row)))
    # the empty last line gives the trailing newline without a second copy of the text
    lines.append("")
    return "\n".join(lines)


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
    # validation (ranges included) stays in ProofLabeling; the memo only converts
    to_int = _Converted(int).__getitem__
    colors = []
    tables = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2 + palette:
            raise FormatError(
                f"label line needs vertex, color and {palette} entries: {ln!r}"
            )
        try:
            x = to_int(parts[0])
            colors.append(to_int(parts[1]))
            tables.append(tuple(map(to_int, parts[2:])))
        except ValueError as exc:
            raise FormatError(f"non-integer label line: {ln!r}") from exc
        if x != i:
            raise FormatError(f"expected vertex {i}, got line for {x}")
    try:
        params = SchemeParams(r=r, eps_prime=eps_prime, alpha=alpha, palette=palette)
        return ProofLabeling(params, tuple(colors), tuple(tables), k_local)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_labeling_file(labeling: ProofLabeling, path: str | Path) -> None:
    Path(path).write_text(format_labeling(labeling))


def read_labeling_file(path: str | Path) -> ProofLabeling:
    return parse_labeling(Path(path).read_text())
