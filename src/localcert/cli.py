"""Command-line driver: gen, prove, verify, extract, report.

Every subcommand is a pure function of its input files and flags; outputs are
byte-identical across reruns and across --jobs settings.  Rational flags are
written <num>/<den> (a bare integer is accepted).  Exit codes: 0 success or
accept, 1 reject or infeasible, 2 usage or format error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .errors import FormatError, LocalcertError, NotUniform, WitnessTooRough
from .graphs import (
    BoundedDegreeGraph,
    FamilySpec,
    bfs,
    format_graph,
    generate,
    read_graph_file,
)
from .hyperfinite import (
    check_hyperfinite,
    edit_distance_upper_bound,
    extract_partition,
    format_partition,
)
from .labeling import build_proof, distance_coloring, format_labeling, read_labeling_file
from .measures import (
    WitnessFunction,
    check_uniformity,
    derive_alpha,
    discretize_witness,
    tighten_radius,
    uniform_ball_witness,
)
from .separators import (
    path_shift_distribution,
    read_separator_distribution_file,
    tree_depth_shift_distribution,
    witness_from_separators,
)
from .verifier import (
    decode_accepted_witness,
    format_verdict,
    pipeline_verify,
    resolve_predicate,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand run depends on."""

    subcommand: str
    graph: str | None = None
    labels: str | None = None
    family: str | None = None
    n: str | None = None
    seed: int | None = None
    r: int | None = None
    eps: Fraction | None = None
    eps_prime: Fraction | None = None
    alpha: int | None = None
    k_shift: int | None = None
    K: int | None = None
    witness: str = "auto"
    predicate: str = "planar"
    jobs: int = 1
    out: str | None = None


def parse_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}; write <num>/<den>") from exc
    if value.denominator < 1:
        raise ValueError(f"cannot parse rational {text!r}")
    return value


def _parse_params(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace("x", ",").split(","))
    except ValueError as exc:
        raise ValueError(
            f"cannot parse family parameters {text!r}; write e.g. 100 or 50,50"
        ) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_generate(config: RunConfig) -> int:
    if config.family is None or config.n is None:
        raise ValueError("gen needs --family and --n")
    spec = FamilySpec(config.family, _parse_params(config.n), config.seed)
    G = generate(spec)
    _emit(format_graph(G), config.out)
    return 0


def _default_shift(eps_prime: Fraction) -> int:
    k = 2
    while Fraction(4, k) >= eps_prime:
        k += 1
    return k


def _auto_witness(G: BoundedDegreeGraph, config: RunConfig) -> WitnessFunction:
    """Shift-family witness when G is a canonical path/cycle/tree, else uniform-ball."""
    n = G.n
    edges = set(G.edges())
    path_edges = {(i, i + 1) for i in range(n - 1)}
    eps_prime = config.eps_prime
    assert eps_prime is not None
    k = config.k_shift if config.k_shift is not None else _default_shift(eps_prime)
    if k < 1:
        raise ValueError(f"shift modulus must be positive, got {k}")
    if edges == path_edges:
        return tighten_radius(witness_from_separators(G, path_shift_distribution(G, k)))
    if n >= 3 and edges == path_edges | {(0, n - 1)}:
        while n % k:
            k += 1
        return tighten_radius(witness_from_separators(G, path_shift_distribution(G, k)))
    if G.m == n - 1 and _is_connected(G):
        return tighten_radius(
            witness_from_separators(G, tree_depth_shift_distribution(G, k))
        )
    if config.r is None:
        raise ValueError("no shift family matches this graph; pass --r for uniform-ball")
    return uniform_ball_witness(G, config.r)


def _is_connected(G: BoundedDegreeGraph) -> bool:
    if G.n == 0:
        return True
    return len(bfs(G.adj, (0,))[0]) == G.n


def _build_witness(G: BoundedDegreeGraph, config: RunConfig) -> WitnessFunction:
    mode = config.witness
    if mode == "uniform-ball":
        if config.r is None:
            raise ValueError("--witness uniform-ball needs --r")
        return uniform_ball_witness(G, config.r)
    if mode.startswith("separators:"):
        dist = read_separator_distribution_file(mode.split(":", 1)[1], G)
        return tighten_radius(witness_from_separators(G, dist))
    if mode == "auto":
        return _auto_witness(G, config)
    raise ValueError(
        f"unknown witness source {mode!r}; use uniform-ball, separators:<file>, or auto"
    )


def cmd_prove(config: RunConfig) -> int:
    if config.graph is None:
        raise ValueError("prove needs a graph file")
    if config.eps_prime is None:
        raise ValueError("prove needs --eps-prime")
    G = read_graph_file(config.graph)
    w = _build_witness(G, config)
    report = check_uniformity(w)
    assert report.support_ok, "constructed witness must respect its radius"
    measured = report.max_edge_l1
    if measured >= config.eps_prime:
        raise WitnessTooRough(
            f"witness measures {measured} >= eps' = {config.eps_prime} at radius "
            f"{w.radius}; this graph does not admit the claimed smoothness here"
        )
    eps = config.eps if config.eps is not None else measured
    if eps < measured:
        raise NotUniform(f"--eps {eps} is below the measured value {measured}")
    alpha = config.alpha if config.alpha is not None else derive_alpha(
        G, w.radius, eps, config.eps_prime
    )
    quantized = discretize_witness(w, eps, config.eps_prime, alpha)
    # distance 2r+2, not 2r: zeroes every table slot whose owner lies outside
    # the reader's radius-r ball, which keeps the honest l1 check sums exact
    colors = distance_coloring(G, 2 * w.radius + 2)
    labeling = build_proof(G, quantized, colors, eps, config.eps_prime)
    if config.K is not None:
        labeling = replace(labeling, k_local=config.K)
    _emit(format_labeling(labeling), config.out)
    p = labeling.params
    sys.stderr.write(
        f"measured_eps = {measured.numerator}/{measured.denominator}\n"
        f"radius = {p.r}\nalpha = {p.alpha}\npalette = {p.palette}\n"
        f"K = {labeling.k_local}\n"
    )
    return 0


def cmd_verify(config: RunConfig) -> int:
    if config.graph is None or config.labels is None:
        raise ValueError("verify needs a graph file and a labels file")
    G = read_graph_file(config.graph)
    labeling = read_labeling_file(config.labels)
    verdict = pipeline_verify(G, labeling, config.predicate, jobs=config.jobs)
    _emit(format_verdict(verdict), config.out)
    return 0 if verdict.accept else 1


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_extract(config: RunConfig) -> int:
    if config.graph is None or config.labels is None:
        raise ValueError("extract needs a graph file and a labels file")
    G = read_graph_file(config.graph)
    labeling = read_labeling_file(config.labels)
    witness = decode_accepted_witness(G, labeling)
    eps = config.eps if config.eps is not None else labeling.params.eps_prime
    partition = extract_partition(G, witness, eps)
    _emit(format_partition(partition), config.out)
    bound = edit_distance_upper_bound(G, partition, resolve_predicate(config.predicate))
    lines = [
        f"blocks = {partition.num_blocks}",
        f"max_block = {partition.max_block_size}",
        f"removed_edges = {partition.num_removed}",
        f"removed_per_vertex = {_fraction_str(Fraction(partition.num_removed, G.n))}",
        "edit_bound = "
        + (_fraction_str(bound.bound) if bound.feasible else f"infeasible block {bound.offending_block}"),
    ]
    sys.stderr.write("\n".join(lines) + "\n")
    return 0


def cmd_report(config: RunConfig) -> int:
    if config.graph is None or config.labels is None:
        raise ValueError("report needs a graph file and a labels file")
    G = read_graph_file(config.graph)
    labeling = read_labeling_file(config.labels)
    p = labeling.params
    verdict = pipeline_verify(G, labeling, config.predicate, jobs=config.jobs)
    guarantee = Fraction(G.d * G.d, 1) * p.eps_prime / 2
    lines = [
        f"n = {G.n}",
        f"m = {G.m}",
        f"d = {G.d}",
        f"r = {p.r}",
        f"alpha = {p.alpha}",
        f"palette = {p.palette}",
        f"eps_prime = {_fraction_str(p.eps_prime)}",
        f"K = {labeling.k_local}",
        f"predicate = {config.predicate}",
        f"verdict = {'accept' if verdict.accept else 'reject'}",
        f"rejecting = {len(verdict.rejecting())}",
        f"apls_guarantee = {_fraction_str(guarantee)}",
    ]
    if verdict.accept:
        witness = decode_accepted_witness(G, labeling, verdict=verdict)
        decoded = check_uniformity(witness)
        partition = extract_partition(G, witness, p.eps_prime)
        hyper = check_hyperfinite(
            G, partition, guarantee, labeling.k_local, normalization="vertices"
        )
        bound = edit_distance_upper_bound(G, partition, resolve_predicate(config.predicate))
        lines += [
            f"eps_decoded = {_fraction_str(decoded.max_edge_l1)}",
            f"blocks = {partition.num_blocks}",
            f"max_block = {partition.max_block_size}",
            f"removed_edges = {partition.num_removed}",
            f"removed_per_vertex = {_fraction_str(hyper.removed_per_vertex)}",
            f"removed_per_edge = {_fraction_str(hyper.removed_per_edge)}",
            f"hyperfinite_ok = {'true' if hyper.ok else 'false'}",
            "edit_bound = "
            + (_fraction_str(bound.bound) if bound.feasible else f"infeasible block {bound.offending_block}"),
        ]
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if verdict.accept else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcert",
        description="Approximate proof labeling schemes for hyperfinite properties.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate a family graph file")
    gen.add_argument("--family", required=True,
                     choices=["path", "cycle", "grid", "full_tree", "random_regular"])
    gen.add_argument("--n", required=True,
                     help="family parameters, comma-separated (e.g. 100 or 50,50)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)

    prove = sub.add_parser("prove", help="build a proof labeling for a graph")
    prove.add_argument("graph")
    prove.add_argument("--r", type=int, default=None, help="witness radius (uniform-ball)")
    prove.add_argument("--eps", type=parse_fraction, default=None,
                       help="claimed uniformity (default: measured)")
    prove.add_argument("--eps-prime", type=parse_fraction, required=True)
    prove.add_argument("--alpha", type=int, default=None, help="override denominator")
    prove.add_argument("--witness", default="auto",
                       help="uniform-ball | separators:<file> | auto")
    prove.add_argument("--k-shift", type=int, default=None,
                       help="shift modulus for auto separator witnesses")
    prove.add_argument("--K", type=int, default=None,
                       help="override the locality bound written to the header")
    prove.add_argument("--out", default=None)

    for name, fn_help in (("verify", "check a labeling"),
                          ("extract", "decode and partition"),
                          ("report", "aggregate summary")):
        p = sub.add_parser(name, help=fn_help)
        p.add_argument("graph")
        p.add_argument("labels")
        p.add_argument("--predicate", default="planar",
                       choices=["planar", "acyclic", "always-true"])
        if name != "extract":
            p.add_argument("--jobs", type=int, default=1)
        else:
            p.add_argument("--eps", type=parse_fraction, default=None,
                           help="extraction threshold (default: header eps')")
        p.add_argument("--out", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {
        "subcommand": args.subcommand,
        "graph": getattr(args, "graph", None),
        "labels": getattr(args, "labels", None),
        "family": getattr(args, "family", None),
        "n": getattr(args, "n", None),
        "seed": getattr(args, "seed", None),
        "r": getattr(args, "r", None),
        "eps": getattr(args, "eps", None),
        "eps_prime": getattr(args, "eps_prime", None),
        "alpha": getattr(args, "alpha", None),
        "k_shift": getattr(args, "k_shift", None),
        "K": getattr(args, "K", None),
        "witness": getattr(args, "witness", "auto"),
        "predicate": getattr(args, "predicate", "planar"),
        "jobs": getattr(args, "jobs", 1),
        "out": getattr(args, "out", None),
    }
    return RunConfig(**fields)


_COMMANDS = {
    "gen": cmd_generate,
    "prove": cmd_prove,
    "verify": cmd_verify,
    "extract": cmd_extract,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        return _COMMANDS[config.subcommand](config)
    except (FormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LocalcertError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
