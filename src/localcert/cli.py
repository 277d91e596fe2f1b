"""Command-line driver: gen, prove, verify, extract, report.

Every subcommand is a pure function of its input files and flags; outputs are
byte-identical across reruns and across --jobs settings.  Rational flags are
written <num>/<den> (a bare integer is accepted).  Exit codes: 0 success or
accept, 1 reject or infeasible, 2 usage or format error (labels for another
vertex count included).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .errors import FormatError, LocalcertError, MalformedLabeling
from .graphs import (
    FAMILIES,
    BoundedDegreeGraph,
    FamilySpec,
    format_graph,
    generate,
    read_graph_file,
)
from .hyperfinite import (
    PartitionResult,
    check_hyperfinite,
    edit_distance_upper_bound,
    extract_partition,
    format_partition,
)
from .labeling import build_proof, format_labeling, read_labeling_file
from .measures import WitnessFunction, check_uniformity, tighten_radius, uniform_ball_witness
from .separators import (
    edge_shift_partitions,
    read_separator_distribution_file,
    witness_from_separators,
    witness_from_tops,
)
from .verifier import (
    PREDICATES,
    combine_verdicts,
    decode_accepted_witness,
    format_verdict,
    locality_radius,
    pipeline_verify,
    resolve_predicate,
    verify_and_decode,
    verify_locally_p,
)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}; write <num>/<den>") from exc


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_params(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace("x", ",").split(","))
    except ValueError as exc:
        raise ValueError(
            f"cannot parse family parameters {text!r}; write e.g. 100 or 50,50"
        ) from exc


def _read_nonempty_graph(path: str, action: str) -> BoundedDegreeGraph:
    G = read_graph_file(path)
    if G.n == 0:
        raise ValueError(f"cannot {action} the empty graph: {path} has no vertices")
    return G


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_generate(args: argparse.Namespace) -> int:
    spec = FamilySpec(args.family, _parse_params(args.n), args.seed)
    G = generate(spec)
    _emit(format_graph(G), args.out)
    return 0


def _build_witness(G: BoundedDegreeGraph, args: argparse.Namespace) -> WitnessFunction:
    """The --witness source; auto takes the edge-shift family, at the least
    k >= 2 with 2/k < eps', when G is a canonical cycle or a connected tree,
    and the uniform-ball witness otherwise.  Auto puts each shift's weight on
    the top of x's piece (`witness_from_tops`): the same 2/k bound as the
    uniform mix over the piece, at radius k - 1 instead of 2k - 2, with at
    most k atoms per vertex.  A separators:<file> witness keeps the uniform
    mix over each component (`witness_from_separators`)."""
    mode, w = args.witness, None
    if mode == "auto":
        samples = edge_shift_partitions(G, 2 // args.eps_prime + 1)
        if samples is not None:
            w = witness_from_tops(G, samples)
            if args.r is not None:
                sys.stderr.write(f"note: --r {args.r} went unused; --witness auto chose the "
                                 "edge-shift witness, whose radius comes from its pieces\n")
    elif mode.startswith("separators:"):
        if args.r is not None:
            raise ValueError("--r does not apply to --witness separators:<file>, whose "
                             "radius is the distribution's K, tightened; drop --r")
        w = witness_from_separators(read_separator_distribution_file(mode.split(":", 1)[1], G))
    elif mode != "uniform-ball":
        raise ValueError(
            f"unknown witness source {mode!r}; use uniform-ball, separators:<file>, or auto"
        )
    if w is not None:
        return tighten_radius(w)
    if args.r is None:
        raise ValueError("--witness uniform-ball needs --r" if mode == "uniform-ball"
                         else "no shift family matches this graph; pass --r for uniform-ball")
    return uniform_ball_witness(G, args.r)


def cmd_prove(args: argparse.Namespace) -> int:
    # the header holds 0 < eps' < 2; refuse anything else before any work
    if not 0 < args.eps_prime < 2:
        raise ValueError(f"--eps-prime must be positive and below 2, got {args.eps_prime}")
    G = _read_nonempty_graph(args.graph, "prove")
    w = _build_witness(G, args)
    labeling = build_proof(w, args.eps_prime)
    measured = check_uniformity(w).max_edge_l1  # cached by build_proof
    # the exact witness is the largest object prove holds; drop it before
    # the label text is built
    del w
    _emit(format_labeling(labeling), args.out)
    p = labeling.params
    sys.stderr.write(
        f"measured_eps = {_fraction_str(measured)}\n"
        f"radius = {p.r}\nalpha = {p.alpha}\npalette = {p.palette}\n"
        f"K = {labeling.k_local}\n"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    G = _read_nonempty_graph(args.graph, "verify")
    labeling = read_labeling_file(args.labels)
    verdict = pipeline_verify(G, labeling, args.predicate, jobs=args.jobs)
    _emit(format_verdict(verdict), args.out)
    return 0 if verdict.accept else 1


def _edit_bound_line(G: BoundedDegreeGraph, partition: PartitionResult, predicate: str) -> str:
    bound = edit_distance_upper_bound(G, partition, resolve_predicate(predicate))
    return "edit_bound = " + (
        _fraction_str(bound.bound) if bound.feasible else f"infeasible block {bound.offending_block}"
    )


def cmd_extract(args: argparse.Namespace) -> int:
    G = _read_nonempty_graph(args.graph, "extract from")
    labeling = read_labeling_file(args.labels)
    witness = decode_accepted_witness(G, labeling)
    eps_prime = labeling.params.eps_prime
    del labeling  # the tables are not read again; release them before extraction
    partition = extract_partition(witness, eps_prime)
    del witness  # released before the edit bound runs the predicate on all of G
    _emit(format_partition(partition), args.out)
    lines = [
        f"blocks = {partition.num_blocks}",
        f"max_block = {partition.max_block_size}",
        f"removed_edges = {partition.num_removed}",
        f"removed_per_vertex = {_fraction_str(Fraction(partition.num_removed, G.n))}",
        _edit_bound_line(G, partition, args.predicate),
    ]
    sys.stderr.write("\n".join(lines) + "\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    G = _read_nonempty_graph(args.graph, "report on")
    labeling = read_labeling_file(args.labels)
    # property A and the decoded witness come from one pass over the balls;
    # the tables are not read again, so only the header is kept
    property_a, witness = verify_and_decode(G, labeling)
    p, k_local = labeling.params, labeling.k_local
    del labeling
    local_p = verify_locally_p(G, locality_radius(p), args.predicate)
    verdict = combine_verdicts(property_a, local_p)
    guarantee = Fraction(G.d * G.d, 1) * p.eps_prime / 2
    lines = [
        f"n = {G.n}",
        f"m = {G.m}",
        f"d = {G.d}",
        f"r = {p.r}",
        f"alpha = {p.alpha}",
        f"palette = {p.palette}",
        f"eps_prime = {_fraction_str(p.eps_prime)}",
        f"K = {k_local}",
        f"predicate = {args.predicate}",
        f"verdict = {'accept' if verdict.accept else 'reject'}",
        f"rejecting = {len(verdict.rejecting())}",
        f"apls_guarantee = {_fraction_str(guarantee)}",
    ]
    if verdict.accept:
        partition = extract_partition(witness, p.eps_prime)
        decoded = check_uniformity(witness)  # cached by the extraction's pass
        del witness  # released before the edit bound runs the predicate on all of G
        hyper = check_hyperfinite(G, partition, guarantee, k_local)
        lines += [
            f"eps_decoded = {_fraction_str(decoded.max_edge_l1)}",
            f"blocks = {partition.num_blocks}",
            f"max_block = {partition.max_block_size}",
            f"removed_edges = {partition.num_removed}",
            f"removed_per_vertex = {_fraction_str(hyper.removed_per_vertex)}",
            f"removed_per_edge = {_fraction_str(hyper.removed_per_edge)}",
            f"hyperfinite_ok = {'true' if hyper.ok else 'false'}",
            _edit_bound_line(G, partition, args.predicate),
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict.accept else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcert",
        description="Approximate proof labeling schemes for hyperfinite properties.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # no subcommand prefix-matches its flags, so `prove --eps` cannot stand for --eps-prime
    gen = sub.add_parser("gen", help="generate a family graph file", allow_abbrev=False)
    gen.add_argument("--family", required=True, choices=list(FAMILIES))
    gen.add_argument("--n", required=True,
                     help="family parameters, comma-separated (e.g. 100 or 50,50)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)

    prove = sub.add_parser("prove", help="build a proof labeling for a graph", allow_abbrev=False)
    prove.add_argument("graph")
    prove.add_argument("--r", type=int, default=None,
                       help="witness radius (uniform-ball, and auto's fallback)")
    prove.add_argument("--eps-prime", type=parse_fraction, required=True)
    prove.add_argument("--witness", default="auto",
                       help="uniform-ball | separators:<file> | auto")
    prove.add_argument("--out", default=None)

    for name, fn_help in (("verify", "check a labeling"),
                          ("extract", "decode and partition"),
                          ("report", "aggregate summary")):
        p = sub.add_parser(name, help=fn_help, allow_abbrev=False)
        p.add_argument("graph")
        p.add_argument("labels")
        p.add_argument("--predicate", default="planar", choices=list(PREDICATES))
        if name == "verify":
            p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None)

    return parser


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
    try:
        return _COMMANDS[args.subcommand](args)
    except (FormatError, MalformedLabeling, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LocalcertError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
