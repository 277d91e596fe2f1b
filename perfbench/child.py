"""One repetition of a workload in a fresh interpreter.

Set-up (importing localcert and networkx, `gen` into a graph file) is
followed by `prove`, `verify` and `extract`, each one in-process call of
`localcert.cli.main`.  On tree-tamper the labels text is corrupted between
prove and verify, outside the timed calls.  A speed probe (probe.py) runs
throughout, so each timed interval is also given in reference seconds.  The
last stdout line is a JSON record of times, exit codes, captured stderr and
peak RSS; with --trace it also carries the span summary and the per-layer
metrics.

    python3 perfbench/child.py --src SRC --workload NAME --seed N --workdir DIR
                               [--trace] [--setup-only] [--n PARAMS]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from probe import SpeedProbe


def monotonic() -> float:
    """A clock shared by all processes, so the parent can time our start-up."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    speed = SpeedProbe()
    speed.start()
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--n", help="override the workload's family parameters (scaling sweep)")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import networkx  # noqa: F401  (set-up covers its import)
    from localcert import cli

    from checks import tamper_labels
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    gen = list(w.gen)
    if args.n:
        gen[gen.index("--n") + 1] = args.n
    work = Path(args.workdir)
    graph, labels, verdict, partition = (
        str(work / f) for f in ("graph.txt", "labels.txt", "verdict.txt", "partition.txt"))
    record: dict = {"gen_rc": cli.main(["gen", *gen, "--out", graph])}
    record["ready"] = monotonic()
    record["setup_factor"] = speed.factor(started, time.perf_counter())
    if args.setup_only:
        speed.stop()
        print(json.dumps(record))
        return 0

    spans = None
    if args.trace:
        import tracer

        spans = tracer.Tracer()
        record["wrapped_functions"] = tracer.install(spans)

    def run(cmd: str, argv: list[str]) -> None:
        call = cli.main if spans is None else spans.wrap(f"cli.{cmd}", cli.main)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = call([cmd, *argv])
            t1 = time.perf_counter()
        factor = speed.factor(t0, t1)
        record[cmd] = {"s": t1 - t0, "ref_s": (t1 - t0) * factor, "factor": factor,
                       "rc": rc, "stderr": err.getvalue(), "t0": t0, "t1": t1}

    run("prove", [graph, *w.prove, "--out", labels])
    checked_labels = labels
    if w.tamper_share and record["prove"]["rc"] == 0:
        text, record["tampered"] = tamper_labels(Path(labels).read_text(), args.seed, w.tamper_share)
        checked_labels = str(work / "tampered.txt")
        Path(checked_labels).write_text(text)
    run("verify", [graph, checked_labels, "--predicate", "planar", "--jobs", "1", "--out", verdict])
    run("extract", [graph, checked_labels, "--predicate", "planar", "--out", partition])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.stop()

    if spans is not None:
        summary = tracer.summarize(spans.spans)
        factor = speed.factor(record["prove"]["t0"], record["extract"]["t1"])
        record["layers"] = {k: (v * factor if unit == "s" else v, unit)
                            for k, (v, unit) in tracer.layer_metrics(summary).items()}
        del summary["info"]
        record["spans"] = len(spans.spans)
        record["trace"] = summary
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
