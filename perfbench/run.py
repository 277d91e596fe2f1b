"""Pipeline benchmark for localcert: gen -> prove -> verify -> extract.

    python3 perfbench/run.py --workload grid-ball --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout.  Each repetition is a fresh child
interpreter (perfbench/child.py) that imports the package from ./src, runs
`gen` (set-up), then `prove`, `verify --jobs 1` and `extract` through
`localcert.cli.main`.  Repetitions run one at a time; another starts only
while it should end within --seconds.  Every output is checked here, in the
parent, by perfbench/checks.py, which does not import the package, and
repetitions must agree byte for byte.  The checkers are fed known-bad
outputs once per run and must reject them.

Times are reference seconds (see probe.py): wall time rescaled by a speed
probe, so that a shared host's speed changes do not read as regressions.
Raw wall times are kept in the results file.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json (medians over
repetitions).  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics from the traced ones, plus the traced to
untraced pipeline time ratio (the tracing overhead).  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and a fuller record (environment, file digests, raw wall times, per-function
table) is written to .perfbench/results/.  Exits 2 without a result when
./src holds no localcert package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
MIN_SETUPS = 5
TRACE_TOLERANCE_S = 1e-6


class BenchError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, workdir: Path, traced: bool = False,
          setup_only: bool = False, extra: list[str] = ()) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, "-E", "-s", str(BENCH / "child.py"), "--src", str(SRC),
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only + list(extra)
    start = monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workdir,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition crashed (rc={proc.returncode}):\n{proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["setup_wall_s"] = rec["ready"] - start
    rec["setup_s"] = rec["setup_wall_s"] * rec["setup_factor"]
    return rec


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def check_rep(w, workdir: Path, rec: dict, first: dict | None) -> dict:
    """Judge one repetition's outputs; problems are listed per operation."""
    import checks

    files = {"graph": "graph.txt", "labels": "labels.txt", "tampered": "tampered.txt",
             "verdict": "verdict.txt", "partition": "partition.txt"}
    digests = {k: sha256(workdir / f) for k, f in files.items()}
    problems = {op: [] for op in ("gen", "prove", "verify", "extract")}
    graph_text = (workdir / "graph.txt").read_text()
    labels_text = (workdir / "labels.txt").read_text() if digests["labels"] else ""

    if rec["gen_rc"] != 0:
        problems["gen"].append(f"gen: rc={rec['gen_rc']}")
    if rec["prove"]["rc"] != 0 or not labels_text:
        problems["prove"].append(f"prove: rc={rec['prove']['rc']} {rec['prove']['stderr'][-200:]!r}")
    if first is None:
        G, d = checks.parse_graph(graph_text)
        problems["gen"] += checks.check_graph(graph_text, w.n, w.m, w.d)
        if labels_text:
            problems["prove"] += checks.check_labels(labels_text, w.n)
    else:
        for key, op in (("graph", "gen"), ("labels", "prove"), ("tampered", "verify"),
                        ("verdict", "verify"), ("partition", "extract")):
            if digests[key] != first["digests"][key]:
                problems[op].append(f"{key} file differs from the first repetition's")

    verdict_text = (workdir / "verdict.txt").read_text() if digests["verdict"] else ""
    extract = rec["extract"]
    edit_bound = None
    if w.tamper_share:
        problems["verify"] += checks.check_tamper_rejected(
            verdict_text, rec["verify"]["rc"], rec.get("tampered", []))
        if extract["rc"] != 1 or digests["partition"] or not extract["stderr"].startswith("error:"):
            problems["extract"].append(
                f"extract: tampered labels not refused (rc={extract['rc']})")
    else:
        problems["verify"] += checks.check_accept(verdict_text, rec["verify"]["rc"])
        if extract["rc"] != 0 or not digests["partition"]:
            problems["extract"].append(f"extract: rc={extract['rc']} {extract['stderr'][-200:]!r}")
        elif labels_text:
            head = checks.labels_header(labels_text)
            part_text = (workdir / "partition.txt").read_text()
            if first is None:
                problems["extract"] += checks.check_partition(
                    part_text, G, d, head["K"], head["eps_prime"])
            removed = int(part_text[: part_text.index("\n")].split()[3])
            if f"removed_edges = {removed}\n" not in extract["stderr"]:
                problems["extract"].append("extract: stderr summary disagrees with the partition file")
            edit_bound = Fraction(removed, w.n)
    if first is None and labels_text:
        part = workdir / "partition.txt"
        escaped = checks.self_test(G, d, labels_text, part.read_text() if part.exists() else None)
        if escaped:
            raise BenchError("checker self-test failed: " + "; ".join(escaped))
    return {
        "digests": digests,
        "problems": problems,
        "label_bytes": (workdir / "labels.txt").stat().st_size if digests["labels"] else 0,
        "edit_bound": None if edit_bound is None else float(edit_bound),
    }


def check_trace(rec: dict) -> None:
    """Self times of each command's span tree must add up to its measured time."""
    for root in rec["trace"]["roots"]:
        cmd = root["name"].removeprefix("cli.")
        if abs(root["duration_s"] - root["self_sum_s"]) > TRACE_TOLERANCE_S:
            raise BenchError(f"{root['name']}: self times sum to {root['self_sum_s']}, "
                             f"span lasts {root['duration_s']}")
        if not 0 <= rec[cmd]["s"] - root["duration_s"] < 1e-3:
            raise BenchError(f"{root['name']}: span {root['duration_s']} s, "
                             f"measured {rec[cmd]['s']} s")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if not a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import networkx

    src = hashlib.sha256()
    for path in sorted((SRC / "localcert").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def pipeline_s(rec: dict, key: str = "ref_s") -> float:
    return rec["prove"][key] + rec["verify"][key] + rec["extract"][key]


def run(args) -> dict:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    reps, checked = [], []
    try:
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_dir = work / f"rep{len(reps)}"
            rec = spawn(w.name, args.seed, rep_dir, traced=traced)
            rec["traced"] = traced
            chk = check_rep(w, rep_dir, rec, checked[0] if checked else None)
            shutil.rmtree(rep_dir)
            reps.append(rec)
            checked.append(chk)
            if traced:
                check_trace(rec)
            # start another repetition only if it should end within --seconds
            elapsed = time.perf_counter() - begin
            if len(reps) > args.trace and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setup_dir = work / f"setup{len(setups)}"
            setups.append(spawn(w.name, args.seed, setup_dir, setup_only=True)["setup_s"])
            shutil.rmtree(setup_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(c["problems"]) for c in checked)
    failed = sum(1 for c in checked for p in c["problems"].values() if p)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    values: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setups), "s"),
        "prove_s": (statistics.median([r["prove"]["ref_s"] for r in plain]), "s"),
        "verify_s": (statistics.median([r["verify"]["ref_s"] for r in plain]), "s"),
        "extract_s": (statistics.median([r["extract"]["ref_s"] for r in plain]), "s"),
        "pipeline_s": (statistics.median([pipeline_s(r) for r in plain]), "s"),
        "label_bytes": (statistics.median([c["label_bytes"] for c in checked]), "bytes"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in plain]), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    if traced:
        layers = {name: (statistics.median([r["layers"][name][0] for r in traced if name in r["layers"]]),
                         unit) for name, (_, unit) in traced[0]["layers"].items()}
        values.update(layers)
        values["trace.overhead_ratio"] = (
            statistics.median([pipeline_s(r) for r in traced]) / values["pipeline_s"][0], "ratio")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = values.get(m["name"], (0, m["unit"]))
        if m["name"] not in values and not m["name"].endswith((".calls", ".self_s")):
            raise BenchError(f"metric {m['name']} was not measured")
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    edit_bounds = [c["edit_bound"] for c in checked if c["edit_bound"] is not None]
    detail = {
        "workload": w.name,
        "why": w.why,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "repetitions": [
            {"traced": r["traced"], "peak_rss_mb": r["peak_rss_mb"],
             "setup_s": r["setup_s"], "setup_wall_s": r["setup_wall_s"],
             **{f"{c}_s": r[c]["ref_s"] for c in ("prove", "verify", "extract")},
             **{f"{c}_wall_s": r[c]["s"] for c in ("prove", "verify", "extract")},
             "pipeline_s": pipeline_s(r), "pipeline_wall_s": pipeline_s(r, "s")}
            for r in reps
        ],
        "setup_samples_s": setups,
        "edit_bound": edit_bounds[0] if edit_bounds else None,
        "fail_ratio": failed / attempted,
        "problems": [p for c in checked for ps in c["problems"].values() for p in ps],
        "sha256": checked[0]["digests"],
        "tampered": reps[0].get("tampered"),
        "all_metrics": {k: v for k, (v, _) in values.items()},
        "trace": {**traced[0]["trace"], "spans": traced[0]["spans"],
                  "wrapped_functions": traced[0]["wrapped_functions"]} if traced else None,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for problem in detail["problems"][:20]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"{len(reps)} repetitions, {attempted} operations, {failed} failed; "
          f"details in {(OUT / 'results' / f'{tag}.json').relative_to(ROOT)}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "localcert" / "cli.py").is_file():
        print(f"no localcert package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
