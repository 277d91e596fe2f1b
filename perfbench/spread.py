"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload grid-ball [--seeds 1-10] [--seconds 36]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric its median and the distance between the first and third quartile as
a share of the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    runs, walls = [], []
    for seed in range(first, last + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(f"seed {seed}: rc={proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: {walls[-1]:.1f} s, correct={result['correct']}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':40s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.5g} {share:10.4f} {bounds.get(name) or '':>6}")
    print(f"run wall time: max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
