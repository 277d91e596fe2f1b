"""Opt-in scaling sweep: one traced pass per size, fitted log-log slopes.

    python3 perfbench/sweep.py [--out FILE]

Runs one traced repetition each of grid-ball at 25x25, 35x35, 50x50 and of
cycle-shift at 1000, 2000, 4000 vertices (about two minutes on a 2-core
machine).  For every command, and every traced function that takes at least
a millisecond at each size, it fits log(time) against log(n) by least
squares and writes the slopes, with the raw times, as JSON (default
.perfbench/sweep/BENCH_<date>_<src digest>.json).  A slope near 1 is linear
work, near 2 quadratic.  This is not part of the gated runs of run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path

import run

SIZES = {
    "grid-ball": (("25,25", 625), ("35,35", 1225), ("50,50", 2500)),
    "cycle-shift": (("1000", 1000), ("2000", 2000), ("4000", 4000)),
}
MIN_TIME_S = 1e-3


def slope(ns: list[int], ts: list[float]) -> float:
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in ts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def sweep_workload(name: str, work: Path) -> dict:
    ns, times = [], []
    for params, n in SIZES[name]:
        rec = run.spawn(name, 0, work / f"{name}-{n}", traced=True, extra=["--n", params])
        if rec["verify"]["rc"] != 0 or rec["extract"]["rc"] != 0:
            raise run.BenchError(f"{name} at n={n}: verify rc={rec['verify']['rc']}, "
                                 f"extract rc={rec['extract']['rc']}")
        stage = {f"cli.{c}": rec[c]["ref_s"] for c in ("prove", "verify", "extract")}
        factor = run.pipeline_s(rec) / run.pipeline_s(rec, "s")
        stage.update({f: v["total_s"] * factor for f, v in rec["trace"]["functions"].items()
                      if not f.startswith("cli.")})
        ns.append(n)
        times.append(stage)
        print(f"{name} n={n}: " + ", ".join(f"{c}={stage[f'cli.{c}']:.2f}s"
                                            for c in ("prove", "verify", "extract")),
              file=sys.stderr, flush=True)
    names = [k for k in times[0] if all(t.get(k, 0) >= MIN_TIME_S for t in times)]
    return {
        "n": ns,
        "seconds": {k: [t[k] for t in times] for k in names},
        "slope": {k: round(slope(ns, [t[k] for t in times]), 3) for k in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    env = run.environment(seed=0)
    work = run.OUT / f"sweep-work-{time.strftime('%Y%m%d%H%M%S')}"
    try:
        result = {"environment": env,
                  "workloads": {name: sweep_workload(name, work) for name in SIZES}}
    except run.BenchError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = Path(args.out) if args.out else (
        run.OUT / "sweep" / f"BENCH_{time.strftime('%Y%m%d')}_{env['src_sha256'][:12]}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, res in result["workloads"].items():
        print(f"{name} (n = {res['n']})")
        for k, s in sorted(res["slope"].items(), key=lambda kv: -kv[1]):
            print(f"  {k:45s} slope {s:6.3f}  at largest n {res['seconds'][k][-1]:8.3f} s")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
