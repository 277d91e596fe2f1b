"""Smoke test of the benchmark's traced path: one repetition with the span tracer on.

The tracer wraps package functions by name and reads the prover's
`ProofLabeling` (tables, k_local), so a refactor of those can break
`perfbench/run.py --trace 1` while every unit test still passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_run_reports_labeling_layers(tmp_path):
    cmd = [sys.executable, "-E", "-s", str(ROOT / "perfbench" / "child.py"),
           "--src", str(ROOT / "src"), "--workload", "cycle-shift", "--seed", "1",
           "--workdir", str(tmp_path), "--trace"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.splitlines()[-1])
    assert [record[cmd]["rc"] for cmd in ("prove", "verify", "extract")] == [0, 0, 0]
    layers = record["layers"]
    assert "labeling.palette" in layers and "labeling.k_local" in layers
