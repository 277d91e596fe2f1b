"""Smoke test of the benchmark's traced path: one repetition per workload with the span tracer on.

The tracer wraps package functions by name and reads the prover's
`ProofLabeling` (tables, k_local), so a refactor of those can break
`perfbench/run.py --trace 1` while every unit test still passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_child_run(tmp_path, workload):
    cmd = [sys.executable, "-E", "-s", str(ROOT / "perfbench" / "child.py"),
           "--src", str(ROOT / "src"), "--workload", workload, "--seed", "1",
           "--workdir", str(tmp_path), "--trace"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_child_run_reports_labeling_layers(tmp_path):
    record = _traced_child_run(tmp_path, "cycle-shift")
    assert [record[cmd]["rc"] for cmd in ("prove", "verify", "extract")] == [0, 0, 0]
    layers = record["layers"]
    assert "labeling.palette" in layers and "labeling.k_local" in layers


def test_traced_tampered_tree_run_reports_rejections(tmp_path):
    # tree-tamper is the one workload whose traced run proves a tree with
    # auto's edge-shift witness and takes the verifier's reject path and
    # extract's refusal
    record = _traced_child_run(tmp_path, "tree-tamper")
    assert [record[cmd]["rc"] for cmd in ("prove", "verify", "extract")] == [0, 1, 1]
    layers = record["layers"]
    assert "labeling.palette" in layers and "labeling.k_local" in layers
    assert layers["verifier.rejecting"][0] > 0
