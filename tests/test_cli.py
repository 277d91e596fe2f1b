"""End-to-end runs of the command-line driver through main()."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import localcert as lc
from localcert import graphs, measures
from localcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def p11(tmp_path, capsys):
    """A proved path instance: returns (graph_path, labels_path)."""
    g = tmp_path / "p11.graph"
    labels = tmp_path / "p11.labels"
    assert main(["gen", "--family", "path", "--n", "11", "--out", str(g)]) == 0
    assert main(["prove", str(g), "--eps-prime", "5/6", "--out", str(labels)]) == 0
    capsys.readouterr()
    return g, labels


def test_gen_golden(capsys):
    code, out, _ = run(capsys, "gen", "--family", "path", "--n", "4")
    assert code == 0
    assert out == "graph 4 3 2\n0 1\n1 2\n2 3\n"


def test_gen_accepts_x_separator(capsys):
    code, out, _ = run(capsys, "gen", "--family", "grid", "--n", "10x10")
    assert code == 0
    assert out.startswith("graph 100 180 4\n")


def test_gen_seed_determinism(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "gen", "--family", "random_regular",
                           "--n", "30,3", "--seed", "7")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_prove_auto_path(p11, capsys, tmp_path):
    g, _ = p11
    labels = tmp_path / "again.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                       "--out", str(labels))
    assert code == 0
    assert err == "measured_eps = 4/5\nradius = 3\nalpha = 630\npalette = 9\nK = 11\n"
    assert labels.read_text().startswith("labels 11 3 630 9 5/6 11\n")


def test_prove_k_shift_override(p11, capsys, tmp_path):
    g, _ = p11
    labels = tmp_path / "k9.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                       "--k-shift", "9", "--out", str(labels))
    assert code == 0
    assert "measured_eps = 4/9\n" in err
    assert labels.read_text().startswith("labels 11 7 85 11 5/6 11\n")


def test_prove_auto_cycle_rounds_shift(capsys, tmp_path):
    """12 % 5 != 0, so the default shift 5 is bumped to the divisor 6."""
    g = tmp_path / "c12.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "12", "--out", str(g))
    labels = tmp_path / "c12.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                       "--out", str(labels))
    assert code == 0
    assert "measured_eps = 2/3\nradius = 4\n" in err
    assert labels.read_text().startswith("labels 12 4 162 12 5/6 12\n")


def test_prove_auto_tree_then_verify(capsys, tmp_path):
    g = tmp_path / "t.graph"
    run(capsys, "gen", "--family", "full_tree", "--n", "2,4", "--out", str(g))
    labels = tmp_path / "t.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "3/4",
                       "--out", str(labels))
    assert code == 0
    assert labels.read_text().startswith("labels 31 8 1116 31 3/4 31\n")
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 0
    assert out == "verdict accept\n"


def test_prove_separator_file_matches_k_shift(p11, capsys, tmp_path):
    g, _ = p11
    G = lc.read_graph_file(g)
    dist_path = tmp_path / "shift.sep"
    lc.write_separator_distribution_file(lc.path_shift_distribution(G, 9), dist_path)
    from_file = tmp_path / "file.labels"
    from_flag = tmp_path / "flag.labels"
    run(capsys, "prove", str(g), "--eps-prime", "5/6",
        "--witness", f"separators:{dist_path}", "--out", str(from_file))
    run(capsys, "prove", str(g), "--eps-prime", "5/6",
        "--k-shift", "9", "--out", str(from_flag))
    assert from_file.read_text() == from_flag.read_text()


def test_prove_k_shift_zero_exits_two(capsys, tmp_path):
    g = tmp_path / "c12.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "12", "--out", str(g))
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "1/2", "--k-shift", "0")
    assert code == 2
    assert err == "error: shift modulus must be positive, got 0\n"


def test_prove_measures_ball_sizes_and_uniformity_once(capsys, tmp_path, monkeypatch):
    """One prove sweeps ball sizes at r and 2r once each and measures the witness once."""
    g = tmp_path / "g8.graph"
    run(capsys, "gen", "--family", "grid", "--n", "8,8", "--out", str(g))
    # inside graphs only max_ball_size_actual runs the kernel during prove
    sweeps = Counter()
    kernel = graphs.bfs

    def counting_bfs(adj, sources, cutoff=None, dist=None):
        sweeps[cutoff] += 1
        return kernel(adj, sources, cutoff, dist)

    edges_measured = Counter()
    l1 = measures.l1_distance

    def counting_l1(p, q):
        edges_measured["l1"] += 1
        return l1(p, q)

    monkeypatch.setattr(graphs, "bfs", counting_bfs)
    monkeypatch.setattr(measures, "l1_distance", counting_l1)
    code, _, _ = run(capsys, "prove", str(g), "--witness", "uniform-ball", "--r", "2",
                     "--eps-prime", "3/2", "--out", str(tmp_path / "g8.labels"))
    assert code == 0
    assert sweeps == {2: 64, 4: 64}
    assert edges_measured["l1"] == 112


def test_prove_K_override(p11, capsys, tmp_path):
    g, _ = p11
    labels = tmp_path / "k3.labels"
    code, _, _ = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                     "--K", "3", "--out", str(labels))
    assert code == 0
    assert lc.read_labeling_file(labels).k_local == 3


def test_verify_accepts_and_is_quiet_about_it(p11, capsys):
    g, labels = p11
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 0
    assert out == "verdict accept\n"


def test_verify_rejects_tampered_color(p11, capsys):
    g, labels = p11
    lines = labels.read_text().splitlines()
    fields = lines[1].split()
    fields[1] = lines[2].split()[1]  # vertex 0 steals vertex 1's color
    lines[1] = " ".join(fields)
    labels.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 1
    assert out.startswith("verdict reject\n")
    assert "properness" in out


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(p11, capsys, command, jobs):
    g, labels = p11
    code, out, err = run(capsys, command, str(g), str(labels), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_verify_rejects_vertex_count_mismatch(p11, capsys, tmp_path):
    _, labels = p11
    other = tmp_path / "c12.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "12", "--out", str(other))
    code, _, err = run(capsys, "verify", str(other), str(labels))
    assert code == 1
    assert err == "error: labeling covers 11 vertices, graph has 12\n"


def test_extract_golden(p11, capsys):
    g, labels = p11
    code, out, err = run(capsys, "extract", str(g), str(labels))
    assert code == 0
    assert out == (
        "partition 11 3 2\n4 0 1 2 3\n4 4 5 6 7\n3 8 9 10\nremoved\n3 4\n7 8\n"
    )
    assert "edit_bound = 2/11" in err


def test_extract_refuses_rejected_labeling(p11, capsys, tmp_path):
    _, labels = p11
    other = tmp_path / "p11b.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "11", "--out", str(other))
    code, _, err = run(capsys, "extract", str(other), str(labels))
    assert code == 1
    assert err.startswith("error:")


def test_report_golden(p11, capsys):
    g, labels = p11
    code, out, _ = run(capsys, "report", str(g), str(labels))
    assert code == 0
    assert out == (
        "n = 11\nm = 10\nd = 2\nr = 3\nalpha = 630\npalette = 9\n"
        "eps_prime = 5/6\nK = 11\npredicate = planar\nverdict = accept\n"
        "rejecting = 0\napls_guarantee = 5/3\neps_decoded = 4/5\n"
        "blocks = 3\nmax_block = 4\nremoved_edges = 2\n"
        "removed_per_vertex = 2/11\nremoved_per_edge = 1/5\n"
        "hyperfinite_ok = true\nedit_bound = 2/11\n"
    )


def test_report_rejecting_exit(p11, capsys, tmp_path):
    g, labels = p11
    other = tmp_path / "c11.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "11", "--out", str(other))
    code, out, _ = run(capsys, "report", str(other), str(labels))
    assert code == 1
    assert "verdict = reject\n" in out
    assert "eps_decoded" not in out


def test_prove_rough_witness_exits_one(capsys, tmp_path):
    g = tmp_path / "g5.graph"
    run(capsys, "gen", "--family", "grid", "--n", "5,5", "--out", str(g))
    code, _, err = run(capsys, "prove", str(g), "--witness", "uniform-ball",
                       "--r", "2", "--eps-prime", "1/2")
    assert code == 1
    assert err.startswith("error: witness measures 5/6")


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "verify", "nope.graph", "nope.labels")
    assert code == 2
    assert err.startswith("error:")


def test_bad_fraction_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prove", "x.graph", "--eps-prime", "banana"])
    assert exc.value.code == 2


def test_auto_witness_needs_r_for_general_graphs(capsys, tmp_path):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "--family", "grid", "--n", "4,4", "--out", str(g))
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "1/2")
    assert code == 2
    assert "pass --r" in err


def test_console_script_wiring(tmp_path):
    # the child interpreter imports the same package as this test run
    src = str(Path(lc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-m", "localcert.cli", "gen", "--family", "path", "--n", "3"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert out.stdout == "graph 3 2 2\n0 1\n1 2\n"
