"""End-to-end runs of the command-line driver through main()."""

import argparse
import functools
import hashlib
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import localcert as lc
from conftest import InProcessPool
from localcert import cli, graphs, labeling, measures, verifier
from localcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_searches(monkeypatch):
    """Count balls yielded by ball_sweep, by radius, and graphs.bfs calls, by cutoff."""
    balls, searches = Counter(), Counter()
    sweep, kernel = graphs.ball_sweep, graphs.bfs

    def counting_sweep(G, q, vertices=None):
        for item in sweep(G, q, vertices):
            balls[q] += 1
            yield item

    def counting_bfs(adj, sources, cutoff=None, dist=None):
        searches[cutoff] += 1
        return kernel(adj, sources, cutoff, dist)

    for module in (graphs, measures, labeling, verifier):
        monkeypatch.setattr(module, "ball_sweep", counting_sweep, raising=False)
        monkeypatch.setattr(module, "bfs", counting_bfs, raising=False)
    return balls, searches


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


@pytest.mark.parametrize("seed", [("--seed", "7"), ()], ids=["seed7", "no-seed"])
def test_gen_seed_determinism(capsys, seed):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "gen", "--family", "random_regular",
                           "--n", "30,3", *seed)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    if not seed:
        _, seed0, _ = run(capsys, "gen", "--family", "random_regular",
                          "--n", "30,3", "--seed", "0")
        assert runs[0] == seed0


def test_prove_auto_path(p11, capsys, tmp_path):
    g, _ = p11
    labels = tmp_path / "again.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                       "--out", str(labels))
    assert code == 0
    assert err == "measured_eps = 4/5\nradius = 3\nalpha = 315\npalette = 8\nK = 11\n"
    assert labels.read_text().startswith("labels 11 3 315 8 5/6 11\n")


def test_prove_auto_notes_an_unused_r(p11, capsys, tmp_path):
    """When a shift family matches, auto's uniform-ball fallback --r goes unused, and prove says so."""
    g, auto = p11
    labels = tmp_path / "r7.labels"
    code, out, err = run(capsys, "prove", str(g), "--eps-prime", "5/6", "--r", "7",
                         "--out", str(labels))
    assert (code, out) == (0, "")
    note, rest = err.split("\n", 1)
    assert note == ("note: --r 7 went unused; --witness auto chose the shift-family "
                    "witness, whose radius comes from its separators")
    assert rest.startswith("measured_eps = 4/5\nradius = 3\n")
    assert labels.read_text() == auto.read_text()


def test_prove_auto_cycle_rounds_shift(capsys, tmp_path):
    """12 % 5 != 0, so the default shift 5 is bumped to the divisor 6."""
    g = tmp_path / "c12.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "12", "--out", str(g))
    labels = tmp_path / "c12.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                       "--out", str(labels))
    assert code == 0
    assert "measured_eps = 2/3\nradius = 4\n" in err
    assert labels.read_text().startswith("labels 12 4 81 12 5/6 12\n")


def test_prove_auto_tree_then_verify(capsys, tmp_path):
    g = tmp_path / "t.graph"
    run(capsys, "gen", "--family", "full_tree", "--n", "2,4", "--out", str(g))
    labels = tmp_path / "t.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "3/4",
                       "--out", str(labels))
    assert code == 0
    assert labels.read_text().startswith("labels 31 8 558 31 3/4 31\n")
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 0
    assert out == "verdict accept\n"


def test_prove_separator_file_matches_default_shift(p11, capsys, tmp_path):
    """eps' = 5/6 gives the default shift width k = 5; a stored k = 5 file proves the same."""
    g, auto = p11
    G = lc.read_graph_file(g)
    dist_path = tmp_path / "shift.sep"
    lc.write_separator_distribution_file(lc.path_shift_distribution(G, 5), dist_path)
    from_file = tmp_path / "file.labels"
    code, _, _ = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                     "--witness", f"separators:{dist_path}", "--out", str(from_file))
    assert code == 0
    assert from_file.read_text() == auto.read_text()


def test_prove_refuses_r_with_a_separator_file(p11, capsys, tmp_path):
    """A separators:<file> witness takes its radius from the file, so --r is refused, not ignored."""
    g, _ = p11
    dist_path = tmp_path / "shift.sep"
    lc.write_separator_distribution_file(
        lc.path_shift_distribution(lc.read_graph_file(g), 5), dist_path)
    labels = tmp_path / "file.labels"
    code, out, err = run(capsys, "prove", str(g), "--eps-prime", "5/6", "--r", "4",
                         "--witness", f"separators:{dist_path}", "--out", str(labels))
    assert (code, out) == (2, "")
    assert err.startswith("error: --r does not apply to --witness separators:<file>")
    assert not labels.exists()


@pytest.mark.parametrize("family, n, flags, want_balls, want_l1", [
    # the uniform-ball witness's own sweep at r = 2 and the distance-5 coloring:
    # its supports are its balls, so the uniformity check sweeps no balls again
    ("grid", "8,8", ("--witness", "uniform-ball", "--r", "2", "--eps-prime", "3/2"),
     {2: 64, 5: 64}, 112),
    # the auto witness is tightened to r = 12, whose searches record its
    # supports; max |B_12| for alpha is read from the distance-25 coloring
    ("full_tree", "2,6", ("--eps-prime", "1/2"), {25: 127}, 126),
], ids=["uniform-ball-grid8x8", "auto-full_tree2x6"])
def test_prove_measures_ball_sizes_and_uniformity_once(capsys, tmp_path, monkeypatch,
                                                        family, n, flags, want_balls, want_l1):
    """The coloring is prove's only sweep besides the witness's own; the witness is measured once."""
    g = tmp_path / "g.graph"
    run(capsys, "gen", "--family", family, "--n", n, "--out", str(g))
    balls, searches = count_searches(monkeypatch)
    edges_measured = Counter()
    l1 = measures.l1_distance

    def counting_l1(p, q):
        edges_measured["l1"] += 1
        return l1(p, q)

    monkeypatch.setattr(measures, "l1_distance", counting_l1)
    code, _, _ = run(capsys, "prove", str(g), *flags, "--out", str(tmp_path / "g.labels"))
    assert code == 0
    # K = max |B_2r| and alpha's max |B_r| come from the sizes the coloring
    # returns, and the tables are scattered from the supports
    assert balls == want_balls
    if family == "grid":
        assert searches == {}  # no ball is read outside the sweep
    assert edges_measured["l1"] == want_l1


@pytest.mark.parametrize("family, n, flags, digest", [
    ("grid", "12,12", ("--witness", "uniform-ball", "--r", "3", "--eps-prime", "3/4"),
     "ee5d38734b1035635e16b4f4625a72c6d8623b96d15f7730a0fcee0b21e00ce3"),
    ("full_tree", "2,5", ("--eps-prime", "1/2"),
     "b01045568f8c6c88ce58433fbafba7f0f1b6dd317f7c28b6e134a7c306762993"),
], ids=["grid-12,12", "full_tree-2,5"])
def test_prove_labels_golden(capsys, tmp_path, family, n, flags, digest):
    """Digests recorded with alpha halved from its top rung (900 -> 450 on the
    grid, 3402 -> 1701 on the tree) and the coloring at distance 2r+1."""
    g = tmp_path / "g.graph"
    run(capsys, "gen", "--family", family, "--n", n, "--out", str(g))
    code, out, _ = run(capsys, "prove", str(g), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_prove_at_a_radius_past_the_graph(capsys, tmp_path):
    """On a 20-vertex path, --r 10**9 costs what --r 19 costs and writes its rows.

    Ball profiles, and the ball sizes the coloring returns for alpha and K,
    stop where the graph runs out, so a radius far past the diameter
    allocates nothing per radius.
    """
    g = tmp_path / "p20.graph"
    labels = tmp_path / "p20.labels"
    run(capsys, "gen", "--family", "path", "--n", "20", "--out", str(g))
    rows = {}
    for r in ("19", str(10**9)):
        code, out, _ = run(capsys, "prove", str(g), "--witness", "uniform-ball",
                           "--r", r, "--eps-prime", "1/2")
        assert code == 0
        head, *rows[r] = out.splitlines()
        assert head == f"labels 20 {r} 60 20 1/2 20"
    assert rows["19"] == rows[str(10**9)]
    labels.write_text(out)
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert (code, out) == (0, "verdict accept\n")


@pytest.mark.parametrize("flags", [
    ("--eps-prime", "3/2", "--witness", "uniform-ball", "--r", "2"),
    ("--eps-prime", "1/2"),
])
def test_prove_drops_the_exact_witness_before_formatting(capsys, tmp_path, monkeypatch, flags):
    """prove holds the exact witness or the label text, never both."""
    g = tmp_path / "t.graph"
    run(capsys, "gen", "--family", "full_tree", "--n", "2,4", "--out", str(g))
    witnesses, alive_at_format = [], []
    build, fmt = cli.build_proof, cli.format_labeling

    def spy_build(w, eps_prime):
        witnesses.append(weakref.ref(w))
        return build(w, eps_prime)

    def spy_format(lab):
        alive_at_format.append([ref() is not None for ref in witnesses])
        return fmt(lab)

    monkeypatch.setattr(cli, "build_proof", spy_build)
    monkeypatch.setattr(cli, "format_labeling", spy_format)
    code, out, _ = run(capsys, "prove", str(g), *flags)
    assert code == 0 and out.startswith("labels 31 ")
    assert alive_at_format == [[False]]


@pytest.mark.parametrize("flags", [
    ("--eps-prime", "1/2"),
    ("--eps-prime", "1/2", "--witness", "uniform-ball", "--r", "2"),
    ("--eps-prime", "1/2", "--witness", "separators:missing.sep"),
])
def test_prove_empty_graph_exits_two(capsys, tmp_path, flags):
    g = tmp_path / "empty.graph"
    g.write_text("graph 0 0 2\n")
    code, out, err = run(capsys, "prove", str(g), *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot prove the empty graph: {g} has no vertices\n"


def _options(command):
    """The option strings of one subcommand, -h/--help left out."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions
            for opt in action.option_strings} - {"-h", "--help"}


def test_prove_and_extract_option_sets():
    """Every scheme constant is derived: eps' and the witness are the only inputs."""
    assert _options("prove") == {"--r", "--eps-prime", "--witness", "--out"}
    assert _options("extract") == {"--predicate", "--out"}


@pytest.mark.parametrize("command, flag", [
    ("prove", "--eps=1/2"),
    ("prove", "--alpha=630"),
    ("prove", "--k-shift=5"),
    ("extract", "--eps=5/6"),
])
def test_removed_scheme_flags_exit_two(p11, capsys, command, flag):
    """Argparse refuses each removed flag; --eps is not taken as short for --eps-prime."""
    g, labels = p11
    args = {"prove": (str(g), "--eps-prime", "5/6"), "extract": (str(g), str(labels))}
    with pytest.raises(SystemExit) as exc:
        main([command, *args[command], flag])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_family_choices_come_from_families(capsys, monkeypatch):
    """gen --family offers exactly graphs.FAMILIES, in its order."""
    calls = []

    def counted(params, seed):
        calls.append(params)
        return graphs.BoundedDegreeGraph(params[0], 2, [])

    monkeypatch.setitem(graphs.FAMILIES, "counted", (counted, 1))
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    assert "{path,cycle,grid,full_tree,random_regular,counted}" in capsys.readouterr().out
    code, out, _ = run(capsys, "gen", "--family", "counted", "--n", "3")
    assert code == 0 and out == "graph 3 0 2\n" and calls == [(3,)]
    code, _, err = run(capsys, "gen", "--family", "counted", "--n", "3,1")
    assert code == 1
    assert err == "error: family 'counted' takes 1 parameter(s), got (3, 1)\n"
    monkeypatch.delitem(graphs.FAMILIES, "counted")
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "counted", "--n", "3"])
    assert exc.value.code == 2


def test_forged_header_K_does_not_steer_the_predicate(capsys, tmp_path):
    """The predicate radius is 2r from the header; a forged K = 0 changes nothing.

    K3,3 with the uniform-ball witness at r = 1 passes property A (every
    edge measures l1 = 1 < eps' = 3/2), and its B_2 balls are the whole
    non-planar graph, so every vertex rejects with localP.
    """
    g = tmp_path / "k33.graph"
    labels = tmp_path / "k33.labels"
    k33 = lc.build_graph([(a, b) for a in range(3) for b in range(3, 6)], d=3)
    g.write_text(lc.format_graph(k33))
    prove = ("prove", str(g), "--witness", "uniform-ball", "--r", "1", "--eps-prime", "3/2")
    with pytest.raises(SystemExit) as exc:
        run(capsys, *prove, "--K", "0")
    assert exc.value.code == 2
    assert run(capsys, *prove, "--out", str(labels))[0] == 0
    head, rest = labels.read_text().split("\n", 1)
    labels.write_text(head.rsplit(" ", 1)[0] + " 0\n" + rest)
    assert lc.read_labeling_file(labels).k_local == 0
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 1
    assert out == "verdict reject\n" + "".join(f"reject {x} localP\n" for x in range(6))


def test_verify_accepts_and_is_quiet_about_it(p11, capsys):
    g, labels = p11
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 0
    assert out == "verdict accept\n"


def test_verify_huge_jobs_starts_a_capped_pool(p11, capsys, tmp_path, monkeypatch):
    """--jobs 100000 asks for no more processes than usable CPUs; verdict bytes do not change."""
    g, labels = p11
    asked = []
    monkeypatch.setattr(verifier, "_make_pool", functools.partial(InProcessPool, asked))
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 3)
    outs = {}
    for jobs in ("1", "100000"):
        outs[jobs] = tmp_path / f"p11.verdict{jobs}"
        code, _, _ = run(capsys, "verify", str(g), str(labels), "--jobs", jobs,
                         "--out", str(outs[jobs]))
        assert code == 0
    assert asked == [3]
    assert outs["1"].read_bytes() == outs["100000"].read_bytes()


@pytest.mark.parametrize("command", ["verify", "extract", "report"])
def test_predicate_choices_come_from_predicates(p11, capsys, monkeypatch, command):
    """--predicate offers exactly verifier.PREDICATES, in its order."""
    g, labels = p11
    calls = []
    monkeypatch.setitem(verifier.PREDICATES, "counted", lambda G: not calls.append(G.n))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "{planar,acyclic,always-true,counted}" in capsys.readouterr().out
    code, _, _ = run(capsys, command, str(g), str(labels), "--predicate", "counted")
    assert code == 0 and calls
    monkeypatch.delitem(verifier.PREDICATES, "counted")
    with pytest.raises(SystemExit) as exc:
        main([command, str(g), str(labels), "--predicate", "counted"])
    assert exc.value.code == 2


def test_verify_rejects_tampered_color(p11, capsys):
    g, labels = p11
    lines = labels.read_text().splitlines()
    fields = lines[1].split()
    fields[1] = lines[2].split()[1]  # vertex 0 steals vertex 1's color
    lines[1] = " ".join(fields)
    labels.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    # vertex 0's new column misses alpha on B_r(0)
    assert (code, out) == (1, "verdict reject\nreject 0 probability\n")


@pytest.mark.parametrize("command", ["verify"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_two(p11, capsys, command, jobs):
    g, labels = p11
    code, out, err = run(capsys, command, str(g), str(labels), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("command", ["verify", "extract", "report"])
def test_verify_rejects_vertex_count_mismatch(p11, capsys, tmp_path, command):
    """Labels for another vertex count are malformed input (exit 2), not a reject (exit 1)."""
    _, labels = p11
    other = tmp_path / "c12.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "12", "--out", str(other))
    code, out, err = run(capsys, command, str(other), str(labels))
    assert (code, out) == (2, "")
    assert err == "error: labeling covers 11 vertices, graph has 12\n"


def test_extract_golden(p11, capsys):
    g, labels = p11
    code, out, err = run(capsys, "extract", str(g), str(labels))
    assert code == 0
    assert out == (
        "partition 11 3 2\n4 0 1 2 3\n4 4 5 6 7\n3 8 9 10\nremoved\n3 4\n7 8\n"
    )
    assert err == (
        "blocks = 3\nmax_block = 4\nremoved_edges = 2\n"
        "removed_per_vertex = 2/11\nedit_bound = 2/11\n"
    )


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
        "n = 11\nm = 10\nd = 2\nr = 3\nalpha = 315\npalette = 8\n"
        "eps_prime = 5/6\nK = 11\npredicate = planar\nverdict = accept\n"
        "rejecting = 0\napls_guarantee = 5/3\neps_decoded = 4/5\n"
        "blocks = 3\nmax_block = 4\nremoved_edges = 2\n"
        "removed_per_vertex = 2/11\nremoved_per_edge = 1/5\n"
        "hyperfinite_ok = true\nedit_bound = 2/11\n"
    )


def test_report_reads_each_ball_once(capsys, tmp_path, monkeypatch):
    """Property A and the decoded witness come from one pass over the B_{r+1} balls.

    The decoded witness is measured once, inside extraction's first pass over
    the edges, with no radius-r sweep: its supports came from those balls.
    """
    g = tmp_path / "g8.graph"
    labels = tmp_path / "g8.labels"
    run(capsys, "gen", "--family", "grid", "--n", "8,8", "--out", str(g))
    run(capsys, "prove", str(g), "--witness", "uniform-ball", "--r", "2",
        "--eps-prime", "1", "--out", str(labels))
    balls, searches = count_searches(monkeypatch)
    code, out, _ = run(capsys, "report", str(g), str(labels))
    assert code == 0
    assert "verdict = accept\n" in out
    assert balls == {3: 64}  # one B_{r+1} ball per vertex, judged and decoded
    # components passes only: one for the structural half, and one in
    # is_planar for each of the 5 extraction blocks (of 8) that have more
    # than 4 vertices and at most n + 2 edges, where the cyclomatic number
    # can settle planarity
    assert searches == {None: 6}


def test_report_rejecting_exit(p11, capsys, tmp_path):
    g, labels = p11
    other = tmp_path / "c11.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "11", "--out", str(other))
    code, out, _ = run(capsys, "report", str(other), str(labels))
    assert code == 1
    assert "verdict = reject\n" in out
    assert "eps_decoded" not in out


@pytest.mark.parametrize("command, action", [("extract", "extract from"),
                                             ("report", "report on"),
                                             ("verify", "verify")])
def test_extract_and_report_empty_graph_exit_two(capsys, tmp_path, command, action):
    g = tmp_path / "empty.graph"
    labels = tmp_path / "empty.labels"
    g.write_text("graph 0 0 2\n")
    labels.write_text("labels 0 1 1 1 1/2 0\n")
    code, out, err = run(capsys, command, str(g), str(labels))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot {action} the empty graph: {g} has no vertices\n"


def test_prove_rough_witness_exits_one(capsys, tmp_path):
    """A declined prove writes no labels file."""
    g = tmp_path / "g5.graph"
    labels = tmp_path / "g5.labels"
    run(capsys, "gen", "--family", "grid", "--n", "5,5", "--out", str(g))
    code, out, err = run(capsys, "prove", str(g), "--witness", "uniform-ball",
                         "--r", "2", "--eps-prime", "1/2", "--out", str(labels))
    assert code == 1
    assert out == ""
    assert err.startswith("error: witness measures 5/6")
    assert not labels.exists()


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "verify", "nope.graph", "nope.labels")
    assert code == 2
    assert err.startswith("error:")


def test_bad_fraction_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prove", "x.graph", "--eps-prime", "banana"])
    assert exc.value.code == 2


def test_auto_witness_needs_r_for_general_graphs(capsys, tmp_path):
    """auto on a graph no shift family matches falls back to uniform-ball at --r."""
    g = tmp_path / "g.graph"
    run(capsys, "gen", "--family", "grid", "--n", "4,4", "--out", str(g))
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "1/2")
    assert code == 2
    assert "pass --r" in err
    outs = []
    for flags in ((), ("--witness", "uniform-ball")):
        code, out, _ = run(capsys, "prove", str(g), "--r", "2", "--eps-prime", "3/2", *flags)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and outs[0].startswith("labels 16 2 ")


def run_cli_child(*args, timeout=60):
    """Run the CLI in a child interpreter that imports the same package as
    this test run; the timeout fails a command that never ends."""
    src = str(Path(lc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "localcert.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_console_script_wiring(tmp_path):
    out = run_cli_child("gen", "--family", "path", "--n", "3")
    assert out.returncode == 0
    assert out.stdout == "graph 3 2 2\n0 1\n1 2\n"


@pytest.mark.parametrize("flag", ["--eps-prime=0", "--eps-prime=-1/2"])
def test_prove_nonpositive_eps_prime_exits_two(tmp_path, flag):
    g = tmp_path / "p11.graph"
    g.write_text(lc.format_graph(lc.generate(lc.FamilySpec("path", (11,)))))
    out = run_cli_child("prove", str(g), flag)
    assert out.returncode == 2
    assert "eps-prime must be positive" in out.stderr


@pytest.mark.parametrize("eps_prime", ["2", "9/4"])
def test_prove_eps_prime_two_or_more_exits_before_any_work(p11, capsys, monkeypatch, eps_prime):
    """The header needs eps' < 2; prove refuses a larger eps' before it reads the graph."""
    g, _ = p11
    called = []
    monkeypatch.setattr(cli, "read_graph_file", lambda *a: called.append("read"))
    code, out, err = run(capsys, "prove", str(g), "--eps-prime", eps_prime)
    assert code == 2
    assert out == ""
    assert err == f"error: --eps-prime must be positive and below 2, got {eps_prime}\n"
    assert called == []


@pytest.mark.parametrize("flags, k", [
    (("--eps-prime", "1/100"), 401),            # the default modulus, least k with 4/k < eps'
    (("--eps-prime", "2/5"), 11),               # 4/10 = eps' is not below eps', so k = 11
])
def test_prove_cycle_shift_longer_than_cycle_exits_two(tmp_path, flags, k):
    g = tmp_path / "c10.graph"
    g.write_text(lc.format_graph(lc.generate(lc.FamilySpec("cycle", (10,)))))
    out = run_cli_child("prove", str(g), *flags)
    assert out.returncode == 2
    assert f"k = {k}" in out.stderr and "n = 10" in out.stderr
