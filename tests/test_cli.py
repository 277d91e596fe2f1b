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
    """Count balls by radius, those ball_sweep yields and those the coloring's own
    level searches read, and graphs.bfs calls by cutoff."""
    balls, searches = Counter(), Counter()
    sweep, kernel, levels = graphs.ball_sweep, graphs.bfs, labeling._levels

    def counting_sweep(G, q, vertices=None):
        for item in sweep(G, q, vertices):
            balls[q] += 1
            yield item

    def counting_levels(adj, x, q, mark):
        balls[q] += 1
        return levels(adj, x, q, mark)

    def counting_bfs(adj, sources, cutoff=None, dist=None):
        searches[cutoff] += 1
        return kernel(adj, sources, cutoff, dist)

    for module in (graphs, measures, labeling, verifier):
        monkeypatch.setattr(module, "ball_sweep", counting_sweep, raising=False)
        monkeypatch.setattr(module, "bfs", counting_bfs, raising=False)
    monkeypatch.setattr(labeling, "_levels", counting_levels)
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
    assert err == "measured_eps = 2/3\nradius = 2\nalpha = 3\npalette = 6\nK = 9\n"
    assert labels.read_text().startswith("labels 11 2 3 6 5/6 9\n")


def test_prove_auto_notes_an_unused_r(p11, capsys, tmp_path):
    """When the edge-shift family matches, auto's uniform-ball fallback --r goes unused,
    and prove says so."""
    g, auto = p11
    labels = tmp_path / "r7.labels"
    code, out, err = run(capsys, "prove", str(g), "--eps-prime", "5/6", "--r", "7",
                         "--out", str(labels))
    assert (code, out) == (0, "")
    note, rest = err.split("\n", 1)
    assert note == ("note: --r 7 went unused; --witness auto chose the edge-shift "
                    "witness, whose radius comes from its pieces")
    assert rest.startswith("measured_eps = 2/3\nradius = 2\n")
    assert labels.read_text() == auto.read_text()


def test_prove_auto_cycle_rounds_shift(capsys, tmp_path):
    """eps' = 5/6 gives the shift k = 3, and 13 % 3 != 0: no divisor is needed.
    13 = 1 mod 3, so in two of the three samples the piece through the edge
    (12, 0) has 4 vertices.  Its top is 0, within 2 of each, so r = k - 1 = 2."""
    g = tmp_path / "c13.graph"
    run(capsys, "gen", "--family", "cycle", "--n", "13", "--out", str(g))
    labels = tmp_path / "c13.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                       "--out", str(labels))
    assert code == 0
    assert "measured_eps = 2/3\nradius = 2\n" in err
    assert labels.read_text().startswith("labels 13 2 3 7 5/6 9\n")


def test_prove_auto_tree_then_verify(capsys, tmp_path):
    g = tmp_path / "t.graph"
    run(capsys, "gen", "--family", "full_tree", "--n", "2,4", "--out", str(g))
    labels = tmp_path / "t.labels"
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "3/4",
                       "--out", str(labels))
    assert code == 0
    assert labels.read_text().startswith("labels 31 2 3 13 3/4 31\n")
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    assert code == 0
    assert out == "verdict accept\n"


def test_prove_separator_file_golden(p11, capsys, tmp_path):
    """The vertex shift of width 5 on the path, stored and proved from its file.
    The digest was recorded when auto proved the same labels from that shift."""
    g, _ = p11
    G = lc.read_graph_file(g)
    dist_path = tmp_path / "shift.sep"
    lc.write_separator_distribution_file(lc.path_shift_distribution(G, 5), dist_path)
    code, out, err = run(capsys, "prove", str(g), "--eps-prime", "5/6",
                         "--witness", f"separators:{dist_path}")
    assert code == 0
    assert err == "measured_eps = 4/5\nradius = 3\nalpha = 60\npalette = 8\nK = 11\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cdfdaeded1be70d61e80bc7e0121e2891258ab1449259c26cbb8a847c5b96668")


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


def test_prove_separator_file_with_k_zero(capsys, tmp_path):
    """K = 0 puts every vertex in Y, so f(x) = delta_x: a radius-1 witness that verifies."""
    g = tmp_path / "p1.graph"
    dist_path = tmp_path / "s.txt"
    labels = tmp_path / "p1.labels"
    run(capsys, "gen", "--family", "path", "--n", "1", "--out", str(g))
    dist_path.write_text("sepdist 1 0 1\n1/1 1 0\n")
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "1/2",
                       "--witness", f"separators:{dist_path}", "--out", str(labels))
    assert code == 0, err
    assert err.startswith("measured_eps = 0/1\nradius = 1\n")
    assert run(capsys, "verify", str(g), str(labels)) == (0, "verdict accept\n", "")


@pytest.mark.parametrize("family, n, flags, want_balls, want_l1", [
    # the uniform-ball witness's own sweep at r = 2 and the distance-5 coloring:
    # its supports are its balls, so the uniformity check sweeps no balls again
    ("grid", "8,8", ("--witness", "uniform-ball", "--r", "2", "--eps-prime", "3/2"),
     {2: 64, 5: 64}, 112),
    # the auto edge-shift witness is tightened to r = 4, whose searches record
    # its supports; max |B_8| for K is read from the distance-9 coloring,
    # where the root's search reaches the whole tree at eccentricity 6, so the
    # 14 other vertices of depth at most 3, within 9 - 6 of the root, are not
    # searched: 127 - 14 searches
    ("full_tree", "2,6", ("--eps-prime", "1/2"), {9: 113}, 126),
], ids=["uniform-ball-grid8x8", "auto-full_tree2x6"])
def test_prove_measures_ball_sizes_and_uniformity_once(capsys, tmp_path, monkeypatch,
                                                        family, n, flags, want_balls, want_l1):
    """The coloring is prove's only sweep besides the witness's own; the witness is measured once."""
    g = tmp_path / "g.graph"
    run(capsys, "gen", "--family", family, "--n", n, "--out", str(g))
    balls, searches = count_searches(monkeypatch)
    edges_measured = Counter()
    l1 = measures._l1_pair  # the uniformity pass's per-edge l1, as an integer pair

    def counting_l1(p, q):
        edges_measured["l1"] += 1
        return l1(p, q)

    monkeypatch.setattr(measures, "_l1_pair", counting_l1)
    code, _, _ = run(capsys, "prove", str(g), *flags, "--out", str(tmp_path / "g.labels"))
    assert code == 0
    # K = max |B_2r| comes from the size the coloring returns, alpha from the
    # supports' shapes, and the tables are scattered from the supports
    assert balls == want_balls
    if family == "grid":
        assert searches == {}  # no ball is read outside the sweep
    assert edges_measured["l1"] == want_l1


@pytest.mark.parametrize("family, n, flags, digest", [
    ("grid", "12,12", ("--witness", "uniform-ball", "--r", "3", "--eps-prime", "3/4"),
     "be486f67e5323cb4f0abec7aef27d89574ce5b50f991664d044d4a76727f4844"),
    ("full_tree", "2,5", ("--eps-prime", "1/2"),
     "e5eb550dbd689386c188c7a7988ef3cb88d1fb9709b476637413bea5aca4ba8a"),
], ids=["grid-12,12", "full_tree-2,5"])
def test_prove_labels_golden(capsys, tmp_path, family, n, flags, digest):
    """Digests recorded with the least alpha within budget (392 on the grid, where
    halving from the worst-case rule gave 450) and the coloring at distance 2r+1;
    the tree's with auto's edge-shift witness at k = 5, each shift's weight on
    the top of x's piece (r = 4, alpha 5, palette 47)."""
    g = tmp_path / "g.graph"
    run(capsys, "gen", "--family", family, "--n", n, "--out", str(g))
    code, out, _ = run(capsys, "prove", str(g), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_prove_at_a_radius_past_the_graph(capsys, tmp_path):
    """On a 20-vertex path, --r 10**9 costs what --r 19 costs and writes its rows.

    Every level search stops where the graph runs out, and the coloring
    returns one ball size, max |B_2r| for K, so a radius far past the
    diameter allocates nothing per radius.  Every ball is the whole path, so
    each vertex is uniform over 20 and alpha is the least a with
    2(20 - a)/20 <= 1/6 (eps = 0), 19.
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
        assert head == f"labels 20 {r} 19 20 1/2 20"
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


def test_verify_jobs_two_writes_the_jobs_one_bytes_across_the_cut(capsys, tmp_path, monkeypatch):
    """Two worker processes, each sharing l1 sums only within its own half,
    write the sequential verdict on labels rejected on both sides of the cut."""
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    g, labels = tmp_path / "grid.graph", tmp_path / "grid.labels"
    assert main(["gen", "--family", "grid", "--n", "8,8", "--out", str(g)]) == 0
    assert main(["prove", str(g), "--witness", "uniform-ball", "--r", "2",
                 "--eps-prime", "1", "--out", str(labels)]) == 0
    G, honest = lc.read_graph_file(g), lc.read_labeling_file(labels)
    r, alpha = honest.params.r, honest.params.alpha
    tables = [list(row) for row in honest.tables]
    for x in (5, 50):  # probability rejects
        tables[x][honest.colors[x]] -= 1
    for x in (20, 45):  # x keeps its mass on itself alone: l1 rejects
        c = honest.colors[x]
        for z in lc.bfs(G.adj, (x,), r)[0]:
            tables[z][c] = 0
        tables[x][c] = alpha
    tampered = lc.ProofLabeling(honest.params, honest.colors, tuple(map(tuple, tables)),
                                honest.k_local)
    lc.write_labeling_file(tampered, labels)
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"grid.verdict{jobs}"
        code, _, _ = run(capsys, "verify", str(g), str(labels), "--jobs", jobs,
                         "--out", str(outs[jobs]))
        assert code == 1
    assert outs["1"].read_bytes() == outs["2"].read_bytes()
    rejects = lc.verify_property_a(G, tampered).rejecting()
    cut = G.n // 2
    assert {x for x, _ in rejects if x < cut} and {x for x, _ in rejects if x >= cut}
    assert {"probability", "l1"} == {check for _, check in rejects}


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


def steal_color(labels, thief, victim):
    """Rewrite the label file so that thief's color is victim's."""
    lines = labels.read_text().splitlines()
    fields = lines[thief + 1].split()
    fields[1] = lines[victim + 1].split()[1]
    lines[thief + 1] = " ".join(fields)
    labels.write_text("\n".join(lines) + "\n")


def test_verify_rejects_tampered_color(p11, capsys):
    g, labels = p11
    steal_color(labels, 0, 3)
    code, out, _ = run(capsys, "verify", str(g), str(labels))
    # vertex 0's new column, vertex 3's, sums to 2 < alpha = 3 on
    # B_r(0) = {0, 1, 2}, and vertex 1 reads it as its neighbor's, far from its own
    assert (code, out) == (1, "verdict reject\nreject 0 probability\nreject 1 l1\n")


def test_accepted_color_theft_is_sound(p11, capsys):
    """Vertex 0 steals vertex 1's color.  f(1) = 2/3 on 0 + 1/3 on 1 lies inside
    B_r(0), so the stolen column sums to alpha there and vanishes on 0's shell
    r+1: every vertex accepts, and 0 decodes f(1).  As soundness promises, the
    decoded witness measures at most eps', and extraction meets its bound."""
    g, labels = p11
    steal_color(labels, 0, 1)
    assert run(capsys, "verify", str(g), str(labels)) == (0, "verdict accept\n", "")
    G, lab = lc.read_graph_file(g), lc.read_labeling_file(labels)
    decoded = lc.decode_accepted_witness(G, lab)
    assert decoded.dists[0] == decoded.dists[1] == lc.RationalDist(3, {0: 2, 1: 1})
    assert lc.check_uniformity(decoded).max_edge_l1 <= lab.params.eps_prime
    code, out, _ = run(capsys, "report", str(g), str(labels))
    assert code == 0
    assert "verdict = accept\n" in out and "hyperfinite_ok = true\n" in out


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
        "partition 11 4 3\n3 8 9 10\n3 5 6 7\n3 2 3 4\n2 0 1\nremoved\n1 2\n4 5\n7 8\n"
    )
    assert err == (
        "blocks = 4\nmax_block = 3\nremoved_edges = 3\n"
        "removed_per_vertex = 3/11\nedit_bound = 3/11\n"
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
        "n = 11\nm = 10\nd = 2\nr = 2\nalpha = 3\npalette = 6\n"
        "eps_prime = 5/6\nK = 9\npredicate = planar\nverdict = accept\n"
        "rejecting = 0\napls_guarantee = 5/3\neps_decoded = 2/3\n"
        "blocks = 4\nmax_block = 3\nremoved_edges = 3\n"
        "removed_per_vertex = 3/11\nremoved_per_edge = 3/10\n"
        "hyperfinite_ok = true\nedit_bound = 3/11\n"
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
    # one components pass, for the structural half.  The edit bound calls
    # is_planar once, on the whole grid, which passes and so settles every
    # block (the predicate is hereditary); with m = 112 > n + 2 that call
    # goes straight to the LR test, and no block is judged on its own
    assert searches == {None: 1}


@pytest.mark.parametrize("command", ["extract", "report"])
def test_extract_drops_the_labeling_before_extraction(p11, capsys, monkeypatch, command):
    """extract and report hold the parsed labels or the cut, never both."""
    g, labels = p11
    labelings, alive_at_extract = [], []
    read, extract = cli.read_labeling_file, cli.extract_partition

    def spy_read(path):
        lab = read(path)
        labelings.append(weakref.ref(lab))
        return lab

    def spy_extract(w, eps):
        alive_at_extract.append([ref() is not None for ref in labelings])
        return extract(w, eps)

    monkeypatch.setattr(cli, "read_labeling_file", spy_read)
    monkeypatch.setattr(cli, "extract_partition", spy_extract)
    code, _, _ = run(capsys, command, str(g), str(labels))
    assert code == 0
    assert alive_at_extract == [[False]]


@pytest.mark.parametrize("command", ["extract", "report"])
def test_extract_drops_the_witness_before_the_edit_bound(p11, capsys, monkeypatch, command):
    """The edit bound calls the predicate on all of G, with the decoded witness gone."""
    g, labels = p11
    witnesses, alive_at_bound = [], []
    decode, both, bound = (cli.decode_accepted_witness, cli.verify_and_decode,
                           cli.edit_distance_upper_bound)

    def spy_decode(G, labeling):
        w = decode(G, labeling)
        witnesses.append(weakref.ref(w))
        return w

    def spy_both(G, labeling):
        verdict, w = both(G, labeling)
        witnesses.append(weakref.ref(w))
        return verdict, w

    def spy_bound(G, partition, predicate):
        alive_at_bound.append([ref() is not None for ref in witnesses])
        return bound(G, partition, predicate)

    monkeypatch.setattr(cli, "decode_accepted_witness", spy_decode)
    monkeypatch.setattr(cli, "verify_and_decode", spy_both)
    monkeypatch.setattr(cli, "edit_distance_upper_bound", spy_bound)
    code, _, _ = run(capsys, command, str(g), str(labels))
    assert code == 0
    assert alive_at_bound == [[False]]


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


def run_child(*args, timeout=60):
    """Run a child interpreter that imports the same package as this test
    run; the timeout fails a command that never ends."""
    src = str(Path(lc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def run_cli_child(*args, timeout=60):
    return run_child("-m", "localcert.cli", *args, timeout=timeout)


def test_cli_import_does_not_load_networkx():
    """networkx is a test dependency only.  This session has imported it
    already, so a fresh interpreter checks what `import localcert.cli` loads."""
    out = run_child("-c", "import sys, localcert.cli; print('networkx' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


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


@pytest.mark.parametrize("n, r, palette", [(3, 1, 3), (4, 2, 4), (211, 4, 11), (1009, 4, 19)])
def test_prove_small_and_prime_cycles(capsys, tmp_path, n, r, palette):
    """At eps' = 1/2 the shift is k = 5, longer than cycles 3 and 4 and no divisor
    of 211 or 1009: each proves, verifies and extracts.  211 = 1 mod 5, so in
    four of the five samples the piece through the edge (210, 0) has 6 vertices,
    and 1009 = 4 mod 5 gives it up to 9.  Either way that piece's top is 0, with
    at most k - 1 of its vertices on either side, so r = k - 1 = 4."""
    g, labels = tmp_path / "c.graph", tmp_path / "c.labels"
    run(capsys, "gen", "--family", "cycle", "--n", str(n), "--out", str(g))
    code, _, err = run(capsys, "prove", str(g), "--eps-prime", "1/2", "--out", str(labels))
    assert code == 0, err
    assert f"radius = {r}\n" in err and f"palette = {palette}\n" in err
    assert run(capsys, "verify", str(g), str(labels)) == (0, "verdict accept\n", "")
    code, out, _ = run(capsys, "extract", str(g), str(labels))
    assert code == 0 and out.startswith(f"partition {n} ")


def test_prove_full_trees_at_one_radius_and_palette(capsys, tmp_path):
    """Auto's witness on full_tree(2, D) at eps' = 1/2 (k = 5) puts each shift's
    weight on the top of x's piece, fewer than k levels above x, so r = k - 1 = 4
    at every depth.  The distance-9 coloring's palette then stops growing with
    the tree: 59 and 61 colors at depths 7 and 8, and 62 from depth 9 on,
    where the label bytes per vertex stay put."""
    palettes, per_vertex = [], []
    for depth in range(7, 12):
        g, labels = tmp_path / f"t{depth}.graph", tmp_path / f"t{depth}.labels"
        run(capsys, "gen", "--family", "full_tree", "--n", f"2,{depth}", "--out", str(g))
        code, _, err = run(capsys, "prove", str(g), "--eps-prime", "1/2", "--out", str(labels))
        assert code == 0, err
        assert "radius = 4\nalpha = 5\n" in err
        palettes.append(lc.read_labeling_file(labels).params.palette)
        per_vertex.append(len(labels.read_bytes()) / 2 ** (depth + 1))
    assert palettes == [59, 61, 62, 62, 62]
    assert max(per_vertex[2:]) < 1.01 * min(per_vertex[2:])
