"""Acceptance gate: ten scenario checks, one printed verdict line apiece.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they fire.
Every comparison is exact rational arithmetic; there is no tolerance knob
anywhere in this file.
"""

import itertools
import math
import random
import time
from collections import deque
from fractions import Fraction

import localcert as lc
from conftest import random_family_graph, tightened_separator_witness
from localcert.cli import main
from localcert.verifier import BallSetVerifier, canonical_ball
from reference import reference_edit_bound


def _verdict_line(num: int, ok: bool, note: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({note})", flush=True)
    assert ok, f"criterion {num} failed: {note}"


def test_criterion_1_grid_completeness(tmp_path, capsys, grid50):
    g = tmp_path / "grid.graph"
    labels = tmp_path / "grid.labels"
    verdict_file = tmp_path / "grid.verdict"
    t0 = time.monotonic()
    assert main(["gen", "--family", "grid", "--n", "50,50", "--out", str(g)]) == 0
    prove_code = main(["prove", str(g), "--witness", "uniform-ball", "--r", "10",
                       "--eps-prime", "1/2", "--out", str(labels)])
    verify_code = main(["verify", str(g), str(labels), "--out", str(verdict_file)])
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    ok = (prove_code == 0 and verify_code == 0
          and verdict_file.read_text() == "verdict accept\n"
          and "measured_eps = 3/10\n" in err
          and grid50.measured == Fraction(3, 10) <= Fraction(7, 20)
          and grid50.property_a.accept
          and len(grid50.property_a.decisions) == 2500
          and elapsed < 60.0)
    _verdict_line(1, ok, f"2500 vertices accept, measured 3/10 <= 7/20, {elapsed:.1f}s < 60s")


def test_criterion_2_path_cycle_tree_completeness(tmp_path, capsys, p100, c100, tree511):
    pins = {
        "path100_r5": Fraction(2, 7),
        "cycle100_r5": Fraction(2, 11),
        "tree_depth8_k6": Fraction(2, 3),
    }
    ok = True
    notes = []
    for inst in (p100, c100, tree511):
        full = lc.combine_verdicts(
            inst.property_a,
            lc.verify_locally_p(inst.G, lc.locality_radius(inst.labeling.params), "planar"),
        )
        if inst.name == "tree_depth8_k6":
            rebuilt = tightened_separator_witness(lc.tree_depth_shift_distribution(inst.G, 6))
        else:
            rebuilt = lc.uniform_ball_witness(inst.G, inst.raw.radius)
        stable = lc.check_uniformity(rebuilt).max_edge_l1
        ok = ok and full.accept and inst.measured == pins[inst.name] == stable
        notes.append(f"{inst.name} eps {inst.measured}")
    g = tmp_path / "p100.graph"
    labels = tmp_path / "p100.labels"
    main(["gen", "--family", "path", "--n", "100", "--out", str(g)])
    prove_code = main(["prove", str(g), "--witness", "uniform-ball", "--r", "5",
                       "--eps-prime", "1/2", "--out", str(labels)])
    verify_code = main(["verify", str(g), str(labels), "--out", str(tmp_path / "v")])
    capsys.readouterr()
    ok = ok and prove_code == 0 and verify_code == 0
    _verdict_line(2, ok, ", ".join(notes))


def test_criterion_3_discretization_bounds():
    rng = random.Random(303)
    ok = True
    checked = 0
    while checked < 1000 and ok:
        G = random_family_graph(rng)
        for _ in range(10):
            x = rng.randrange(G.n)
            r = rng.randint(1, 3)
            ball = sorted(lc.bfs(G.adj, (x,), r)[0])
            den = rng.randint(1, 50)
            cuts = sorted(rng.randint(0, den) for _ in range(len(ball) - 1))
            weights = [b - a for a, b in zip([0] + cuts, cuts + [den])]
            f = lc.RationalDist(den, {z: w for z, w in zip(ball, weights) if w})
            eps = Fraction(rng.randint(0, 8), 24)
            eps_prime = eps + Fraction(rng.randint(1, 12), 24)
            alpha = math.ceil(Fraction(3 * len(ball)) / (eps_prime - eps))
            g = lc.discretize(f, alpha)
            gap = Fraction(len(ball), alpha)
            ok = (ok and sum(g.num.values()) == alpha
                  and lc.l1_distance(f, g) <= gap <= (eps_prime - eps) / 3)
            checked += 1
    edges_checked = 0
    rng2 = random.Random(304)
    for _ in range(25):
        G = random_family_graph(rng2)
        r = rng2.randint(1, 2)
        w = lc.uniform_ball_witness(G, r)
        eps = lc.check_uniformity(w).max_edge_l1
        eps_prime = eps + Fraction(1, rng2.randint(2, 6))
        # the witness the labels encode, read back by the verifier's decoder
        q = lc.decode_accepted_witness(G, lc.build_proof(w, eps_prime))
        bound = 2 * (eps_prime - eps) / 3 + eps
        for a, b in G.edges():
            ok = ok and lc.l1_distance(q.dists[a], q.dists[b]) <= bound
            edges_checked += 1
    _verdict_line(3, ok, f"{checked} dists exact, {edges_checked} quantized edges in bound")


def test_criterion_4_grid_shift_witness_bounds():
    G = lc.generate(lc.FamilySpec("grid", (30, 30)))
    dist = lc.grid_shift_distribution(G, 30, 30, 10)
    marginal, _ = lc.max_marginal(dist)
    w = lc.witness_from_separators(dist)
    rep = lc.check_uniformity(w)
    ok = (marginal == Fraction(19, 100)
          and marginal <= Fraction(2, 10)
          and dist.K == 81
          and rep.support_ok
          and rep.max_edge_l1 == Fraction(14, 25) <= Fraction(8, 10))
    edge_list = G.edges()
    samples = 0
    for Y_tuple, _weight in dist.support:
        Y = set(Y_tuple)
        comp_of: dict[int, int] = {}
        cid = 0
        for s in range(G.n):
            if s in Y or s in comp_of:
                continue
            comp_of[s] = cid
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for z in G.adj[u]:
                    if z not in Y and z not in comp_of:
                        comp_of[z] = cid
                        queue.append(z)
            cid += 1
        for u, v in edge_list:
            if u not in Y and v not in Y:
                # both endpoints fall in one residual component, so the
                # per-sample distribution is literally the same object
                ok = ok and comp_of[u] == comp_of[v]
        samples += 1
    _verdict_line(4, ok, f"marginal 19/100, worst edge 14/25, identity on {samples} samples")


def test_criterion_5_area_coarea_identities():
    rng = random.Random(505)
    ok = True
    for _ in range(500):
        G = random_family_graph(rng)
        den = rng.randint(1, 16)
        zeta = {
            x: Fraction(rng.randint(0, den), den)
            for x in rng.sample(range(G.n), rng.randint(1, G.n))
        }
        res = lc.area_coarea_check(G, zeta)
        ok = ok and res.coarea_lhs == res.coarea_rhs and res.area_lhs == res.area_rhs
    _verdict_line(5, ok, "500 random level functions, both identities exact")


def test_criterion_6_extraction_soundness(accepted_instances):
    ok = True
    notes = []
    for inst in accepted_instances:
        lab = inst.labeling
        eps_prime = lab.params.eps_prime
        decoded = lc.decode_accepted_witness(inst.G, lab)
        measured = lc.check_uniformity(decoded).max_edge_l1
        part = lc.extract_partition(decoded, eps_prime)
        budget = Fraction(inst.G.d * inst.G.d, 2) * eps_prime * inst.G.n
        ok = (ok and measured <= eps_prime
              and part.max_block_size <= lab.k_local
              and part.num_removed <= budget)
        # a locally-planar accept at 2r must make every block planar; each
        # block is judged on its own, since one call on a planar G settles
        # them all in edit_distance_upper_bound
        if lc.verify_locally_p(inst.G, lc.locality_radius(lab.params), "planar").accept:
            ok = ok and reference_edit_bound(inst.G, part, lc.is_planar).feasible
        if inst.name == "cycle100_r5":
            ok = ok and part.num_removed <= 36 and part.max_block_size <= 21
            notes.append(
                f"C_100 removed {part.num_removed} <= 36, "
                f"max block {part.max_block_size} <= 21"
            )
    _verdict_line(6, ok, "; ".join([f"{len(accepted_instances)} labelings decoded"] + notes))


def test_criterion_7_expander_rejection(tmp_path, capsys, grid10x20):
    G = lc.generate(lc.FamilySpec("random_regular", (200, 3), seed=42))
    pinned = {
        1: Fraction(1),
        2: Fraction(4, 5),
        3: Fraction(4, 5),
        4: Fraction(4, 5),
        5: Fraction(26, 37),
        6: Fraction(74, 129),
    }
    ok = True
    for r, want in pinned.items():
        got = lc.check_uniformity(lc.uniform_ball_witness(G, r)).max_edge_l1
        ok = ok and got == want > Fraction(3, 10)
    g = tmp_path / "expander.graph"
    lc.write_graph_file(G, g)
    code = main(["prove", str(g), "--witness", "uniform-ball", "--r", "3",
                 "--eps-prime", "3/10"])
    err = capsys.readouterr().err
    ok = ok and code == 1 and err.startswith("error: witness measures 4/5")
    transplant = lc.verify_property_a(G, grid10x20.labeling)
    ok = ok and not transplant.accept and len(transplant.rejecting()) == 200
    _verdict_line(7, ok, "eps pinned above 3/10 for r in 1..6, prover declines, "
                         "transplant rejected at all 200 vertices")


def test_criterion_8_product_verifier_exhaustive():
    rng = random.Random(808)
    graphs = []
    for n in range(1, 5):
        possible = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(possible)):
            edges = [e for i, e in enumerate(possible) if mask >> i & 1]
            graphs.append(lc.build_graph(edges, d=3, n=n))
    assert len(graphs) == 75
    per_graph = []
    universe = set()
    for G in graphs:
        balls = [lc.ball(G, x, 1) for x in range(G.n)]
        labelings = list(itertools.product((0, 1), repeat=G.n))
        per_graph.append((G, labelings))
        for labs in labelings:
            for b in balls:
                universe.add(canonical_ball(
                    b.local_adj, tuple(labs[p] for p in b.vertices), 0
                ))
    U = sorted(universe)
    mismatches = 0
    for _ in range(50):
        V1 = BallSetVerifier(1, frozenset(rng.sample(U, rng.randint(1, len(U)))))
        V2 = BallSetVerifier(1, frozenset(rng.sample(U, rng.randint(1, len(U)))))
        V3 = lc.ProductVerifier(V1, V2)
        for G, labelings in per_graph:
            accept1 = [lc.run_ball_verifier(G, l, V1).accept for l in labelings]
            accept2 = [lc.run_ball_verifier(G, l, V2).accept for l in labelings]
            for i, l1 in enumerate(labelings):
                for j, l2 in enumerate(labelings):
                    got = lc.run_ball_verifier(G, tuple(zip(l1, l2)), V3).accept
                    if got != (accept1[i] and accept2[j]):
                        mismatches += 1
    ok = mismatches == 0
    _verdict_line(8, ok, f"75 graphs, 50 verifier pairs, {mismatches} mismatches")


def test_criterion_9_planarity_predicate():
    k5 = lc.build_graph(list(itertools.combinations(range(5), 2)), d=4, n=5)
    k33 = lc.build_graph([(a, 3 + b) for a in range(3) for b in range(3)], d=3, n=6)
    petersen = lc.build_graph(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        d=3, n=10,
    )
    wheel = lc.build_graph(
        [(0, i) for i in range(1, 9)]
        + [(i, i % 8 + 1) for i in range(1, 9)],
        d=8, n=9,
    )
    planar_cases = [
        lc.generate(lc.FamilySpec("grid", (5, 7))),
        lc.generate(lc.FamilySpec("full_tree", (3, 3))),
        lc.generate(lc.FamilySpec("cycle", (50,))),
        wheel,
    ]
    ok = not any(lc.is_planar(H) for H in (k5, k33, petersen))
    ok = ok and all(lc.is_planar(H) for H in planar_cases)
    grid = lc.generate(lc.FamilySpec("grid", (5, 5)))
    edges = grid.edges() + [
        (25 + a, 25 + b) for a, b in itertools.combinations(range(5), 2)
    ]
    mixed = lc.build_graph(edges, d=4, n=30)
    verdict = lc.verify_locally_p(mixed, 2, "planar")
    rejected = {v for v, _ in verdict.rejecting()}
    ok = ok and rejected == set(range(25, 30))
    _verdict_line(9, ok, "K5/K33/Petersen nonplanar, families planar, "
                         "K5 component rejected exactly")


def test_criterion_10_determinism_and_anonymity(tmp_path, capsys, p11, grid10x20):
    rng = random.Random(1010)
    ok = True

    def permuted(G, labeling, perm):
        edges = [tuple(sorted((perm[u], perm[v]))) for u, v in G.edges()]
        H = lc.build_graph(edges, d=G.d, n=G.n)
        colors = [0] * G.n
        tables = [None] * G.n
        for v in range(G.n):
            colors[perm[v]] = labeling.colors[v]
            tables[perm[v]] = labeling.tables[v]
        lab = lc.ProofLabeling(labeling.params, tuple(colors), tuple(tables),
                               labeling.k_local)
        return H, lab

    base = lc.verify_property_a(p11.G, p11.labeling)
    cycle = lc.generate(lc.FamilySpec("cycle", (11,)))
    rejecting = lc.verify_property_a(cycle, p11.labeling)
    ok = ok and base.accept and not rejecting.accept
    for start, verdict in ((p11.G, base), (cycle, rejecting)):
        perm = list(range(start.n))
        rng.shuffle(perm)
        H, lab = permuted(start, p11.labeling, perm)
        moved = lc.verify_property_a(H, lab)
        ok = ok and all(
            moved.decisions[perm[v]] == verdict.decisions[v] for v in range(start.n)
        )
        ok = ok and moved.accept == verdict.accept

    stage_outputs = []
    for rerun in range(2):
        root = tmp_path / f"run{rerun}"
        root.mkdir()
        g = root / "p.graph"
        labels = root / "p.labels"
        outputs = {}
        main(["gen", "--family", "path", "--n", "11", "--out", str(g)])
        main(["prove", str(g), "--eps-prime", "5/6", "--out", str(labels)])
        for stage in ("verify", "extract", "report"):
            out = root / f"p.{stage}"
            main([stage, str(g), str(labels), "--out", str(out)])
            outputs[stage] = out.read_bytes()
        outputs["gen"] = g.read_bytes()
        outputs["prove"] = labels.read_bytes()
        stage_outputs.append(outputs)
    capsys.readouterr()
    ok = ok and stage_outputs[0] == stage_outputs[1]

    g = tmp_path / "wide.graph"
    labels = tmp_path / "wide.labels"
    lc.write_graph_file(grid10x20.G, g)
    lc.write_labeling_file(grid10x20.labeling, labels)
    job_outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"wide.verdict{jobs}"
        main(["verify", str(g), str(labels), "--jobs", jobs, "--out", str(out)])
        job_outputs.append(out.read_bytes())
    capsys.readouterr()
    ok = ok and job_outputs[0] == job_outputs[1] == b"verdict accept\n"
    _verdict_line(10, ok, "verdicts travel with permutations, stages byte-identical, "
                          "jobs 1 and 2 agree")
