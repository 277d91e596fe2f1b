"""Output checks written against the file formats, not against localcert.

Nothing here imports the package under test: graphs, labels headers,
verdicts and partitions are parsed from text and judged with networkx and
exact fractions.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx


def parse_graph(text: str) -> tuple[nx.Graph, int]:
    """Graph file -> (graph on 0..n-1, degree bound d)."""
    lines = text.splitlines()
    tag, n, m, d = lines[0].split()
    if tag != "graph":
        raise ValueError(f"bad graph header {lines[0]!r}")
    G = nx.Graph()
    G.add_nodes_from(range(int(n)))
    G.add_edges_from(tuple(map(int, ln.split())) for ln in lines[1:] if ln.strip())
    if G.number_of_edges() != int(m):
        raise ValueError(f"header says {m} edges, file has {G.number_of_edges()}")
    return G, int(d)


def labels_header(text: str) -> dict:
    """First line of a labels file: n, r, alpha, palette, eps', K."""
    tag, n, r, alpha, palette, eps, k = text[: text.index("\n")].split()
    if tag != "labels":
        raise ValueError("bad labels header")
    return {"n": int(n), "r": int(r), "alpha": int(alpha), "palette": int(palette),
            "eps_prime": Fraction(eps), "K": int(k)}


def check_graph(text: str, n: int, m: int, d: int) -> list[str]:
    try:
        G, dd = parse_graph(text)
    except ValueError as exc:
        return [f"graph: {exc}"]
    got = (G.number_of_nodes(), G.number_of_edges(), dd)
    if got != (n, m, d):
        return [f"graph: (n, m, d) = {got}, want {(n, m, d)}"]
    if max((deg for _, deg in G.degree()), default=0) > d:
        return ["graph: degree bound exceeded"]
    return []


def check_labels(text: str, n: int) -> list[str]:
    """Header plus one well-formed line per vertex; entries in [0, alpha]."""
    try:
        head = labels_header(text)
    except ValueError as exc:
        return [f"labels: {exc}"]
    lines = text.splitlines()[1:]
    if head["n"] != n or len(lines) != n:
        return [f"labels: header n={head['n']}, {len(lines)} lines, graph n={n}"]
    palette, alpha = head["palette"], head["alpha"]
    for x, ln in enumerate(lines):
        parts = [int(t) for t in ln.split()]
        if (len(parts) != 2 + palette or parts[0] != x or not 0 <= parts[1] < palette
                or min(parts[2:]) < 0 or max(parts[2:]) > alpha):
            return [f"labels: bad line for vertex {x}"]
    return []


def parse_verdict(text: str) -> tuple[str, dict[int, str]]:
    lines = text.splitlines()
    rejects = {}
    for ln in lines[1:]:
        tag, x, why = ln.split()
        if tag != "reject":
            raise ValueError(f"bad verdict line {ln!r}")
        rejects[int(x)] = why
    return lines[0], rejects


def check_accept(text: str, rc: int) -> list[str]:
    if text != "verdict accept\n" or rc != 0:
        return [f"verify: honest labels not accepted (rc={rc}, {text[:60]!r})"]
    return []


def check_tamper_rejected(text: str, rc: int, tampered: list[int]) -> list[str]:
    try:
        head, rejects = parse_verdict(text)
    except (ValueError, IndexError):
        return [f"verify: unparsable verdict {text[:60]!r}"]
    missed = [z for z in tampered if z not in rejects]
    if head != "verdict reject" or rc != 1 or missed:
        return [f"verify: tampered labels not rejected (rc={rc}, {head!r}, "
                f"{len(missed)} of {len(tampered)} tampered vertices accepted)"]
    return []


def parse_partition(text: str) -> tuple[int, list[list[int]], list[tuple[int, int]]]:
    lines = text.splitlines()
    tag, n, nb, nr = lines[0].split()
    if tag != "partition" or lines[1 + int(nb)] != "removed":
        raise ValueError("bad partition layout")
    blocks = []
    for ln in lines[1 : 1 + int(nb)]:
        size, *verts = map(int, ln.split())
        if size != len(verts):
            raise ValueError("block size field disagrees with its vertex list")
        blocks.append(verts)
    removed = [tuple(map(int, ln.split())) for ln in lines[2 + int(nb):]]
    if len(removed) != int(nr):
        raise ValueError("removed edge count disagrees with header")
    return int(n), blocks, removed


def check_partition(text: str, G: nx.Graph, d: int, K: int, eps_prime: Fraction) -> list[str]:
    """Blocks partition 0..n-1, W is exactly the cut, blocks small and planar, |W|/n bounded."""
    try:
        n, blocks, removed = parse_partition(text)
    except (ValueError, IndexError) as exc:
        return [f"partition: unparsable ({exc})"]
    problems = []
    flat = sorted(v for b in blocks for v in b)
    if n != G.number_of_nodes() or flat != list(range(n)):
        return ["partition: blocks do not partition 0..n-1"]
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    cut = {(min(u, v), max(u, v)) for u, v in G.edges() if block_of[u] != block_of[v]}
    given = {(min(u, v), max(u, v)) for u, v in removed}
    if len(given) != len(removed) or given != cut:
        problems.append(f"partition: removed edges ({len(given)}) are not the "
                        f"edges between blocks ({len(cut)})")
    for i, b in enumerate(blocks):
        if len(b) > K:
            problems.append(f"partition: block {i} has {len(b)} > K={K} vertices")
        elif not nx.check_planarity(G.subgraph(b))[0]:
            problems.append(f"partition: block {i} is not planar")
    if Fraction(len(removed), n) > Fraction(d * d) * eps_prime / 2:
        problems.append(f"partition: |W|/n = {len(removed)}/{n} exceeds d^2 eps'/2")
    return problems


def tamper_labels(text: str, seed: int, share: float) -> tuple[str, list[int]]:
    """Move entry t_{C(z)} on z's own line by one unit for a seeded share of z.

    The entry drops by one if positive, else rises by one, so z's
    probability sum no longer equals alpha.
    """
    lines = text.split("\n")
    n = labels_header(text)["n"]
    tampered = sorted(random.Random(seed).sample(range(n), int(n * share)))
    for z in tampered:
        parts = lines[1 + z].split(" ")
        slot = 2 + int(parts[1])
        t = int(parts[slot])
        parts[slot] = str(t - 1 if t > 0 else t + 1)
        lines[1 + z] = " ".join(parts)
    return "\n".join(lines), tampered


def self_test(G: nx.Graph, d: int, labels_text: str, partition_text: str | None) -> list[str]:
    """Feed the checkers outputs known to be wrong; return checkers that passed them.

    A partition with one cut edge's endpoint moved into the other block, and
    a tampered labeling paired with an accept verdict, must both fail.  When
    there is no partition, the all-singletons partition stands in for it and
    must pass before it is broken.
    """
    head = labels_header(labels_text)
    K, eps_prime = head["K"], head["eps_prime"]
    if partition_text is None:
        edges = sorted((min(u, v), max(u, v)) for u, v in G.edges())
        partition_text = "\n".join(
            [f"partition {head['n']} {head['n']} {len(edges)}"]
            + [f"1 {v}" for v in range(head["n"])]
            + ["removed"] + [f"{u} {v}" for u, v in edges]) + "\n"
        if check_partition(partition_text, G, d, K, eps_prime):
            return ["partition check rejects the all-singletons partition"]
    escaped = []
    n, blocks, removed = parse_partition(partition_text)
    u, v = removed[0]
    bu = next(b for b in blocks if u in b)
    bv = next(b for b in blocks if v in b)
    bu.remove(u)
    bv.append(u)
    blocks = [b for b in blocks if b]
    moved = "\n".join(
        [f"partition {n} {len(blocks)} {len(removed)}"]
        + [" ".join(map(str, [len(b), *b])) for b in blocks]
        + ["removed"] + [f"{a} {b}" for a, b in removed]) + "\n"
    if not check_partition(moved, G, d, K, eps_prime):
        escaped.append("partition check passes a partition with one edge moved between blocks")
    _, tampered = tamper_labels(labels_text, seed=0, share=0.1)
    if not check_tamper_rejected("verdict accept\n", 0, tampered):
        escaped.append("verdict check passes tampered labels paired with an accept verdict")
    return escaped
