"""The left-right planarity test, testing half only, over a plain adjacency.

`lr_planar(adj)` decides planarity of the simple graph on vertices
0..len(adj)-1 whose neighbours of v are adj[v] (each edge listed at both
ends), after Brandes, *The Left-Right Planarity Test* (2009), in two
iterative DFS passes over integer edge ids.  The first orients the edges
(tree edges down, back edges up) and computes each edge's two lowest return
heights, lowpt and lowpt2, and its nesting depth.  The second takes children
by nesting depth and keeps a stack of conflict pairs of return-edge
intervals; the graph is planar iff no interval ever conflicts with both
sides of a pair.

No embedding is built, so no edge's side is resolved: `ref` keeps only the
chains from an interval's high end to its low end, which trimming walks.  A
conflict pair is [left.low, left.high, right.low, right.high], edge ids or
-1; an interval is empty when its low end is -1.
"""

from __future__ import annotations

from typing import Sequence


def lr_planar(adj: Sequence[Sequence[int]]) -> bool:
    """True iff the simple graph with adjacency `adj` is planar."""
    n = len(adj)
    if n > 2 and sum(map(len, adj)) > 2 * (3 * n - 6):
        return False
    height = [-1] * n
    parent = [-1] * n  # tree edge into each vertex, -1 at roots
    head: list[int] = []  # head[e]: the vertex edge e is oriented towards
    lowpt: list[int] = []
    lowpt2: list[int] = []
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (nesting depth, e)
    nxt = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            nbrs = adj[v]
            i = nxt[v]
            if i < len(nbrs):
                nxt[v] = i + 1
                w = nbrs[i]
                hw = height[w]
                if hw >= 0 and hw >= hv - 1:  # the tree edge to v's parent, or oriented from w
                    continue
                ei = len(head)  # a back edge to an ancestor, or a tree edge
                head.append(w)
                lowpt.append(hv if hw < 0 else hw)
                lowpt2.append(hv)
                if hw < 0:  # tree edge, finished once w is
                    parent[w] = ei
                    height[w] = hv + 1
                    stack.append(w)
                    continue
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = stack[-1]
                hv = height[v]
            # edge ei out of v is finished: nesting depth, then v's parent edge
            out[v].append((2 * lowpt[ei] + (lowpt2[ei] < hv), ei))
            e = parent[v]
            if e >= 0:
                lo, le = lowpt[ei], lowpt[e]
                if lo < le:
                    lowpt2[e] = min(le, lowpt2[ei])
                    lowpt[e] = lo
                elif lo > le:
                    lowpt2[e] = min(lowpt2[e], lo)
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[ei])

    ordered = [[e for _, e in sorted(edges)] for edges in out]
    m = len(head)
    ref = [-1] * m
    bottom: list[list[int]] = [[]] * m  # top of S when each edge started
    S = [[-1, -1, -1, -1]]  # a sentinel pair, never popped or in conflict
    nxt = [0] * n
    for root in range(n):
        if height[root]:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            edges = ordered[v]
            i = nxt[v]
            if i < len(edges):
                nxt[v] = i + 1
                ei = edges[i]
                bottom[ei] = S[-1]
                w = head[ei]
                if parent[w] == ei:  # tree edge: integrated once w is done
                    stack.append(w)
                    continue
                S.append([-1, -1, ei, ei])
            else:
                stack.pop()
                e = parent[v]
                if e < 0:
                    continue
                u = stack[-1]
                hu = height[u]
                # drop the conflict pairs whose lowest return point is u, then
                # trim the back edges ending at u from the next pair
                while True:
                    left, _, right, _ = S[-1]
                    if min(lowpt[left] if left >= 0 else n, lowpt[right] if right >= 0 else n) != hu:
                        break
                    S.pop()
                P = S[-1]
                for lo in (0, 2):
                    h = P[lo + 1]
                    while h >= 0 and head[h] == u:
                        h = ref[h]
                    P[lo + 1] = h
                    if h < 0:
                        P[lo] = -1
                ei = e
                v = u
            # integrate the return edges of ei, out of v
            if lowpt[ei] >= height[v]:
                continue
            if ei == ordered[v][0]:  # the first edge's pairs stay as they are
                continue
            # add the constraints of ei: its return edges above the lowpt of
            # v's parent edge go to P's right side (those at it need no side)
            pl_lo = pl_hi = pr_lo = pr_hi = -1
            le = lowpt[parent[v]]
            b = bottom[ei]
            while True:
                ql_lo, ql_hi, qr_lo, qr_hi = S.pop()
                if ql_lo >= 0:
                    ql_lo, ql_hi, qr_lo, qr_hi = qr_lo, qr_hi, ql_lo, ql_hi
                    if ql_lo >= 0:
                        return False
                if lowpt[qr_lo] > le:
                    if pr_lo < 0:
                        pr_hi = qr_hi
                    else:
                        ref[pr_lo] = qr_hi
                    pr_lo = qr_lo
                if S[-1] is b:
                    break
            # then the pairs of earlier siblings that conflict with ei go to P's left
            lei = lowpt[ei]
            while True:
                ql_lo, ql_hi, qr_lo, qr_hi = S[-1]
                right = qr_hi >= 0 and lowpt[qr_hi] > lei
                if not (right or (ql_hi >= 0 and lowpt[ql_hi] > lei)):
                    break
                S.pop()
                if right:
                    ql_lo, ql_hi, qr_lo, qr_hi = qr_lo, qr_hi, ql_lo, ql_hi
                    if qr_hi >= 0 and lowpt[qr_hi] > lei:
                        return False
                if pr_lo >= 0:  # never write through the -1 of an empty side
                    ref[pr_lo] = qr_hi
                if qr_lo >= 0:
                    pr_lo = qr_lo
                if pl_lo < 0:
                    pl_hi = ql_hi
                else:
                    ref[pl_lo] = ql_hi
                pl_lo = ql_lo
            if pl_lo >= 0 or pr_lo >= 0:
                S.append([pl_lo, pl_hi, pr_lo, pr_hi])
    return True
