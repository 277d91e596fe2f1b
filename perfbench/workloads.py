"""The benchmark's workloads: one CLI pipeline each, fixed graphs, seeded tampering.

The graphs are deterministic; the seed only picks which vertices the
tree-tamper workload corrupts.  Every command runs with `--predicate planar`
and verify runs with `--jobs 1`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: tuple[str, ...]          # flags for `localcert gen`
    prove: tuple[str, ...]        # flags for `localcert prove` after the graph file
    n: int
    m: int
    d: int
    tamper_share: float = 0.0     # share of vertices whose labels get corrupted


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-ball",
            why="grid 50x50, uniform-ball witness r=10: dense 2 MB labels, 19 extraction "
                "blocks; stresses ball building, property A and labeling",
            gen=("--family", "grid", "--n", "50,50"),
            prove=("--witness", "uniform-ball", "--r", "10", "--eps-prime", "1/2"),
            n=2500, m=4900, d=4,
        ),
        Workload(
            name="cycle-shift",
            why="cycle 2000, shift witness: tiny balls, 2000 predicate calls in "
                "verify_locally_p and 222 extraction blocks (quadratic re-projection)",
            gen=("--family", "cycle", "--n", "2000"),
            prove=("--eps-prime", "1/2"),
            n=2000, m=2000, d=2,
        ),
        Workload(
            name="tree-tamper",
            why="full binary tree depth 9, depth-shift witness, 10% of vertices' own "
                "label entry moved by one unit: verifier and extract reject paths",
            gen=("--family", "full_tree", "--n", "2,9"),
            prove=("--eps-prime", "1/2"),
            n=1023, m=1022, d=3,
            tamper_share=0.1,
        ),
    )
}
