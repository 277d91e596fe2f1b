"""Span tracing of the localcert package from outside, plus per-layer metrics.

`install` wraps every public module-level function of each layer module and
rebinds the wrapper everywhere the package binds the original, so calls made
through `from .graphs import ball` in `verifier` or `cli` are seen too.  The
planarity, acyclicity and always-true predicates are wrapped as one span name,
`verifier.predicate`.  Nothing under `src/` is edited.

Each span is kept in memory as `[name, parent index, start, end, info]`, where
`info` is taken from the return value of the few functions whose results feed
a metric (see HOOKS).  A span's self time is its duration minus the
durations of its direct children; in one thread the children are disjoint
and lie inside the parent, so the self times of a command's span tree add up
to the command's duration.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("graphs", "measures", "separators", "labeling", "verifier", "hyperfinite")


# O(1) work only: the caller's span is still open, so anything costlier
# (counting nonzero table entries) waits for layer_metrics
HOOKS = {
    "graphs.read_graph_file": lambda G: G.n,
    "measures.project_witness": lambda w: len(w.vertices),
    "hyperfinite.extract_partition": lambda p: p,
    "labeling.build_proof": lambda lab: lab,
    "verifier.combine_verdicts": lambda v: v,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[4] = hook(result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> int:
    """Wrap the layer functions of the imported package; return how many."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"localcert.{layer}")
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__):
                wrappers[id(val)] = tracer.wrap(f"{layer}.{attr}", val)
    for name, mod in list(sys.modules.items()):
        if name != "localcert" and not name.startswith("localcert."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
    preds = importlib.import_module("localcert.verifier").PREDICATES
    for key, fn in list(preds.items()):
        preds[key] = tracer.wrap("verifier.predicate", getattr(fn, "__wrapped__", fn))
    return len(wrappers)


def summarize(spans: list[list]) -> dict:
    """Per-function calls/self/total, parent->child call counts, root coverage."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    functions: dict[str, list] = {}
    pairs: Counter = Counter()
    info: dict[str, list] = {}
    root_of = [0] * len(spans)
    tree_self: dict[int, float] = {}
    for i, (name, parent, t0, t1, inf) in enumerate(spans):
        self_s = (t1 - t0) - child[i]
        f = functions.setdefault(name, [0, 0.0, 0.0])
        f[0] += 1
        f[1] += self_s
        f[2] += t1 - t0
        root_of[i] = i if parent < 0 else root_of[parent]
        tree_self[root_of[i]] = tree_self.get(root_of[i], 0.0) + self_s
        if parent >= 0:
            pairs[f"{spans[parent][0]}>{name}"] += 1
        if inf is not None:
            info.setdefault(name, []).append(inf)
    roots = [
        {"name": spans[i][0], "duration_s": spans[i][3] - spans[i][2], "self_sum_s": s}
        for i, s in tree_self.items()
    ]
    return {
        "functions": {k: {"calls": c, "self_s": s, "total_s": t}
                      for k, (c, s, t) in sorted(functions.items())},
        "pairs": dict(sorted(pairs.items())),
        "info": info,
        "roots": roots,
    }


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Derive the named per-layer metrics of one traced repetition."""
    fns = summary["functions"]
    info = summary["info"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def self_s(name):
        return fns.get(name, {}).get("self_s", 0.0)

    n = info["graphs.read_graph_file"][0]
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "hyperfinite.find_low_boundary_set", "measures.project_witness",
        "graphs.ball", "verifier.verify_property_a", "graphs.ball_vertices",
        "graphs.max_ball_size_actual", "measures.check_uniformity",
        "graphs.induced_subgraph",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in sorted(fns):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["separators.shift_distribution.self_s"] = (
        sum(self_s(k) for k in fns if k.startswith("separators.") and k.endswith("_shift_distribution")),
        "s",
    )
    for root in summary["roots"]:
        out[f"{root['name']}.self_s"] = (self_s(root["name"]), "s")
    local_p = summary["pairs"].get("verifier.verify_locally_p>verifier.predicate", 0)
    out["verifier.locally_p.predicate_calls"] = (local_p, "count")
    out["verifier.predicate_calls_per_vertex"] = (local_p / n, "ratio")
    out["hyperfinite.reprojection_ratio"] = (
        sum(info.get("measures.project_witness", [])) / n, "ratio")
    parts = info.get("hyperfinite.extract_partition", [])
    out["hyperfinite.blocks"] = (sum(p.num_blocks for p in parts), "count")
    out["hyperfinite.max_block"] = (max((p.max_block_size for p in parts), default=0), "count")
    out["hyperfinite.edit_bound"] = (sum(p.num_removed for p in parts) / n, "ratio")
    out["verifier.rejecting"] = (
        sum(len(v.rejecting()) for v in info.get("verifier.combine_verdicts", [])), "count")
    (lab,) = info["labeling.build_proof"]
    out["labeling.palette"] = (lab.params.palette, "count")
    out["labeling.alpha"] = (lab.params.alpha, "count")
    out["labeling.k_local"] = (lab.k_local, "count")
    nonzero = sum(1 for row in lab.tables for t in row if t)
    out["labeling.table_nonzero_ratio"] = (nonzero / (lab.n * lab.params.palette), "ratio")
    return out
