"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``LAYERS`` under every name a
``nicplanar`` module binds it to (``from .x import f`` copies the
binding, so ``recognize.test_planarity`` and
``embedding.test_planarity`` each get the wrapper).  A span is
``[name, start, end, parent, op]``; spans stay in memory until
``write`` saves them.  A function that a later version renames or
removes is skipped, so its metrics read zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

#: module -> wrapped public functions (render and oracle are off the paths)
LAYERS = {
    "graph": ("new_graph", "parse_graph", "serialize_graph",
              "is_biconnected", "is_triconnected"),
    "faces": ("face_walk",),
    "planarity": ("test_planarity",),
    "k4": ("list_k4", "bucket_by_edge"),
    "recognize": ("recognize_optimal", "build_star_graph", "reinsert_kites"),
    "embedding": ("verify_nic", "trace_faces", "verify_maximal_embedding",
                  "embed_with_crossings", "embedding_to_json",
                  "embedding_from_json"),
    "dual": ("build_dual", "check_adjacency_rules", "check_dual_structure",
             "compute_levels", "quarter_sphere_accounting"),
    "generate": ("gen_optimal", "gen_sparsest", "gen_densest_intermediate",
                 "gen_nested_k5", "gen_rac_counterexample"),
    "cli": ("main",),
}

#: counts taken from a wrapped call's arguments or result
_COUNTERS = {
    "faces.face_walk": lambda args, result: (
        "faces.directed_edges", sum(len(f) for f in result)),
    "planarity.test_planarity": lambda args, result: (
        "planarity.edges_tested", args[0].m),
    "k4.list_k4": lambda args, result: ("k4.essential_steps", result.steps),
}

#: calls that are also reported per in-process operation
_PER_OP = ("graph.new_graph", "faces.face_walk", "planarity.test_planarity")

EXTRA_METRICS = ("graph.new_graph.per_op", "faces.directed_edges",
                 "faces.face_walk.per_op", "planarity.edges_tested",
                 "planarity.test_planarity.per_op", "k4.essential_steps",
                 "cli.output_bytes")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, names in LAYERS.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
    out.extend((name, "count") for name in EXTRA_METRICS)
    # best wall time of the --jobs 2 batch, whose rows the spans cannot see
    out.append(("cli.jobs2_batch_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: id of the operation running now; spans carry it
        self.op = None

    def install(self) -> None:
        for module, names in LAYERS.items():
            home = importlib.import_module(f"nicplanar.{module}")
            for fn in names:
                original = getattr(home, fn, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("nicplanar")
                            and getattr(mod, fn, None) is original):
                        setattr(mod, fn, wrapper)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.op]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if counter is not None:
                try:
                    key, value = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    return result  # a changed signature only loses the count
                self.counts[key] += value
            return result

        return wrapper

    def metrics(self, passes: int, ops_per_pass: int,
                rows_in_process: int) -> dict[str, float]:
        """Per-pass calls and counts, best per-pass self time.

        Span ``op`` ids count commands from 0 across passes, so
        ``op // ops_per_pass`` is the pass a span belongs to.
        """
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, list[float]] = defaultdict(lambda: [0.0] * passes)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            if op is None:
                continue
            calls[name] += 1
            self_s[name][op // ops_per_pass] += end - start - child_s[idx]
        out: dict[str, float] = {}
        for metric, _ in metric_names():
            if metric.endswith(".calls"):
                out[metric] = calls[metric[:-6]] / passes
            elif metric.endswith(".self_s"):
                out[metric] = min(self_s[metric[:-7]])
        for name in _PER_OP:
            out[f"{name}.per_op"] = calls[name] / (passes * rows_in_process)
        for name in EXTRA_METRICS:
            out.setdefault(name, self.counts.get(name, 0) / passes)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
