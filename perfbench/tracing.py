"""Spans around the public functions of each hgsparse module.

The tracer patches functions from the outside: every module of the
package that holds a reference to a traced function gets the wrapper in
its place, so calls that cross module boundaries (``cli`` calling
``graph.build_graph``) and calls inside one module (``evaluate`` calling
``score_pairs``) are both recorded.  ``uninstall`` puts the originals
back, so one process can run untraced and traced loops in turn.

Spans stay in memory as ``(name, parent, start, end, phase)`` tuples.
A span's self time is its duration minus the durations of its direct
children.  The phase is whatever the workload was doing when the span
opened: ``setup`` or the name of a timed operation.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _records_read(result):
    return {"hgb_io.records_read": len(result)}


def _lines_written(result):
    return {"hgb_io.lines_written": result}


def _sparsify_counts(result):
    return {"sparsify.calls": 1, "sparsify.kept_edges": result.kept}


def _pairs_scored(result):
    return {"evalproxy.pairs_scored": len(result)}


def _negatives_drawn(result):
    return {"evalproxy.negatives_drawn":
            result.positives * result.negatives_per_positive}


# (span name, module, owner, attribute, counter).  ``owner`` is None for
# a module-level function, else the name of the class holding a method.
# The module ``hgsparse.sparsify`` is looked up in sys.modules because
# the package attribute of that name is the function.
TRACED = (
    ("cli.run", "hgsparse.cli", None, "run", None),
    ("hgb_io.read_link_file", "hgsparse.hgb_io", None, "read_link_file", _records_read),
    ("hgb_io.read_node_file", "hgsparse.hgb_io", None, "read_node_file", _records_read),
    ("hgb_io.write_link_file", "hgsparse.hgb_io", None, "write_link_file", _lines_written),
    ("hgb_io.write_report", "hgsparse.hgb_io", None, "write_report", None),
    ("graph.build_graph", "hgsparse.graph", None, "build_graph", None),
    ("graph.build_graph_arrays", "hgsparse.graph", None, "build_graph_arrays", None),
    ("graph.edge_mask", "hgsparse.graph", "HeteroGraph", "edge_mask", None),
    ("graph.subgraph", "hgsparse.graph", "HeteroGraph", "subgraph", None),
    ("graph.stats", "hgsparse.graph", "HeteroGraph", "stats", None),
    ("sparsify.sparsify", "hgsparse.sparsify", None, "sparsify", _sparsify_counts),
    ("sparsify.vertex_order", "hgsparse.sparsify", None, "vertex_order", None),
    ("metrics.coverage_report", "hgsparse.metrics", None, "coverage_report", None),
    ("metrics.isolated_nodes", "hgsparse.metrics", None, "isolated_nodes", None),
    ("metrics.per_type_kept", "hgsparse.metrics", None, "per_type_kept", None),
    ("evalproxy.split_edges", "hgsparse.evalproxy", None, "split_edges", None),
    ("evalproxy.evaluate", "hgsparse.evalproxy", None, "evaluate", _negatives_drawn),
    ("evalproxy.train_view", "hgsparse.evalproxy", "TrainView", "from_graph", None),
    ("evalproxy.score_pairs", "hgsparse.evalproxy", None, "score_pairs", _pairs_scored),
    ("evalproxy.auc", "hgsparse.evalproxy", None, "auc", None),
    ("evalproxy.candidate_ranks", "hgsparse.evalproxy", None, "candidate_ranks", None),
    ("evalproxy.mrr", "hgsparse.evalproxy", None, "mrr", None),
    ("synthgen.generate", "hgsparse.synthgen", None, "generate", None),
)

# Per-layer metric -> the spans whose self time it sums.  A span's self
# time excludes its traced children, so ``sparsify.sweep_s`` is the
# ``sparsify`` span minus ``vertex_order`` and ``evalproxy.negatives_s``
# is ``evaluate`` minus its public children: negative sampling has no
# public entry point of its own.
LAYER_TIMES = {
    "cli.self_s": ("cli.run",),
    "hgb_io.read_link_file_s": ("hgb_io.read_link_file",),
    "hgb_io.read_node_file_s": ("hgb_io.read_node_file",),
    "hgb_io.write_link_file_s": ("hgb_io.write_link_file",),
    "hgb_io.write_report_s": ("hgb_io.write_report",),
    "graph.build_graph_s": ("graph.build_graph",),
    "graph.build_graph_arrays_s": ("graph.build_graph_arrays",),
    "graph.edge_mask_s": ("graph.edge_mask",),
    "graph.stats_s": ("graph.stats",),
    "graph.subgraph_s": ("graph.subgraph",),
    "sparsify.vertex_order_s": ("sparsify.vertex_order",),
    "sparsify.sweep_s": ("sparsify.sparsify",),
    "metrics.coverage_report_s": ("metrics.coverage_report",),
    "metrics.isolated_nodes_s": ("metrics.isolated_nodes",),
    "metrics.per_type_kept_s": ("metrics.per_type_kept",),
    "evalproxy.split_edges_s": ("evalproxy.split_edges",),
    "evalproxy.negatives_s": ("evalproxy.evaluate",),
    "evalproxy.train_view_s": ("evalproxy.train_view",),
    "evalproxy.score_pairs_s": ("evalproxy.score_pairs",),
    "evalproxy.rank_metrics_s": ("evalproxy.auc", "evalproxy.candidate_ranks",
                                 "evalproxy.mrr"),
}
# Generation runs in set-up only; it is reported per set-up, not per
# iteration.
SETUP_TIMES = {"synthgen.generate_s": ("synthgen.generate",)}
COUNTS = ("hgb_io.records_read", "hgb_io.lines_written", "sparsify.calls",
          "sparsify.kept_edges", "evalproxy.pairs_scored",
          "evalproxy.negatives_drawn")


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            phase = self.phase
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end, phase)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[(phase, key)] += int(value)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package_modules = [mod for key, mod in sys.modules.items()
                           if mod is not None and
                           (key == "hgsparse" or key.startswith("hgsparse."))]
        for name, module_name, owner, attr, counter in TRACED:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Summed self time per (phase, span name)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, parent, start, end, phase) in enumerate(self.spans):
            totals[(phase, name)] += (end - start) - child_time[i]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, parent, start, end, phase) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "parent": parent,
                                      "start": start, "end": end,
                                      "phase": phase}) + "\n")


def layer_metrics(tracer: Tracer, loop_phases, loop_iterations: int,
                  setups: int) -> dict[str, float]:
    """Per-layer self times and counts, per loop iteration.

    ``loop_phases`` are the operation names of the timed loop; spans of
    the ``setup`` phase only feed ``SETUP_TIMES``, per set-up.
    """
    totals = tracer.self_times()
    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        total = sum(totals.get((phase, name), 0.0)
                    for phase in loop_phases for name in names)
        out[metric] = total / loop_iterations
    for metric, names in SETUP_TIMES.items():
        total = sum(totals.get(("setup", name), 0.0) for name in names)
        out[metric] = total / setups
    for key in COUNTS:
        total = sum(tracer.counts.get((phase, key), 0) for phase in loop_phases)
        out[key] = total / loop_iterations
    return out


def phase_breakdown(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time per phase and metric, over the whole trace."""
    totals = tracer.self_times()
    out: dict[str, dict[str, float]] = defaultdict(dict)
    for metric, names in {**LAYER_TIMES, **SETUP_TIMES}.items():
        for (phase, name), value in totals.items():
            if name in names:
                out[phase][metric] = out[phase].get(metric, 0.0) + value
    return out
