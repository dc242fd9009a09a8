"""Span tracing for the benchmark's traced run, from the benchmark's own files.

The tracer replaces public entdetect functions and methods with wrappers,
on the module or class where the caller looks them up (for example
``entdetect.sources.pauli_operator`` and ``entdetect.cli.run_tree``). Each
call records a span: name, start, end and parent, kept in memory in flat
integer arrays and written out when the run ends. A target that no longer
exists after a refactor is skipped, and its metrics read zero calls.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _count_nodes(tree) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack += [node.big, node.small]
    return count


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches: list = []
        self.ops_begin = 0  # first span index of the traced operations
        self.distinct_pauli: set = set()
        self.nodes_built = 0
        self.filtered = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        name_id = self._id(name)

        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for owner_path, attr, name, hook in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            if class_name:
                owner = getattr(owner, class_name, None)
            if owner is not None:
                self.wrap(owner, attr, name, hook and getattr(self, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Hooks run after the span closes, so they add nothing to its duration
    # (only to its parent's).
    def _pauli_built(self, args, result) -> None:
        self.distinct_pauli.add(tuple(args[0]))

    def _tree_built(self, args, result) -> None:
        self.nodes_built += _count_nodes(result)

    def _protocol_done(self, args, result) -> None:
        self.filtered += "filter" in result.details

    def arrays(self):
        return tuple(np.array(a, dtype=np.int64) for a in (self.name, self.start, self.end, self.parent))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "ops_begin": self.ops_begin,
                },
                fh,
            )


# (module[:class], attribute, span name, hook method or None)
TARGETS = [
    ("entdetect.cli", "sweep_purity", "cli.sweep_purity", None),
    ("entdetect.cli", "random_mixed", "states.random_mixed", None),
    ("entdetect.cli", "ppt_verdict", "oracles.ppt_verdict", None),
    ("entdetect.cli", "run_tree", "tree.run_tree", None),
    ("entdetect.cli", "generate_tree", "tree.generate_tree", "_tree_built"),
    ("entdetect.tree", "generate_tree", "tree.generate_tree", "_tree_built"),
    ("entdetect.tree", "run_tree", "tree.run_tree", None),
    ("entdetect.tree", "run_with_bloch_start", "tree.run_with_bloch_start", None),
    ("entdetect.tree", "priority_order", "tree.priority_order", None),
    ("entdetect.tree", "criterion_add", "correlations.criterion_add", None),
    ("entdetect.schmidt", "criterion_add", "correlations.criterion_add", None),
    ("entdetect.schmidt", "run_protocol", "schmidt.run_protocol", "_protocol_done"),
    ("entdetect.schmidt", "tensor_product_all", "linalg.tensor_product_all", None),
    ("entdetect.sources", "pauli_operator", "linalg.pauli_operator", "_pauli_built"),
    ("entdetect.correlations", "pauli_operator", "linalg.pauli_operator", "_pauli_built"),
    ("entdetect.sources", "tensor_product_all", "linalg.tensor_product_all", None),
    ("entdetect.linalg", "tensor_product_all", "linalg.tensor_product_all", None),
    ("entdetect.states", "tensor_product_all", "linalg.tensor_product_all", None),
    ("entdetect.sources:MeasurementSource", "measure_index", "sources.measure_index", None),
    ("entdetect.sources:MeasurementSource", "measure_directions", "sources.measure_directions", None),
    ("entdetect.sources:MeasurementSource", "apply_filter", "sources.apply_filter", None),
    ("entdetect.states:DensityMatrix", "__post_init__", "states.density_check", None),
]


def layer_metrics(tracer: Tracer, op_states: int, pool_states: int) -> dict:
    """Per-layer numbers from the recorded spans.

    Spans before tracer.ops_begin belong to building the inputs (pool_states
    states); the rest to the traced operations (op_states states).
    """
    name, start, end, parent = tracer.arrays()
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    in_ops = np.arange(len(name)) >= tracer.ops_begin

    def mask(span_name, ops_only=True):
        if span_name not in tracer._ids:
            return np.zeros(len(name), dtype=bool)
        m = name == tracer._ids[span_name]
        return m & in_ops if ops_only else m

    def count(span_name, ops_only=True) -> int:
        return int(mask(span_name, ops_only).sum())

    def mean(values, span_name, scale, ops_only=True) -> float:
        m = mask(span_name, ops_only)
        return float(values[m].mean() / scale) if m.any() else 0.0

    def per(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    # Tree nodes walked: index queries a run_tree call makes before it falls
    # back to the priority queue.
    run_spans = mask("tree.run_tree")
    prio_start = np.full(len(name), np.iinfo(np.int64).max)
    prio = mask("tree.priority_order") & has_parent
    prio_start[parent[prio]] = start[prio]
    queries = mask("sources.measure_index")
    in_run = queries & has_parent
    in_run[in_run] = run_spans[parent[in_run]]
    walked = int(np.count_nonzero(start[in_run] < prio_start[parent[in_run]]))

    us, ms = 1e3, 1e6
    setup_checks = count("states.density_check", False) - count("states.density_check")
    return {
        "cli.sweep_self_us_per_state": per(float(self_time[mask("cli.sweep_purity")].sum()) / us, op_states),
        "states.density_checks_per_state": per(setup_checks, pool_states) + per(count("states.density_check"), op_states),
        "states.density_check_us": mean(dur, "states.density_check", us, False),
        "states.random_mixed_us": mean(dur, "states.random_mixed", us),
        "oracles.ppt_us": mean(dur, "oracles.ppt_verdict", us),
        "sources.index_query_us": mean(dur, "sources.measure_index", us),
        "sources.direction_query_us": mean(dur, "sources.measure_directions", us),
        "sources.filter_us": mean(dur, "sources.apply_filter", us),
        "sources.queries_per_state": per(count("sources.measure_index") + count("sources.measure_directions"), op_states),
        "linalg.pauli_operator_builds_per_distinct": per(count("linalg.pauli_operator"), len(tracer.distinct_pauli)),
        "linalg.tensor_product_all_calls_per_state": per(count("linalg.tensor_product_all"), op_states),
        "correlations.criterion_add_us": mean(dur, "correlations.criterion_add", us),
        "correlations.criterion_adds_per_state": per(count("correlations.criterion_add"), op_states),
        "tree.generate_ms": mean(dur, "tree.generate_tree", ms),
        "tree.generate_calls_per_state": per(count("tree.generate_tree"), op_states),
        "tree.nodes_built_per_node_walked": per(tracer.nodes_built, walked),
        "tree.run_self_us": mean(self_time, "tree.run_tree", us),
        "tree.priority_order_us": mean(dur, "tree.priority_order", us),
        "schmidt.protocol_self_us": mean(self_time, "schmidt.run_protocol", us),
        "schmidt.filter_share": per(tracer.filtered, count("schmidt.run_protocol")),
    }
