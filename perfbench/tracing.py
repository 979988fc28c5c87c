"""Spans around the public functions of each dagranger layer.

The tracer replaces a function by a wrapper on the module attribute its
caller looks it up through (``dagranger.train.encode_history_batch`` is what
``train_all`` calls, although the function is defined in ``model``), so the
program itself is not changed. Spans (name, start, end, parent) and counts
are kept in memory and written out once, when the traced run ends.

A layer is a package module. A span's self time is its duration minus the
durations of the spans directly nested in it. A layer's ``self_s`` sums the
self times of its spans that are not nested in a span of the same layer; a
same-layer function nested inside (``train.adam_step`` in ``train_all``) is
reported by its own ``_s`` metric instead. Busy seconds are summed over
threads, but a span opened on a worker thread has no parent; every benchmark
workload runs on one worker, so all spans nest.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

LAYERS = ("cli", "preprocess", "graph", "model", "train", "score", "baselines",
          "evaluate", "synth")

# The span that covers one whole ``dagranger run`` invocation.
RUN_SPAN = "cli.run"


def _knn_edges(args, result):
    return {"preprocess.knn_edges": len(result)}


def _operator_nnz(args, result):
    return {"graph.operator_nnz": result.a.nnz + result.a_plus.nnz}


def _spmm(args, result):
    # op.T @ values with op CSC: each stored entry is one multiply and one add
    # per column; bytes are the operator arrays plus the dense input and
    # output, computed from array sizes (cache misses are not counted).
    op, values = args["op"], args["values"]
    return {
        "graph.spmm_flops_computed": 2 * op.nnz * values.shape[1],
        "graph.spmm_bytes_computed": (op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
                                      + values.nbytes + result.nbytes),
    }


def _encoded_columns(args, result):
    return {"model.encoded_columns": args["values"].shape[1]}


def _pairs_dropped(args, result):
    return {"train.pairs_dropped": len(args["dataset"].pairs) - len(result)}


def _bytes_written(args, result):
    return {"score.bytes_written": os.path.getsize(args["path"])}


# (module the caller looks the name up in, attribute, span name, counter).
# The span name is "<defining layer>.<function>".
TARGETS = (
    ("dagranger.preprocess", "read_matrix", "preprocess.read_matrix", None),
    ("dagranger.preprocess", "read_pseudotime", "preprocess.read_pseudotime", None),
    ("dagranger.preprocess", "knn_graph", "preprocess.knn_graph", _knn_edges),
    ("dagranger.preprocess", "orient_by_pseudotime", "preprocess.orient_by_pseudotime", None),
    ("dagranger.graph", "read_edge_list", "graph.read_edge_list", None),
    ("dagranger.graph", "lagged_operators", "graph.lagged_operators", _operator_nnz),
    ("dagranger.model", "transpose_apply_batch", "graph.transpose_apply_batch", _spmm),
    ("dagranger.train", "encode_history_batch", "model.encode_history_batch", _encoded_columns),
    ("dagranger.train", "train_all", "train.train_all", _pairs_dropped),
    ("dagranger.train", "adam_step", "train.adam_step", None),
    ("dagranger.score", "score_pair", "score.score_pair", None),
    ("dagranger.score", "rank_pairs", "score.rank_pairs", None),
    ("dagranger.score", "write_score_records", "score.write_score_records", _bytes_written),
    ("dagranger.baselines", "pearson", "baselines.pearson", None),
    ("dagranger.baselines", "pseudocell_smooth", "baselines.pseudocell_smooth", None),
    ("dagranger.baselines", "bin_by_pseudotime", "baselines.bin_by_pseudotime", None),
    ("dagranger.baselines", "var_granger", "baselines.var_granger", None),
    ("dagranger.evaluate", "auprc", "evaluate.auprc", None),
)

# Wrapped in the benchmark's own process, which generates the inputs.
GENERATE_TARGETS = (
    ("dagranger.synth", "generate", "synth.generate", None),
)

COUNTS = {
    "preprocess.knn_edges": "preprocess.knn_graph",
    "graph.operator_nnz": "graph.lagged_operators",
    "graph.spmm_flops_computed": "graph.transpose_apply_batch",
    "graph.spmm_bytes_computed": "graph.transpose_apply_batch",
    "model.encoded_columns": "model.encode_history_batch",
    "train.pairs_dropped": "train.train_all",
    "score.bytes_written": "score.write_score_records",
}

COUNT_UNITS = {
    "graph.spmm_flops_computed": "flop",
    "graph.spmm_bytes_computed": "byte",
    "score.bytes_written": "byte",
}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    metrics = {f"{layer}.self_s": "s" for layer in LAYERS}
    for _, _, name, _ in TARGETS + GENERATE_TARGETS:
        metrics[f"{name}_s"] = "s"
        metrics[f"{name}_calls"] = "count"
    for name in COUNTS:
        metrics[name] = COUNT_UNITS.get(name, "count")
    metrics["trace.overhead_s"] = "s"
    return metrics


class Tracer:
    """Collects spans and counts from wrapped functions of one process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self, targets) -> None:
        """Wrap each target; a module or attribute that is gone is recorded as missing."""
        for module_name, attr, name, counter in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(fn, name, counter))

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return stack, index

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                added = counter(bound.arguments, result)
                with self._lock:
                    for key, value in added.items():
                        self.counts[key] = self.counts.get(key, 0) + int(value)
            return result

        return wrapper

    def run_span(self, fn, *args):
        """Call ``fn(*args)`` inside a span named ``RUN_SPAN``."""
        return self._wrap(fn, RUN_SPAN, None)(*args)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def summarize(trace: dict, targets) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    Functions that exist but were not called read 0; functions listed as
    missing are left out, never reported as zero.
    """
    spans = trace["spans"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    nested = [0.0] * len(spans)
    for name, start, end, parent in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            nested[parent] += end - start

    layer_self: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if parent >= 0 and spans[parent][0].split(".", 1)[0] == layer:
            continue
        layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - nested[i]

    missing = set(trace["missing"])
    out: dict[str, float] = {}
    for layer in {t[2].split(".", 1)[0] for t in targets} | set(layer_self):
        if layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for _, _, name, _ in targets:
        if name in missing:
            continue
        out[f"{name}_s"] = busy.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    for count, source in COUNTS.items():
        if any(t[2] == source for t in targets) and source not in missing:
            out[count] = trace["counts"].get(count, 0)
    return out
