"""Spans and counters recorded around calls into each geyserstate module.

The library is not edited: `Tracer.install` replaces public names with
pass-through wrappers in the namespace that calls them.  `cli` imports with
`from .x import y`, so most names are patched in `geyserstate.cli`; calls
made inside a module (`build_feature_matrix` -> `extract_features`,
`knn_dtw_classify` -> `dtw_distance`, ...) are patched in that module.

A span is (name, layer, parent span index, start, end).  Spans stay in
memory and the child process writes them out when its workload ends.
`layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import time

LAYERS = ("cli", "synth", "filters", "timeseries", "features", "forest", "dtw", "evaluation")


def _add(key, fn):
    """Counter that adds fn(bound arguments, result) to `key`."""
    def count(counters, args, result):
        counters[key] += fn(args, result)
    return count


def _count_save(counters, args, result):
    counters["timeseries.save_rows"] += len(args["ts" if "ts" in args else "events"])
    counters["timeseries.bytes_written"] += os.path.getsize(args["path"])


def _count_fit_ar(counters, args, result):
    counters["filters.ar_orders_fitted"] += args["max_order"] if args["criterion"] == "aic" else 1
    counters["filters.ar_fit_samples"] += len(args["ts"])
    counters["filters.ar_order_p"] = result.order_p


def _count_dtw(counters, args, result):
    counters["dtw.distance_calls"] += 1
    counters["dtw.cells"] += len(args["a"]) * len(args["b"])


_one = lambda args, result: 1

# (module, name, layer, counter or None)
PATCHES = (
    ("geyserstate.cli", "generate", "synth", _add("synth.samples", lambda a, r: len(r[0]))),
    ("geyserstate.cli", "save_classes", "synth", None),
    ("geyserstate.cli", "split_train_test", "synth", None),
    ("geyserstate.cli", "design_butterworth_highpass", "filters", None),
    ("geyserstate.cli", "apply_filter", "filters", None),
    ("geyserstate.cli", "fit_ar", "filters", _count_fit_ar),
    ("geyserstate.cli", "ar_predict_one_step", "filters", None),
    ("geyserstate.cli", "r2_score", "filters", None),
    ("geyserstate.cli", "pef", "filters", None),
    ("geyserstate.cli", "save_ar_model", "filters", None),
    ("geyserstate.cli", "save_timeseries", "timeseries", _count_save),
    ("geyserstate.cli", "save_events", "timeseries", _count_save),
    ("geyserstate.cli", "load_timeseries", "timeseries",
     _add("timeseries.load_rows", lambda a, r: len(r))),
    ("geyserstate.cli", "load_events", "timeseries",
     _add("timeseries.load_rows", lambda a, r: len(r))),
    ("geyserstate.cli", "slice_windows", "timeseries",
     _add("timeseries.windows", lambda a, r: len(r))),
    ("geyserstate.cli", "label_windows", "timeseries", None),
    ("geyserstate.cli", "sample_classes", "timeseries", None),
    ("geyserstate.cli", "select_noise_segment", "timeseries", None),
    ("geyserstate.cli", "default_catalog", "features", None),
    ("geyserstate.cli", "build_feature_matrix", "features", None),
    ("geyserstate.cli", "median_impute", "features", None),
    ("geyserstate.cli", "select_features", "features",
     _add("features.selected", lambda a, r: r.n_selected)),
    ("geyserstate.cli", "save_feature_matrix", "features", None),
    ("geyserstate.cli", "save_feature_mask", "features", None),
    ("geyserstate.cli", "load_feature_mask", "features", None),
    ("geyserstate.features", "extract_features", "features",
     _add("features.windows_extracted", _one)),
    ("geyserstate.features", "mannwhitneyu", "features", _add("features.rank_tests", _one)),
    ("geyserstate.cli", "train_forest", "forest",
     _add("forest.nodes", lambda a, r: sum(t.n_nodes for t in r.trees))),
    ("geyserstate.cli", "predict_forest", "forest", _add("forest.predict_calls", _one)),
    ("geyserstate.cli", "save_forest", "forest", None),
    ("geyserstate.cli", "load_forest", "forest", None),
    ("geyserstate.cli", "knn_dtw_classify", "dtw", _add("dtw.queries", _one)),
    ("geyserstate.cli", "save_reference", "dtw", None),
    ("geyserstate.cli", "load_reference", "dtw", None),
    ("geyserstate.dtw", "dtw_distance", "dtw", _count_dtw),
    ("geyserstate.dtw", "mean_pool", "dtw", _add("dtw.pool_calls", _one)),
    ("geyserstate.cli", "evaluate", "evaluation", None),
    ("geyserstate.cli", "render_report", "evaluation", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, float, float]] = []
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def wrap(self, fn, layer: str, count=None):
        """Pass-through wrapper recording one span per call of fn."""
        signature = inspect.signature(fn) if count is not None else None
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, layer, parent, start, end)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counters, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, name, layer, count in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, name, self.wrap(getattr(module, name), layer, count))


def layer_metrics(spans: list, counters: dict) -> dict[str, float]:
    """Per-layer times and counts from one traced workload run.

    Inclusive time sums a function's spans; a layer's self time sums its
    spans minus the part their direct child spans cover.  The root spans
    are the `cli.main` calls, so the self times add up to the workload.
    """
    inclusive: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    self_s = {layer: 0.0 for layer in LAYERS}
    child_s = [0.0] * len(spans)
    for name, layer, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for (name, layer, parent, start, end), covered in zip(spans, child_s):
        inclusive[name] += end - start
        calls[name] += 1
        self_s[layer] += end - start - covered

    def per_call_ms(name: str) -> float:
        return inclusive[name] / calls[name] * 1e3 if calls[name] else 0.0

    def total(*names: str) -> float:
        return float(sum(inclusive[n] for n in names))

    count = lambda key: float(counters.get(key, 0))
    out = {
        "dtw.classify_s": total("knn_dtw_classify"),
        "dtw.queries": count("dtw.queries"),
        "dtw.distance_calls": count("dtw.distance_calls"),
        "dtw.cells": count("dtw.cells"),
        "dtw.distance_ms_per_call": per_call_ms("dtw_distance"),
        "dtw.pool_calls": count("dtw.pool_calls"),
        "dtw.reference_s": total("save_reference", "load_reference"),
        "filters.fit_ar_s": total("fit_ar"),
        "filters.ar_orders_fitted": count("filters.ar_orders_fitted"),
        "filters.ar_fit_samples": count("filters.ar_fit_samples"),
        "filters.ar_order_p": count("filters.ar_order_p"),
        "filters.apply_filter_s": total("apply_filter"),
        "filters.pef_s": total("pef"),
        "timeseries.save_s": total("save_timeseries", "save_events"),
        "timeseries.save_rows": count("timeseries.save_rows"),
        "timeseries.bytes_written": count("timeseries.bytes_written"),
        "timeseries.load_s": total("load_timeseries", "load_events"),
        "timeseries.load_rows": count("timeseries.load_rows"),
        "timeseries.window_s": total("slice_windows", "label_windows"),
        "timeseries.windows": count("timeseries.windows"),
        "features.extract_s": total("extract_features"),
        "features.windows_extracted": count("features.windows_extracted"),
        "features.extract_ms_per_window": per_call_ms("extract_features"),
        "features.select_s": total("select_features"),
        "features.rank_tests": count("features.rank_tests"),
        "features.selected": count("features.selected"),
        "features.artifact_s": total(
            "save_feature_matrix", "save_feature_mask", "load_feature_mask"
        ),
        "forest.train_s": total("train_forest"),
        "forest.nodes": count("forest.nodes"),
        "forest.predict_s": total("predict_forest"),
        "forest.predict_calls": count("forest.predict_calls"),
        "forest.predict_ms_per_window": per_call_ms("predict_forest"),
        "forest.artifact_s": total("save_forest", "load_forest"),
        "synth.generate_s": total("generate"),
        "synth.samples": count("synth.samples"),
        "synth.save_classes_s": total("save_classes"),
        "evaluation.evaluate_s": total("evaluate", "render_report"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
