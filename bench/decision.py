"""Per-window decision latency through the public library, from saved artifacts.

For each window: `extract_features` -> `median_impute` with the training
medians -> column select with the saved mask -> `predict_forest`.  The
forest, mask and training feature matrix are the ones the workload wrote;
the medians are rebuilt from `features.csv`.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from geyserstate.config import label_policy, load_config
from geyserstate.features import (
    default_catalog,
    extract_features,
    load_feature_mask,
    load_feature_matrix,
    median_impute,
)
from geyserstate.forest import load_forest, predict_forest
from geyserstate.synth import split_train_test
from geyserstate.timeseries import label_windows, load_events, load_timeseries, slice_windows


class DecisionPath:
    def __init__(self, out_dir: str, config_path: str, held_out: bool) -> None:
        """Load the model and the windows to decide: the pipeline's held-out
        side of the split, or every window of pef.csv."""
        values = load_config(config_path)
        policy = label_policy(values)
        series = load_timeseries(os.path.join(out_dir, "pef.csv"), values["synth.fs_hz"])
        events = load_events(os.path.join(out_dir, "events.csv"))
        if held_out:
            _, (series, events) = split_train_test(series, events, values["split.ratio"], policy)
        self.windows = label_windows(
            slice_windows(series, values["window.length_s"], values["window.stride_s"]),
            events,
            policy,
        )
        self.catalog = default_catalog(series.fs_hz, values["features.fft_bins"])
        self.forest = load_forest(os.path.join(out_dir, "forest.txt"))
        mask = load_feature_mask(os.path.join(out_dir, "feature_mask.csv"), self.catalog)
        self.cols = np.flatnonzero(mask.selected)
        train_matrix, _, _ = load_feature_matrix(os.path.join(out_dir, "features.csv"), self.catalog)
        _, self.medians = median_impute(train_matrix)
        self._cycle = itertools.cycle(self.windows)

    def decide(self, window) -> tuple[int, np.ndarray]:
        fv = extract_features(window.samples, self.catalog, window.start_s)
        filled, _ = median_impute(fv.values[None, :], self.medians)
        return predict_forest(self.forest, filled[0, self.cols])

    def mismatches(self, predictions_path: str) -> int:
        """Windows whose start, true label, prediction or votes differ from
        the predictions file (missing or extra rows count too)."""
        expected = []
        with open(predictions_path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("window_start_s"):
                    continue
                cells = line.strip().split(",")
                expected.append((float(cells[0]), int(cells[1]), int(cells[2]),
                                 tuple(int(c) for c in cells[3:])))
        bad = abs(len(expected) - len(self.windows))
        for w, row in zip(self.windows, expected):
            label, votes = self.decide(w)
            by_class = dict(zip(self.forest.classes.tolist(), votes.tolist()))
            got = (w.start_s, w.label, label, tuple(by_class.get(c, 0) for c in (1, 2, 3)))
            bad += got != row
        return bad

    def latencies_ms(self, count: int) -> list[float]:
        """Time `count` decisions, continuing round the windows from the
        last call."""
        out = []
        for w in itertools.islice(self._cycle, count):
            start = time.perf_counter()
            self.decide(w)
            out.append((time.perf_counter() - start) * 1e3)
        return out
