"""Confusion matrices, per-class precision/recall/F1, and averaged summaries.

Undefined precision or recall (empty denominator) reports as 0 rather than
NaN; both macro and support-weighted averages are provided because published
summary tables rarely say which one they used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .timeseries import ALL_CLASSES


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = windows with true class_ids[i] predicted as class_ids[j]."""

    counts: np.ndarray
    class_ids: tuple[int, ...] = ALL_CLASSES

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        k = len(self.class_ids)
        if counts.shape != (k, k):
            raise ConfigError(f"confusion counts must be {k}x{k}, got {counts.shape}")
        if np.any(counts < 0):
            raise ConfigError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def _index(self, class_id: int) -> int:
        if class_id not in self.class_ids:
            raise ConfigError(f"unknown class {class_id}; expected one of {self.class_ids}")
        return self.class_ids.index(class_id)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0 + 1e-12:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.support < 0:
            raise ConfigError(f"support must be >= 0, got {self.support}")


def confusion_matrix(true_labels, pred_labels,
                     class_ids: tuple[int, ...] = ALL_CLASSES) -> ConfusionMatrix:
    true_arr = np.asarray(true_labels)
    pred_arr = np.asarray(pred_labels)
    if true_arr.size != pred_arr.size:
        raise DataError(
            f"label lengths differ: {true_arr.size} true vs {pred_arr.size} predicted"
        )
    if true_arr.size == 0:
        raise DataError("cannot evaluate zero windows")
    valid = set(class_ids)
    for arr, which in ((true_arr, "true"), (pred_arr, "predicted")):
        bad = set(np.unique(arr).tolist()) - valid
        if bad:
            raise DataError(f"{which} labels contain unknown classes {sorted(bad)}")
    k = len(class_ids)
    index = {c: i for i, c in enumerate(class_ids)}
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true_arr.tolist(), pred_arr.tolist()):
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(counts, class_ids)


def class_metrics(cm: ConfusionMatrix, class_id: int) -> ClassMetrics:
    i = cm._index(class_id)
    tp = int(cm.counts[i, i])
    fp = int(cm.counts[:, i].sum()) - tp
    fn = int(cm.counts[i, :].sum()) - tp
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassMetrics(precision, recall, f1, support=tp + fn)


def average_metrics(per_class: list[ClassMetrics], mode: str) -> ClassMetrics:
    """macro: unweighted means; support_weighted: support-proportional means."""
    if not per_class:
        raise DataError("cannot average an empty metrics list")
    if mode not in ("macro", "support_weighted"):
        raise ConfigError(f"mode must be macro or support_weighted, got {mode!r}")
    total = sum(m.support for m in per_class)
    if mode == "macro":
        weights = np.full(len(per_class), 1.0 / len(per_class))
    else:
        if total <= 0:
            raise DataError("support-weighted average needs nonzero total support")
        weights = np.array([m.support / total for m in per_class])
    p = float(np.dot(weights, [m.precision for m in per_class]))
    r = float(np.dot(weights, [m.recall for m in per_class]))
    f = float(np.dot(weights, [m.f1 for m in per_class]))
    return ClassMetrics(p, r, f, support=total)


def render_report(
    cm: ConfusionMatrix,
    per_class: list[ClassMetrics],
    averages: dict[str, ClassMetrics],
) -> tuple[str, str]:
    """Returns (human-readable text, machine CSV).

    Text uses 2 decimals, CSV 6.  CSV rows: one per class, then `macro` and
    `weighted` summary rows.
    """
    if len(per_class) != len(cm.class_ids):
        raise ConfigError("need one metrics entry per class")
    lines = ["confusion matrix (rows true, columns predicted)"]
    header = "        " + "".join(f"pred {c:>2}" for c in cm.class_ids)
    lines.append(header)
    for i, c in enumerate(cm.class_ids):
        row = "".join(f"{int(v):>7}" for v in cm.counts[i])
        lines.append(f"true {c:>2}{row}")
    lines.append("")
    lines.append(f"{'class':<10}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
    for c, m in zip(cm.class_ids, per_class):
        lines.append(
            f"{c:<10}{m.precision:>10.2f}{m.recall:>10.2f}{m.f1:>10.2f}{m.support:>10}"
        )
    for name in ("macro", "weighted"):
        key = "support_weighted" if name == "weighted" and "support_weighted" in averages else name
        m = averages[key]
        lines.append(
            f"{name:<10}{m.precision:>10.2f}{m.recall:>10.2f}{m.f1:>10.2f}{m.support:>10}"
        )
    lines.append("")
    lines.append("precision/recall report 0 when their denominator is empty")
    text = "\n".join(lines) + "\n"

    csv_lines = ["class,precision,recall,f1,support"]
    for c, m in zip(cm.class_ids, per_class):
        csv_lines.append(f"{c},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f},{m.support}")
    for name in ("macro", "weighted"):
        key = "support_weighted" if name == "weighted" and "support_weighted" in averages else name
        m = averages[key]
        csv_lines.append(f"{name},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f},{m.support}")
    return text, "\n".join(csv_lines) + "\n"


def evaluate(true_labels, pred_labels) -> tuple[ConfusionMatrix, list[ClassMetrics], dict]:
    """One-call wrapper: confusion, per-class metrics, both averages."""
    cm = confusion_matrix(true_labels, pred_labels)
    per_class = [class_metrics(cm, c) for c in cm.class_ids]
    averages = {
        "macro": average_metrics(per_class, "macro"),
        "support_weighted": average_metrics(per_class, "support_weighted"),
    }
    return cm, per_class, averages
