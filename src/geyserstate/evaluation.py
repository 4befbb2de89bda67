"""Confusion matrix and per-class precision/recall/F1 with their averages.

Undefined precision or recall (empty denominator) reports as 0 rather than
NaN; both macro and support-weighted averages are given because published
summary tables rarely say which one they used.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError
from .timeseries import ALL_CLASSES


class Scores(NamedTuple):
    """counts[i, j] = windows of true class i+1 predicted as class j+1.

    precision, recall, f1 and support hold one entry per ROWS name: the
    classes 1..3, then the macro and the support-weighted average.
    """

    counts: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray

    ROWS = (*(str(c) for c in ALL_CLASSES), "macro", "weighted")
    MACRO, WEIGHTED = len(ALL_CLASSES), len(ALL_CLASSES) + 1


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)


def evaluate(true_labels, pred_labels) -> Scores:
    true_arr = np.asarray(true_labels)
    pred_arr = np.asarray(pred_labels)
    if true_arr.size != pred_arr.size:
        raise DataError(
            f"label lengths differ: {true_arr.size} true vs {pred_arr.size} predicted"
        )
    if true_arr.size == 0:
        raise DataError("cannot evaluate zero windows")
    for arr, which in ((true_arr, "true"), (pred_arr, "predicted")):
        bad = set(np.unique(arr).tolist()) - set(ALL_CLASSES)
        if bad:
            raise DataError(f"{which} labels contain unknown classes {sorted(bad)}")
    k = len(ALL_CLASSES)
    cells = (true_arr.astype(np.int64) - 1) * k + pred_arr.astype(np.int64) - 1
    counts = np.bincount(cells, minlength=k * k).reshape(k, k)
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    precision = _ratio(tp, counts.sum(axis=0))
    recall = _ratio(tp, support)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    total = int(support.sum())
    weights = (np.full(k, 1.0 / k), support / total)

    def with_averages(m: np.ndarray) -> np.ndarray:
        return np.append(m, [np.dot(w, m) for w in weights])

    return Scores(
        counts, with_averages(precision), with_averages(recall), with_averages(f1),
        np.append(support, [total, total]),
    )


def render_report(scores: Scores) -> tuple[str, str]:
    """Returns (human-readable text, machine CSV): one row per Scores.ROWS
    name, with 2 decimals in the text and 6 in the CSV."""
    lines = ["confusion matrix (rows true, columns predicted)"]
    # each 7-wide `pred c` cell right-aligns over its 7-wide count column
    lines.append(" " * 7 + "".join(f"{f'pred {c}':>7}" for c in ALL_CLASSES))
    for c, row in zip(ALL_CLASSES, scores.counts.tolist()):
        lines.append(f"true {c:>2}" + "".join(f"{v:>7}" for v in row))
    lines.append("")
    lines.append(f"{'class':<10}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
    csv_lines = ["class,precision,recall,f1,support"]
    columns = (scores.precision, scores.recall, scores.f1, scores.support)
    for name, p, r, f, n in zip(Scores.ROWS, *(a.tolist() for a in columns)):
        lines.append(f"{name:<10}{p:>10.2f}{r:>10.2f}{f:>10.2f}{n:>10}")
        csv_lines.append(f"{name},{p:.6f},{r:.6f},{f:.6f},{n}")
    lines.append("")
    lines.append("precision/recall report 0 when their denominator is empty")
    return "\n".join(lines) + "\n", "\n".join(csv_lines) + "\n"
