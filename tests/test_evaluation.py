"""Evaluation metric tests, including the frozen published-table cross-checks.

The REPORTED_TABLE values are precision/recall/F1 triples per class for the
three methods as published; the tests verify that recomputing F1 from each
printed P/R pair lands within +/-0.005 of the printed F1.
"""

import re

import numpy as np
import pytest

from geyserstate.errors import ConfigError, DataError
from geyserstate.evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    average_metrics,
    class_metrics,
    confusion_matrix,
    evaluate,
    render_report,
)

# (precision, recall, f1) per class 1..3, frozen from the published results.
REPORTED_TABLE = {
    "dtw": [(0.45, 1.00, 0.62), (0.50, 0.40, 0.44), (1.00, 0.17, 0.29)],
    "rf_without_pef": [(0.71, 1.00, 0.83), (1.00, 0.60, 0.75), (1.00, 1.00, 1.00)],
    "rf_with_pef": [(0.83, 1.00, 0.91), (1.00, 0.80, 0.89), (1.00, 1.00, 1.00)],
}


def f1_of(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


# -- confusion matrix -----------------------------------------------------------

def test_confusion_perfect_is_diagonal():
    labels = [1, 1, 2, 3, 3, 3]
    cm = confusion_matrix(labels, labels)
    assert np.array_equal(cm.counts, np.diag([2, 1, 3]))
    assert cm.total == 6


def test_confusion_constant_predictor_fills_first_column():
    cm = confusion_matrix([1, 2, 3, 2], [1, 1, 1, 1])
    assert np.array_equal(cm.counts[:, 0], [1, 2, 1])
    assert cm.counts[:, 1:].sum() == 0


def test_confusion_hand_count():
    cm = confusion_matrix([1, 2, 3], [1, 3, 3])
    assert cm.counts[0, 0] == 1
    assert cm.counts[1, 2] == 1
    assert cm.counts[2, 2] == 1
    assert cm.total == 3


def test_confusion_marginals_conserved():
    rng = np.random.default_rng(4)
    true = rng.integers(1, 4, size=500)
    pred = rng.integers(1, 4, size=500)
    cm = confusion_matrix(true, pred)
    for i, c in enumerate((1, 2, 3)):
        assert cm.counts[i].sum() == np.sum(true == c)
        assert cm.counts[:, i].sum() == np.sum(pred == c)
    assert cm.total == 500


def test_confusion_errors():
    with pytest.raises(DataError):
        confusion_matrix([1, 2], [1])
    with pytest.raises(DataError):
        confusion_matrix([1, 4], [1, 1])
    with pytest.raises(DataError):
        confusion_matrix([], [])
    with pytest.raises(ConfigError):
        ConfusionMatrix(np.zeros((2, 3), dtype=int))


# -- class metrics ----------------------------------------------------------------

def test_class_metrics_hand_case():
    # Class 1: TP=4, FP=1, FN=2.
    counts = np.array([[4, 1, 1], [1, 5, 0], [0, 0, 3]])
    m = class_metrics(ConfusionMatrix(counts), 1)
    assert m.precision == pytest.approx(4 / 5)
    assert m.recall == pytest.approx(4 / 6)
    assert m.f1 == pytest.approx(f1_of(4 / 5, 4 / 6))
    assert m.support == 6


def test_class_metrics_zero_denominators():
    # Class 2 never occurs and is never predicted: all metrics 0 by convention.
    counts = np.array([[5, 0, 0], [0, 0, 0], [0, 0, 5]])
    m = class_metrics(ConfusionMatrix(counts), 2)
    assert (m.precision, m.recall, m.f1, m.support) == (0.0, 0.0, 0.0, 0)


def test_reported_f1_consistent_with_reported_precision_recall():
    for method, rows in REPORTED_TABLE.items():
        for class_idx, (p, r, f1) in enumerate(rows, start=1):
            recomputed = f1_of(p, r)
            assert recomputed == pytest.approx(f1, abs=0.005), (
                f"{method} class {class_idx}: printed f1 {f1} vs recomputed {recomputed}"
            )


def test_f1_between_min_and_max_of_p_r():
    rng = np.random.default_rng(9)
    for _ in range(200):
        counts = rng.integers(0, 30, size=(3, 3))
        if counts.sum() == 0:
            continue
        cm = ConfusionMatrix(counts)
        for c in (1, 2, 3):
            m = class_metrics(cm, c)
            if m.precision > 0 and m.recall > 0:
                assert min(m.precision, m.recall) - 1e-12 <= m.f1
                assert m.f1 <= max(m.precision, m.recall) + 1e-12


# -- averages ----------------------------------------------------------------------

def _metrics(p, r, support):
    return ClassMetrics(p, r, f1_of(p, r), support)


def test_macro_average_published_precision_column():
    per_class = [_metrics(0.71, 1.0, 10), _metrics(1.0, 0.6, 5), _metrics(1.0, 1.0, 2)]
    avg = average_metrics(per_class, "macro")
    assert avg.precision == pytest.approx((0.71 + 1.0 + 1.0) / 3, abs=1e-9)
    assert avg.support == 17


def test_macro_idempotent_on_identical_rows():
    rows = [_metrics(0.8, 0.5, 3)] * 3
    avg = average_metrics(rows, "macro")
    assert avg.precision == pytest.approx(0.8)
    assert avg.recall == pytest.approx(0.5)
    assert avg.f1 == pytest.approx(f1_of(0.8, 0.5))


def test_macro_permutation_invariant():
    rows = [_metrics(0.3, 0.9, 4), _metrics(0.7, 0.2, 9), _metrics(1.0, 1.0, 1)]
    base = average_metrics(rows, "macro")
    flipped = average_metrics(rows[::-1], "macro")
    assert base.precision == pytest.approx(flipped.precision)
    assert base.recall == pytest.approx(flipped.recall)
    assert base.f1 == pytest.approx(flipped.f1)


def test_weighted_degenerate_support():
    rows = [_metrics(0.4, 0.6, 1), _metrics(1.0, 1.0, 0), _metrics(0.9, 0.1, 0)]
    avg = average_metrics(rows, "support_weighted")
    assert avg.precision == pytest.approx(0.4)
    assert avg.recall == pytest.approx(0.6)


def test_weighted_zero_total_support_errors():
    rows = [_metrics(0.4, 0.6, 0)]
    with pytest.raises(DataError):
        average_metrics(rows, "support_weighted")
    with pytest.raises(ConfigError):
        average_metrics(rows, "median")


# -- report -----------------------------------------------------------------------

def test_render_report_perfect_classifier():
    labels = [1, 2, 3] * 4
    cm, per_class, averages = evaluate(labels, labels)
    text, csv_text = render_report(cm, per_class, averages)
    assert text.count("1.00") >= 12
    for line in csv_text.strip().splitlines()[1:4]:
        _, p, r, f1, support = line.split(",")
        assert float(p) == 1.0 and float(r) == 1.0 and float(f1) == 1.0
        assert support == "4"


def test_render_report_published_f1_column():
    per_class = [_metrics(p, r, 10) for p, r, _ in REPORTED_TABLE["dtw"]]
    cm = ConfusionMatrix(np.diag([10, 10, 10]))
    averages = {
        "macro": average_metrics(per_class, "macro"),
        "support_weighted": average_metrics(per_class, "support_weighted"),
    }
    text, csv_text = render_report(cm, per_class, averages)
    for printed in ("0.62", "0.44", "0.29"):
        assert printed in text
    assert csv_text.splitlines()[0] == "class,precision,recall,f1,support"
    assert "macro," in csv_text and "weighted," in csv_text


def test_render_report_header_names_sit_over_their_counts():
    cm, per_class, averages = evaluate([1, 2, 2, 3, 3, 3], [3, 2, 2, 1, 3, 3])
    lines = render_report(cm, per_class, averages)[0].splitlines()
    header, rows = lines[1], lines[2:5]
    cells = list(re.finditer(r"pred +\d", header))
    assert [m.group()[-1] for m in cells] == ["1", "2", "3"]
    assert all(header[m.start() - 1] == " " for m in cells)
    for row in rows:
        counts = list(re.finditer(r"\d+", row))[1:]  # the first is the row's own class
        assert [m.end() for m in counts] == [m.end() for m in cells]


def test_render_report_empty_class_row():
    cm, per_class, averages = evaluate([1, 1, 3, 3], [1, 1, 3, 3])
    text, csv_text = render_report(cm, per_class, averages)
    row = [l for l in csv_text.splitlines() if l.startswith("2,")][0]
    assert row == "2,0.000000,0.000000,0.000000,0"


def test_csv_text_six_decimals():
    cm, per_class, averages = evaluate([1, 2, 3, 1], [1, 2, 3, 2])
    _, csv_text = render_report(cm, per_class, averages)
    cells = csv_text.splitlines()[1].split(",")
    assert len(cells[1].split(".")[1]) == 6
