"""Evaluation metric tests, including the frozen published-table cross-checks.

The REPORTED_TABLE values are precision/recall/F1 triples per class for the
three methods as published; the tests verify that recomputing F1 from each
printed P/R pair lands within +/-0.005 of the printed F1, and that a
confusion matrix over 16 windows reproduces each method's printed rows.
"""

import re

import numpy as np
import pytest

from geyserstate.errors import DataError
from geyserstate.evaluation import Scores, evaluate, render_report

# (precision, recall, f1) per class 1..3, frozen from the published results.
REPORTED_TABLE = {
    "dtw": [(0.45, 1.00, 0.62), (0.50, 0.40, 0.44), (1.00, 0.17, 0.29)],
    "rf_without_pef": [(0.71, 1.00, 0.83), (1.00, 0.60, 0.75), (1.00, 1.00, 1.00)],
    "rf_with_pef": [(0.83, 1.00, 0.91), (1.00, 0.80, 0.89), (1.00, 1.00, 1.00)],
}

# confusion counts (rows true, columns predicted) over 5, 5 and 6 windows of
# classes 1..3 whose scores round to the REPORTED_TABLE rows
PUBLISHED_COUNTS = {
    "dtw": [[5, 0, 0], [3, 2, 0], [3, 2, 1]],
    "rf_without_pef": [[5, 0, 0], [2, 3, 0], [0, 0, 6]],
    "rf_with_pef": [[5, 0, 0], [1, 4, 0], [0, 0, 6]],
}


def f1_of(p, r):
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def labels_of(counts):
    """(true, predicted) label arrays whose confusion matrix is counts."""
    counts = np.asarray(counts)
    true, pred = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), counts.shape[1])
    return true + 1, pred + 1


def scores_of(counts) -> Scores:
    return evaluate(*labels_of(counts))


# -- confusion matrix -----------------------------------------------------------

def test_confusion_perfect_is_diagonal():
    labels = [1, 1, 2, 3, 3, 3]
    s = evaluate(labels, labels)
    assert np.array_equal(s.counts, np.diag([2, 1, 3]))
    assert s.support[Scores.MACRO] == s.support[Scores.WEIGHTED] == 6


def test_confusion_constant_predictor_fills_first_column():
    s = evaluate([1, 2, 3, 2], [1, 1, 1, 1])
    assert np.array_equal(s.counts[:, 0], [1, 2, 1])
    assert s.counts[:, 1:].sum() == 0


def test_confusion_hand_count():
    s = evaluate([1, 2, 3], [1, 3, 3])
    assert np.array_equal(s.counts, [[1, 0, 0], [0, 0, 1], [0, 0, 1]])
    assert s.counts.sum() == 3


def test_confusion_marginals_conserved():
    rng = np.random.default_rng(4)
    true = rng.integers(1, 4, size=500)
    pred = rng.integers(1, 4, size=500)
    s = evaluate(true, pred)
    for i, c in enumerate((1, 2, 3)):
        assert s.counts[i].sum() == s.support[i] == np.sum(true == c)
        assert s.counts[:, i].sum() == np.sum(pred == c)
    assert s.support[Scores.WEIGHTED] == 500


def test_confusion_errors():
    with pytest.raises(DataError, match="lengths differ"):
        evaluate([1, 2], [1])
    with pytest.raises(DataError, match="true labels contain unknown classes \\[4\\]"):
        evaluate([1, 4], [1, 1])
    with pytest.raises(DataError, match="predicted labels contain unknown classes \\[0\\]"):
        evaluate([1, 1], [0, 1])
    with pytest.raises(DataError, match="zero windows"):
        evaluate([], [])


# -- class metrics ----------------------------------------------------------------

def test_class_metrics_hand_case():
    # Class 1: TP=4, FP=1, FN=2.
    counts = [[4, 1, 1], [1, 5, 0], [0, 0, 3]]
    s = scores_of(counts)
    assert np.array_equal(s.counts, counts)
    assert s.precision[0] == pytest.approx(4 / 5)
    assert s.recall[0] == pytest.approx(4 / 6)
    assert s.f1[0] == pytest.approx(f1_of(4 / 5, 4 / 6))
    assert s.support[0] == 6
    assert s.f1[Scores.WEIGHTED] == pytest.approx(np.dot(s.support[:3], s.f1[:3]) / 15)


def test_class_metrics_zero_denominators():
    # Class 2 never occurs and is never predicted: all metrics 0 by convention.
    s = scores_of([[5, 0, 0], [0, 0, 0], [0, 0, 5]])
    assert (s.precision[1], s.recall[1], s.f1[1], s.support[1]) == (0.0, 0.0, 0.0, 0)


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
        s = scores_of(counts)
        for p, r, f1 in zip(s.precision[:3], s.recall[:3], s.f1[:3]):
            if p > 0 and r > 0:
                assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


def test_scores_equal_the_per_window_loop():
    """The counting loop and per-class formulas evaluate replaced, kept as
    the reference: every count and every float must match bit for bit."""
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(1, 81))
        # uneven class draws, so empty classes and lopsided supports occur
        true = rng.choice([1, 2, 3], size=n, p=rng.dirichlet([0.5] * 3))
        pred = rng.choice([1, 2, 3], size=n, p=rng.dirichlet([0.5] * 3))
        counts = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(true.tolist(), pred.tolist()):
            counts[t - 1, p - 1] += 1
        rows = []
        for i in range(3):
            tp = int(counts[i, i])
            col, row = int(counts[:, i].sum()), int(counts[i, :].sum())
            p = tp / col if col > 0 else 0.0
            r = tp / row if row > 0 else 0.0
            rows.append((p, r, 2.0 * p * r / (p + r) if p + r > 0 else 0.0, row))
        support = [row[3] for row in rows]
        for weights in (np.full(3, 1.0 / 3), np.array([m / n for m in support])):
            rows.append((*(float(np.dot(weights, [row[j] for row in rows[:3]]))
                           for j in range(3)), n))
        s = evaluate(true, pred)
        assert np.array_equal(s.counts, counts)
        assert list(zip(s.precision, s.recall, s.f1, s.support)) == rows


# -- averages ----------------------------------------------------------------------

def test_macro_average_published_precision_column():
    s = scores_of(PUBLISHED_COUNTS["rf_without_pef"])
    assert s.precision[Scores.MACRO] == pytest.approx((5 / 7 + 1.0 + 1.0) / 3, abs=1e-12)
    assert s.support[Scores.MACRO] == 16


def test_macro_idempotent_on_identical_rows():
    # every class has 4 of 7 windows right and 4 of 7 predictions right
    s = scores_of([[4, 1, 2], [2, 4, 1], [1, 2, 4]])
    for column in (s.precision, s.recall, s.f1):
        assert column[Scores.MACRO] == pytest.approx(4 / 7)


def test_macro_permutation_invariant():
    rng = np.random.default_rng(12)
    true = rng.integers(1, 4, size=40)
    pred = rng.integers(1, 4, size=40)
    renamed = np.array([0, 3, 1, 2])  # class 1 -> 3, 2 -> 1, 3 -> 2
    base = evaluate(true, pred)
    flipped = evaluate(renamed[true], renamed[pred])
    for a, b in ((base.precision, flipped.precision), (base.recall, flipped.recall),
                 (base.f1, flipped.f1)):
        assert b[Scores.MACRO] == pytest.approx(a[Scores.MACRO])
        assert b[renamed[1:] - 1] == pytest.approx(a[:3])


def test_weighted_degenerate_support():
    # only class 1 occurs, so the weighted row is the class-1 row
    s = evaluate([1, 1, 1, 1, 1], [1, 1, 2, 3, 3])
    assert list(s.support) == [5, 0, 0, 5, 5]
    for column in (s.precision, s.recall, s.f1):
        assert column[Scores.WEIGHTED] == column[0]
    assert (s.precision[0], s.recall[0]) == (1.0, 0.4)
    assert s.precision[Scores.MACRO] == pytest.approx(1 / 3)


# -- report -----------------------------------------------------------------------

def test_render_report_perfect_classifier():
    labels = [1, 2, 3] * 4
    text, csv_text = render_report(evaluate(labels, labels))
    assert text.count("1.00") >= 12
    for line in csv_text.strip().splitlines()[1:4]:
        _, p, r, f1, support = line.split(",")
        assert float(p) == 1.0 and float(r) == 1.0 and float(f1) == 1.0
        assert support == "4"


def test_render_report_published_f1_column():
    for method, counts in PUBLISHED_COUNTS.items():
        text, csv_text = render_report(scores_of(counts))
        for c, printed in zip(("1", "2", "3"), REPORTED_TABLE[method]):
            cells = next(l.split() for l in text.splitlines() if l.split()[:1] == [c])
            assert cells[1:4] == [f"{v:.2f}" for v in printed], (method, c)
    lines = csv_text.splitlines()
    assert lines[0] == "class,precision,recall,f1,support"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3", "macro", "weighted"]
    assert [l.split(",")[-1] for l in lines[1:]] == ["5", "5", "6", "16", "16"]


def test_render_report_header_names_sit_over_their_counts():
    lines = render_report(evaluate([1, 2, 2, 3, 3, 3], [3, 2, 2, 1, 3, 3]))[0].splitlines()
    header, rows = lines[1], lines[2:5]
    cells = list(re.finditer(r"pred +\d", header))
    assert [m.group()[-1] for m in cells] == ["1", "2", "3"]
    assert all(header[m.start() - 1] == " " for m in cells)
    for row in rows:
        counts = list(re.finditer(r"\d+", row))[1:]  # the first is the row's own class
        assert [m.end() for m in counts] == [m.end() for m in cells]


def test_render_report_empty_class_row():
    _, csv_text = render_report(evaluate([1, 1, 3, 3], [1, 1, 3, 3]))
    row = [l for l in csv_text.splitlines() if l.startswith("2,")][0]
    assert row == "2,0.000000,0.000000,0.000000,0"


def test_csv_text_six_decimals():
    _, csv_text = render_report(evaluate([1, 2, 3, 1], [1, 2, 3, 2]))
    cells = csv_text.splitlines()[1].split(",")
    assert len(cells[1].split(".")[1]) == 6
