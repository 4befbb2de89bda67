"""Two seals of the held-out run on the tiny config.

No fit reads the test side: replacing every raw sample after the split
with noise leaves every object `run_held_out` fits bit-equal.  No decision
reads a later sample: the record cut at the end of test window k gives
windows 1..k the features, rf_pef predictions and votes of the whole
record, because the high-pass and the prediction-error filter are causal.
"""

import os
from dataclasses import fields

import numpy as np
import pytest

from geyserstate import cli
from geyserstate.config import label_policy, load_config, synth_config
from geyserstate.features import build_feature_matrix
from geyserstate.filters import pef
from geyserstate.forest import Tree
from geyserstate.synth import generate, split_train_test

TINY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tiny.cfg")


def _bits(x):
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


def _held_out(values, raw, events, seed, compare):
    """(the split's sample index, the high-passed series, `run_held_out`)."""
    bh = cli._highpass(raw, values)
    (bh_train, _), _ = split_train_test(bh, events, values["split.ratio"], label_policy(values))
    return len(bh_train), bh, cli.run_held_out(bh, events, values, seed, compare)


def _fitted(held, split):
    """Every object fitted on the training side, as bytes."""
    forest, cols, medians, (matrix, labels, starts), mask = held.rf_pef
    windows, refs = held.reference
    model = held.model
    return {
        "ar": (model.order_p, _bits(model.intercept_c), _bits(model.coeffs_alpha),
               _bits(model.sigma2), model.n_train, _bits(model.aic)),
        "features": (_bits(matrix), _bits(labels), _bits(starts)),
        "mask": (_bits(mask.selected), _bits(mask.p_values), _bits(cols)),
        "medians": _bits(medians),
        "forest": ([tuple(_bits(getattr(t, f.name)) for f in fields(Tree)) for t in forest.trees],
                   _bits(forest.classes), forest.feature_names),
        "dtw": (_bits(refs), [(w.start_s, w.label, _bits(w.samples)) for w in windows]),
        "residual": _bits(held.residual.values[:split]),
    }


@pytest.mark.parametrize("seed", [1, 7])
def test_no_fit_reads_the_test_side(seed):
    values = load_config(TINY)
    raw, events = generate(synth_config(values, seed))
    split, _, held = _held_out(values, raw, events, seed, compare=True)
    noisy = raw.values.copy()
    rng = np.random.default_rng(seed)
    noisy[split:] = rng.normal(0.0, 3.0 * raw.values.std(), noisy.size - split)
    noisy_split, _, noisy_held = _held_out(values, raw.with_values(noisy), events, seed, True)
    assert noisy_split == split
    # the noise reached the test side
    assert _bits(noisy_held.residual.values[split:]) != _bits(held.residual.values[split:])
    assert _fitted(noisy_held, split) == _fitted(held, split)


@pytest.mark.parametrize("seed, k", [(1, 1), (1, 5), (3, 3), (7, 2), (7, 8)])
def test_no_decision_reads_a_later_sample(seed, k):
    values = load_config(TINY)
    raw, events = generate(synth_config(values, seed))
    split, bh, held = _held_out(values, raw, events, seed, compare=False)
    _, (_, ev_test) = split_train_test(bh, events, values["split.ratio"], label_policy(values))
    whole = cli._labeled_windows(held.residual.slice(split, len(raw)), ev_test, values)
    assert len(whole) >= k
    end = int(round((whole[k - 1].start_s - raw.t0_s) * raw.fs_hz)) + whole[k - 1].samples.size
    residual = pef(cli._highpass(raw.slice(0, end), values), held.model)
    cut = cli._labeled_windows(residual.slice(split, end), ev_test, values)
    assert len(cut) == k
    forest, cols, medians, _, _ = held.rf_pef
    starts, _, preds, votes, _ = cli._rf_predict(cut, forest, cols, medians, held.catalog)
    whole_starts, _, whole_preds, whole_votes, _ = held.arms["rf_pef"]
    assert _bits(starts) == _bits(whole_starts[:k])
    assert _bits(preds) == _bits(whole_preds[:k])
    assert _bits(votes) == _bits(whole_votes[:k])
    features = build_feature_matrix(cut, held.catalog)[0]
    assert _bits(features) == _bits(build_feature_matrix(whole[:k], held.catalog)[0])
