"""Warping-distance tests.

Two oracles: exhaustive enumeration of every monotone warping path for tiny
series, and an unvectorized double-loop DP for medium ones.  Both are
independent of the batched anti-diagonal production kernel.
"""

from functools import lru_cache

import numpy as np
import pytest

from geyserstate import dtw
from geyserstate.dtw import (
    DtwParams,
    dtw_distance,
    knn_dtw_classify,
    load_reference,
    mean_pool,
    save_reference,
)
from geyserstate.errors import ConfigError, DataError
from geyserstate.timeseries import LabeledWindow


# -- oracles ---------------------------------------------------------------------

def path_enumeration_dtw(a, b, local_cost="squared"):
    """Minimum path cost over explicit enumeration; exponential, lengths <= 6."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def cost(i, j):
        d = a[i] - b[j]
        return d * d if local_cost == "squared" else abs(d)

    @lru_cache(maxsize=None)
    def best(i, j):
        c = cost(i, j)
        if i == 0 and j == 0:
            return c
        options = []
        if i > 0:
            options.append(best(i - 1, j))
        if j > 0:
            options.append(best(i, j - 1))
        if i > 0 and j > 0:
            options.append(best(i - 1, j - 1))
        return c + min(options)

    return best(a.size - 1, b.size - 1)


def plain_dp_dtw(a, b, local_cost="squared", band_radius=None):
    """Textbook O(n*m) double loop, no vectorization; cells outside an
    optional Sakoe-Chiba band stay at +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.size, b.size
    acc = np.full((na + 1, nb + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, na + 1):
        for j in range(1, nb + 1):
            if band_radius is not None and abs(i - j) > band_radius:
                continue
            d = a[i - 1] - b[j - 1]
            c = d * d if local_cost == "squared" else abs(d)
            acc[i, j] = c + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return float(acc[na, nb])


# -- distance ---------------------------------------------------------------------

def test_dtw_identical_series_is_zero():
    x = np.array([0.5, -1.0, 2.0, 3.5])
    assert dtw_distance(x, x) == 0.0


def test_dtw_documented_examples():
    assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]) == 0.0
    assert dtw_distance(
        [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], DtwParams(local_cost="absolute")
    ) == pytest.approx(3.0)


def test_dtw_matches_path_enumeration_on_random_pairs():
    rng = np.random.default_rng(23)
    for trial in range(100):
        na = int(rng.integers(1, 7))
        nb = int(rng.integers(1, 7))
        a = rng.normal(size=na)
        b = rng.normal(size=nb)
        cost = "squared" if trial % 2 == 0 else "absolute"
        mine = dtw_distance(a, b, DtwParams(local_cost=cost))
        oracle = path_enumeration_dtw(a, b, cost)
        assert mine == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_dtw_matches_plain_dp_on_medium_series():
    rng = np.random.default_rng(29)
    for cost in ("squared", "absolute"):
        a = rng.normal(size=83)
        b = rng.normal(size=97)
        assert dtw_distance(a, b, DtwParams(local_cost=cost)) == pytest.approx(
            plain_dp_dtw(a, b, cost), rel=1e-12
        )


def test_dtw_symmetry():
    rng = np.random.default_rng(31)
    a = rng.normal(size=50)
    b = rng.normal(size=60)
    for cost in ("squared", "absolute"):
        p = DtwParams(local_cost=cost)
        assert dtw_distance(a, b, p) == pytest.approx(dtw_distance(b, a, p), rel=1e-12)


def test_dtw_band_monotone_and_converges_to_unbanded():
    rng = np.random.default_rng(37)
    a = rng.normal(size=40)
    b = rng.normal(size=44)
    unbanded = dtw_distance(a, b)
    prev = np.inf
    for r in (4, 8, 16, 44):
        d = dtw_distance(a, b, DtwParams(band_radius=r))
        assert d <= prev + 1e-12
        prev = d
    assert prev == pytest.approx(unbanded, rel=1e-12)
    banded_dp = plain_dp_dtw(a, b)  # r=44 covers the whole grid
    assert prev == pytest.approx(banded_dp, rel=1e-12)


def test_dtw_band_infeasible_raises():
    with pytest.raises(DataError):
        dtw_distance(np.zeros(5), np.zeros(9), DtwParams(band_radius=2))


def test_dtw_empty_input_raises():
    with pytest.raises(DataError):
        dtw_distance(np.array([]), np.ones(3))


def test_dtw_params_validation():
    with pytest.raises(ConfigError):
        DtwParams(k_neighbors=0)
    with pytest.raises(ConfigError):
        DtwParams(local_cost="cosine")
    with pytest.raises(ConfigError):
        DtwParams(band_radius=-1)


# -- pooling -----------------------------------------------------------------------

def test_mean_pool_block_average():
    x = np.arange(12000, dtype=np.float64)
    pooled = mean_pool(x, 600)
    assert pooled.shape == (600,)
    expected = x.reshape(600, 20).mean(axis=1)
    assert np.allclose(pooled, expected, rtol=0, atol=1e-9)


def test_mean_pool_uneven_split_preserves_total_mass():
    x = np.arange(17, dtype=np.float64)
    pooled = mean_pool(x, 5)
    assert pooled.shape == (5,)
    bounds = (np.arange(6) * 17) // 5
    for i in range(5):
        assert pooled[i] == pytest.approx(x[bounds[i]:bounds[i + 1]].mean())


def test_mean_pool_short_series_passthrough():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(mean_pool(x, 600), x)


# -- classifier ---------------------------------------------------------------------

def _reference(*windows):
    """The (R, n) reference matrix and (R,) labels of (samples, label) pairs."""
    rows, labels = zip(*windows)
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def test_knn_exact_match_wins():
    refs, labels = _reference(([1, 2, 3, 4], 2), ([10, 11, 12, 13], 3))
    assert knn_dtw_classify(refs, labels, np.array([1.0, 2.0, 3.0, 4.0]), DtwParams()) == 2


def test_knn_nearest_neighbor_definition():
    refs, labels = _reference(([0, 0, 0, 0], 1), ([5, 5, 5, 5], 2))
    assert knn_dtw_classify(refs, labels, np.full(4, 4.0), DtwParams()) == 2
    assert knn_dtw_classify(refs, labels, np.full(4, 1.0), DtwParams()) == 1


def test_knn_majority_vote():
    refs, labels = _reference(([0, 0, 0], 1), ([0.1, 0.1, 0.1], 1), ([0.2, 0.2, 0.2], 2))
    assert knn_dtw_classify(refs, labels, np.zeros(3), DtwParams(k_neighbors=3)) == 1


def test_knn_vote_tie_smallest_distance_wins():
    refs, labels = _reference(
        ([0.0, 0.0], 3),    # distance 0 to the query
        ([1.0, 1.0], 2),    # farther
    )
    assert knn_dtw_classify(refs, labels, np.zeros(2), DtwParams(k_neighbors=2)) == 3


def test_knn_exact_distance_tie_lowest_class():
    refs, labels = _reference(([1.0, 1.0], 3), ([-1.0, -1.0], 2))
    # Both neighbors sit at identical distance from the zero query.
    assert knn_dtw_classify(refs, labels, np.zeros(2), DtwParams(k_neighbors=2)) == 2


def _recorded_batches(monkeypatch):
    """Record every (refs, query, distances) sweep knn_dtw_classify makes."""
    calls = []
    kernel = dtw._dtw_batch

    def recording(refs, query, params):
        out = kernel(refs, query, params)
        calls.append((refs.copy(), query.copy(), out.copy()))
        return out

    monkeypatch.setattr(dtw, "_dtw_batch", recording)
    return calls


@pytest.mark.parametrize(
    "params",
    [
        DtwParams(local_cost="squared"),
        DtwParams(local_cost="absolute"),
        DtwParams(local_cost="squared", band_radius=6),
        DtwParams(local_cost="absolute", band_radius=6),
    ],
    ids=["squared", "absolute", "squared-band", "absolute-band"],
)
def test_knn_batched_distances_equal_plain_dp_exactly(monkeypatch, params):
    rng = np.random.default_rng(43)
    refs = rng.normal(size=(7, 30))
    labels = 1 + np.arange(7) % 3
    query = rng.normal(size=34)
    calls = _recorded_batches(monkeypatch)
    knn_dtw_classify(refs, labels, query, params)
    # one sweep over the whole reference matrix
    assert len(calls) == 1
    swept, q, distances = calls[0]
    assert np.array_equal(swept, refs) and np.array_equal(q, query)
    for ref, got in zip(refs, distances):
        assert got == plain_dp_dtw(ref, q, params.local_cost, params.band_radius)


def test_knn_band_narrower_than_the_width_gap_raises():
    rng = np.random.default_rng(47)
    refs, labels = rng.normal(size=(2, 30)), np.array([1, 2])
    with pytest.raises(DataError, match="admits no path"):
        knn_dtw_classify(refs, labels, rng.normal(size=20), DtwParams(band_radius=5))


def test_knn_label_is_argmin_of_pairwise_distance():
    rng = np.random.default_rng(53)
    params = DtwParams(downsample_to=40)
    windows = [(rng.normal(size=120), 1 + i % 3) for i in range(12)]
    refs, labels = _reference(*((mean_pool(w, 40), label) for w, label in windows))
    for _ in range(5):
        query = rng.normal(size=int(rng.integers(30, 50)))
        pairwise = [dtw_distance(ref, mean_pool(query, 40), params) for ref in refs]
        assert knn_dtw_classify(refs, labels, query, params) == labels[int(np.argmin(pairwise))]


def test_knn_empty_train_raises():
    with pytest.raises(DataError):
        knn_dtw_classify(np.empty((0, 4)), np.empty(0, dtype=np.int64), np.zeros(4), DtwParams())


def test_knn_z_normalization_flag():
    base = np.sin(np.linspace(0, 6.0, 40))
    refs, labels = _reference((base, 1), (np.cos(np.linspace(0, 6.0, 40)), 2))
    scaled_query = 5.0 * base
    assert knn_dtw_classify(refs, labels, scaled_query, DtwParams(z_normalize=True)) == 1


def test_knn_z_normalizes_each_reference_row(monkeypatch):
    rng = np.random.default_rng(59)
    refs = np.vstack([rng.normal(size=(3, 25)) * 7.0 + 2.0, np.full(25, 4.0)])
    calls = _recorded_batches(monkeypatch)
    knn_dtw_classify(refs, np.array([1, 2, 3, 1]), rng.normal(size=25), DtwParams(z_normalize=True))
    for row, swept in zip(refs, calls[0][0]):
        centered = row - row.mean()
        sd = centered.std()
        assert np.array_equal(swept, centered / sd if sd > 0 else centered)

def test_reference_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    params = DtwParams(downsample_to=8)
    windows = [LabeledWindow(rng.normal(size=32), 10.0 * i, 1 + i % 3) for i in range(5)]
    path = tmp_path / "reference.csv"
    refs, labels = save_reference(windows, str(path), params, header_comments=["seed=41"])
    assert np.array_equal(refs, [mean_pool(w.samples, 8) for w in windows])
    assert np.array_equal(labels, [w.label for w in windows])
    loaded, loaded_labels, loaded_params = load_reference(str(path))
    assert loaded_params == params
    assert np.array_equal(loaded, refs) and np.array_equal(loaded_labels, labels)
    assert path.read_text().startswith("# seed=41\n")


def test_reference_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,not_an_int,1.0\n")
    with pytest.raises(DataError):
        load_reference(str(path))
