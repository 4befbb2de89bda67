"""Feature catalog and selection tests.

Oracles are written independently of the implementation:
  * exact Mann-Whitney two-sided p by enumerating all group assignments,
  * partial autocorrelation by directly solving the Yule-Walker system,
  * FFT magnitudes by a naive O(n^2) DFT,
  * hand-computed values for the small algebraic features.
"""

import itertools
import math

import numpy as np
import pytest

from geyserstate.errors import ConfigError, DataError
from geyserstate.features import (
    FeatureCatalog,
    FeatureMask,
    build_feature_matrix,
    default_catalog,
    extract_features,
    feature_aggregated_linear_trend,
    feature_change_quantiles,
    feature_index_mass_quantile,
    feature_partial_autocorrelation,
    feature_time_reversal_asymmetry,
    load_feature_mask,
    load_feature_matrix,
    median_impute,
    save_feature_mask,
    save_feature_matrix,
    select_features,
)
from geyserstate.timeseries import LabeledWindow

FS = 200.0


# -- oracles ---------------------------------------------------------------------

def exact_mwu_two_sided(a: np.ndarray, b: np.ndarray) -> float:
    """Exact two-sided Mann-Whitney p for tie-free samples, by enumeration."""
    pooled = np.concatenate([a, b])
    assert len(np.unique(pooled)) == pooled.size, "oracle requires tie-free data"
    n1, n2 = len(a), len(b)
    mu = n1 * n2 / 2.0

    def u_stat(group_idx: tuple) -> float:
        ga = pooled[list(group_idx)]
        gb = np.delete(pooled, list(group_idx))
        return float(np.sum(ga[:, None] > gb[None, :]))

    u_obs = float(np.sum(a[:, None] > b[None, :]))
    delta = abs(u_obs - mu)
    hits = 0
    total = 0
    for idx in itertools.combinations(range(n1 + n2), n1):
        total += 1
        if abs(u_stat(idx) - mu) >= delta - 1e-12:
            hits += 1
    return hits / total


def yule_walker_pacf(x: np.ndarray, lag: int) -> float:
    """Last coefficient of the order-`lag` Yule-Walker solve."""
    n = len(x)
    xc = x - x.mean()
    c = np.array([np.dot(xc[: n - k], xc[k:]) / n for k in range(lag + 1)])
    R = np.empty((lag, lag))
    for i in range(lag):
        for j in range(lag):
            R[i, j] = c[abs(i - j)]
    phi = np.linalg.solve(R, c[1:])
    return float(phi[-1])


def naive_dft_magnitude(x: np.ndarray, k: int) -> float:
    n = len(x)
    t = np.arange(n)
    re = float(np.dot(x, np.cos(-2 * np.pi * k * t / n)))
    im = float(np.dot(x, np.sin(-2 * np.pi * k * t / n)))
    return math.hypot(re, im)


# -- small algebraic features ------------------------------------------------------

def test_time_reversal_asymmetry_hand_value():
    # t=0: 3^2*2 - 2*1 = 16 ; t=1: 4^2*3 - 3*4 = 36 ; mean = 26
    assert feature_time_reversal_asymmetry(np.array([1.0, 2.0, 3.0, 4.0]), 1) == pytest.approx(26.0)


def test_time_reversal_asymmetry_zero_for_symmetric_input():
    # Whole periods of a sine are time-reversible up to edge truncation of
    # the lagged sum, so the statistic is near zero rather than exactly zero.
    x = np.sin(2 * np.pi * np.arange(400) / 100.0)
    assert abs(feature_time_reversal_asymmetry(x, 1)) < 1e-5


def test_time_reversal_asymmetry_too_short():
    with pytest.raises(DataError):
        feature_time_reversal_asymmetry(np.array([1.0, 2.0]), 1)


def test_index_mass_quantile_hand_values():
    assert feature_index_mass_quantile(np.array([1.0, 1.0, 1.0, 1.0]), 0.5) == pytest.approx(0.5)
    assert feature_index_mass_quantile(np.array([4.0, 0.0, 0.0, 0.0]), 0.5) == pytest.approx(0.25)
    assert feature_index_mass_quantile(np.array([0.0, 0.0, 0.0, 4.0]), 0.5) == pytest.approx(1.0)


def test_index_mass_quantile_sign_insensitive():
    x = np.array([1.0, -3.0, 2.0, -1.0, 5.0, 0.5, -2.0, 4.0])
    assert feature_index_mass_quantile(x, 0.4) == feature_index_mass_quantile(np.abs(x), 0.4)


def test_agg_linear_trend_on_ramp():
    x = np.arange(3000, dtype=np.float64)
    slope, intercept, r_value = feature_aggregated_linear_trend(x, 500, "mean")
    assert slope == pytest.approx(500.0, abs=1e-9)
    assert intercept == pytest.approx(249.5, abs=1e-9)
    assert r_value == pytest.approx(1.0, abs=1e-12)


def test_agg_linear_trend_constant_has_nan_rvalue():
    slope, intercept, r_value = feature_aggregated_linear_trend(np.full(2000, 7.0), 500, "mean")
    assert slope == 0.0
    assert intercept == pytest.approx(7.0)
    assert math.isnan(r_value)


def test_agg_linear_trend_needs_two_chunks():
    with pytest.raises(DataError):
        feature_aggregated_linear_trend(np.arange(600, dtype=np.float64), 500, "mean")


def test_change_quantiles_alternating():
    x = np.tile([0.0, 10.0], 100)
    assert feature_change_quantiles(x, 0.0, 1.0, "mean") == pytest.approx(10.0)
    assert feature_change_quantiles(x, 0.0, 1.0, "var") == pytest.approx(0.0)


def test_change_quantiles_empty_corridor_is_zero():
    # Quantiles 0.1 and 0.2 of the alternating series both sit at 0, so the
    # corridor admits only the zero samples, which are never adjacent; an
    # empty pair set aggregates to 0 by definition.
    x = np.tile([0.0, 10.0], 100)
    assert feature_change_quantiles(x, 0.1, 0.2, "mean") == 0.0


def test_change_quantiles_rejects_bad_corridor():
    with pytest.raises(ConfigError):
        feature_change_quantiles(np.arange(100.0), 0.7, 0.3, "mean")


# -- partial autocorrelation -------------------------------------------------------

def test_pacf_matches_yule_walker_solve():
    rng = np.random.default_rng(11)
    x = rng.normal(size=4000)
    for lag in (1, 2, 3, 5):
        mine = feature_partial_autocorrelation(x, lag)
        oracle = yule_walker_pacf(x, lag)
        assert mine == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_pacf_of_ar1_cuts_off_after_lag_one():
    rng = np.random.default_rng(7)
    alpha = 0.7
    n = 20000
    e = rng.normal(size=n + 500)
    x = np.empty(n + 500)
    x[0] = e[0]
    for t in range(1, n + 500):
        x[t] = alpha * x[t - 1] + e[t]
    x = x[500:]
    assert feature_partial_autocorrelation(x, 1) == pytest.approx(alpha, abs=0.03)
    assert abs(feature_partial_autocorrelation(x, 2)) < 0.03
    assert abs(feature_partial_autocorrelation(x, 3)) < 0.03


def test_pacf_short_series_rejected():
    with pytest.raises(DataError):
        feature_partial_autocorrelation(np.arange(8.0), 2)


# -- spectral features -------------------------------------------------------------

def spectral_columns(x: np.ndarray, k_max: int) -> dict[str, float]:
    """The catalog's spectral columns of one window (the fft pack: |FFT| bins,
    centroid, magnitude-spectrum moments), by name."""
    catalog = default_catalog(FS, k_max)
    values = extract_features(x, catalog).values
    return {
        name: float(v)
        for name, v in zip(catalog.names, values)
        if name.startswith(("fft_magnitude", "spectral", "spectrum"))
    }


def test_fft_pack_matches_naive_dft():
    rng = np.random.default_rng(3)
    x = rng.normal(size=128)
    values = spectral_columns(x, 16)
    for k in range(1, 17):
        assert values[f"fft_magnitude_k{k:02d}"] == pytest.approx(
            naive_dft_magnitude(x, k), rel=1e-9
        )


def test_fft_pack_pure_tone():
    n = 12000
    k = 7
    amp = 2.0
    x = amp * np.sin(2 * np.pi * k * np.arange(n) / n)
    values = spectral_columns(x, 32)
    mags = [values[f"fft_magnitude_k{i:02d}"] for i in range(1, 33)]
    assert mags[k - 1] == pytest.approx(amp * n / 2, rel=1e-9)
    others = [m for i, m in enumerate(mags, start=1) if i != k]
    assert max(others) < 1e-6 * mags[k - 1]
    assert values["spectral_centroid_hz"] == pytest.approx(k * FS / n, rel=1e-6)


def test_fft_pack_white_noise_centroid_and_skew():
    rng = np.random.default_rng(19)
    x = rng.normal(size=12000)
    values = spectral_columns(x, 32)
    assert values["spectral_centroid_hz"] == pytest.approx(FS / 4, rel=0.05)
    # Raw FFT magnitudes of white noise are Rayleigh-like, so the
    # value distribution is right-skewed.
    assert 0.2 < values["spectrum_skewness"] < 1.2


def test_fft_pack_zero_signal():
    values = spectral_columns(np.zeros(256), 16)
    assert all(values[f"fft_magnitude_k{k:02d}"] == 0.0 for k in range(1, 17))
    assert math.isnan(values["spectral_centroid_hz"])      # centroid undefined
    assert values["spectrum_variance"] == 0.0               # variance of an all-zero spectrum
    assert math.isnan(values["spectrum_skewness"]) and math.isnan(values["spectrum_kurtosis"])


# -- catalog extraction ------------------------------------------------------------

def test_default_catalog_shape_and_names():
    cat = default_catalog(FS)
    assert len(cat) == 69
    assert len(set(cat.names)) == 69
    assert "fft_magnitude_k01" in cat.names
    assert "fft_magnitude_k32" in cat.names
    assert cat.version == "v1@200Hz"


def test_extract_features_deterministic():
    rng = np.random.default_rng(5)
    window = rng.normal(size=12000)
    cat = default_catalog(FS)
    a = extract_features(window, cat).values
    b = extract_features(window, cat).values
    assert np.array_equal(a, b)


def test_extract_features_noise_window_is_all_finite():
    rng = np.random.default_rng(6)
    vec = extract_features(rng.normal(size=12000), default_catalog(FS))
    assert np.all(np.isfinite(vec.values))


def test_extract_features_constant_window_nan_pattern():
    cat = default_catalog(FS)
    vec = extract_features(np.full(12000, 5.0), cat, window_start_s=42.0)
    by_name = dict(zip(cat.names, vec.values))
    assert vec.window_start_s == 42.0
    assert by_name["mean"] == 5.0
    assert by_name["variance"] == 0.0
    assert math.isnan(by_name["skewness"])
    assert math.isnan(by_name["kurtosis"])
    assert math.isnan(by_name["autocorrelation_lag1"])
    assert math.isnan(by_name["partial_autocorrelation_lag2"])
    assert by_name["zero_crossing_rate"] == 0.0
    assert by_name["binned_entropy_16"] == 0.0
    assert by_name["time_reversal_asymmetry_lag1"] == 0.0
    assert by_name["change_quantiles_0_0.7_mean"] == 0.0
    # Constant signal concentrates all spectral mass at DC.
    assert by_name["fft_magnitude_k01"] == pytest.approx(0.0, abs=1e-6)
    assert by_name["spectral_centroid_hz"] == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(by_name["index_mass_quantile_q50"]) is False


def test_extract_features_zero_window_flags_mass_quantiles():
    cat = default_catalog(FS)
    vec = extract_features(np.zeros(12000), cat)
    by_name = dict(zip(cat.names, vec.values))
    assert math.isnan(by_name["index_mass_quantile_q50"])
    assert math.isnan(by_name["spectral_centroid_hz"])


def test_extract_features_minimum_length():
    cat = default_catalog(FS, k_max=8)
    with pytest.raises(DataError):
        extract_features(np.zeros(63), cat)


def test_autocorrelation_translation_and_scale_invariant():
    rng = np.random.default_rng(8)
    x = rng.normal(size=2000)
    cat = FeatureCatalog((("ac1", "autocorrelation", (1,)),), version="t")
    base = extract_features(x, cat).values[0]
    moved = extract_features(3.0 * x + 11.0, cat).values[0]
    assert moved == pytest.approx(base, rel=1e-10)


def test_catalog_rejects_duplicate_names():
    with pytest.raises(ConfigError):
        FeatureCatalog((("a", "mean", ()), ("a", "max", ())), version="t")


# -- selection ---------------------------------------------------------------------

def _planted_matrix(n_per_class=20, n_null=6, seed=0):
    """Three classes; feature 0 separates them, the rest are noise or constant."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 2, 3], n_per_class)
    n = labels.size
    informative = labels * 2.0 + rng.normal(scale=0.2, size=n)
    nulls = rng.normal(size=(n, n_null))
    constant = np.full((n, 1), 3.14)
    matrix = np.column_stack([informative, nulls, constant])
    return matrix, labels


def test_select_features_keeps_informative_drops_constant():
    matrix, labels = _planted_matrix()
    mask = select_features(matrix, labels)
    assert bool(mask.selected[0])
    assert not bool(mask.selected[-1])
    assert mask.p_values[0] < 1e-6
    assert mask.p_values[-1] == 1.0


def test_select_features_null_only_keeps_single_fallback():
    rng = np.random.default_rng(42)
    matrix = rng.normal(size=(40, 8))
    labels = np.repeat([1, 2], 20)
    mask = select_features(matrix, labels, fdr_q=1e-6)
    assert mask.n_selected == 1


def test_select_features_cap_keeps_smallest_p():
    rng = np.random.default_rng(13)
    labels = np.repeat([1, 2], 30)
    shift = np.linspace(3.0, 0.5, 12)
    matrix = rng.normal(size=(60, 12)) + np.outer(labels == 2, shift)
    mask = select_features(matrix, labels, cap=4)
    assert mask.n_selected == 4
    chosen_p = np.sort(mask.p_values[mask.selected])
    dropped_p = np.sort(mask.p_values[~mask.selected])
    assert chosen_p[-1] <= dropped_p[0] + 1e-15


def test_select_features_fdr_monotone_in_q():
    rng = np.random.default_rng(21)
    labels = np.repeat([1, 2], 25)
    shift = np.concatenate([np.linspace(1.5, 0.1, 10), np.zeros(10)])
    matrix = rng.normal(size=(50, 20)) + np.outer(labels == 2, shift)
    tight = select_features(matrix, labels, fdr_q=0.01).selected
    loose = select_features(matrix, labels, fdr_q=0.25).selected
    assert np.all(loose[tight])


def test_select_features_p_matches_exact_enumeration():
    rng = np.random.default_rng(17)
    a = rng.normal(loc=0.0, size=8)
    b = rng.normal(loc=1.2, size=8)
    column = np.concatenate([a, b])
    labels = np.repeat([1, 2], 8)
    # Two one-vs-rest tests on two classes are the same two-sided test,
    # so the reported value is min(1, 2 * p).
    mask = select_features(np.column_stack([column, rng.normal(size=16)]), labels)
    expected = min(1.0, 2.0 * exact_mwu_two_sided(a, b))
    assert mask.p_values[0] == pytest.approx(expected, abs=1e-9)


def test_select_features_validation():
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(40, 3))
    labels = np.repeat([1, 2], 20)
    with pytest.raises(DataError):
        select_features(matrix, np.ones(40, dtype=int))
    with pytest.raises(DataError):
        select_features(matrix[:6], labels[:6])
    with pytest.raises(ConfigError):
        select_features(matrix, labels, fdr_q=0.0)
    with pytest.raises(ConfigError):
        select_features(matrix, labels, cap=0)
    bad = matrix.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        select_features(bad, labels)


def test_feature_mask_requires_nonempty_selection():
    with pytest.raises(ConfigError):
        FeatureMask(np.zeros(3, dtype=bool), np.ones(3))


# -- imputation and persistence ------------------------------------------------------

def test_median_impute_training_and_inference():
    matrix = np.array([
        [1.0, np.nan, 5.0],
        [3.0, 2.0, np.nan],
        [5.0, 4.0, 7.0],
    ])
    filled, medians = median_impute(matrix)
    assert np.all(np.isfinite(filled))
    assert medians[1] == pytest.approx(3.0)
    assert filled[0, 1] == pytest.approx(3.0)
    assert filled[1, 2] == pytest.approx(6.0)
    fresh = np.array([[np.nan, np.nan, np.nan]])
    refilled, _ = median_impute(fresh, medians)
    assert np.allclose(refilled[0], medians)


def test_median_impute_all_nan_column_falls_back_to_zero():
    matrix = np.array([[np.nan, 1.0], [np.nan, 2.0]])
    filled, medians = median_impute(matrix)
    assert medians[0] == 0.0
    assert np.all(filled[:, 0] == 0.0)


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    cat = default_catalog(FS)
    windows = [
        LabeledWindow(rng.normal(size=12000), start_s=60.0 * i, label=1 + i % 3)
        for i in range(4)
    ]
    matrix, labels, starts = build_feature_matrix(windows, cat)
    path = tmp_path / "features.csv"
    save_feature_matrix(matrix, labels, starts, cat, str(path), header_comments=["seed=9"])
    loaded_matrix, loaded_labels, loaded_starts = load_feature_matrix(str(path), cat)
    assert np.array_equal(matrix, loaded_matrix)
    assert np.array_equal(labels, loaded_labels)
    assert np.array_equal(starts, loaded_starts)
    assert path.read_text().startswith("# seed=9\n")


def test_feature_matrix_rejects_other_catalog(tmp_path):
    rng = np.random.default_rng(10)
    cat = default_catalog(FS)
    windows = [LabeledWindow(rng.normal(size=12000), start_s=0.0, label=1)]
    matrix, labels, starts = build_feature_matrix(windows, cat)
    path = tmp_path / "features.csv"
    save_feature_matrix(matrix, labels, starts, cat, str(path))
    with pytest.raises(DataError):
        load_feature_matrix(str(path), default_catalog(100.0))


def test_feature_mask_round_trip(tmp_path):
    matrix, labels = _planted_matrix()
    cat = FeatureCatalog(
        tuple((f"f{i}", "mean", ()) for i in range(matrix.shape[1])), version="t"
    )
    mask = select_features(matrix, labels)
    path = tmp_path / "mask.csv"
    save_feature_mask(mask, cat, str(path))
    loaded = load_feature_mask(str(path), cat)
    assert np.array_equal(mask.selected, loaded.selected)
    assert np.allclose(mask.p_values, loaded.p_values, rtol=0, atol=0)
