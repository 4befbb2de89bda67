"""Feature catalog and selection tests.

Oracles are written independently of the implementation:
  * exact Mann-Whitney two-sided p by enumerating all group assignments,
  * partial autocorrelation by directly solving the Yule-Walker system,
  * FFT magnitudes by a naive O(n^2) DFT,
  * hand-computed values for the small algebraic features.
"""

import itertools
import math
import os
import subprocess
import sys
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import geyserstate
from geyserstate import features
from geyserstate.errors import ConfigError, DataError
from geyserstate.features import (
    MIN_WINDOW_SAMPLES,
    FeatureCatalog,
    FeatureMask,
    build_feature_matrix,
    default_catalog,
    _change_quantiles,
    _index_mass_quantiles,
    _lag_correlations,
    _linear_trends,
    _sorted_bin_counts,
    _sorted_median,
    _sorted_quantiles,
    _time_reversal_asymmetries,
    extract_features,
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
    [value] = _time_reversal_asymmetries(np.array([1.0, 2.0, 3.0, 4.0]), None, (1,))
    assert value == pytest.approx(26.0)


def test_time_reversal_asymmetry_zero_for_symmetric_input():
    # Whole periods of a sine are time-reversible up to edge truncation of
    # the lagged sum, so the statistic is near zero rather than exactly zero.
    x = np.sin(2 * np.pi * np.arange(400) / 100.0)
    [value] = _time_reversal_asymmetries(x, None, (1,))
    assert abs(value) < 1e-5


def test_index_mass_quantile_hand_values():
    assert _index_mass_quantiles(np.array([1.0, 1.0, 1.0, 1.0]), (0.5,)) == [0.5]
    assert _index_mass_quantiles(np.array([4.0, 0.0, 0.0, 0.0]), (0.5,)) == [0.25]
    assert _index_mass_quantiles(np.array([0.0, 0.0, 0.0, 4.0]), (0.5,)) == [1.0]


def test_index_mass_quantile_sign_insensitive():
    x = np.array([1.0, -3.0, 2.0, -1.0, 5.0, 0.5, -2.0, 4.0])
    qs = (0.25, 0.4, 0.75)
    assert _index_mass_quantiles(x, qs) == _index_mass_quantiles(np.abs(x), qs)


def test_agg_linear_trend_on_ramp():
    x = np.arange(3000, dtype=np.float64)
    slope, intercept, r_value, _ = _linear_trends(x, None)
    assert slope == pytest.approx(500.0, abs=1e-9)
    assert intercept == pytest.approx(249.5, abs=1e-9)
    assert r_value == pytest.approx(1.0, abs=1e-12)


def test_agg_linear_trend_constant_has_nan_rvalue():
    slope, intercept, r_value, _ = _linear_trends(np.full(2000, 7.0), None)
    assert slope == 0.0
    assert intercept == pytest.approx(7.0)
    assert math.isnan(r_value)


def test_agg_linear_trend_needs_two_chunks():
    # 600 samples hold one whole 500-sample chunk: no line to fit
    trends = _linear_trends(np.arange(600, dtype=np.float64), None)
    assert len(trends) == 4 and all(math.isnan(v) for v in trends)


def change_quantiles(x, ql, qh):
    """(mean, var) of the change-quantile family for one corridor."""
    return _change_quantiles(x, np.sort(x), ((ql, qh),))


def test_change_quantiles_alternating():
    x = np.tile([0.0, 10.0], 100)
    mean, var = change_quantiles(x, 0.0, 1.0)
    assert mean == pytest.approx(10.0)
    assert var == pytest.approx(0.0)


def test_change_quantiles_empty_corridor_is_zero():
    # Quantiles 0.1 and 0.2 of the alternating series both sit at 0, so the
    # corridor admits only the zero samples, which are never adjacent; an
    # empty pair set aggregates to 0 by definition.
    x = np.tile([0.0, 10.0], 100)
    assert change_quantiles(x, 0.1, 0.2) == [0.0, 0.0]


# -- partial autocorrelation -------------------------------------------------------

def test_pacf_matches_yule_walker_solve():
    rng = np.random.default_rng(11)
    x = rng.normal(size=4000)
    pacf = _lag_correlations(x, None, ac_lags=(), max_lag=5)
    for lag in (1, 2, 3, 5):
        assert pacf[lag - 1] == pytest.approx(yule_walker_pacf(x, lag), rel=1e-9, abs=1e-12)


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
    lag1, lag2, lag3 = _lag_correlations(x, None, ac_lags=(), max_lag=3)
    assert lag1 == pytest.approx(alpha, abs=0.03)
    assert abs(lag2) < 0.03
    assert abs(lag3) < 0.03


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


def test_skewness_and_kurtosis_are_nan_where_a_power_of_the_variance_underflows():
    cat = default_catalog(FS)
    # variance 1e-322: m2^1.5 and m2^2 both round to zero
    x = np.tile([1e-161, -1e-161], 32)
    tiny = dict(zip(cat.names, extract_features(x, cat).values))
    assert tiny["variance"] > 0.0 and _same_bits(tiny["variance"], float(np.var(x)))
    assert math.isnan(tiny["skewness"]) and math.isnan(tiny["kurtosis"])
    # variance 1e-200: m2^1.5 = 1e-300 is still normal, m2^2 rounds to zero
    small = dict(zip(cat.names, extract_features(np.tile([1e-100, -1e-100], 32), cat).values))
    assert small["skewness"] == 0.0
    assert math.isnan(small["kurtosis"])


def test_moments_that_overflow_are_nan_without_a_warning():
    # deviations of 1e80: m4 = mean(1e320) and m2^2 = 1e320 overflow, m3 and
    # m2^1.5 = 1e240 do not; the magnitude spectrum (one Nyquist bin of
    # 6.4e81) overflows the same way
    cat = default_catalog(FS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_name = dict(zip(cat.names, extract_features(np.tile([1e80, -1e80], 32), cat).values))
    assert by_name["variance"] == pytest.approx(1e160)
    assert by_name["skewness"] == 0.0
    assert math.isnan(by_name["kurtosis"])
    assert math.isfinite(by_name["spectrum_variance"])
    assert math.isfinite(by_name["spectrum_skewness"])
    assert math.isnan(by_name["spectrum_kurtosis"])
    # louder windows overflow in the other families too: the lag products of
    # time reversal asymmetry at 1e110; np.var, abs_energy, the zero-crossing
    # product, autocorrelation and PACF at 1e160; the change-quantile
    # variance at 1e300
    for amplitude, overflowed in (
        (1e110, ("time_reversal_asymmetry_lag1",)),
        (1e160, ("variance", "abs_energy", "autocorrelation_lag1",
                 "partial_autocorrelation_lag1")),
        (1e300, ("change_quantiles_0_0.7_var",)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = extract_features(np.tile([amplitude, -amplitude], 32), cat).values
        by_name = dict(zip(cat.names, values))
        assert by_name["mean"] == 0.0
        assert not any(math.isfinite(by_name[name]) for name in overflowed)


@pytest.mark.parametrize(
    "x",
    [np.tile([1.7e308, -1.7e308], 32),
     np.clip(np.random.default_rng(3).normal(size=12000), -1.0, 1.0) * 1.7e308,
     np.r_[np.zeros(63), math.inf],
     np.r_[np.zeros(63), math.nan]],
    ids=["alternating-1.7e308", "clipped-noise-1.7e308", "one-inf", "one-nan"],
)
def test_binned_entropy_is_nan_when_the_span_is_not_finite(x):
    # xs[-1] - xs[0] overflows (or is inf or NaN), so there are no finite bin
    # edges; a constant window at the same scale still fills one bin
    cat = default_catalog(FS)
    column = cat.names.index("binned_entropy_16")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(extract_features(x, cat).values[column])
        assert extract_features(np.full(64, x[0]), cat).values[column] == 0.0


def _power_skewness_kurtosis(y):
    """The textbook formula: mean cube and fourth power of the deviations over
    powers of the mean square."""
    centered = y - np.mean(y)
    m2 = np.mean(centered**2)
    return np.mean(centered**3) / m2**1.5, np.mean(centered**4) / m2**2 - 3.0


def _moment_windows():
    rng = np.random.default_rng(23)
    noise = rng.normal(size=12000)
    heavy = rng.standard_t(2, size=12000)
    return {
        "noise": noise,
        "t2": heavy,
        "walk": np.cumsum(rng.normal(size=12000)),
        "noise_offset": 1e-50 * noise + 7e-50,
        "t2_loud": 1e50 * heavy,
        "short_skewed": rng.exponential(size=MIN_WINDOW_SAMPLES),
    }


@pytest.mark.parametrize("shape", list(_moment_windows()))
def test_skewness_and_kurtosis_equal_the_power_formula_and_scipy(shape):
    # the family computes the third and fourth moments from products of the
    # deviations; they must agree with the powers and with scipy, on the
    # window and on its magnitude spectrum
    cat = default_catalog(FS, k_max=16)
    x = _moment_windows()[shape]
    by_name = dict(zip(cat.names, extract_features(x, cat).values))
    for prefix, y in (("", x), ("spectrum_", np.abs(np.fft.rfft(x)))):
        skewness, kurtosis = by_name[prefix + "skewness"], by_name[prefix + "kurtosis"]
        assert (skewness, kurtosis) == pytest.approx(_power_skewness_kurtosis(y), rel=1e-12)
        assert skewness == pytest.approx(scipy.stats.skew(y), rel=1e-12)
        assert kurtosis == pytest.approx(scipy.stats.kurtosis(y), rel=1e-12)


def test_autocorrelation_translation_and_scale_invariant():
    rng = np.random.default_rng(8)
    x = rng.normal(size=2000)
    cat = default_catalog(FS)
    cols = [j for j, name in enumerate(cat.names) if name.startswith("autocorrelation_lag")]
    base = extract_features(x, cat).values[cols]
    moved = extract_features(3.0 * x + 11.0, cat).values[cols]
    assert len(cols) == 3
    assert moved == pytest.approx(base, rel=1e-10)


def test_catalog_rejects_duplicate_names():
    with pytest.raises(ConfigError):
        FeatureCatalog(((("a",), np.mean), (("a",), np.max)), version="t")


# -- family sharing: every column that shares work, against its own formula -----------
#
# Each restatement below computes one column alone, the way a per-column
# dispatch would: its own moment pass, its own Durbin-Levinson run to the
# column's lag, its own quantiles and line fit.  It keeps the package's
# arithmetic (powers as products, dot products as pairwise sums), so the
# family path must give the same bits, and NaN in the same cells.

def _one_moment(x, which):
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered * centered))
    m3 = float(np.mean(centered * centered * centered))
    m4 = float(np.mean((centered * centered) * (centered * centered)))
    if which == "variance":
        return m2
    moment, power = (m3, 1.5) if which == "skewness" else (m4, 2.0)
    # undefined where that power of the variance underflows to zero or
    # overflows, or where the moment itself overflowed
    scale = float(np.float64(m2) ** power)
    if not (0.0 < scale < math.inf and math.isfinite(moment)):
        return math.nan
    return moment / scale if which == "skewness" else moment / scale - 3.0


def _pairwise_dot(a, b):
    return float(np.sum(a * b))


def _one_autocorrelation(x, lag):
    centered = x - np.mean(x)
    denom = _pairwise_dot(centered, centered)
    if denom <= 0.0:
        return math.nan
    return _pairwise_dot(centered[:-lag], centered[lag:]) / denom


def _one_pacf(x, lag):
    centered = x - np.mean(x)
    n = x.size
    cov = np.array([_pairwise_dot(centered[: n - k], centered[k:]) / n for k in range(lag + 1)])
    if cov[0] <= 0.0:
        return math.nan
    phi = np.zeros(lag + 1)
    phi[1] = cov[1] / cov[0]
    v = cov[0] * (1.0 - phi[1] ** 2)
    for k in range(2, lag + 1):
        if v <= 0.0:
            return math.nan
        num = cov[k] - _pairwise_dot(phi[1:k], cov[1:k][::-1])
        phi_kk = num / v
        phi[1:k] = phi[1:k] - phi_kk * phi[1:k][::-1]
        phi[k] = phi_kk
        v *= 1.0 - phi_kk**2
    return float(phi[lag])


def _one_time_reversal_asymmetry(x, lag):
    n = x.size
    lead, mid, back = x[2 * lag :], x[lag : n - lag], x[: n - 2 * lag]
    return float(np.mean(lead * lead * mid - mid * back * back))


def _one_index_mass_quantile(x, q):
    mass = np.cumsum(np.abs(x))
    total = float(mass[-1])
    if total <= 0.0:
        return math.nan
    return (int(np.searchsorted(mass, q * total, side="left")) + 1) / x.size


def _one_linear_trend(x, aggregator, component):
    m = x.size // 500
    if m < 2:
        return math.nan
    chunks = x[: m * 500].reshape(m, 500)
    agg = np.mean(chunks, axis=1) if aggregator == "mean" else np.var(chunks, axis=1)
    k = np.arange(m, dtype=np.float64)
    k_c = k - k.mean()
    y_c = agg - agg.mean()
    sxx = _pairwise_dot(k_c, k_c)
    sxy = _pairwise_dot(k_c, y_c)
    syy = _pairwise_dot(y_c, y_c)
    slope = sxy / sxx
    if component == "slope":
        return slope
    if component == "intercept":
        return float(agg.mean()) - slope * float(k.mean())
    return sxy / math.sqrt(sxx * syy) if syy > 0.0 else math.nan


def _one_change_quantile(x, ql, qh, aggregator):
    lo = float(np.quantile(x, ql))
    hi = float(np.quantile(x, qh))
    inside = (x >= lo) & (x <= hi)
    joined = inside[:-1] & inside[1:]
    if not joined.any():
        return 0.0
    diffs = np.abs(np.diff(x))[joined]
    return float(np.mean(diffs) if aggregator == "mean" else np.var(diffs))


def _one_spectrum_moment(x, which):
    return _one_moment(np.abs(np.fft.rfft(x)), which)


def _one_spectral_centroid(x):
    mag = np.abs(np.fft.rfft(x))
    total = float(np.sum(mag))
    if total <= 0.0:
        return math.nan
    return float(np.sum(np.arange(mag.size) * (FS / x.size) * mag)) / total


def _one_binned_entropy(x, bins=16):
    if x.min() == x.max():
        return 0.0  # np.histogram would widen a zero span to one unit
    if not math.isfinite(float(x.max()) - float(x.min())):
        return math.nan
    try:
        counts = np.histogram(x, bins)[0]
    except ValueError:  # a span too narrow for `bins` distinct edges
        return math.nan
    p = counts[counts > 0] / x.size
    return float(-np.sum(p * np.log(p)))


SHARED_COLUMNS = {
    "mean": lambda x: float(np.mean(x)),
    "min": lambda x: float(np.min(x)),
    "max": lambda x: float(np.max(x)),
    "mean_abs_change": lambda x: float(np.mean(np.abs(np.diff(x)))),
    "abs_sum_of_changes": lambda x: float(np.sum(np.abs(np.diff(x)))),
    "binned_entropy_16": _one_binned_entropy,
    "spectral_centroid_hz": _one_spectral_centroid,
    # the variance column is the family's m2, which must be np.var's bits
    "variance": lambda x: float(np.var(x)),
    "skewness": partial(_one_moment, which="skewness"),
    "kurtosis": partial(_one_moment, which="kurtosis"),
    **{f"spectrum_{which}": partial(_one_spectrum_moment, which=which)
       for which in ("variance", "skewness", "kurtosis")},
    **{f"change_quantiles_{ql:g}_{qh:g}_{agg}": partial(_one_change_quantile, ql=ql, qh=qh, aggregator=agg)
       for ql, qh in ((0.0, 0.7), (0.3, 1.0)) for agg in ("mean", "var")},
    **{f"agg_linear_trend_{agg}_500_{c}": partial(_one_linear_trend, aggregator=agg, component=c)
       for agg, c in (("mean", "slope"), ("mean", "intercept"), ("mean", "rvalue"), ("var", "slope"))},
    **{f"partial_autocorrelation_lag{lag}": partial(_one_pacf, lag=lag) for lag in (1, 2, 3)},
    **{f"autocorrelation_lag{lag}": partial(_one_autocorrelation, lag=lag) for lag in (1, 5, 10)},
    **{f"time_reversal_asymmetry_lag{lag}": partial(_one_time_reversal_asymmetry, lag=lag)
       for lag in (1, 10)},
    **{f"index_mass_quantile_q{int(q * 100)}": partial(_one_index_mass_quantile, q=q)
       for q in (0.25, 0.5, 0.75)},
}


def _same_bits(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _shape_windows(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(n)
    spike = np.zeros(n)
    spike[n // 3] = 1.0
    return {
        "white": rng.normal(size=n),
        "walk": np.cumsum(rng.normal(size=n)),
        "constant": np.full(n, 5.0),
        "zeros": np.zeros(n),
        "spike": spike,
    }


@st.composite
def _catalog_windows(draw):
    """64..12000 samples of Gaussian or t(2) noise, values rounded to one
    decimal, small integers, a constant or zeros, at scales from 1e-150 to
    1e150."""
    n = draw(st.integers(MIN_WINDOW_SAMPLES, 12000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-150, 1e-50, 1.0, 1e50, 1e150]))
    kind = draw(st.sampled_from(["noise", "t2", "rounded", "integers", "constant", "zeros"]))
    if kind == "noise":
        x = rng.normal(size=n)
    elif kind == "t2":
        x = rng.standard_t(2, size=n)
    elif kind == "rounded":
        x = np.round(rng.normal(size=n), 1)
    elif kind == "integers":
        x = rng.integers(-8, 9, size=n).astype(np.float64)
    elif kind == "constant":
        x = np.full(n, rng.normal())
    else:
        x = np.zeros(n)
    return x * scale


def _check_family_columns(x):
    """Assert every shared column equals its one-column formula on x, bit
    for bit; returns how many of them are NaN."""
    cat = default_catalog(FS)
    assert len(SHARED_COLUMNS) == 32 and set(SHARED_COLUMNS) <= set(cat.names)
    # a product or sum that overflows on the loudest windows is inf or NaN
    # on both sides
    with np.errstate(all="ignore"):
        by_name = dict(zip(cat.names, extract_features(x, cat).values))
        nan_cells = 0
        for name, one_column in SHARED_COLUMNS.items():
            expected = one_column(x)
            assert _same_bits(by_name[name], expected), (x.size, name, by_name[name], expected)
            nan_cells += math.isnan(expected)
    return nan_cells


@pytest.mark.parametrize("n", [64, 3000, 12000])
def test_family_columns_equal_their_one_column_formula(n):
    nan_cells = sum(_check_family_columns(x) for x in _shape_windows(n).values())
    assert nan_cells > 0  # the NaN rule is exercised, not only the finite path


@settings(max_examples=100, deadline=None)
@given(x=_catalog_windows())
@example(x=np.tile([1.0, 1.0 + 2**-52], 32))  # a span too narrow for 16 bins
def test_family_columns_equal_their_one_column_formula_on_drawn_windows(x):
    nan_cells = _check_family_columns(x)
    if not x.any():
        assert nan_cells > 0  # silence exercises the NaN rule


def test_family_pacf_keeps_lags_before_a_collapse():
    # At this scale the lag-0 covariance is a subnormal number and the
    # Durbin-Levinson variance after lag 1 rounds to zero: lag 1 keeps its
    # value while lags 2 and 3 are undefined.
    cat = default_catalog(FS)
    x = np.tile([1e-161, -1e-161], 32)
    by_name = dict(zip(cat.names, extract_features(x, cat).values))
    assert by_name["partial_autocorrelation_lag1"] == _one_pacf(x, 1) == -1.0
    assert math.isnan(by_name["partial_autocorrelation_lag2"])
    assert math.isnan(by_name["partial_autocorrelation_lag3"])


# -- one sorted copy per window ---------------------------------------------------
#
# extract_features sorts each window once, and the median and every quantile
# read that sorted copy.  The reference is the formula on the window as given:
# np.median and np.quantile of the unsorted samples.

ORDER_COLUMNS = ("median", "quantile_q05", "quantile_q95",
                 *(name for name in SHARED_COLUMNS if name.startswith("change_quantiles_")))


def _unsorted_order_columns(x):
    return {
        "median": float(np.median(x)),
        "quantile_q05": float(np.quantile(x, 0.05)),
        "quantile_q95": float(np.quantile(x, 0.95)),
        **{name: SHARED_COLUMNS[name](x) for name in ORDER_COLUMNS[3:]},
    }


@st.composite
def _order_windows(draw, min_samples=MIN_WINDOW_SAMPLES):
    """min_samples..12000 samples: Gaussian noise, a few tied levels or one
    constant, at scales from subnormal to 1e300, with some positions
    overwritten by +-inf, NaN or any other float."""
    n = draw(st.integers(min_samples, 12000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-315, 1e-300, 1.0, 1e300]))
    base = draw(st.sampled_from(["noise", "ties", "constant"]))
    if base == "noise":
        x = rng.normal(size=n) * scale
    elif base == "ties":
        x = rng.integers(-3, 4, size=n) * scale
    else:
        x = np.full(n, draw(st.floats(width=64)))
    specials = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(width=64))
    for value in draw(st.lists(specials, max_size=3)):
        count = draw(st.sampled_from([1, 2, n // 10, n // 2]))
        x[rng.integers(0, n, size=count)] = value
    # +0.0 and -0.0 compare equal, so which of them a partition leaves at a
    # given rank depends on the order of the elements, sorted or not; a
    # window holding both has no order-free answer and is left out
    zeros = np.signbit(x[x == 0.0])
    assume(not (zeros.any() and not zeros.all()))
    return x


@settings(max_examples=150, deadline=None)
@given(x=_order_windows())
def test_order_columns_from_the_sorted_copy_equal_the_unsorted_formulas(x):
    cat = FeatureCatalog(
        tuple(f for f in default_catalog(FS).families if set(f[0]) & set(ORDER_COLUMNS)), "t"
    )
    # inf - inf inside the quantile interpolation and the corridor differences
    with np.errstate(all="ignore"):
        got = dict(zip(cat.names, extract_features(x, cat).values))
        expected = _unsorted_order_columns(x)
    for name in ORDER_COLUMNS:
        assert _same_bits(got[name], expected[name]), (name, got[name], expected[name])


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(_order_windows(min_samples=1),
                st.lists(st.floats(width=64), min_size=1, max_size=9).map(np.array)),
    qs=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                min_size=1, max_size=4),
)
@example(x=np.array([-0.0]), qs=[0.0, 1.0])  # numpy's fraction at n - 1 keeps -0.0
@example(x=np.array([1.0, math.inf]), qs=[1.0])  # inf - inf: NaN at the top
@example(x=np.array([-math.inf, 1.0, 2.0]), qs=[0.0])
@example(x=np.arange(64.0), qs=[0.0, 0.05, 0.95, 1.0])
@example(x=np.arange(65.0), qs=[0.0, 0.3, 0.7, 1.0])
def test_sorted_readouts_equal_np_quantile_and_np_median(x, qs):
    zeros = np.signbit(x[x == 0.0])
    assume(not (zeros.any() and not zeros.all()))  # as in _order_windows
    xs = np.sort(x)
    with np.errstate(all="ignore"):
        expected, median = np.quantile(x, qs), float(np.median(x))
        got = _sorted_quantiles(xs, qs)
    assert len(got) == len(qs)
    assert all(_same_bits(g, float(e)) for g, e in zip(got, expected)), (got, expected)
    assert _same_bits(_sorted_median(xs), median)


def test_extract_features_sorts_once_and_every_quantile_reads_the_sorted_copy(monkeypatch):
    # the median and every quantile are read off the one sorted copy: nothing
    # selects from the samples again, sorted or not
    calls = {name: [] for name in ("sort", "median", "quantile", "partition")}

    def spy(fn, record):
        def call(a, *args, **kwargs):
            record.append(np.array(a))
            return fn(a, *args, **kwargs)
        return call

    for name, record in calls.items():
        monkeypatch.setattr(np, name, spy(getattr(np, name), record))
    extract_features(np.random.default_rng(9).normal(size=12000), default_catalog(FS))
    assert {name: len(record) for name, record in calls.items()} == {
        "sort": 1, "median": 0, "quantile": 0, "partition": 0}


@st.composite
def _histogram_windows(draw):
    """(window, bins): noise or t(2) at scales 1e-30 to 1e30, values rounded
    to one decimal, small integers, or samples placed on the bin edges
    themselves."""
    n = draw(st.integers(2, 3000))
    bins = draw(st.sampled_from([16, 1, 2, 7, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-30, 1e-10, 1.0, 1e10, 1e30]))
    kind = draw(st.sampled_from(["noise", "t2", "rounded", "integers", "edges"]))
    if kind == "noise":
        x = rng.normal(size=n) * scale
    elif kind == "t2":
        x = rng.standard_t(2, size=n) * scale
    elif kind == "rounded":
        x = np.round(rng.normal(size=n), 1) * scale
    elif kind == "integers":
        x = rng.integers(-8, 9, size=n).astype(np.float64)
    else:
        lo, hi = sorted(rng.normal(size=2) * scale)
        x = np.linspace(lo, hi, bins + 1)[rng.integers(0, bins + 1, size=n)]
        x[:2] = lo, hi
    assume(x.min() < x.max())
    return x, bins


@settings(max_examples=300, deadline=None)
@given(case=_histogram_windows())
def test_bin_counts_from_the_sorted_copy_equal_np_histogram(case):
    x, bins = case
    assert np.array_equal(_sorted_bin_counts(np.sort(x), bins), np.histogram(x, bins)[0])


# -- no BLAS in the catalog --------------------------------------------------------

_EXTRACT_IN_CHILD = """
import sys
import numpy as np
from geyserstate.features import default_catalog, extract_features
rng = np.random.default_rng(31)
for n in (12000, 20000):
    values = extract_features(rng.normal(size=n), default_catalog(200.0)).values
    sys.stdout.write(values.tobytes().hex() + "\\n")
"""


def test_features_have_the_same_bits_at_one_and_two_blas_threads():
    # OpenBLAS splits a dot product over its threads only above about 10k
    # elements: at 12,000 samples the window's dot products cross that size,
    # at 20,000 the 10,001-bin spectrum does too
    src = os.path.dirname(os.path.dirname(geyserstate.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        child = subprocess.run([sys.executable, "-c", _EXTRACT_IN_CHILD], env=env,
                               capture_output=True, text=True, check=True, timeout=120)
        outputs.append(child.stdout)
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]


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


def _per_column_p_values(matrix, labels):
    """select_features' p-values from one `mannwhitneyu` call per (feature,
    class), each with scipy's own method="auto": the oracle for its calls
    over whole column groups."""
    classes = np.unique(labels)
    p_values = np.ones(matrix.shape[1])
    for j in np.flatnonzero(np.ptp(matrix, axis=0) > 0.0):
        best = 1.0
        for c in classes:
            group, rest = matrix[labels == c, j], matrix[labels != c, j]
            best = min(best, float(scipy.stats.mannwhitneyu(group, rest).pvalue))
        p_values[j] = min(1.0, best * classes.size)
    return p_values


def _one_column_at_a_time(group, rest, alternative, axis, method):
    """`mannwhitneyu` over a column group as the per-column loop calls it:
    the method it is handed is ignored, and "auto" picks one per column."""
    assert axis == 0
    return SimpleNamespace(pvalue=np.array([
        scipy.stats.mannwhitneyu(group[:, j], rest[:, j], alternative=alternative).pvalue
        for j in range(group.shape[1])
    ]))


@st.composite
def selection_inputs(draw):
    """2 or 3 classes, some of at most 8 rows, and columns that are constant,
    tied (a few integer values) or tie-free, some shifted by class."""
    sizes = draw(st.lists(st.integers(1, 14), min_size=2, max_size=3).filter(
        lambda s: sum(s) >= 10))
    labels = np.array(draw(st.permutations(np.repeat(np.arange(1, len(sizes) + 1), sizes))))
    n = labels.size
    kinds = {
        "constant": st.floats(-5, 5).map(lambda v: np.full(n, v)),
        "tied": st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float64)),
        "tie-free": st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True).map(
            np.array),
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6)):
        shift = draw(st.sampled_from([0.0, 0.0, 1.5, 40.0]))
        columns.append(draw(kinds[kind]) + (shift * labels if kind != "constant" else 0.0))
    return np.column_stack(columns), labels


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=selection_inputs())
def test_select_features_batched_rank_tests_equal_the_per_column_loop(tmp_path, case):
    """The p-values have the loop's bits, and feature_mask.csv its bytes."""
    matrix, labels = case
    mask = select_features(matrix, labels)
    assert mask.p_values.tobytes() == _per_column_p_values(matrix, labels).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "mannwhitneyu", _one_column_at_a_time)
        looped = select_features(matrix, labels)
    cat = FeatureCatalog(((tuple(f"f{j}" for j in range(matrix.shape[1])), None),), "t")
    for name, m in (("batched.csv", mask), ("looped.csv", looped)):
        save_feature_mask(m, cat, str(tmp_path / name))
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "looped.csv").read_bytes()


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
        ((tuple(f"f{i}" for i in range(matrix.shape[1])), lambda x: x[: matrix.shape[1]]),),
        version="t",
    )
    mask = select_features(matrix, labels)
    path = tmp_path / "mask.csv"
    save_feature_mask(mask, cat, str(path))
    loaded = load_feature_mask(str(path), cat)
    assert np.array_equal(mask.selected, loaded.selected)
    assert np.allclose(mask.p_values, loaded.p_values, rtol=0, atol=0)
