"""Feature catalog and selection tests.

Oracles are written independently of the implementation:
  * exact Mann-Whitney two-sided p by enumerating all group assignments,
  * partial autocorrelation by directly solving the Yule-Walker system,
  * FFT magnitudes by a naive O(n^2) DFT,
  * hand-computed values for the small algebraic features.
"""

import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geyserstate.errors import ConfigError, DataError
from geyserstate.features import (
    MIN_WINDOW_SAMPLES,
    FeatureCatalog,
    FeatureMask,
    build_feature_matrix,
    default_catalog,
    _change_quantiles,
    _index_mass_quantiles,
    _partial_autocorrelations,
    extract_features,
    feature_aggregated_linear_trend,
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
    assert _index_mass_quantiles(np.array([1.0, 1.0, 1.0, 1.0]), (0.5,)) == [0.5]
    assert _index_mass_quantiles(np.array([4.0, 0.0, 0.0, 0.0]), (0.5,)) == [0.25]
    assert _index_mass_quantiles(np.array([0.0, 0.0, 0.0, 4.0]), (0.5,)) == [1.0]


def test_index_mass_quantile_sign_insensitive():
    x = np.array([1.0, -3.0, 2.0, -1.0, 5.0, 0.5, -2.0, 4.0])
    qs = (0.25, 0.4, 0.75)
    assert _index_mass_quantiles(x, qs) == _index_mass_quantiles(np.abs(x), qs)


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
    pacf = _partial_autocorrelations(x, None, max_lag=5)
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
    lag1, lag2, lag3 = _partial_autocorrelations(x, None, max_lag=3)
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
    tiny = dict(zip(cat.names, extract_features(np.tile([1e-161, -1e-161], 32), cat).values))
    assert tiny["variance"] > 0.0
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
# column's lag, its own quantiles and line fit.  The family path must give
# the same bits, and NaN in the same cells.

def _one_moment(x, which):
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    if which == "variance":
        return m2
    if m2 <= 0.0:
        return math.nan
    return m3 / m2**1.5 if which == "skewness" else m4 / m2**2 - 3.0


def _one_autocorrelation(x, lag):
    centered = x - np.mean(x)
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        return math.nan
    return float(np.dot(centered[:-lag], centered[lag:])) / denom


def _one_pacf(x, lag):
    centered = x - np.mean(x)
    n = x.size
    cov = np.array([float(np.dot(centered[: n - k], centered[k:])) / n for k in range(lag + 1)])
    if cov[0] <= 0.0:
        return math.nan
    phi = np.zeros(lag + 1)
    phi[1] = cov[1] / cov[0]
    v = cov[0] * (1.0 - phi[1] ** 2)
    for k in range(2, lag + 1):
        if v <= 0.0:
            return math.nan
        num = cov[k] - float(np.dot(phi[1:k], cov[1:k][::-1]))
        phi_kk = num / v
        phi[1:k] = phi[1:k] - phi_kk * phi[1:k][::-1]
        phi[k] = phi_kk
        v *= 1.0 - phi_kk**2
    return float(phi[lag])


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
    sxx = float(np.dot(k_c, k_c))
    sxy = float(np.dot(k_c, y_c))
    syy = float(np.dot(y_c, y_c))
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


SHARED_COLUMNS = {
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


@pytest.mark.parametrize("n", [64, 3000, 12000])
def test_family_columns_equal_their_one_column_formula(n):
    cat = default_catalog(FS)
    assert len(SHARED_COLUMNS) == 22 and set(SHARED_COLUMNS) <= set(cat.names)
    nan_cells = 0
    for shape, x in _shape_windows(n).items():
        by_name = dict(zip(cat.names, extract_features(x, cat).values))
        for name, one_column in SHARED_COLUMNS.items():
            expected = one_column(x)
            assert _same_bits(by_name[name], expected), (n, shape, name, by_name[name], expected)
            nan_cells += math.isnan(expected)
    assert nan_cells > 0  # the NaN rule is exercised, not only the finite path


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
def _order_windows(draw):
    """64..12000 samples: Gaussian noise, a few tied levels or one constant,
    at scales from subnormal to 1e300, with some positions overwritten by
    +-inf, NaN or any other float."""
    n = draw(st.integers(MIN_WINDOW_SAMPLES, 12000))
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


def test_extract_features_sorts_once_and_every_quantile_reads_the_sorted_copy(monkeypatch):
    sorts, inputs = [], []

    def spy(fn, record):
        def call(a, *args, **kwargs):
            record.append(np.array(a))
            return fn(a, *args, **kwargs)
        return call

    x = np.random.default_rng(9).normal(size=12000)
    xs = np.sort(x)
    monkeypatch.setattr(np, "sort", spy(np.sort, sorts))
    monkeypatch.setattr(np, "median", spy(np.median, inputs))
    monkeypatch.setattr(np, "quantile", spy(np.quantile, inputs))
    extract_features(x, default_catalog(FS))
    assert len(sorts) == 1
    assert len(inputs) == 3  # the median, then one quantile call per family
    assert all(np.array_equal(a, xs) for a in inputs)


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
        ((tuple(f"f{i}" for i in range(matrix.shape[1])), lambda x: x[: matrix.shape[1]]),),
        version="t",
    )
    mask = select_features(matrix, labels)
    path = tmp_path / "mask.csv"
    save_feature_mask(mask, cat, str(path))
    loaded = load_feature_mask(str(path), cat)
    assert np.array_equal(mask.selected, loaded.selected)
    assert np.allclose(mask.p_values, loaded.p_values, rtol=0, atol=0)
