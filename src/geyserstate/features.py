"""Window feature extraction and statistical feature selection.

The catalog compresses each fixed-length window into a named vector: moments,
order statistics, energy, change sums, crossing rate, entropy,
autocorrelations, partial autocorrelations, time-reversal asymmetry, index
mass quantiles, aggregated linear trends, change quantiles, leading FFT
magnitudes, and magnitude-spectrum summaries.  Each family is one function of
the window and its sorted copy that returns its block of columns, so work
shared by its columns (one moment pass, one set of lag products for the
autocorrelations and the Durbin-Levinson partial autocorrelations, one FFT)
runs once.  The window is sorted once, and the median, the two quantiles,
both change-quantile corridors and the entropy's bin counts read that copy
instead of each selecting from the unsorted samples: a quantile or median
is read off it by index with numpy's own arithmetic, so nothing calls
np.quantile or np.median and the bits are theirs.  Every other statistic
over the window is one ufunc call doing the float operations numpy's own
function does on a 1-D float64 array, without that function's Python
wrapper: a mean is np.add.reduce, numpy's pairwise sum, divided by the
count; a variance the same over the squared deviations from that mean;
min and max are np.minimum.reduce and np.maximum.reduce; a difference is
np.subtract of the shifted views.  A change-quantile corridor selects its
pairs with np.compress, not a boolean index.  Each moment pass takes its
cube and fourth power as products of the deviations, not libm pow, and
every dot product is numpy's pairwise sum of products, so no family calls
BLAS and no column depends on the BLAS thread count.  A family sets NaN
where a feature is undefined (skewness of a constant, centroid of silence);
the training matrix medians impute those cells before any classifier sees
them.

Selection runs a one-vs-rest Mann-Whitney U test per feature and class (one
scipy call per class and test method over all the columns),
Bonferroni-corrects over classes, then applies Benjamini-Hochberg FDR across
features, with a hard cap on the surviving count.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.stats import mannwhitneyu

from .artifacts import read_artifact, write_table
from .errors import ConfigError, DataError

DEFAULT_FFT_BINS = 32
DEFAULT_FDR_Q = 0.05
DEFAULT_CAP = 100
MIN_WINDOW_SAMPLES = 64

# One family: its column names and the function of a window and its sorted
# copy that returns exactly one value per name, in that order.
Family = tuple[tuple[str, ...], Callable[[np.ndarray, np.ndarray], Sequence[float]]]


@dataclass(frozen=True)
class FeatureCatalog:
    """Ordered feature families; column identity is positional and named.

    The version string pins both the column list and the sampling rate baked
    into spectral columns, so any artifact built against one catalog refuses
    inputs from another.
    """

    families: tuple[Family, ...]
    version: str

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ConfigError("catalog feature names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    @property
    def names(self) -> list[str]:
        return [name for names, _ in self.families for name in names]


@dataclass(frozen=True)
class FeatureVector:
    """One window's features, aligned to a catalog."""

    values: np.ndarray
    window_start_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


@dataclass(frozen=True)
class FeatureMask:
    """Per-feature selection flags with the p-values that produced them."""

    selected: np.ndarray
    p_values: np.ndarray

    def __post_init__(self) -> None:
        selected = np.asarray(self.selected, dtype=bool)
        p_values = np.asarray(self.p_values, dtype=np.float64)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "p_values", p_values)
        if selected.size != p_values.size:
            raise ConfigError("selected and p_values must have equal length")
        if not selected.any():
            raise ConfigError("a feature mask must select at least one feature")
        if np.any((p_values < 0) | (p_values > 1)):
            raise ConfigError("p-values must lie in [0, 1]")

    @property
    def n_selected(self) -> int:
        return int(self.selected.sum())


def default_catalog(fs_hz: float, k_max: int = DEFAULT_FFT_BINS) -> FeatureCatalog:
    """The shipped catalog: 12 feature families, 37 + k_max named columns."""
    ac_lags, pacf_lags, tra_lags = (1, 5, 10), (1, 2, 3), (1, 10)
    mass_qs, corridors = (0.25, 0.5, 0.75), ((0.0, 0.7), (0.3, 1.0))
    families: list[Family] = [
        (("mean", "variance", "skewness", "kurtosis"), _moment_family),
        (("min", "max", "median", "quantile_q05", "quantile_q95"), _order_statistics),
        (("abs_energy",), lambda x, _: (_dot(x, x),)),
        (("mean_abs_change", "abs_sum_of_changes"), _change_sums),
        (("zero_crossing_rate",), _zero_crossing_rate),
        (("binned_entropy_16",), partial(_binned_entropy, bins=16)),
        ((*(f"autocorrelation_lag{lag}" for lag in ac_lags),
          *(f"partial_autocorrelation_lag{lag}" for lag in pacf_lags)),
         partial(_lag_correlations, ac_lags=ac_lags, max_lag=pacf_lags[-1])),
        (tuple(f"time_reversal_asymmetry_lag{lag}" for lag in tra_lags),
         partial(_time_reversal_asymmetries, lags=tra_lags)),
        (tuple(f"index_mass_quantile_q{int(q * 100)}" for q in mass_qs),
         lambda x, _: _index_mass_quantiles(x, mass_qs)),
        (("agg_linear_trend_mean_500_slope", "agg_linear_trend_mean_500_intercept",
          "agg_linear_trend_mean_500_rvalue", "agg_linear_trend_var_500_slope"),
         _linear_trends),
        (tuple(f"change_quantiles_{ql:g}_{qh:g}_{agg}"
               for ql, qh in corridors for agg in ("mean", "var")),
         partial(_change_quantiles, corridors=corridors)),
        ((*(f"fft_magnitude_k{k:02d}" for k in range(1, k_max + 1)), "spectral_centroid_hz",
          "spectrum_variance", "spectrum_skewness", "spectrum_kurtosis"),
         partial(_spectrum, fs_hz=fs_hz, k_max=k_max)),
    ]
    return FeatureCatalog(tuple(families), version=f"v1@{fs_hz:g}Hz")


# -- feature families -------------------------------------------------------------

def _mean(a: np.ndarray) -> float:
    """np.mean(a): the pairwise sum, then one division by the count."""
    return float(np.add.reduce(a) / a.size)


def _mean_var(a: np.ndarray) -> tuple[float, float]:
    """np.mean(a) and np.var(a), the mean of the squared deviations from
    that same mean."""
    mean = np.add.reduce(a) / a.size
    centered = a - mean
    np.multiply(centered, centered, out=centered)
    return float(mean), float(np.add.reduce(centered) / a.size)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's pairwise summation.  Unlike np.dot it never
    calls BLAS, so its bits do not depend on the BLAS thread count."""
    return float(np.add.reduce(a * b))


def _changes(x: np.ndarray) -> np.ndarray:
    """|np.diff(x)|, in one buffer."""
    changes = np.subtract(x[1:], x[:-1])
    return np.abs(changes, out=changes)


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    """Mean and central moments 2-4, from products of the deviations rather
    than powers (numpy sends a cube or fourth power to libm pow, one element
    at a time); a product that overflows leaves its moment inf or NaN."""
    mean = _mean(x)
    centered = x - mean
    sq = centered * centered
    m2 = _mean(sq)
    m3 = _mean(np.multiply(sq, centered, out=centered))
    m4 = _mean(np.multiply(sq, sq, out=sq))
    return mean, m2, m3, m4


def _standardized(moment: float, m2: float, power: float) -> float:
    """moment / m2**power; NaN where that power of m2 is zero (zero variance,
    or a variance so small that the power underflows) or where the moment or
    the power overflows."""
    try:
        scale = m2**power
    except OverflowError:
        return math.nan
    return moment / scale if 0.0 < scale < math.inf and math.isfinite(moment) else math.nan


def _skewness_kurtosis(m2: float, m3: float, m4: float) -> tuple[float, float]:
    """m3 / m2^1.5 and excess m4 / m2^2 - 3, each NaN as `_standardized` says."""
    return _standardized(m3, m2, 1.5), _standardized(m4, m2, 2) - 3.0


def _moment_family(x: np.ndarray, _: np.ndarray) -> tuple[float, ...]:
    mean, m2, m3, m4 = _moments(x)
    return (mean, m2, *_skewness_kurtosis(m2, m3, m4))


def _sorted_quantiles(xs: np.ndarray, qs: Sequence[float]) -> list[float]:
    """np.quantile(xs, qs) with its default method, 'linear' (Hyndman & Fan
    1996, definition 7), read off the sorted copy xs with numpy's arithmetic
    and so its bits: the virtual index (n - 1) * q, its floor and the next
    index, and numpy's `_lerp`, which counts down from the upper value at a
    fraction of 0.5 or more.  At n - 1 numpy reads the last value at both
    ends, with the fraction taken from index -1.  Every quantile is the NaN
    that sorts last when xs holds one."""
    n, last = xs.size, float(xs[-1])
    if math.isnan(last):
        return [last] * len(qs)
    out = []
    for q in qs:
        v = (n - 1) * q
        lo = int(v)
        lo, hi, t = (lo, lo + 1, v - lo) if lo < n - 1 else (n - 1, n - 1, v + 1)
        a, b = float(xs[lo]), float(xs[hi])
        diff = b - a
        out.append(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)
    return out


def _sorted_median(xs: np.ndarray) -> float:
    """np.median(xs) read off the sorted copy xs: the middle value, or the
    mean of the middle two, summed from +0.0 as np.mean sums (so a median of
    -0.0 reads +0.0); the NaN that sorts last when xs holds one.  Not the
    0.5 quantile, whose interpolation rounds differently."""
    n, last = xs.size, float(xs[-1])
    if math.isnan(last):
        return last
    h = n // 2
    if n % 2:
        return 0.0 + float(xs[h])
    return (0.0 + float(xs[h - 1]) + float(xs[h])) / 2


def _order_statistics(x: np.ndarray, xs: np.ndarray) -> tuple[float, ...]:
    # min and max read x itself, which keeps its NaN and signed-zero answers
    q05, q95 = _sorted_quantiles(xs, (0.05, 0.95))
    return (float(np.minimum.reduce(x)), float(np.maximum.reduce(x)), _sorted_median(xs),
            q05, q95)


def _change_sums(x: np.ndarray, _: np.ndarray) -> tuple[float, float]:
    changes = _changes(x)
    total = np.add.reduce(changes)
    return float(total / changes.size), float(total)


def _zero_crossing_rate(x: np.ndarray, _: np.ndarray) -> tuple[float]:
    # A sample exactly at zero never counts as a crossing.
    return (float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (x.size - 1),)


def _sorted_bin_counts(xs: np.ndarray, bins: int) -> np.ndarray | None:
    """np.histogram(xs, bins)'s counts, read off the sorted copy xs: bin i
    holds the samples at or above edge i and below edge i + 1, and the last
    bin also holds the maximum.  The edges are np.histogram's,
    np.linspace(xs[0], xs[-1], bins + 1); None where np.histogram refuses
    them: a span too narrow for bins + 1 increasing edges."""
    edges = np.linspace(xs[0], xs[-1], bins + 1)
    if not np.less(edges[:-1], edges[1:]).all():
        return None
    # edge 0 is xs[0], so its index is 0; the last bin ends after the maximum
    ends = np.searchsorted(xs, edges, side="left")
    ends[-1] = xs.size
    return np.subtract(ends[1:], ends[:-1])


def _binned_entropy(x: np.ndarray, xs: np.ndarray, bins: int) -> tuple[float]:
    """Entropy of the window's histogram over `bins` equal bins spanning its
    range; 0 for a constant window, NaN when the span xs[-1] - xs[0] is not
    finite (it overflows, or the window holds inf or NaN) or too narrow to
    cut into `bins` bins."""
    if xs[0] == xs[-1]:
        return (0.0,)
    if not math.isfinite(float(xs[-1]) - float(xs[0])):
        return (math.nan,)
    counts = _sorted_bin_counts(xs, bins)
    if counts is None:
        return (math.nan,)
    p = np.compress(counts > 0, counts) / x.size
    return (float(-np.add.reduce(p * np.log(p))),)


def _lag_correlations(
    x: np.ndarray, _: np.ndarray, ac_lags: Sequence[int], max_lag: int
) -> list[float]:
    """The autocorrelation at each of ac_lags, then phi_kk for k = 1..max_lag
    by the Durbin-Levinson recursion.  The window is centered once, and each
    lag product sum(c[t] * c[t + k]) is taken once for both.  Every column is
    NaN for a zero variance; a PACF lag after the recursion's innovation
    variance collapses to zero is NaN, and the lags before it keep their
    values."""
    n = x.size
    centered = x - _mean(x)
    products = np.empty(n)
    prods = {}
    for k in {0, *ac_lags, *range(1, max_lag + 1)}:
        lagged = np.multiply(centered[: n - k], centered[k:], out=products[: n - k])
        prods[k] = float(np.add.reduce(lagged))
    if prods[0] <= 0.0:
        acf = [math.nan] * len(ac_lags)
    else:
        acf = [prods[lag] / prods[0] for lag in ac_lags]
    pacf = [math.nan] * max_lag
    # the PACF tests the covariance, not the product: a subnormal product
    # divided by n can round to zero
    cov = [prods[k] / n for k in range(max_lag + 1)]
    if cov[0] <= 0.0:
        return acf + pacf
    # The recursion runs on a handful of Python floats with the bits of the
    # same steps on numpy arrays: a float's ** is libm pow, as a numpy
    # scalar's is, and numpy sums fewer than eight terms (max_lag <= 8) left
    # to right from +0.0.
    phi = [0.0] * (max_lag + 1)
    phi[1] = cov[1] / cov[0]
    v = cov[0] * (1.0 - phi[1] ** 2)
    pacf[0] = phi[1]
    for k in range(2, max_lag + 1):
        if v <= 0.0:
            break
        fitted = 0.0
        for j in range(1, k):
            fitted += phi[j] * cov[k - j]
        phi_kk = (cov[k] - fitted) / v
        phi[1:k] = [phi[j] - phi_kk * phi[k - j] for j in range(1, k)]
        phi[k] = phi_kk
        v *= 1.0 - phi_kk**2
        pacf[k - 1] = phi_kk
    return acf + pacf


def _time_reversal_asymmetries(x: np.ndarray, _: np.ndarray, lags: Sequence[int]) -> list[float]:
    """Mean of x_{t+2L}^2 x_{t+L} - x_{t+L} x_t^2 for each lag L; zero for
    time-symmetric input."""
    n = x.size
    squares = x * x
    out: list[float] = []
    for lag in lags:
        b, c = x[lag : n - lag], x[: n - 2 * lag]
        # (a * a) * b - (b * c) * c for a = x[2 * lag:], in two buffers
        lead = squares[2 * lag :] * b
        back = b * c
        back *= c
        lead -= back
        out.append(_mean(lead))
    return out


def _index_mass_quantiles(x: np.ndarray, qs: Sequence[float]) -> list[float]:
    mass = np.abs(x)
    np.add.accumulate(mass, out=mass)
    total = float(mass[-1])
    if total <= 0.0:
        return [math.nan] * len(qs)
    found = np.searchsorted(mass, [q * total for q in qs], side="left")
    return [(int(i) + 1) / x.size for i in found]


def _linear_trends(x: np.ndarray, _: np.ndarray, chunk_len: int = 500) -> list[float]:
    """Slope, intercept and r of a line fitted to the chunk means against the
    chunk index, then the slope of the chunk variances.  A trailing partial
    chunk is dropped; r is NaN when the means are constant, and all four are
    NaN below two chunks."""
    m = x.size // chunk_len
    if m < 2:
        return [math.nan] * 4
    chunks = x[: m * chunk_len].reshape(m, chunk_len)
    # np.mean and np.var over axis 1: row sums, then the squared deviations
    # from the row means
    means = np.add.reduce(chunks, axis=1) / chunk_len
    deviations = chunks - means[:, None]
    deviations *= deviations
    variances = np.add.reduce(deviations, axis=1) / chunk_len
    k = np.arange(m, dtype=np.float64)
    k_mean, means_mean = _mean(k), _mean(means)
    k_c = k - k_mean
    sxx = _dot(k_c, k_c)
    means_c = means - means_mean
    sxy = _dot(k_c, means_c)
    syy = _dot(means_c, means_c)
    slope = sxy / sxx
    intercept = means_mean - slope * k_mean
    r_value = sxy / math.sqrt(sxx * syy) if syy > 0.0 else math.nan
    return [slope, intercept, r_value, _dot(k_c, variances - _mean(variances)) / sxx]


def _change_quantiles(
    x: np.ndarray, xs: np.ndarray, corridors: Sequence[tuple[float, float]]
) -> list[float]:
    """Mean and variance of |successive differences| inside each [ql, qh]
    value corridor, whose bounds are quantiles of the sorted copy xs; both 0
    for a corridor that holds no adjacent pair."""
    bounds = _sorted_quantiles(xs, [q for corridor in corridors for q in corridor])
    changes = _changes(x)
    out: list[float] = []
    for lo, hi in zip(bounds[::2], bounds[1::2]):
        inside = np.greater_equal(x, lo)
        inside &= np.less_equal(x, hi)
        diffs = np.compress(inside[:-1] & inside[1:], changes)
        out += _mean_var(diffs) if diffs.size else (0.0, 0.0)
    return out


def _spectrum(x: np.ndarray, _: np.ndarray, fs_hz: float, k_max: int) -> list[float]:
    """|FFT| bins 1..k_max, the spectral centroid, then the variance,
    skewness and kurtosis of the magnitude spectrum, from one rfft."""
    check_fft_bins(k_max, x.size)
    mag = np.abs(np.fft.rfft(x))
    total = float(np.add.reduce(mag))
    freqs = np.arange(mag.size, dtype=np.float64) * (fs_hz / x.size)
    centroid = math.nan if total <= 0.0 else _dot(freqs, mag) / total
    _, m2, m3, m4 = _moments(mag)
    return [*mag[1 : k_max + 1].tolist(), centroid, m2, *_skewness_kurtosis(m2, m3, m4)]


def check_fft_bins(k_max: int, window_samples: int) -> None:
    """Refuse a negative bin count, or more FFT bins than a window of this
    many samples has above DC; 0 means no FFT columns."""
    if not 0 <= k_max <= window_samples // 2:
        raise ConfigError(
            f"features.fft_bins = {k_max} is outside 0..{window_samples // 2}, the "
            f"nonzero-frequency bins of a {window_samples}-sample window"
        )


def extract_features(
    window: np.ndarray, catalog: FeatureCatalog, window_start_s: float = 0.0
) -> FeatureVector:
    """Concatenate every family's block of columns for one window.

    The window is sorted once, and every median and quantile reads that copy.
    A sum, product or span that overflows in a very loud window leaves its
    column inf or NaN, without a warning.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.size < MIN_WINDOW_SAMPLES:
        raise DataError(f"window of {x.size} samples is below the {MIN_WINDOW_SAMPLES} minimum")
    xs = np.sort(x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array([v for _, fn in catalog.families for v in fn(x, xs)])
    return FeatureVector(values, window_start_s)


# -- matrices and selection ------------------------------------------------------

def build_feature_matrix(
    windows: list, catalog: FeatureCatalog
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract every labeled window; returns (matrix, labels, window starts)."""
    matrix = np.empty((len(windows), len(catalog)))
    labels = np.empty(len(windows), dtype=np.int64)
    starts = np.empty(len(windows))
    for i, w in enumerate(windows):
        matrix[i] = extract_features(w.samples, catalog, w.start_s).values
        labels[i] = w.label
        starts[i] = w.start_s
    return matrix, labels, starts


def median_impute(matrix: np.ndarray, medians: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Replace NaN cells column-wise; returns (filled matrix, medians used).

    Training computes medians (NaN-free columns keep their own); inference
    passes the training medians back in.  An all-NaN training column imputes
    to 0 so downstream stays finite.
    """
    filled = np.array(matrix, dtype=np.float64)
    if medians is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            medians = np.nanmedian(filled, axis=0)
        medians = np.where(np.isfinite(medians), medians, 0.0)
    nan_rows, nan_cols = np.nonzero(~np.isfinite(filled))
    filled[nan_rows, nan_cols] = medians[nan_cols]
    return filled, medians


def select_features(
    matrix: np.ndarray,
    labels: np.ndarray,
    fdr_q: float = DEFAULT_FDR_Q,
    cap: int = DEFAULT_CAP,
) -> FeatureMask:
    """One-vs-rest Mann-Whitney relevance with Bonferroni over classes and
    Benjamini-Hochberg FDR over features.

    Constant features are dropped before testing (p fixed at 1).  If nothing
    survives the FDR step, the single smallest-p feature is kept so the mask
    never goes empty; if more than cap survive, the cap smallest p-values win
    (ties broken toward the lower column index).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels)
    if matrix.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    if matrix.shape[0] != labels.size:
        raise DataError("row count must match label count")
    if matrix.shape[0] < 10:
        raise DataError(f"need at least 10 rows to test relevance, got {matrix.shape[0]}")
    if not np.all(np.isfinite(matrix)):
        raise DataError("feature matrix must be finite; impute before selection")
    if not 0 < fdr_q < 1:
        raise ConfigError(f"fdr_q must lie in (0, 1), got {fdr_q}")
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError("feature selection needs at least 2 classes")

    n_features = matrix.shape[1]
    p_values = np.ones(n_features)
    test_idx = np.flatnonzero(np.ptp(matrix, axis=0) > 0.0)
    columns = matrix[:, test_idx]
    ordered = np.sort(columns, axis=0)
    tied = np.any(ordered[1:] == ordered[:-1], axis=0)
    best = np.ones(test_idx.size)
    for c in classes:
        in_class = labels == c
        # the method scipy's "auto" picks for one column at a time: exact
        # when the smaller group has at most 8 rows and the column no ties
        exact = ~tied if min(in_class.sum(), (~in_class).sum()) <= 8 else np.zeros_like(tied)
        for method, cols in (("exact", exact), ("asymptotic", ~exact)):
            if cols.any():
                group, rest = columns[in_class][:, cols], columns[~in_class][:, cols]
                p = mannwhitneyu(group, rest, alternative="two-sided", axis=0, method=method)
                best[cols] = np.minimum(best[cols], p.pvalue)
    p_values[test_idx] = np.minimum(1.0, best * classes.size)

    selected = np.zeros(n_features, dtype=bool)
    if test_idx.size:
        order = np.sort(p_values[test_idx])
        m = order.size
        thresholds = (np.arange(1, m + 1) / m) * fdr_q
        passing = np.flatnonzero(order <= thresholds)
        if passing.size:
            cutoff = order[passing[-1]]
            selected[test_idx] = p_values[test_idx] <= cutoff
    if not selected.any():
        fallback = test_idx[np.argmin(p_values[test_idx])] if test_idx.size else 0
        selected[fallback] = True
    if selected.sum() > cap:
        chosen = np.flatnonzero(selected)
        keep = chosen[np.lexsort((chosen, p_values[chosen]))[:cap]]
        selected = np.zeros(n_features, dtype=bool)
        selected[keep] = True
    return FeatureMask(selected, p_values)


def check_catalog(what: str, version: str | None, names, catalog: FeatureCatalog) -> None:
    """Refuse an artifact stamped with another catalog version, or (when
    `names` is given) with other feature columns."""
    if version != catalog.version:
        raise DataError(f"{what} built for catalog {version!r}, expected {catalog.version!r}")
    if names is not None and list(names) != catalog.names:
        raise DataError(f"{what} feature names do not match the catalog")


def save_feature_matrix(
    matrix: np.ndarray,
    labels: np.ndarray,
    starts: np.ndarray,
    catalog: FeatureCatalog,
    path: str,
    header_comments: list[str] | None = None,
) -> None:
    """`window_start_s,label,<feature columns>` with full-precision floats."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(catalog):
        raise ConfigError("matrix shape does not match catalog")
    if matrix.shape[0] != len(labels) or matrix.shape[0] != len(starts):
        raise ConfigError("labels and starts must match the matrix row count")
    write_table(
        path,
        [*(header_comments or []), f"catalog={catalog.version}"],
        ("window_start_s", "label", *catalog.names),
        (starts, labels, *matrix.T),
    )


def load_feature_matrix(
    path: str, catalog: FeatureCatalog
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of save_feature_matrix; validates catalog version and names."""
    with read_artifact(path, header=True) as art:
        starts, labels, *features = art.columns(float, int, float)
        check_catalog("matrix", art.meta.get("catalog"), (art.header or [])[2:], catalog)
        if not starts.size:
            raise ValueError("no rows")
    return np.column_stack(features), labels, starts


def save_feature_mask(
    mask: FeatureMask, catalog: FeatureCatalog, path: str,
    header_comments: list[str] | None = None,
) -> None:
    """`feature_name,p_value,selected` rows in catalog order."""
    if len(catalog) != mask.selected.size:
        raise ConfigError("mask length does not match catalog")
    write_table(
        path,
        [*(header_comments or []), f"catalog={catalog.version}"],
        ("feature_name", "p_value", "selected"),
        (catalog.names, mask.p_values, mask.selected),
    )


def load_feature_mask(path: str, catalog: FeatureCatalog) -> FeatureMask:
    with read_artifact(path, header=True) as art:
        names, p_values, selected = art.columns(str, float, int)
        check_catalog("mask", art.meta.get("catalog"), names, catalog)
        return FeatureMask(selected, p_values)
