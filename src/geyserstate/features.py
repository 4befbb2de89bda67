"""Window feature extraction and statistical feature selection.

The catalog compresses each fixed-length window into a named vector: moments,
order statistics, energy, change sums, crossing rate, entropy,
autocorrelations, partial autocorrelations, time-reversal asymmetry, index
mass quantiles, aggregated linear trends, change quantiles, leading FFT
magnitudes, and magnitude-spectrum summaries.  Each family is one function of
the window and its sorted copy that returns its block of columns, so work
shared by its columns (one moment pass, one Durbin-Levinson recursion, one
FFT) runs once.  The window is sorted once, and the median, the two quantiles
and both change-quantile corridors read that copy instead of each selecting
from the unsorted samples.  A family sets NaN where a feature is undefined
(skewness of a constant, centroid of silence); the training matrix medians
impute those cells before any classifier sees them.

Selection runs a one-vs-rest Mann-Whitney U test per feature and class,
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
    """The shipped catalog: 13 feature families, 37 + k_max named columns."""
    ac_lags, pacf_lags, tra_lags = (1, 5, 10), (1, 2, 3), (1, 10)
    mass_qs, corridors = (0.25, 0.5, 0.75), ((0.0, 0.7), (0.3, 1.0))
    families: list[Family] = [
        (("mean", "variance", "skewness", "kurtosis"), _moment_family),
        (("min", "max", "median", "quantile_q05", "quantile_q95"), _order_statistics),
        (("abs_energy",), lambda x, _: (float(np.dot(x, x)),)),
        (("mean_abs_change", "abs_sum_of_changes"), _change_sums),
        (("zero_crossing_rate",), _zero_crossing_rate),
        (("binned_entropy_16",), partial(_binned_entropy, bins=16)),
        (tuple(f"autocorrelation_lag{lag}" for lag in ac_lags),
         partial(_autocorrelations, lags=ac_lags)),
        (tuple(f"partial_autocorrelation_lag{lag}" for lag in pacf_lags),
         partial(_partial_autocorrelations, max_lag=pacf_lags[-1])),
        (tuple(f"time_reversal_asymmetry_lag{lag}" for lag in tra_lags),
         lambda x, _: [feature_time_reversal_asymmetry(x, lag) for lag in tra_lags]),
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

def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    """Mean and central moments 2-4; a power of the deviations that overflows
    leaves its moment inf or NaN."""
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
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
    return (mean, float(np.var(x)), *_skewness_kurtosis(m2, m3, m4))


def _order_statistics(x: np.ndarray, xs: np.ndarray) -> tuple[float, ...]:
    # min and max read x itself, which keeps its NaN and signed-zero answers
    q05, q95 = np.quantile(xs, (0.05, 0.95))
    return float(np.min(x)), float(np.max(x)), float(np.median(xs)), float(q05), float(q95)


def _change_sums(x: np.ndarray, _: np.ndarray) -> tuple[float, float]:
    changes = np.abs(np.diff(x))
    return float(np.mean(changes)), float(np.sum(changes))


def _zero_crossing_rate(x: np.ndarray, _: np.ndarray) -> tuple[float]:
    # A sample exactly at zero never counts as a crossing.
    return (float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (x.size - 1),)


def _binned_entropy(x: np.ndarray, _: np.ndarray, bins: int) -> tuple[float]:
    if float(np.max(x)) == float(np.min(x)):
        return (0.0,)
    counts = np.histogram(x, bins=bins)[0]
    p = counts[counts > 0] / x.size
    return (float(-np.sum(p * np.log(p))),)


def _autocorrelations(x: np.ndarray, _: np.ndarray, lags: Sequence[int]) -> list[float]:
    centered = x - np.mean(x)
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        return [math.nan] * len(lags)
    return [float(np.dot(centered[:-lag], centered[lag:])) / denom for lag in lags]


def _durbin_levinson(x: np.ndarray, max_lag: int) -> list[float]:
    """phi_kk for k = 1..max_lag, cut short where the recursion is undefined
    (zero variance, or the innovation variance collapsing to zero)."""
    centered = x - np.mean(x)
    n = x.size
    cov = np.array([float(np.dot(centered[: n - k], centered[k:])) / n for k in range(max_lag + 1)])
    if cov[0] <= 0.0:
        return []
    phi = np.zeros(max_lag + 1)
    phi[1] = cov[1] / cov[0]
    v = cov[0] * (1.0 - phi[1] ** 2)
    pacf = [float(phi[1])]
    for k in range(2, max_lag + 1):
        if v <= 0.0:
            break
        num = cov[k] - float(np.dot(phi[1:k], cov[1:k][::-1]))
        phi_kk = num / v
        phi[1:k] = phi[1:k] - phi_kk * phi[1:k][::-1]
        phi[k] = phi_kk
        v *= 1.0 - phi_kk**2
        pacf.append(float(phi_kk))
    return pacf


def _partial_autocorrelations(x: np.ndarray, _: np.ndarray, max_lag: int) -> list[float]:
    pacf = _durbin_levinson(x, max_lag)
    return pacf + [math.nan] * (max_lag - len(pacf))


def _index_mass_quantiles(x: np.ndarray, qs: Sequence[float]) -> list[float]:
    mass = np.cumsum(np.abs(x))
    total = float(mass[-1])
    if total <= 0.0:
        return [math.nan] * len(qs)
    return [(int(np.searchsorted(mass, q * total, side="left")) + 1) / x.size for q in qs]


def _linear_trends(x: np.ndarray, _: np.ndarray, chunk_len: int = 500) -> list[float]:
    """Slope, intercept and r of the chunk-mean trend, then the chunk-variance slope."""
    if x.size // chunk_len < 2:
        return [math.nan] * 4
    by_mean = feature_aggregated_linear_trend(x, chunk_len, "mean")
    return [*by_mean, feature_aggregated_linear_trend(x, chunk_len, "var")[0]]


def _change_quantiles(
    x: np.ndarray, xs: np.ndarray, corridors: Sequence[tuple[float, float]]
) -> list[float]:
    """Mean and variance of |successive differences| inside each [ql, qh]
    value corridor, whose bounds are quantiles of the sorted copy xs; both 0
    for a corridor that holds no adjacent pair."""
    bounds = np.quantile(xs, [q for corridor in corridors for q in corridor])
    changes = np.abs(np.diff(x))
    out: list[float] = []
    for lo, hi in bounds.reshape(-1, 2):
        inside = (x >= lo) & (x <= hi)
        joined = inside[:-1] & inside[1:]
        diffs = changes[joined]
        out += [float(np.mean(diffs)), float(np.var(diffs))] if diffs.size else [0.0, 0.0]
    return out


def _spectrum(x: np.ndarray, _: np.ndarray, fs_hz: float, k_max: int) -> list[float]:
    """|FFT| bins 1..k_max, the spectral centroid, then the variance,
    skewness and kurtosis of the magnitude spectrum, from one rfft."""
    check_fft_bins(k_max, x.size)
    mag = np.abs(np.fft.rfft(x))
    total = float(np.sum(mag))
    freqs = np.arange(mag.size) * (fs_hz / x.size)
    centroid = math.nan if total <= 0.0 else float(np.dot(freqs, mag)) / total
    _, m2, m3, m4 = _moments(mag)
    return [*mag[1 : k_max + 1], centroid, m2, *_skewness_kurtosis(m2, m3, m4)]


def check_fft_bins(k_max: int, window_samples: int) -> None:
    """Refuse more FFT bins than a window of this many samples has above DC."""
    if k_max > window_samples // 2:
        raise ConfigError(
            f"features.fft_bins = {k_max} exceeds the {window_samples // 2} nonzero-frequency "
            f"bins of a {window_samples}-sample window"
        )


# -- public single-feature functions ------------------------------------------------

def feature_time_reversal_asymmetry(x: np.ndarray, lag: int) -> float:
    """Mean of x_{t+2L}^2 x_{t+L} - x_{t+L} x_t^2; zero for time-symmetric input."""
    x = np.asarray(x, dtype=np.float64)
    if lag < 1:
        raise ConfigError(f"lag must be >= 1, got {lag}")
    if x.size <= 2 * lag:
        raise DataError(f"need more than {2 * lag} samples for lag {lag}, got {x.size}")
    a = x[2 * lag :]
    b = x[lag : x.size - lag]
    c = x[: x.size - 2 * lag]
    return float(np.mean(a * a * b - b * c * c))


def feature_aggregated_linear_trend(
    x: np.ndarray, chunk_len: int, aggregator: str
) -> tuple[float, float, float]:
    """Aggregate equal chunks, then fit a line over aggregate vs chunk index.

    Returns (slope, intercept, r_value); r_value is NaN when the aggregates
    are constant.  A trailing partial chunk is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if chunk_len < 2:
        raise ConfigError(f"chunk_len must be >= 2, got {chunk_len}")
    if aggregator not in ("mean", "var"):
        raise ConfigError(f"unknown aggregator {aggregator!r}")
    m = x.size // chunk_len
    if m < 2:
        raise DataError(f"need at least 2 chunks of {chunk_len}, got {m}")
    chunks = x[: m * chunk_len].reshape(m, chunk_len)
    agg = (np.mean if aggregator == "mean" else np.var)(chunks, axis=1)
    k = np.arange(m, dtype=np.float64)
    k_c = k - k.mean()
    y_c = agg - agg.mean()
    sxx = float(np.dot(k_c, k_c))
    sxy = float(np.dot(k_c, y_c))
    syy = float(np.dot(y_c, y_c))
    slope = sxy / sxx
    intercept = float(agg.mean()) - slope * float(k.mean())
    r_value = sxy / math.sqrt(sxx * syy) if syy > 0.0 else float("nan")
    return slope, intercept, r_value


def extract_features(
    window: np.ndarray, catalog: FeatureCatalog, window_start_s: float = 0.0
) -> FeatureVector:
    """Concatenate every family's block of columns for one window.

    The window is sorted once, and every median and quantile reads that copy.
    A sum or product that overflows in a very loud window leaves its column
    inf or NaN, without a warning.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.size < MIN_WINDOW_SAMPLES:
        raise DataError(f"window of {x.size} samples is below the {MIN_WINDOW_SAMPLES} minimum")
    xs = np.sort(x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate([fn(x, xs) for _, fn in catalog.families])
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
    testable = np.ptp(matrix, axis=0) > 0.0
    for j in np.flatnonzero(testable):
        column = matrix[:, j]
        best = 1.0
        for c in classes:
            group = column[labels == c]
            rest = column[labels != c]
            p = float(mannwhitneyu(group, rest, alternative="two-sided").pvalue)
            best = min(best, p)
        p_values[j] = min(1.0, best * classes.size)

    selected = np.zeros(n_features, dtype=bool)
    test_idx = np.flatnonzero(testable)
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
    rows: list[list[float]] = []
    labels: list[int] = []
    starts: list[float] = []
    with read_artifact(path, header=True) as art:
        for cells in art:
            if len(cells) != len(catalog) + 2:
                raise ValueError(f"expected {len(catalog) + 2} cells, got {len(cells)}")
            starts.append(float(cells[0]))
            labels.append(int(cells[1]))
            rows.append([float(v) for v in cells[2:]])
        check_catalog("matrix", art.meta.get("catalog"), (art.header or [])[2:], catalog)
        if not rows:
            raise ValueError("no rows")
    return np.array(rows), np.array(labels, dtype=np.int64), np.array(starts)


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
    names: list[str] = []
    p_values: list[float] = []
    selected: list[bool] = []
    with read_artifact(path, header=True) as art:
        for name, p, sel in art:
            names.append(name)
            p_values.append(float(p))
            selected.append(bool(int(sel)))
        check_catalog("mask", art.meta.get("catalog"), names, catalog)
        return FeatureMask(np.array(selected), np.array(p_values))
