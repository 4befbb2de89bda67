"""Window feature extraction and statistical feature selection.

The catalog compresses each fixed-length window into a named vector: moments,
energy, entropy, crossing rate, autocorrelations, partial autocorrelations,
time-reversal asymmetry, index mass quantiles, aggregated linear trends,
change quantiles, leading FFT magnitudes, and magnitude-spectrum summaries.
Features that are undefined for a particular window (skewness of a constant,
centroid of silence) come out as NaN and are meant to be median-imputed from
the training matrix before any classifier sees them.

Selection runs a one-vs-rest Mann-Whitney U test per feature and class,
Bonferroni-corrects over classes, then applies Benjamini-Hochberg FDR across
features, with a hard cap on the surviving count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import mannwhitneyu

from .errors import ConfigError, DataError, NumericError

DEFAULT_FFT_BINS = 32
DEFAULT_FDR_Q = 0.05
DEFAULT_CAP = 100
MIN_WINDOW_SAMPLES = 64


@dataclass(frozen=True)
class FeatureCatalog:
    """Ordered feature definitions; column identity is positional and named.

    Each entry is (name, kind, params).  The version string pins both the
    entry list and the sampling rate baked into spectral entries, so any
    artifact built against one catalog refuses inputs from another.
    """

    entries: tuple[tuple[str, str, tuple], ...]
    version: str

    def __post_init__(self) -> None:
        names = [name for name, _, _ in self.entries]
        if len(set(names)) != len(names):
            raise ConfigError("catalog feature names must be unique")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [name for name, _, _ in self.entries]


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
    """The shipped catalog: 22 feature families expanded to named columns."""
    entries: list[tuple[str, str, tuple]] = [
        ("mean", "mean", ()),
        ("variance", "variance", ()),
        ("skewness", "skewness", ()),
        ("kurtosis", "kurtosis", ()),
        ("min", "min", ()),
        ("max", "max", ()),
        ("median", "median", ()),
        ("quantile_q05", "quantile", (0.05,)),
        ("quantile_q95", "quantile", (0.95,)),
        ("abs_energy", "abs_energy", ()),
        ("mean_abs_change", "mean_abs_change", ()),
        ("abs_sum_of_changes", "abs_sum_of_changes", ()),
        ("zero_crossing_rate", "zero_crossing_rate", ()),
        ("binned_entropy_16", "binned_entropy", (16,)),
    ]
    for lag in (1, 5, 10):
        entries.append((f"autocorrelation_lag{lag}", "autocorrelation", (lag,)))
    for lag in (1, 2, 3):
        entries.append((f"partial_autocorrelation_lag{lag}", "partial_autocorrelation", (lag,)))
    for lag in (1, 10):
        entries.append((f"time_reversal_asymmetry_lag{lag}", "time_reversal_asymmetry", (lag,)))
    for q in (0.25, 0.5, 0.75):
        entries.append((f"index_mass_quantile_q{int(q * 100)}", "index_mass_quantile", (q,)))
    for component in ("slope", "intercept", "rvalue"):
        entries.append(
            (f"agg_linear_trend_mean_500_{component}", "agg_linear_trend", (500, "mean", component))
        )
    entries.append(("agg_linear_trend_var_500_slope", "agg_linear_trend", (500, "var", "slope")))
    for ql, qh in ((0.0, 0.7), (0.3, 1.0)):
        for agg in ("mean", "var"):
            entries.append(
                (f"change_quantiles_{ql:g}_{qh:g}_{agg}", "change_quantiles", (ql, qh, agg))
            )
    for k in range(1, k_max + 1):
        entries.append((f"fft_magnitude_k{k:02d}", "fft_magnitude", (k,)))
    entries.append(("spectral_centroid_hz", "spectral_centroid", (fs_hz,)))
    entries.append(("spectrum_variance", "spectrum_moment", ("variance",)))
    entries.append(("spectrum_skewness", "spectrum_moment", ("skewness",)))
    entries.append(("spectrum_kurtosis", "spectrum_moment", ("kurtosis",)))
    return FeatureCatalog(tuple(entries), version=f"v1@{fs_hz:g}Hz")


# -- individual feature definitions ---------------------------------------------

def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    return mean, m2, m3, m4


def _skewness(x: np.ndarray) -> float:
    _, m2, m3, _ = _moments(x)
    if m2 <= 0.0:
        raise NumericError("skewness undefined for zero variance")
    return m3 / m2**1.5


def _kurtosis(x: np.ndarray) -> float:
    _, m2, _, m4 = _moments(x)
    if m2 <= 0.0:
        raise NumericError("kurtosis undefined for zero variance")
    return m4 / m2**2 - 3.0


def _zero_crossing_rate(x: np.ndarray) -> float:
    # A sample exactly at zero never counts as a crossing.
    return float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (x.size - 1)


def _binned_entropy(x: np.ndarray, bins: int) -> float:
    if float(np.max(x)) == float(np.min(x)):
        return 0.0
    counts, _ = np.histogram(x, bins=bins)
    p = counts[counts > 0] / x.size
    return float(-np.sum(p * np.log(p)))


def _autocorrelation(x: np.ndarray, lag: int) -> float:
    if lag < 1 or lag >= x.size:
        raise ConfigError(f"autocorrelation lag {lag} invalid for length {x.size}")
    centered = x - np.mean(x)
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        raise NumericError("autocorrelation undefined for zero variance")
    return float(np.dot(centered[:-lag], centered[lag:])) / denom


def feature_partial_autocorrelation(x: np.ndarray, lag: int) -> float:
    """Lag-k partial autocorrelation via the Durbin-Levinson recursion."""
    x = np.asarray(x, dtype=np.float64)
    if lag < 1:
        raise ConfigError(f"lag must be >= 1, got {lag}")
    if x.size <= 4 * lag:
        raise DataError(f"need more than {4 * lag} samples for lag {lag}, got {x.size}")
    centered = x - np.mean(x)
    n = x.size
    cov = np.array([float(np.dot(centered[: n - k], centered[k:])) / n for k in range(lag + 1)])
    if cov[0] <= 0.0:
        raise NumericError("partial autocorrelation undefined for zero variance")
    phi = np.zeros(lag + 1)
    phi[1] = cov[1] / cov[0]
    v = cov[0] * (1.0 - phi[1] ** 2)
    for k in range(2, lag + 1):
        if v <= 0.0:
            raise NumericError("Durbin-Levinson variance collapsed to zero")
        num = cov[k] - float(np.dot(phi[1:k], cov[1:k][::-1]))
        phi_kk = num / v
        phi[1:k] = phi[1:k] - phi_kk * phi[1:k][::-1]
        phi[k] = phi_kk
        v *= 1.0 - phi_kk**2
    return float(phi[lag])


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


def feature_index_mass_quantile(x: np.ndarray, q: float) -> float:
    """Smallest relative index i/n where cumulative |x| mass reaches q of the total."""
    x = np.asarray(x, dtype=np.float64)
    if not 0 < q < 1:
        raise ConfigError(f"q must lie in (0, 1), got {q}")
    mass = np.cumsum(np.abs(x))
    total = float(mass[-1])
    if total <= 0.0:
        raise NumericError("index mass quantile undefined for an all-zero series")
    i = int(np.searchsorted(mass, q * total, side="left"))
    return (i + 1) / x.size


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
    if aggregator not in ("mean", "var", "min", "max"):
        raise ConfigError(f"unknown aggregator {aggregator!r}")
    m = x.size // chunk_len
    if m < 2:
        raise DataError(f"need at least 2 chunks of {chunk_len}, got {m}")
    chunks = x[: m * chunk_len].reshape(m, chunk_len)
    agg = {
        "mean": np.mean,
        "var": np.var,
        "min": np.min,
        "max": np.max,
    }[aggregator](chunks, axis=1)
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


def feature_change_quantiles(x: np.ndarray, ql: float, qh: float, aggregator: str) -> float:
    """Aggregate |successive differences| inside the [ql, qh] value corridor."""
    x = np.asarray(x, dtype=np.float64)
    if not ql < qh:
        raise ConfigError(f"need ql < qh, got {ql} and {qh}")
    if aggregator not in ("mean", "var"):
        raise ConfigError(f"unknown aggregator {aggregator!r}")
    lo = float(np.quantile(x, ql))
    hi = float(np.quantile(x, qh))
    inside = (x >= lo) & (x <= hi)
    joined = inside[:-1] & inside[1:]
    if not joined.any():
        return 0.0
    diffs = np.abs(np.diff(x))[joined]
    return float(np.mean(diffs) if aggregator == "mean" else np.var(diffs))


def feature_fft_pack(x: np.ndarray, k_max: int, fs_hz: float) -> list[float]:
    """|FFT| bins 1..k_max plus spectral centroid (Hz) and magnitude-spectrum
    variance/skewness/kurtosis.

    The centroid is the amplitude-weighted mean frequency over the full
    one-sided spectrum; the three trailing moments summarize the distribution
    of magnitude values themselves.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2 * k_max:
        raise DataError(f"need at least {2 * k_max} samples for {k_max} bins, got {x.size}")
    mag = np.abs(np.fft.rfft(x))
    out = [float(v) for v in mag[1 : k_max + 1]]
    out.append(_spectral_centroid(mag, fs_hz, x.size))
    _, m2, m3, m4 = _moments(mag)
    out.append(m2)
    out.append(m3 / m2**1.5 if m2 > 0.0 else float("nan"))
    out.append(m4 / m2**2 - 3.0 if m2 > 0.0 else float("nan"))
    return out


def _spectral_centroid(mag: np.ndarray, fs_hz: float, n: int) -> float:
    total = float(np.sum(mag))
    if total <= 0.0:
        return float("nan")
    freqs = np.arange(mag.size) * (fs_hz / n)
    return float(np.dot(freqs, mag)) / total


def extract_features(
    window: np.ndarray, catalog: FeatureCatalog, window_start_s: float = 0.0
) -> FeatureVector:
    """Evaluate every catalog entry on one window; undefined entries yield NaN."""
    x = np.asarray(window, dtype=np.float64)
    if x.size < MIN_WINDOW_SAMPLES:
        raise DataError(f"window of {x.size} samples is below the {MIN_WINDOW_SAMPLES} minimum")
    cache: dict[str, object] = {}
    values = np.empty(len(catalog))
    for j, (_, kind, params) in enumerate(catalog.entries):
        try:
            values[j] = _compute(x, kind, params, cache)
        except (NumericError, DataError):
            # undefined on this window (flat spectrum, too few chunks, ...);
            # the imputation stage owns these cells
            values[j] = np.nan
    return FeatureVector(values, window_start_s)


def _fft_cache(x: np.ndarray, cache: dict) -> np.ndarray:
    if "mag" not in cache:
        cache["mag"] = np.abs(np.fft.rfft(x))
    return cache["mag"]


def _compute(x: np.ndarray, kind: str, params: tuple, cache: dict) -> float:
    if kind == "mean":
        return float(np.mean(x))
    if kind == "variance":
        return float(np.var(x))
    if kind == "skewness":
        return _skewness(x)
    if kind == "kurtosis":
        return _kurtosis(x)
    if kind == "min":
        return float(np.min(x))
    if kind == "max":
        return float(np.max(x))
    if kind == "median":
        return float(np.median(x))
    if kind == "quantile":
        return float(np.quantile(x, params[0]))
    if kind == "abs_energy":
        return float(np.dot(x, x))
    if kind == "mean_abs_change":
        return float(np.mean(np.abs(np.diff(x))))
    if kind == "abs_sum_of_changes":
        return float(np.sum(np.abs(np.diff(x))))
    if kind == "zero_crossing_rate":
        return _zero_crossing_rate(x)
    if kind == "binned_entropy":
        return _binned_entropy(x, params[0])
    if kind == "autocorrelation":
        return _autocorrelation(x, params[0])
    if kind == "partial_autocorrelation":
        return feature_partial_autocorrelation(x, params[0])
    if kind == "time_reversal_asymmetry":
        return feature_time_reversal_asymmetry(x, params[0])
    if kind == "index_mass_quantile":
        return feature_index_mass_quantile(x, params[0])
    if kind == "agg_linear_trend":
        chunk_len, aggregator, component = params
        slope, intercept, r_value = feature_aggregated_linear_trend(x, chunk_len, aggregator)
        return {"slope": slope, "intercept": intercept, "rvalue": r_value}[component]
    if kind == "change_quantiles":
        return feature_change_quantiles(x, *params)
    if kind == "fft_magnitude":
        return float(_fft_cache(x, cache)[params[0]])
    if kind == "spectral_centroid":
        return _spectral_centroid(_fft_cache(x, cache), params[0], x.size)
    if kind == "spectrum_moment":
        mag = _fft_cache(x, cache)
        _, m2, m3, m4 = _moments(mag)
        if params[0] == "variance":
            return m2
        if m2 <= 0.0:
            raise NumericError("spectrum moment undefined for a flat spectrum")
        return m3 / m2**1.5 if params[0] == "skewness" else m4 / m2**2 - 3.0
    raise ConfigError(f"unknown feature kind {kind!r}")


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
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        fh.write(f"# catalog={catalog.version}\n")
        fh.write("window_start_s,label," + ",".join(catalog.names) + "\n")
        for start, label, row in zip(starts, labels, matrix):
            cells = ",".join(repr(float(v)) for v in row)
            fh.write(f"{float(start)!r},{int(label)},{cells}\n")


def load_feature_matrix(
    path: str, catalog: FeatureCatalog
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of save_feature_matrix; validates catalog version and names."""
    rows: list[list[float]] = []
    labels: list[int] = []
    starts: list[float] = []
    version: str | None = None
    header: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("# catalog="):
                version = line.partition("=")[2]
                continue
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            cells = line.split(",")
            if len(cells) != len(catalog) + 2:
                raise DataError(f"malformed matrix row at line {lineno}")
            try:
                starts.append(float(cells[0]))
                labels.append(int(cells[1]))
                rows.append([float(v) for v in cells[2:]])
            except ValueError as exc:
                raise DataError(f"malformed matrix row at line {lineno}") from exc
    if version != catalog.version:
        raise DataError(f"matrix built for catalog {version!r}, expected {catalog.version!r}")
    if header is None or header[2:] != catalog.names:
        raise DataError("matrix feature names do not match the catalog")
    if not rows:
        raise DataError("feature matrix file contains no rows")
    return np.array(rows), np.array(labels, dtype=np.int64), np.array(starts)


def save_feature_mask(
    mask: FeatureMask, catalog: FeatureCatalog, path: str,
    header_comments: list[str] | None = None,
) -> None:
    """`feature_name,p_value,selected` rows in catalog order."""
    if len(catalog) != mask.selected.size:
        raise ConfigError("mask length does not match catalog")
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        fh.write(f"# catalog={catalog.version}\n")
        fh.write("feature_name,p_value,selected\n")
        for name, p, sel in zip(catalog.names, mask.p_values, mask.selected):
            fh.write(f"{name},{float(p)!r},{int(sel)}\n")


def load_feature_mask(path: str, catalog: FeatureCatalog) -> FeatureMask:
    names: list[str] = []
    p_values: list[float] = []
    selected: list[bool] = []
    version: str | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line.startswith("# catalog="):
                    version = line.partition("=")[2]
                    continue
                if not line or line.startswith("#") or line.startswith("feature_name"):
                    continue
                try:
                    name, p, sel = line.split(",")
                    p_values.append(float(p))
                    selected.append(bool(int(sel)))
                except ValueError:
                    raise DataError(
                        f"malformed mask row in {path} at line {lineno}: {line!r}"
                    ) from None
                names.append(name)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read feature mask {path}: {exc}") from None
    if version != catalog.version:
        raise DataError(f"mask built for catalog {version!r}, expected {catalog.version!r}")
    if names != catalog.names:
        raise DataError("mask feature names do not match the catalog")
    return FeatureMask(np.array(selected), np.array(p_values))
