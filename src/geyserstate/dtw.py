"""Dynamic time warping distance and a k-nearest-neighbor window classifier.

Distances run on mean-pooled windows (12000-sample windows pool to 600 by
default) because the full quadratic grid is two orders of magnitude more
work per pair.  The pool is not neutral: at the defaults each pooled
sample averages a 20-sample span at 200 Hz, so the pooled series has a
5 Hz Nyquist frequency, below the 12-25 Hz event bands.  ROADMAP item 4
measured dtw_pef macro F1 at 0.353 with this pool and 0.825 with an RMS
pool (defaults, seeds 1-12).  The references are the pooled (R, n)
matrix and (R,) label array that `dtw_reference.csv` holds.  One kernel,
`_dtw_batch`, holds the warping recurrence: it sweeps anti-diagonals over
the whole reference matrix at once, keeping three rolling (n+1, R)
diagonal buffers, one cost buffer and the reversed query repeated per
reference, so memory is O(R*(n+m)) and neither the cost matrix nor the
(n+1)^2 accumulator is ever built.  The sweep visits only the cells of a
Sakoe-Chiba band, by default 30 of the 600 pooled points (5%); a
`band_radius` of None sweeps the whole grid.  Over seeds 1-10 the band
moved dtw_pef macro F1 0.352 -> 0.343 (Wilcoxon p = 0.70) and its time 0.56 -> 0.17 s.
`dtw_distance` is the R = 1 case; `knn_dtw_classify` makes one sweep per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import params_line, read_artifact, read_params, write_table
from .errors import ConfigError, DataError
from .timeseries import LabeledWindow

LOCAL_COSTS = ("squared", "absolute")


@dataclass(frozen=True)
class DtwParams:
    k_neighbors: int = 1
    local_cost: str = "squared"
    band_radius: int | None = 30  # None sweeps the whole grid
    downsample_to: int = 600
    z_normalize: bool = False

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.local_cost not in LOCAL_COSTS:
            raise ConfigError(f"local_cost must be one of {LOCAL_COSTS}, got {self.local_cost!r}")
        if self.band_radius is not None and self.band_radius < 0:
            raise ConfigError(f"band_radius must be >= 0, got {self.band_radius}")
        if self.downsample_to < 1:
            raise ConfigError(f"downsample_to must be >= 1, got {self.downsample_to}")


def mean_pool(x: np.ndarray, target: int) -> np.ndarray:
    """Pool to `target` points by averaging equal index spans.

    Series at or below the target length pass through unchanged.  When the
    length divides evenly this is plain block averaging.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("mean_pool expects a 1-D series")
    n = x.size
    if n <= target:
        return x.copy()
    bounds = (np.arange(target + 1) * n) // target
    sums = np.add.reduceat(x, bounds[:-1])
    return sums / np.diff(bounds)


def _z_normalize(x: np.ndarray) -> np.ndarray:
    """Centre each row (or the one series); scale it to unit deviation unless constant."""
    centered = x - x.mean(axis=-1, keepdims=True)
    sd = centered.std(axis=-1, keepdims=True)
    return np.divide(centered, sd, out=centered, where=sd > 0)


def _dtw_batch(refs: np.ndarray, query: np.ndarray, params: DtwParams) -> np.ndarray:
    """Warping distance from `query` to every row of an (R, n) reference stack.

    D(i,j) = cost(ref_i, q_j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)) with
    D(0,0) = 0 and +inf boundaries, swept along anti-diagonals s = i + j.
    Every cell on diagonal s depends only on diagonals s-1 and s-2, so three
    rolling (n+1, R) buffers indexed by i hold the whole state, and each
    sweep step is a contiguous slice per buffer that the new diagonal
    accumulates into in place.  A Sakoe-Chiba band keeps |i - j| =
    |2i - s| <= band_radius: each diagonal computes only its rows inside
    the band and sets the row on each side of them to +inf, the cells
    outside the band that the next two diagonals read.  A band narrower
    than the length difference admits no path and is rejected.
    """
    n_refs, n = refs.shape
    m = query.size
    if n == 0 or m == 0:
        raise DataError("warping distance needs non-empty series")
    r = params.band_radius
    if r is not None and abs(n - m) > r:
        raise DataError(f"band radius {r} admits no path between lengths {n} and {m}")
    refs_t = np.ascontiguousarray(refs.T)
    # q[s-i-1] for i = lo..hi, against every reference, is the contiguous
    # block q_rev[m-s+lo : m-s+hi+1] of the query reversed and repeated once
    q_rev = np.repeat(query[::-1, None], n_refs, axis=1)
    bufs = [np.full((n + 1, n_refs), np.inf) for _ in range(3)]
    bufs[0][0] = 0.0  # D(0,0), on diagonal s = 0
    cost = np.empty((n, n_refs))
    for s in range(2, n + m + 1):
        lo = max(1, s - m)
        hi = min(n, s - 1)
        diag, edge, cur = bufs[(s - 2) % 3], bufs[(s - 1) % 3], bufs[s % 3]
        if r is not None:
            lo = max(lo, (s - r + 1) // 2)
            hi = min(hi, (s + r) // 2)
            if lo > hi:  # r = 0 and s odd: no cell on the diagonal
                continue
            cur[lo - 1] = np.inf
            if hi < n:
                cur[hi + 1] = np.inf
        c = cost[: hi - lo + 1]
        np.subtract(refs_t[lo - 1:hi], q_rev[m - s + lo:m - s + hi + 1], out=c)
        if params.local_cost == "squared":
            np.multiply(c, c, out=c)
        else:
            np.abs(c, out=c)
        # the diagonal accumulates in place; IEEE + is commutative, so
        # best + cost and cost + best are the same bits
        d = cur[lo:hi + 1]
        np.minimum(edge[lo - 1:hi], edge[lo:hi + 1], out=d)
        np.minimum(d, diag[lo - 1:hi], out=d)
        np.add(d, c, out=d)
        if s == 2:
            # this buffer is reused for diagonal 3, where row 0 is D(0,3) = inf
            diag[0] = np.inf
    result = bufs[(n + m) % 3][n].copy()
    if not np.all(np.isfinite(result)):
        raise DataError("band admits no complete warping path")
    return result


def dtw_distance(a: np.ndarray, b: np.ndarray, params: DtwParams | None = None) -> float:
    """Alignment cost D(|a|,|b|) of the warping recurrence in `_dtw_batch`."""
    params = params or DtwParams()
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise DataError("dtw_distance needs two non-empty 1-D series")
    return float(_dtw_batch(a[None, :], b, params)[0])


def knn_dtw_classify(refs: np.ndarray, labels: np.ndarray, query: np.ndarray,
                     params: DtwParams) -> int:
    """Label of the k nearest rows of the pooled (R, n) reference matrix.

    Majority vote; a vote tie goes to the tied class with the smallest
    neighbor distance, and an exact distance tie to the lowest class label.
    Only the query is pooled here; with `z_normalize` the query and every
    reference row are z-normalized before the one `_dtw_batch` sweep.
    """
    if len(labels) == 0:
        raise DataError("classification needs a non-empty training set")
    q = mean_pool(query, params.downsample_to)
    if params.z_normalize:
        refs, q = _z_normalize(refs), _z_normalize(q)
    distances = _dtw_batch(refs, q, params)
    order = np.argsort(distances, kind="stable")
    top = order[: min(params.k_neighbors, order.size)]
    top_labels = labels[top]
    top_dist = distances[top]
    classes, votes = np.unique(top_labels, return_counts=True)
    tied = classes[votes == votes.max()]
    if tied.size == 1:
        return int(tied[0])
    best_per_class = [(float(top_dist[top_labels == c].min()), int(c)) for c in tied]
    return min(best_per_class)[1]


def pool_reference(
    windows: list[LabeledWindow], params: DtwParams
) -> tuple[np.ndarray, np.ndarray]:
    """Pool the labeled training windows once into the (R, n) reference
    matrix; returns (refs, labels)."""
    refs = np.array([mean_pool(w.samples, params.downsample_to) for w in windows])
    return refs, np.array([w.label for w in windows], dtype=np.int64)


def save_reference(windows: list[LabeledWindow], refs: np.ndarray, path: str, params: DtwParams,
                   header_comments: list[str] | None = None) -> None:
    """Persist `pool_reference`'s matrix `refs` of `windows` with their
    starts and labels."""
    comments = [*(header_comments or []), "dtw-reference v1", params_line(params)]
    labels = np.array([w.label for w in windows], dtype=np.int64)
    write_table(path, comments, None, ([w.start_s for w in windows], labels, *refs.T))


def load_reference(path: str) -> tuple[np.ndarray, np.ndarray, DtwParams]:
    """Inverse of save_reference: (refs, labels, params)."""
    with read_artifact(path) as art:
        starts, labels, *samples = art.columns(float, int, float)
        if not starts.size:
            raise ValueError("no rows")
        refs = np.column_stack(samples)
        if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(refs))):
            raise ValueError("a non-finite number")
        return refs, labels, read_params(DtwParams, art.meta)
