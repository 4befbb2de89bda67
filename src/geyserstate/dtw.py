"""Dynamic time warping distance and a k-nearest-neighbor window classifier.

Distances run on mean-pooled windows (12000-sample windows pool to 600 by
default) because the full quadratic grid is two orders of magnitude more
work per pair without changing the neighbor ranking in practice.  One
kernel, `_dtw_batch`, holds the warping recurrence: it sweeps anti-diagonals
for a whole stack of equal-length references at once, keeping three rolling
(n+1, R) diagonal buffers, so memory is O(R*n) and neither the cost matrix
nor the (n+1)^2 accumulator is ever built.  `dtw_distance` is the R = 1 case
and `knn_dtw_classify` makes one sweep per reference length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

LOCAL_COSTS = ("squared", "absolute")


@dataclass(frozen=True)
class DtwParams:
    k_neighbors: int = 1
    local_cost: str = "squared"
    band_radius: int | None = None
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
    centered = x - x.mean()
    sd = centered.std()
    return centered / sd if sd > 0 else centered


def _dtw_batch(refs: np.ndarray, query: np.ndarray, params: DtwParams) -> np.ndarray:
    """Warping distance from `query` to every row of an (R, n) reference stack.

    D(i,j) = cost(ref_i, q_j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)) with
    D(0,0) = 0 and +inf boundaries, swept along anti-diagonals s = i + j.
    Every cell on diagonal s depends only on diagonals s-1 and s-2, so three
    rolling (n+1, R) buffers indexed by i hold the whole state and each
    sweep step is a contiguous slice per buffer.  An optional Sakoe-Chiba
    band keeps |i - j| = |2i - s| <= band_radius; a band narrower than the
    length difference admits no path and is rejected.
    """
    n_refs, n = refs.shape
    m = query.size
    if n == 0 or m == 0:
        raise DataError("warping distance needs non-empty series")
    r = params.band_radius
    if r is not None and abs(n - m) > r:
        raise DataError(f"band radius {r} admits no path between lengths {n} and {m}")
    refs_t = np.ascontiguousarray(refs.T)
    # q[s-i-1] for i = lo..hi is the contiguous slice q_rev[m-s+lo : m-s+hi+1]
    q_rev = query[::-1].copy()[:, None]
    bufs = [np.full((n + 1, n_refs), np.inf) for _ in range(3)]
    bufs[0][0] = 0.0  # D(0,0), on diagonal s = 0
    cost = np.empty((n, n_refs))
    best = np.empty((n, n_refs))
    for s in range(2, n + m + 1):
        lo = max(1, s - m)
        hi = min(n, s - 1)
        diag, edge, cur = bufs[(s - 2) % 3], bufs[(s - 1) % 3], bufs[s % 3]
        c = cost[: hi - lo + 1]
        np.subtract(refs_t[lo - 1:hi], q_rev[m - s + lo:m - s + hi + 1], out=c)
        if params.local_cost == "squared":
            np.multiply(c, c, out=c)
        else:
            np.abs(c, out=c)
        if r is not None:
            c[: max(0, (s - r + 1) // 2 - lo)] = np.inf
            c[max(0, (s + r) // 2 - lo + 1):] = np.inf
        b = best[: hi - lo + 1]
        np.minimum(edge[lo - 1:hi], edge[lo:hi + 1], out=b)
        np.minimum(b, diag[lo - 1:hi], out=b)
        np.add(c, b, out=cur[lo:hi + 1])
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


def knn_dtw_classify(train: list, query: np.ndarray, params: DtwParams | None = None) -> int:
    """Label of the k nearest training windows under the warping distance.

    Majority vote; a vote tie goes to the tied class with the smallest
    neighbor distance, and an exact distance tie to the lowest class label.
    Training windows are (samples, label) pairs or objects with .samples
    and .label; everything is pooled (and optionally z-normalized) first.
    Windows of equal pooled length share one `_dtw_batch` sweep.
    """
    params = params or DtwParams()
    if not train:
        raise DataError("classification needs a non-empty training set")
    prepared = []
    labels = []
    for item in train:
        samples, label = (item.samples, item.label) if hasattr(item, "samples") else item
        w = mean_pool(np.asarray(samples, dtype=np.float64), params.downsample_to)
        prepared.append(_z_normalize(w) if params.z_normalize else w)
        labels.append(int(label))
    q = mean_pool(np.asarray(query, dtype=np.float64), params.downsample_to)
    if params.z_normalize:
        q = _z_normalize(q)
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(prepared):
        groups.setdefault(w.size, []).append(i)
    distances = np.empty(len(prepared))
    for members in groups.values():
        distances[members] = _dtw_batch(np.stack([prepared[i] for i in members]), q, params)
    order = np.argsort(distances, kind="stable")
    top = order[: min(params.k_neighbors, order.size)]
    top_labels = np.array([labels[i] for i in top])
    top_dist = distances[top]
    classes, votes = np.unique(top_labels, return_counts=True)
    tied = classes[votes == votes.max()]
    if tied.size == 1:
        return int(tied[0])
    best_per_class = [(float(top_dist[top_labels == c].min()), int(c)) for c in tied]
    return min(best_per_class)[1]


def save_reference(windows: list, path: str, params: DtwParams,
                   header_comments: list[str] | None = None) -> None:
    """Persist pooled labeled reference windows for the neighbor classifier."""
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        fh.write("# dtw-reference v1\n")
        fh.write(
            f"# params k_neighbors={params.k_neighbors} local_cost={params.local_cost} "
            f"band_radius={params.band_radius} downsample_to={params.downsample_to} "
            f"z_normalize={int(params.z_normalize)}\n"
        )
        for item in windows:
            samples, label = (item.samples, item.label) if hasattr(item, "samples") else item
            start = getattr(item, "start_s", 0.0)
            pooled = mean_pool(np.asarray(samples, dtype=np.float64), params.downsample_to)
            cells = ",".join(repr(float(v)) for v in pooled)
            fh.write(f"{float(start)!r},{int(label)},{cells}\n")


def load_reference(path: str) -> tuple[list[tuple[np.ndarray, int]], DtwParams]:
    """Inverse of save_reference; returns ((samples, label) pairs, params)."""
    windows: list[tuple[np.ndarray, int]] = []
    params_kv: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("params "):
                        for item in body[len("params "):].split():
                            key, _, value = item.partition("=")
                            params_kv[key] = value
                    continue
                cells = line.split(",")
                windows.append(
                    (np.array([float(v) for v in cells[2:]]), int(cells[1]))
                )
    except (ValueError, IndexError, OSError) as exc:
        raise DataError(f"malformed reference file {path}: {exc}") from exc
    if not windows or not params_kv:
        raise DataError(f"malformed reference file {path}: missing params or windows")
    try:
        params = DtwParams(
            k_neighbors=int(params_kv["k_neighbors"]),
            local_cost=params_kv["local_cost"],
            band_radius=None if params_kv["band_radius"] == "None" else int(params_kv["band_radius"]),
            downsample_to=int(params_kv["downsample_to"]),
            z_normalize=bool(int(params_kv["z_normalize"])),
        )
    except KeyError as exc:
        raise DataError(f"malformed reference file {path}: params line lacks {exc}") from None
    except ValueError as exc:
        raise DataError(f"malformed reference file {path}: {exc}") from None
    return windows, params
