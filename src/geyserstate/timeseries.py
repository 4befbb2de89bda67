"""Core signal containers, CSV/event ingestion, windowing, and class labeling.

A recording is a uniformly sampled :class:`TimeSeries` plus an
:class:`EventLog` of eruption onset times.  A :class:`LabelPolicy` turns the
pair into a per-timestamp state, for any event ``e``:

* Class-2: precursor, inside ``[e - class2_start_s, e - class2_end_s)``;
* Class-3: eruption, inside ``[e, e + class3_len_s)``;
* Class-1: quiet, everywhere else.

Class-3 takes precedence where intervals touch.  Timestamp comparisons honor
a 1 microsecond guard so that samples landing exactly on a class boundary are
classified identically regardless of how their timestamps were computed.
:func:`sample_classes` is the one implementation of this rule; window labels,
the train/test split and the AR noise segment all read it.

A series is saved as a binary series file, `<stem>.f8` (see
`save_timeseries`); text tables are read from callers only.

Memory: a stage holds one buffer per series it returns.  `sample_classes`
gives int8 classes, one byte a sample.  `load_timeseries` holds the
amplitudes it returns: read in one piece from a series file, or grown row
by row in one buffer from a text table.  `save_timeseries` writes the
amplitudes from their own buffer and builds no time grid.
"""

from __future__ import annotations

import array
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import discard, read_artifact, read_series, write_series, write_table
from .errors import ConfigError, DataError

CLASS_FAR = 1
CLASS_PRECURSOR = 2
CLASS_ERUPTION = 3
ALL_CLASSES = (CLASS_FAR, CLASS_PRECURSOR, CLASS_ERUPTION)

# One guard for every boundary comparison: 1 us is far below any sample
# period of interest and far above float error on epoch-scale timestamps.
TIME_TOL_S = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled signal; sample ``i`` has timestamp ``t0_s + i / fs_hz``.

    Parameters
    ----------
    values:
        Amplitudes (sensor counts, dimensionless); stored as float64.
    fs_hz:
        Sampling frequency, > 0.
    t0_s:
        Timestamp of the first sample, seconds since epoch.
    """

    values: np.ndarray
    fs_hz: float
    t0_s: float = 0.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if not self.fs_hz > 0:
            raise DataError(f"fs_hz must be positive, got {self.fs_hz}")
        if not math.isfinite(self.t0_s):
            raise DataError(f"t0_s must be finite, got {self.t0_s}")
        if values.ndim != 1:
            raise DataError("values must be one-dimensional")
        if values.size == 0:
            raise DataError("no samples")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DataError(f"non-finite amplitude at sample {bad}")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def duration_s(self) -> float:
        return len(self) / self.fs_hz

    def time_of(self, i: int) -> float:
        """Timestamp of sample ``i``."""
        return self.t0_s + i / self.fs_hz

    def timestamps(self) -> np.ndarray:
        """``t0_s + i / fs_hz`` for every sample, bit for bit, built in place
        in the one buffer it returns."""
        grid = np.arange(len(self), dtype=np.float64)
        grid /= self.fs_hz
        grid += self.t0_s
        return grid

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Sample-index slice preserving absolute time alignment."""
        return TimeSeries(self.values[start:stop], self.fs_hz, self.time_of(start))

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Same clock, new amplitudes (filter outputs etc.)."""
        return TimeSeries(values, self.fs_hz, self.t0_s)


@dataclass(frozen=True)
class EventLog:
    """Strictly increasing eruption onset timestamps, seconds since epoch.

    Events may sit closer together than the policy's labeled envelope
    (300 s at defaults): only the synthetic generator requires that gap, and
    :func:`load_events` checks no more than the order.  :func:`sample_classes`
    resolves overlapping spans, Class-3 over Class-2.
    """

    event_times_s: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.event_times_s, dtype=np.float64)
        object.__setattr__(self, "event_times_s", times)
        if times.ndim != 1:
            raise DataError("event times must be one-dimensional")
        if times.size and not np.all(np.isfinite(times)):
            raise DataError("non-finite event time")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise DataError("event times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.event_times_s.size)


@dataclass(frozen=True)
class LabelPolicy:
    """Class geometry around each eruption onset, offsets in seconds.

    ``window_label_rule`` picks how a whole window inherits a class from
    :func:`sample_classes` of its samples: ``window-end-time`` (causal: the
    class of its last sample) or ``majority-sample`` (the most common class).
    """

    class2_start_s: float = 180.0
    class2_end_s: float = 0.0
    class3_len_s: float = 120.0
    window_label_rule: str = "window-end-time"

    def __post_init__(self) -> None:
        if not (self.class2_start_s > self.class2_end_s >= 0):
            raise ConfigError(
                "need class2_start_s > class2_end_s >= 0, got "
                f"{self.class2_start_s} and {self.class2_end_s}"
            )
        if not self.class3_len_s > 0:
            raise ConfigError(f"class3_len_s must be positive, got {self.class3_len_s}")
        if self.window_label_rule not in ("window-end-time", "majority-sample"):
            raise ConfigError(f"unknown window_label_rule {self.window_label_rule!r}")

    @property
    def envelope_s(self) -> float:
        """Total labeled span around one event (precursor start to eruption end)."""
        return self.class2_start_s + self.class3_len_s


@dataclass(frozen=True)
class LabeledWindow:
    """Fixed-length window with its class label."""

    samples: np.ndarray
    start_s: float
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.label not in ALL_CLASSES:
            raise DataError(f"label must be one of {ALL_CLASSES}, got {self.label}")


def _snap(x: float, tol: float) -> float:
    """Round to the nearest integer when within tol; kills float timestamp jitter."""
    r = round(x)
    return float(r) if abs(x - r) <= tol else x


def _index_range(ts: TimeSeries, lo_s: float, hi_s: float) -> tuple[int, int]:
    """Sample indices i with lo_s <= t_i < hi_s, clipped to the series."""
    tol = TIME_TOL_S * ts.fs_hz
    lo = _snap((lo_s - ts.t0_s) * ts.fs_hz, tol)
    hi = _snap((hi_s - ts.t0_s) * ts.fs_hz, tol)
    return max(math.ceil(lo), 0), min(max(math.ceil(hi), 0), len(ts))


def sample_classes(ts: TimeSeries, events: EventLog, policy: LabelPolicy) -> np.ndarray:
    """Per-sample class array, int8 (one byte a sample); Class-3 painted last
    so it wins at shared boundaries."""
    cls = np.full(len(ts), CLASS_FAR, dtype=np.int8)
    # only events whose spans can reach the series paint it (one sample of
    # slack), so labelling many short windows does not visit every event each time
    slack = 1.0 / ts.fs_hz
    first, last = np.searchsorted(events.event_times_s, (
        ts.t0_s - policy.class3_len_s - slack,
        ts.t0_s + ts.duration_s + policy.class2_start_s + slack,
    ))
    near = events.event_times_s[first:last]
    for e in near:
        lo, hi = _index_range(ts, e - policy.class2_start_s, e - policy.class2_end_s)
        cls[lo:hi] = CLASS_PRECURSOR
    for e in near:
        lo, hi = _index_range(ts, e, e + policy.class3_len_s)
        cls[lo:hi] = CLASS_ERUPTION
    return cls


def slice_windows(ts: TimeSeries, window_len_s: float, stride_s: float) -> list[TimeSeries]:
    """Left-aligned windows of window_len_s every stride_s; last partial window dropped."""
    wlen, stride = _window_samples(window_len_s, stride_s, ts.fs_hz)
    n = len(ts)
    if wlen > n:
        _log.warning(
            "window of %d samples exceeds series of %d samples; no windows", wlen, n
        )
        return []
    return [ts.slice(s, s + wlen) for s in range(0, n - wlen + 1, stride)]


def _window_samples(window_len_s: float, stride_s: float, fs_hz: float) -> tuple[int, int]:
    """Samples per window and per stride at fs_hz; ConfigError unless the
    rate is positive and both are positive whole numbers of samples."""
    if not fs_hz > 0:
        raise ConfigError(f"fs_hz must be positive, got {fs_hz}")
    wlen = samples_of(window_len_s, fs_hz, "window length")
    stride = samples_of(stride_s, fs_hz, "stride")
    if stride <= 0:
        raise ConfigError(f"stride must be positive, got {stride_s}")
    if wlen <= 0:
        raise ConfigError(f"window length must be positive, got {window_len_s}")
    return wlen, stride


def samples_of(seconds: float, fs_hz: float, what: str) -> int:
    """Whole number of samples in `seconds` at fs_hz; ConfigError names `what` otherwise."""
    count = seconds * fs_hz
    if not math.isfinite(count):
        raise ConfigError(f"{what} of {seconds} s at {fs_hz} Hz is not a finite number of samples")
    if abs(count - round(count)) > 1e-9:
        raise ConfigError(f"{what} of {seconds} s is not a whole number of samples at {fs_hz} Hz")
    return int(round(count))


def label_windows(
    windows: list[TimeSeries], events: EventLog, policy: LabelPolicy
) -> list[LabeledWindow]:
    """Attach a class to each window per the policy's window_label_rule.

    Both rules read :func:`sample_classes` of the window: ``window-end-time``
    its last entry, ``majority-sample`` the most common class (the lower one
    on a tie).
    """
    out = []
    for w in windows:
        cls = sample_classes(w, events, policy)
        if policy.window_label_rule == "window-end-time":
            label = int(cls[-1])
        else:
            label = int(np.argmax(np.bincount(cls, minlength=4)[1:])) + 1
        out.append(LabeledWindow(w.values, w.t0_s, label))
    return out


def select_noise_segment(
    ts: TimeSeries, events: EventLog, fraction: float, policy: LabelPolicy
) -> TimeSeries:
    """Earliest contiguous run of ceil(fraction*n) samples that are all Class-1.

    This is the AR training segment: it must contain no precursor or eruption
    samples, which the caller can re-assert by labeling the returned slice.
    """
    if not 0 < fraction < 1:
        raise ConfigError(f"fraction must lie in (0, 1), got {fraction}")
    need = math.ceil(fraction * len(ts))
    quiet = sample_classes(ts, events, policy) == CLASS_FAR
    padded = np.concatenate(([False], quiet, [False])).astype(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    ok = np.flatnonzero(lengths >= need)
    if ok.size == 0:
        longest = int(lengths.max()) if lengths.size else 0
        raise DataError(
            f"no contiguous Class-1 run of {need} samples for AR training; "
            f"longest available is {longest}"
        )
    start = int(starts[ok[0]])
    return ts.slice(start, start + need)


def series_path(path: str) -> str:
    """The series file `save_timeseries` writes for `path`: `<stem>.f8`."""
    return os.path.splitext(path)[0] + ".f8"


def resolve_series(path: str) -> str:
    """The file `load_timeseries` reads for `path`: `path` itself, unless
    it is a `.csv` path that does not exist while its `<stem>.f8` does, in
    which case that series file."""
    if os.path.splitext(path)[1] == ".csv" and not os.path.exists(path):
        if os.path.exists(series_path(path)):
            return series_path(path)
    return path


def load_timeseries(path: str, fs_hz: float) -> TimeSeries:
    """Read a series: a series file, or a caller's text table.

    `path` is first resolved (`resolve_series`).  A path ending in `.f8` is
    read strictly as a series file (`read_series`): its header rate must be
    fs_hz exactly and its amplitudes finite; any fault is a DataError
    naming the file.

    Any other file is a text table: `timestamp_s,amplitude` rows, or one
    amplitude per line.  Blank lines, `#` comments, and one non-numeric
    header as the first row are skipped.  Every row, the header included,
    has the width of the first.  In two-column rows every timestamp is
    finite and each lies one sample period (1 / fs_hz, within TIME_TOL_S)
    after the last; the first row's timestamp becomes t0_s (0.0 for
    single-column files).  The table is read row by row
    (`_load_streaming`), and a fault is a DataError naming the file and
    the line.

    An fs_hz that is not positive is a ConfigError, before the file is
    opened.
    """
    if not fs_hz > 0:
        raise ConfigError(f"fs_hz must be positive, got {fs_hz}")
    path = resolve_series(path)
    if os.path.splitext(path)[1] == ".f8":
        t0, rate, values = read_series(path)
        if rate != fs_hz:
            raise DataError(f"malformed {path}: sampled at {rate!r} Hz, not {fs_hz!r} Hz")
        try:
            return TimeSeries(values, fs_hz, t0)
        except DataError as exc:  # a non-finite amplitude
            raise DataError(f"malformed {path}: {exc}") from None
    return _load_streaming(path, fs_hz)


def _load_streaming(path: str, fs_hz: float) -> TimeSeries:
    """`load_timeseries` of a text table, row by row.  The amplitudes grow
    in one `array.array`, which the series then holds without a copy and
    writable, since `filter` high-passes into it."""
    amplitudes = array.array("d")
    t0 = 0.0
    prev_t: float | None = None
    width = 0  # columns per row, set by the first row, the header included
    period = 1.0 / fs_hz
    with read_artifact(path, whole_lines=False) as rows:
        for cells in rows:
            try:
                fields = [float(p) for p in cells]
            except ValueError:
                if width:  # only the first row may be a header
                    raise
                fields = None
            if len(cells) != width:
                if width or len(cells) > 2:
                    raise ValueError(f"expected {width or '1 or 2'} columns, got {len(cells)}")
                width = len(cells)
            if fields is None:
                continue
            if width == 1:
                value = fields[0]
            else:
                t, value = fields
                if not math.isfinite(t):
                    raise ValueError(f"non-finite timestamp {t!r}")
                if prev_t is None:
                    t0 = t
                elif abs((t - prev_t) - period) > TIME_TOL_S:
                    raise ValueError("non-uniform spacing")
                prev_t = t
            if not math.isfinite(value):
                raise ValueError("non-finite amplitude")
            amplitudes.append(value)
        return TimeSeries(np.frombuffer(amplitudes), fs_hz, t0)


def remove_series(path: str) -> None:
    """Remove the series saved for `path` (`<stem>.f8`) and any `<stem>.csv`
    text of it left by an older run; either may be missing (`discard`)."""
    stem = os.path.splitext(path)[0]
    for name in (stem + ".f8", stem + ".csv"):
        discard(name)


def save_timeseries(ts: TimeSeries, path: str, header_comments: list[str] | None = None) -> None:
    """Write `ts` as the series file `series_path(path)`: its clock
    (`ts.time_of(0)` and `ts.fs_hz`) and the comments (`key=value` tokens)
    on the header line, then the amplitudes bit for bit.

    A `<stem>.csv` beside it is removed first, so that no older text stands
    in for the new series, and so is the old series file: a write that
    fails leaves neither.
    """
    remove_series(path)
    write_series(series_path(path), header_comments or [], ts.time_of(0), ts.fs_hz, ts.values)


def load_events(path: str) -> EventLog:
    """Read an event file: one onset timestamp per line, `#` comments allowed."""
    with read_artifact(path, whole_lines=False) as art:
        (times,) = art.columns(float)
        return EventLog(times)


def save_events(events: EventLog, path: str, header_comments: list[str] | None = None) -> None:
    write_table(path, header_comments or [], None, (events.event_times_s,))
