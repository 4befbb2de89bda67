"""Core signal containers, CSV/event ingestion, windowing, and class labeling.

A recording is a uniformly sampled :class:`TimeSeries` plus an
:class:`EventLog` of eruption onset times.  A :class:`LabelPolicy` turns the
pair into a per-timestamp state:

* Class-1: quiet, more than ``class2_start_s`` before the next eruption;
* Class-2: precursor, inside ``[e - class2_start_s, e - class2_end_s)``;
* Class-3: eruption, inside ``[e, e + class3_len_s)``.

Class-3 takes precedence where intervals touch.  Timestamp comparisons honor
a 1 microsecond guard so that samples landing exactly on a class boundary are
classified identically regardless of how their timestamps were computed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

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
        return self.t0_s + np.arange(len(self)) / self.fs_hz

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Sample-index slice preserving absolute time alignment."""
        return TimeSeries(self.values[start:stop], self.fs_hz, self.time_of(start))

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Same clock, new amplitudes (filter outputs etc.)."""
        return TimeSeries(values, self.fs_hz, self.t0_s)


@dataclass(frozen=True)
class EventLog:
    """Strictly increasing eruption onset timestamps, seconds since epoch.

    Labeling assumes consecutive events are separated by more than the
    policy's labeled envelope (300 s at defaults); generators and loaders
    enforce that, the labeling functions resolve any residual overlap in
    favor of Class-3.
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

    ``window_label_rule`` picks how a whole window inherits a class:
    ``window-end-time`` (causal: the class at the window's final timestamp)
    or ``majority-sample``.
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


def class_of_sample(t_s: float, events: EventLog, policy: LabelPolicy) -> int:
    """Class of the single timestamp ``t_s``; total over all inputs (no events -> Class-1)."""
    times = events.event_times_s
    if times.size == 0:
        return CLASS_FAR
    i = int(np.searchsorted(times, t_s + TIME_TOL_S, side="right"))
    if i > 0 and t_s < times[i - 1] + policy.class3_len_s - TIME_TOL_S:
        return CLASS_ERUPTION
    if i < times.size:
        e = times[i]
        if e - policy.class2_start_s - TIME_TOL_S <= t_s < e - policy.class2_end_s - TIME_TOL_S:
            return CLASS_PRECURSOR
    return CLASS_FAR


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
    """Per-sample class array; Class-3 painted last so it wins at shared boundaries."""
    cls = np.full(len(ts), CLASS_FAR, dtype=np.int64)
    for e in events.event_times_s:
        lo, hi = _index_range(ts, e - policy.class2_start_s, e - policy.class2_end_s)
        cls[lo:hi] = CLASS_PRECURSOR
    for e in events.event_times_s:
        lo, hi = _index_range(ts, e, e + policy.class3_len_s)
        cls[lo:hi] = CLASS_ERUPTION
    return cls


def slice_windows(ts: TimeSeries, window_len_s: float, stride_s: float) -> list[TimeSeries]:
    """Left-aligned windows of window_len_s every stride_s; last partial window dropped."""
    wlen = _samples_of(window_len_s, ts.fs_hz, "window length")
    stride = _samples_of(stride_s, ts.fs_hz, "stride")
    if stride <= 0:
        raise ConfigError(f"stride must be positive, got {stride_s}")
    if wlen <= 0:
        raise ConfigError(f"window length must be positive, got {window_len_s}")
    n = len(ts)
    if wlen > n:
        _log.warning(
            "window of %d samples exceeds series of %d samples; no windows", wlen, n
        )
        return []
    return [ts.slice(s, s + wlen) for s in range(0, n - wlen + 1, stride)]


def _samples_of(seconds: float, fs_hz: float, what: str) -> int:
    count = seconds * fs_hz
    if abs(count - round(count)) > 1e-9:
        raise ConfigError(f"{what} of {seconds} s is not a whole number of samples at {fs_hz} Hz")
    return int(round(count))


def label_windows(
    windows: list[TimeSeries], events: EventLog, policy: LabelPolicy
) -> list[LabeledWindow]:
    """Attach a class to each window per the policy's window_label_rule."""
    out = []
    for w in windows:
        if policy.window_label_rule == "window-end-time":
            label = class_of_sample(w.time_of(len(w) - 1), events, policy)
        else:
            counts = np.bincount(sample_classes(w, events, policy), minlength=4)[1:]
            label = int(np.argmax(counts)) + 1
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


def load_timeseries(path: str, fs_hz: float) -> TimeSeries:
    """Read a signal CSV: `timestamp_s,amplitude` rows, or one amplitude per line.

    Blank lines, `#` comments, and a leading non-numeric header are skipped.
    Two-column rows must be uniformly spaced at 1/fs_hz within 1e-6 s; the
    first row's timestamp becomes t0_s (0.0 for single-column files).
    """
    amplitudes: list[float] = []
    t0 = 0.0
    prev_t: float | None = None
    period = 1.0 / fs_hz
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                fields = [float(p) for p in parts]
            except ValueError:
                if not amplitudes and prev_t is None:
                    continue  # header row
                raise DataError(f"malformed row at line {lineno}: {line!r}") from None
            if len(fields) == 1:
                value = fields[0]
            elif len(fields) == 2:
                t, value = fields
                if prev_t is None:
                    t0 = t
                elif abs((t - prev_t) - period) > TIME_TOL_S:
                    raise DataError(f"non-uniform spacing at line {lineno}")
                prev_t = t
            else:
                raise DataError(f"malformed row at line {lineno}: expected 1 or 2 columns")
            if not math.isfinite(value):
                raise DataError(f"non-finite amplitude at line {lineno}")
            amplitudes.append(value)
    if not amplitudes:
        raise DataError(f"no samples in {path}")
    return TimeSeries(np.asarray(amplitudes), fs_hz, t0)


def save_timeseries(ts: TimeSeries, path: str, header_comments: list[str] | None = None) -> None:
    """Write the signal CSV format read by load_timeseries; bit-exact round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        fh.write("timestamp_s,amplitude\n")
        for i, v in enumerate(ts.values):
            fh.write(f"{ts.time_of(i)!r},{float(v)!r}\n")


def load_events(path: str) -> EventLog:
    """Read an event file: one onset timestamp per line, `#` comments allowed."""
    times: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    times.append(float(line))
                except ValueError:
                    raise DataError(
                        f"malformed event in {path} at line {lineno}: {line!r}"
                    ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read events file {path}: {exc}") from None
    return EventLog(np.asarray(times))


def save_events(events: EventLog, path: str, header_comments: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        for t in events.event_times_s:
            fh.write(f"{float(t)!r}\n")
