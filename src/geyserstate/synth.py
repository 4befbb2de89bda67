"""Seeded synthetic seismic-signal generator with ground-truth labels.

The signal is a sum of independent layers: a slow seasonal sinusoid, a
stationary AR(2) ambient process, amplitude-modulated low-frequency bursts
confined to a "daytime" fraction of each synthetic day, and per-event
structures (an intensifying band-limited chirp before each eruption and a
modulated tone during it).  A synthetic "day" is time-compressed to 1200 s
so multi-day corpora stay desk-sized.

Draw-order contract: one Generator seeded from config.seed draws ambient
innovations first, then burst placements day by day; event components use no
randomness.  Dropping events or the seasonal layer therefore leaves the
remaining layers bit-identical at the same seed, which tests exploit to
isolate components by subtraction.

In-place contract: `generate` builds the seasonal layer in the output buffer
and adds ambient, bursts and events to it in that order, dropping each layer
once it is added.  Every step is the float operation of the whole-array sum
seasonal + ambient + bursts + events, in the same order, so the signal is
that sum bit for bit while at most four series are held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .artifacts import write_table
from .errors import ConfigError, DataError
from .timeseries import (
    CLASS_FAR,
    EventLog,
    LabelPolicy,
    TimeSeries,
    _index_range,
    sample_classes,
)

AR_BURN_IN = 5000
AMPLITUDE_CAP = 0.01

DEFAULT_EVENT_TIMES = (400.0, 850.0, 1660.0, 2200.0, 2780.0, 3320.0)


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float = 3600.0
    fs_hz: float = 200.0
    day_period_s: float = 1200.0
    seasonal_amplitude: float = 2000.0
    seasonal_period_s: float = 1200.0
    seasonal_phase: float = 0.0
    # Complex pole pair at radius 0.9, resonance 0.3 Hz at 200 Hz sampling.
    ar_coefficients: tuple = (1.79992, -0.81)
    ar_sigma: float = 0.5
    burst_rate_per_hour: float = 30.0
    burst_amp_lo: float = 20.0
    burst_amp_hi: float = 60.0
    burst_dur_lo_s: float = 4.0
    burst_dur_hi_s: float = 12.0
    burst_freq_lo_hz: float = 0.2
    burst_freq_hi_hz: float = 0.5
    day_active_lo: float = 0.08
    day_active_hi: float = 0.75
    event_times_s: tuple = DEFAULT_EVENT_TIMES
    precursor_lead_s: float = 180.0
    precursor_amplitude: float = 2.5
    chirp_f0_hz: float = 12.0
    chirp_f1_hz: float = 20.0
    eruption_len_s: float = 120.0
    eruption_amplitude: float = 0.6
    eruption_tone_hz: float = 25.0
    enforce_amplitude_cap: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.fs_hz <= 0 or self.day_period_s <= 0:
            raise ConfigError("duration, sampling rate, and day period must be positive")
        if not math.isfinite(self.duration_s * self.fs_hz):
            raise ConfigError(f"synth.duration_s = {self.duration_s:g} at synth.fs_hz = "
                              f"{self.fs_hz:g} gives a sample count that is not finite")
        if self.day_period_s < 1.0 / self.fs_hz:
            # _bursts loops once per synthetic day
            raise ConfigError(
                f"synth.day_period_s = {self.day_period_s:g} is shorter than one sample "
                f"period, 1 / synth.fs_hz = {1.0 / self.fs_hz:g} s"
            )
        if self.seasonal_period_s <= 0:
            raise ConfigError(
                f"synth.seasonal_period_s must be positive, got {self.seasonal_period_s:g}"
            )
        # a layer's phase, 2π·f·t over its span (2π·t / period for the
        # seasonal layer), must stay finite, or its samples are NaN
        for keys, cycles in (
            (("seasonal_period_s", "duration_s"), self.duration_s / self.seasonal_period_s),
            (("chirp_f0_hz", "precursor_lead_s"), self.chirp_f0_hz * self.precursor_lead_s),
            (("chirp_f1_hz", "precursor_lead_s"), self.chirp_f1_hz * self.precursor_lead_s),
            (("eruption_tone_hz", "eruption_len_s"), self.eruption_tone_hz * self.eruption_len_s),
            (("burst_freq_lo_hz", "burst_dur_hi_s"), self.burst_freq_lo_hz * self.burst_dur_hi_s),
            (("burst_freq_hi_hz", "burst_dur_hi_s"), self.burst_freq_hi_hz * self.burst_dur_hi_s),
        ):
            if not math.isfinite(2.0 * math.pi * cycles):
                named = " over ".join(f"synth.{key} = {getattr(self, key):g}" for key in keys)
                raise ConfigError(f"{named} gives a layer phase that is not finite")
        if self.burst_rate_per_hour < 0:
            raise ConfigError(
                f"synth.burst_rate_per_hour must be non-negative, got {self.burst_rate_per_hour:g}"
            )
        if self.burst_rate_per_hour / 3600.0 > self.fs_hz:
            # numpy refuses a Poisson mean near 2**63: keep it within the sample count
            raise ConfigError(
                f"synth.burst_rate_per_hour = {self.burst_rate_per_hour:g} expects more than "
                f"one burst a sample at synth.fs_hz = {self.fs_hz:g}"
            )
        if self.ar_sigma < 0:
            raise ConfigError("ar_sigma must be non-negative")
        if not 0 <= self.day_active_lo < self.day_active_hi <= 1:
            raise ConfigError("daytime fraction bounds must satisfy 0 <= lo < hi <= 1")
        if self.burst_amp_lo > self.burst_amp_hi or self.burst_dur_lo_s > self.burst_dur_hi_s:
            raise ConfigError("burst amplitude/duration ranges must be ordered")
        if self.burst_freq_lo_hz > self.burst_freq_hi_hz:
            raise ConfigError("burst frequency range must be ordered")
        if self.precursor_lead_s <= 0 or self.eruption_len_s <= 0:
            raise ConfigError("event envelope lengths must be positive")
        if self.precursor_amplitude < 0 or self.eruption_amplitude < 0:
            raise ConfigError("event amplitudes must be non-negative")
        # AR poles are roots of z^p - a1 z^(p-1) - ... - ap
        poly = np.concatenate(([1.0], -np.asarray(self.ar_coefficients, dtype=np.float64)))
        if np.any(np.abs(np.roots(poly)) >= 1.0):
            named = ", ".join(
                f"synth.ar_a{i} = {a:g}" for i, a in enumerate(self.ar_coefficients, 1)
            )
            raise ConfigError(f"{named} define a non-stationary ambient process")
        # in Python floats, a gap that overflows is inf, with no numpy warning
        times = [float(t) for t in self.event_times_s]
        gaps = [b - a for a, b in zip(times, times[1:])]
        if any(gap <= 0 for gap in gaps):
            raise ConfigError(f"synth.event_times_s must be strictly increasing, got {times}")
        envelope = self.label_policy.envelope_s
        if any(gap <= envelope for gap in gaps):
            raise ConfigError(
                f"synth.event_times_s must be more than the labeled envelope apart, "
                f"labels.class2_start_s + labels.class3_len_s = {envelope:g} s, got {times}"
            )
        if times and (times[0] < self.precursor_lead_s
                      or times[-1] + self.eruption_len_s > self.duration_s):
            raise ConfigError(
                f"synth.event_times_s = {times} with labels.class2_start_s = "
                f"{self.precursor_lead_s:g} and labels.class3_len_s = {self.eruption_len_s:g} "
                f"puts an event envelope outside synth.duration_s = {self.duration_s:g}"
            )

    @property
    def label_policy(self) -> LabelPolicy:
        return LabelPolicy(
            class2_start_s=self.precursor_lead_s,
            class2_end_s=0.0,
            class3_len_s=self.eruption_len_s,
        )


def _ambient(config: SynthConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    innovations = rng.normal(0.0, config.ar_sigma, size=n + AR_BURN_IN)
    coeffs = np.asarray(config.ar_coefficients, dtype=np.float64)
    out = lfilter([1.0], np.concatenate(([1.0], -coeffs)), innovations)
    return out[AR_BURN_IN:]


def _bursts(config: SynthConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    fs = config.fs_hz
    out = np.zeros(n)
    n_days = int(math.ceil(config.duration_s / config.day_period_s))
    for day in range(n_days):
        day_start = day * config.day_period_s
        lo = day_start + config.day_active_lo * config.day_period_s
        hi = day_start + config.day_active_hi * config.day_period_s
        hi = min(hi, config.duration_s)
        if hi <= lo:
            continue
        expected = config.burst_rate_per_hour * (hi - lo) / 3600.0
        count = int(rng.poisson(expected))
        for _ in range(count):
            start = rng.uniform(lo, hi)
            dur = rng.uniform(config.burst_dur_lo_s, config.burst_dur_hi_s)
            amp = rng.uniform(config.burst_amp_lo, config.burst_amp_hi)
            freq = rng.uniform(config.burst_freq_lo_hz, config.burst_freq_hi_hz)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            i0 = max(0, int(start * fs))
            i1 = min(n, int((start + dur) * fs))
            if i1 <= i0:
                continue
            m = i1 - i0
            t_rel = np.arange(m) / fs
            envelope = 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(m) / max(m - 1, 1)))
            out[i0:i1] += amp * envelope * np.sin(2.0 * math.pi * freq * t_rel + phase)
    return out


def _event_components(config: SynthConfig, n: int) -> np.ndarray:
    fs = config.fs_hz
    out = np.zeros(n)
    # the layer's own clock: _index_range reads only its rate, t0 and length
    ts_template = TimeSeries(out, config.fs_hz)
    for e in config.event_times_s:
        # Precursor: chirp sweeping chirp_f0 -> chirp_f1 with an envelope that
        # intensifies toward the eruption.
        i0, i1 = _index_range(ts_template, e - config.precursor_lead_s, e)
        if i1 > i0:
            t_rel = np.arange(i1 - i0) / fs
            progress = t_rel / config.precursor_lead_s
            inst = config.chirp_f0_hz * t_rel + 0.5 * (
                config.chirp_f1_hz - config.chirp_f0_hz
            ) * t_rel**2 / config.precursor_lead_s
            envelope = 0.5 + 0.5 * progress
            out[i0:i1] += (
                config.precursor_amplitude * envelope * np.sin(2.0 * math.pi * inst)
            )
        # Eruption: modulated tone with cosine ramps at both ends.
        j0, j1 = _index_range(ts_template, e, e + config.eruption_len_s)
        if j1 > j0:
            m = j1 - j0
            t_rel = np.arange(m) / fs
            ramp = min(int(10.0 * fs), m // 4)
            envelope = np.ones(m)
            if ramp > 0:
                up = 0.5 * (1.0 - np.cos(math.pi * np.arange(ramp) / ramp))
                envelope[:ramp] = up
                envelope[m - ramp :] = up[::-1]
            out[j0:j1] += (
                config.eruption_amplitude
                * envelope
                * np.sin(2.0 * math.pi * config.eruption_tone_hz * t_rel)
            )
    return out


def _check_amplitude_cap(config: SynthConfig, ambient: np.ndarray, bursts: np.ndarray) -> None:
    """The eruption may be at most AMPLITUDE_CAP of the noise layers' peak."""
    noise = ambient + bursts
    peak_noise = float(np.max(np.abs(noise, out=noise)))
    if config.eruption_amplitude > AMPLITUDE_CAP * peak_noise:
        raise DataError(
            f"eruption amplitude {config.eruption_amplitude:g} exceeds "
            f"{AMPLITUDE_CAP:.0%} of peak noise amplitude {peak_noise:g}"
        )


def generate(config: SynthConfig) -> tuple[TimeSeries, EventLog]:
    """Build the layered signal; returns (series, events)."""
    n = int(round(config.duration_s * config.fs_hz))
    if n < 1:
        raise ConfigError("configured duration yields zero samples")
    rng = np.random.default_rng(config.seed)
    try:
        ambient = _ambient(config, rng, n)
        bursts = _bursts(config, rng, n)
        if config.enforce_amplitude_cap and config.event_times_s:
            _check_amplitude_cap(config, ambient, bursts)
        # the seasonal layer, sin(2π t / period + phase) at t = i / fs, in the
        # output buffer; then each layer is added to it and dropped
        signal = np.arange(n, dtype=np.float64)
        signal /= config.fs_hz
        signal *= 2.0 * math.pi
        signal /= config.seasonal_period_s
        signal += config.seasonal_phase
        np.sin(signal, out=signal)
        signal *= config.seasonal_amplitude
        signal += ambient
        del ambient
        signal += bursts
        del bursts
        signal += _event_components(config, n)
    except MemoryError:
        raise ConfigError(f"synth.duration_s = {config.duration_s:g} at synth.fs_hz = "
                          f"{config.fs_hz:g} gives {n} samples, more than memory holds") from None
    ts = TimeSeries(signal, config.fs_hz)
    return ts, EventLog(tuple(float(e) for e in config.event_times_s))


def split_train_test(
    ts: TimeSeries,
    events: EventLog,
    ratio: float,
    policy: LabelPolicy | None = None,
) -> tuple[tuple[TimeSeries, EventLog], tuple[TimeSeries, EventLog]]:
    """Chronological split at the quiet sample nearest duration*ratio.

    The boundary must land outside every event's envelope
    ``[e - class2_start_s, e + class3_len_s)``, so each side's labels are
    self-contained given its own event subset.  Of two legal points equally
    near the request, the later one wins.
    """
    policy = policy or LabelPolicy()
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must lie in (0, 1), got {ratio}")
    n = len(ts)
    # closing the pre-onset gap makes Class-1 exactly "outside every envelope"
    gapless = replace(policy, class2_end_s=0.0)
    legal = np.flatnonzero(sample_classes(ts, events, gapless)[1:] == CLASS_FAR) + 1
    if legal.size == 0:
        raise DataError("no quiet split point exists outside event envelopes")
    want = min(max(int(round(n * ratio)), 1), n - 1)
    # argmin keeps the first of equal distances; read backwards, that is the later point
    split_idx = int(legal[-1 - np.argmin(np.abs(legal - want)[::-1])])
    boundary_time = ts.time_of(split_idx)
    event_times = events.event_times_s
    head = ts.slice(0, split_idx)
    tail = ts.slice(split_idx, n)
    head_events = EventLog(tuple(float(e) for e in event_times[event_times < boundary_time]))
    tail_events = EventLog(tuple(float(e) for e in event_times[event_times >= boundary_time]))
    return (head, head_events), (tail, tail_events)


def save_classes(ts: TimeSeries, classes: np.ndarray, path: str,
                 header_comments: list[str] | None = None) -> None:
    """Write the ground-truth classes of `ts` (`sample_classes`) as
    `start_s,end_s,class` rows, one per run of equal classes.

    A run holds the samples t with start_s <= t < end_s: start_s is the
    timestamp of its first sample, and end_s that of the sample after its
    last (`ts.time_of(len(ts))` for the last run), so `_index_range` of the
    two gives the run's sample range back.
    """
    edges = np.flatnonzero(np.diff(classes)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [len(classes)]))
    write_table(
        path, header_comments or [], ("start_s", "end_s", "class"),
        (ts.t0_s + starts / ts.fs_hz, ts.t0_s + ends / ts.fs_hz, classes[starts]),
    )
