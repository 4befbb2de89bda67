"""Generator tests.

The stationary-variance oracle is the closed-form Yule-Walker result for an
AR(2) process; coefficient-recovery standard errors come from an independent
normal-equations computation.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geyserstate.errors import ConfigError, DataError
from geyserstate.filters import apply_filter, design_butterworth_highpass, fit_ar
from geyserstate.synth import (
    SynthConfig,
    _ambient,
    _bursts,
    _event_components,
    generate,
    save_classes,
    split_train_test,
)
from geyserstate.timeseries import EventLog, LabelPolicy, TimeSeries, sample_classes


def ar2_stationary_variance(a1: float, a2: float, sigma: float) -> float:
    return sigma**2 * (1 - a2) / ((1 + a2) * (1 - a1 - a2) * (1 + a1 - a2))


def quiet_config(**overrides) -> SynthConfig:
    """Ambient-only baseline: no seasonal, no bursts, no events."""
    fields = dict(
        seasonal_amplitude=0.0,
        burst_rate_per_hour=0.0,
        event_times_s=(),
    )
    fields.update(overrides)
    return SynthConfig(**fields)


# -- determinism and construction ---------------------------------------------------

def test_generate_deterministic():
    config = SynthConfig(duration_s=1200.0, event_times_s=(400.0, 850.0))
    ts_a, ev_a = generate(config)
    ts_b, ev_b = generate(config)
    assert np.array_equal(ts_a.values, ts_b.values)
    assert np.array_equal(ev_a.event_times_s, ev_b.event_times_s)


def layer_sum(config: SynthConfig) -> np.ndarray:
    """The signal as the sum of its layers, each built whole in its own
    array: seasonal + ambient + bursts + events, left to right, the random
    layers drawn in draw order from a fresh Generator."""
    rng = np.random.default_rng(config.seed)
    n = int(round(config.duration_s * config.fs_hz))
    ambient = _ambient(config, rng, n)
    bursts = _bursts(config, rng, n)
    t = np.arange(n) / config.fs_hz
    seasonal = config.seasonal_amplitude * np.sin(
        2.0 * math.pi * t / config.seasonal_period_s + config.seasonal_phase
    )
    return seasonal + ambient + bursts + _event_components(config, n)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(duration_s=240.0, fs_hz=50.0, day_period_s=120.0, seasonal_period_s=120.0,
                    event_times_s=(100.0, 180.0), chirp_f0_hz=8.0, chirp_f1_hz=15.0,
                    eruption_tone_hz=15.0, eruption_amplitude=0.2, precursor_lead_s=30.0,
                    eruption_len_s=20.0, enforce_amplitude_cap=False, seed=3),
        SynthConfig(enforce_amplitude_cap=False),
        # every seasonal sample is a signed zero, and so is the ambient layer
        SynthConfig(duration_s=1200.0, event_times_s=(400.0, 850.0), seasonal_amplitude=0.0,
                    ar_sigma=0.0, enforce_amplitude_cap=False, seed=7),
        SynthConfig(duration_s=1200.0, event_times_s=(), seasonal_phase=0.3, seed=11),
        SynthConfig(),
    ],
    ids=["tiny", "default", "signed-zeros", "no-events", "cap-on"],
)
def test_generate_is_the_sum_of_its_layers_bit_for_bit(config):
    ts, _ = generate(config)
    assert ts.values.tobytes() == layer_sum(config).tobytes()


def test_generate_event_count_and_class3_sample_count():
    config = SynthConfig(duration_s=2400.0, event_times_s=(700.0, 1800.0), seed=42)
    ts, events = generate(config)
    classes = sample_classes(ts, events, config.label_policy)
    assert len(events.event_times_s) == 2
    assert np.count_nonzero(classes == 3) == int(2 * config.eruption_len_s * config.fs_hz)
    assert np.count_nonzero(classes == 2) == int(2 * config.precursor_lead_s * config.fs_hz)
    assert len(ts) == int(config.duration_s * config.fs_hz)


def test_ambient_only_variance_matches_yule_walker():
    config = quiet_config(duration_s=3600.0, seed=5)
    ts, _ = generate(config)
    a1, a2 = config.ar_coefficients
    expected = ar2_stationary_variance(a1, a2, config.ar_sigma)
    measured = float(np.var(ts.values))
    assert measured == pytest.approx(expected, rel=0.10)


def test_ambient_fit_recovers_generating_coefficients():
    config = quiet_config(duration_s=1500.0, seed=11)
    ts, _ = generate(config)
    sample = TimeSeries(ts.values[:200_000], ts.fs_hz)
    model = fit_ar(sample, max_order=2, criterion="fixed")
    a1, a2 = config.ar_coefficients

    # Independent normal-equations standard errors for the lag coefficients.
    x = sample.values
    n = x.size
    design = np.column_stack([np.ones(n - 2), x[1:-1], x[:-2]])
    target = x[2:]
    gram_inv = np.linalg.inv(design.T @ design)
    beta = gram_inv @ design.T @ target
    rss = float(np.sum((target - design @ beta) ** 2))
    sigma2 = rss / (n - 2 - 3)
    se = np.sqrt(sigma2 * np.diag(gram_inv))
    assert abs(model.coeffs_alpha[0] - a1) <= 3 * se[1]
    assert abs(model.coeffs_alpha[1] - a2) <= 3 * se[2]

    chosen = fit_ar(sample, max_order=8, criterion="aic")
    assert chosen.order_p >= 2
    assert chosen.coeffs_alpha[0] == pytest.approx(a1, abs=0.02)
    assert chosen.coeffs_alpha[1] == pytest.approx(a2, abs=0.02)


def test_seasonal_component_crushed_by_highpass():
    config = quiet_config(
        duration_s=3600.0,
        seasonal_amplitude=1000.0,
        ar_sigma=0.0,
        seed=3,
    )
    ts, _ = generate(config)
    cascade = design_butterworth_highpass(4, 0.1, config.fs_hz)
    filtered = apply_filter(cascade, ts)

    f = 1.0 / config.seasonal_period_s
    # Skip the first synthetic day so the filter transient has died out.
    start = int(1200 * config.fs_hz)
    t = np.arange(len(ts))[start:] / config.fs_hz
    probe = np.exp(-2j * np.pi * f * t)
    before = abs(np.dot(ts.values[start:], probe))
    after = abs(np.dot(filtered.values[start:], probe))
    assert before > 0
    assert after < before * 1e-3  # at least 60 dB down


def test_event_components_confined_to_labeled_regions():
    config = SynthConfig()
    ts_full, events = generate(config)
    classes = sample_classes(ts_full, events, config.label_policy)
    ts_none, _ = generate(
        SynthConfig(event_times_s=(), seed=config.seed)
    )
    diff = ts_full.values - ts_none.values
    hot = np.flatnonzero(diff != 0.0)
    assert hot.size > 0
    assert np.all(classes[hot] != 1)
    times = ts_full.timestamps()
    for e in events.event_times_s:
        in_precursor = hot[(times[hot] >= e - config.precursor_lead_s) & (times[hot] < e)]
        in_eruption = hot[(times[hot] >= e) & (times[hot] < e + config.eruption_len_s)]
        assert in_precursor.size > 0 and np.all(classes[in_precursor] == 2)
        assert in_eruption.size > 0 and np.all(classes[in_eruption] == 3)


def test_eruption_amplitude_within_noise_peak_cap():
    config = SynthConfig()
    noise_only = SynthConfig(event_times_s=(), seasonal_amplitude=0.0, seed=config.seed)
    ts_noise, _ = generate(noise_only)
    peak = float(np.max(np.abs(ts_noise.values)))
    assert config.eruption_amplitude <= 0.0101 * peak
    generate(config)  # the built-in cap check must pass for defaults


def test_generate_rejects_nonstationary_ar():
    with pytest.raises(ConfigError, match=r"synth.ar_a1 = 1.2, synth.ar_a2 = 0 define a non-stat"):
        quiet_config(ar_coefficients=(1.2, 0.0))


def test_generate_rejects_bad_event_layouts():
    for times, match in (
        ((400.0, 650.0), "more than the labeled envelope apart, labels.class2_start_s"),
        ((100.0,), "outside synth.duration_s = 1200"),
        ((1150.0,), "outside synth.duration_s = 1200"),
        ((900.0, 500.0), "synth.event_times_s must be strictly increasing"),
    ):
        with pytest.raises(ConfigError, match=match):
            SynthConfig(duration_s=1200.0, event_times_s=times)


def test_config_static_validation():
    with pytest.raises(ConfigError):
        SynthConfig(duration_s=-1.0)
    with pytest.raises(ConfigError):
        SynthConfig(day_active_lo=0.8, day_active_hi=0.2)
    with pytest.raises(ConfigError):
        SynthConfig(burst_amp_lo=10.0, burst_amp_hi=5.0)
    for fields, match in (
        ({"burst_rate_per_hour": -1.0}, "burst_rate_per_hour"),
        ({"seasonal_period_s": 0.0}, "seasonal_period_s"),
        ({"day_period_s": 0.004, "fs_hz": 200.0}, "shorter than one sample period"),
    ):
        with pytest.raises(ConfigError, match=match):
            SynthConfig(**fields)
    SynthConfig(day_period_s=0.005, fs_hz=200.0)  # exactly one sample period


# -- splitting ---------------------------------------------------------------------

def test_split_event_free_midpoint():
    ts = TimeSeries(np.sin(np.arange(2000) * 0.01), 10.0)
    (head, head_ev), (tail, tail_ev) = split_train_test(ts, EventLog(()), ratio=0.5)
    assert len(head) == 1000
    assert len(tail) == 1000
    assert len(head_ev.event_times_s) == 0
    assert len(tail_ev.event_times_s) == 0
    assert tail.t0_s == pytest.approx(100.0)


def test_split_default_ratio_is_14_of_18():
    ts = TimeSeries(np.zeros(18000), 10.0)
    (head, _), (tail, _) = split_train_test(ts, EventLog(()), ratio=14 / 18)
    assert len(head) == 14000
    assert len(tail) == 4000


def test_split_snaps_away_from_event_envelope():
    # Requested midpoint (t = 500) sits inside the envelope of the event at
    # 505 ([325, 625)); the nearest legal point is t = 625.
    ts = TimeSeries(np.zeros(50000), 50.0)
    events = EventLog((505.0,))
    (head, head_ev), (tail, tail_ev) = split_train_test(ts, events, ratio=0.5)
    assert len(head) == int(625.0 * 50)
    assert np.array_equal(head_ev.event_times_s, [505.0])
    assert len(tail_ev.event_times_s) == 0


def test_split_without_quiet_point_errors():
    ts = TimeSeries(np.zeros(9300), 10.0)
    events = EventLog((250.0, 560.0, 870.0))
    policy = LabelPolicy(class2_start_s=250.0, class3_len_s=60.0)
    with pytest.raises(DataError):
        split_train_test(ts, events, ratio=0.5, policy=policy)


def split_index_by_search(ts, events, ratio, policy):
    """Reference split point: walk outwards from round(n*ratio), the later
    candidate first at each distance, to the first quiet sample that no
    upcoming event's precursor span reaches back across; None if there is none."""
    n = len(ts)
    classes = sample_classes(ts, events, policy)
    times = ts.timestamps()
    event_times = events.event_times_s

    def acceptable(idx):
        if classes[idx] != 1:
            return False
        upcoming = event_times[event_times > times[idx]]
        return upcoming.size == 0 or upcoming[0] - times[idx] > policy.class2_start_s

    want = min(max(int(round(n * ratio)), 1), n - 1)
    for offset in range(max(want, n - want) + 1):
        for candidate in (want + offset, want - offset):
            if 1 <= candidate <= n - 1 and acceptable(candidate):
                return candidate
    return None


@st.composite
def split_cases(draw):
    """Rates, offsets and event times on a power-of-two grid, so that every
    boundary comparison of the reference search is exact."""
    fs = draw(st.sampled_from([1.0, 2.0, 8.0]))
    t0 = draw(st.sampled_from([0.0, 0.5, 2.0**30 + 0.25]))
    n = draw(st.integers(2, 300))
    quarter = 1.0 / (4.0 * fs)
    start_q = draw(st.integers(1, 120))
    policy = LabelPolicy(
        class2_start_s=start_q * quarter,
        class2_end_s=draw(st.integers(0, start_q - 1)) * quarter,
        class3_len_s=draw(st.integers(1, 120)) * quarter,
    )
    onsets = draw(st.lists(st.integers(-120, 4 * n + 120), max_size=5, unique=True))
    events = EventLog(np.array([t0 + q * quarter for q in sorted(onsets)]))
    ratio = draw(st.floats(0.01, 0.99))
    return TimeSeries(np.zeros(n), fs, t0), events, ratio, policy


# request t = 50 inside the envelope [41, 60): legal 40 and 60 tie, 60 wins
_TIE = (TimeSeries(np.zeros(100), 1.0), EventLog((50.0,)), 0.5,
        LabelPolicy(class2_start_s=9.0, class3_len_s=10.0))
# request t = 50 inside [30, 62) with a pre-onset gap: nearest legal is 62
_GAP = (TimeSeries(np.zeros(100), 1.0), EventLog((50.0,)), 0.5,
        LabelPolicy(class2_start_s=20.0, class2_end_s=15.0, class3_len_s=12.0))


@settings(max_examples=300, deadline=None)
@example(case=_TIE)
@example(case=_GAP)
@given(case=split_cases())
def test_split_matches_candidate_search(case):
    ts, events, ratio, policy = case
    expected = split_index_by_search(ts, events, ratio, policy)
    if expected is None:
        with pytest.raises(DataError, match="no quiet split point"):
            split_train_test(ts, events, ratio, policy)
        return
    (head, head_ev), (tail, tail_ev) = split_train_test(ts, events, ratio, policy)
    assert len(head) == expected and len(tail) == len(ts) - expected
    boundary = ts.time_of(expected)
    times = events.event_times_s
    assert np.array_equal(head_ev.event_times_s, times[times < boundary])
    assert np.array_equal(tail_ev.event_times_s, times[times >= boundary])


def test_split_ratio_validation():
    ts = TimeSeries(np.zeros(100), 10.0)
    for ratio in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError):
            split_train_test(ts, EventLog(()), ratio=ratio)


def test_save_classes_format(tmp_path):
    ts = TimeSeries(np.zeros(5), 10.0)
    classes = np.array([1, 1, 2, 3, 1])
    path = tmp_path / "classes.csv"
    save_classes(ts, classes, str(path), header_comments=["seed=1"])
    assert path.read_text().splitlines() == [
        "# seed=1", "start_s,end_s,class", "0.0,0.2,1", "0.2,0.3,2", "0.3,0.4,3", "0.4,0.5,1",
    ]
