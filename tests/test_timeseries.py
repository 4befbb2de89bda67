"""Containers, ingestion, labeling, windowing, and noise-segment selection."""

import numpy as np
import pytest

from geyserstate.errors import ConfigError, DataError
from geyserstate.timeseries import (
    CLASS_ERUPTION,
    CLASS_FAR,
    CLASS_PRECURSOR,
    EventLog,
    LabelPolicy,
    TimeSeries,
    class_of_sample,
    label_windows,
    load_events,
    load_timeseries,
    sample_classes,
    save_events,
    save_timeseries,
    select_noise_segment,
    slice_windows,
)

POLICY = LabelPolicy()


def make_ts(n, fs=200.0, t0=0.0, fill=0.0):
    return TimeSeries(np.full(n, fill), fs, t0)


# -- containers ---------------------------------------------------------------

def test_timeseries_rejects_nan():
    with pytest.raises(DataError, match="non-finite"):
        TimeSeries(np.array([1.0, np.nan, 3.0]), 200.0)


def test_timeseries_rejects_empty_and_bad_fs():
    with pytest.raises(DataError, match="no samples"):
        TimeSeries(np.array([]), 200.0)
    with pytest.raises(DataError, match="fs_hz"):
        TimeSeries(np.array([1.0]), 0.0)


def test_timeseries_timestamps():
    ts = TimeSeries(np.arange(5.0), 200.0, t0_s=10.0)
    assert ts.time_of(0) == 10.0
    assert ts.time_of(4) == pytest.approx(10.02)
    assert np.allclose(ts.timestamps(), 10.0 + np.arange(5) / 200.0)
    assert ts.duration_s == pytest.approx(0.025)


def test_timeseries_slice_keeps_clock():
    ts = TimeSeries(np.arange(10.0), 200.0, t0_s=1.0)
    part = ts.slice(4, 8)
    assert part.t0_s == pytest.approx(1.02)
    assert list(part.values) == [4.0, 5.0, 6.0, 7.0]


def test_eventlog_requires_strictly_increasing():
    with pytest.raises(DataError, match="strictly increasing"):
        EventLog(np.array([5.0, 5.0]))
    with pytest.raises(DataError, match="strictly increasing"):
        EventLog(np.array([9.0, 3.0]))
    assert len(EventLog(np.array([]))) == 0


def test_label_policy_validation():
    with pytest.raises(ConfigError):
        LabelPolicy(class2_start_s=10.0, class2_end_s=10.0)
    with pytest.raises(ConfigError):
        LabelPolicy(class2_end_s=-1.0)
    with pytest.raises(ConfigError):
        LabelPolicy(class3_len_s=0.0)
    with pytest.raises(ConfigError):
        LabelPolicy(window_label_rule="nearest")
    assert POLICY.envelope_s == pytest.approx(300.0)


# -- ingestion ----------------------------------------------------------------

def test_load_two_column_csv(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("0.0,1.0\n0.005,2.0\n0.010,3.0\n")
    ts = load_timeseries(str(p), 200.0)
    assert list(ts.values) == [1.0, 2.0, 3.0]
    assert ts.fs_hz == 200.0
    assert ts.t0_s == 0.0


def test_load_skips_header_and_comments(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("# seed=7\ntimestamp_s,amplitude\n2.0,5.0\n2.005,6.0\n")
    ts = load_timeseries(str(p), 200.0)
    assert list(ts.values) == [5.0, 6.0]
    assert ts.t0_s == 2.0


def test_load_empty_file_errors(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("")
    with pytest.raises(DataError, match="no samples"):
        load_timeseries(str(p), 200.0)


def test_load_gap_reports_line(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("0.0,1.0\n0.005,2.0\n0.020,3.0\n")
    with pytest.raises(DataError, match="non-uniform spacing at line 3"):
        load_timeseries(str(p), 200.0)


def test_load_malformed_row_reports_line(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("0.0,1.0\n0.005,two\n")
    with pytest.raises(DataError, match="line 2"):
        load_timeseries(str(p), 200.0)


def test_load_nan_amplitude_errors(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("0.0,1.0\n0.005,nan\n")
    with pytest.raises(DataError, match="non-finite amplitude at line 2"):
        load_timeseries(str(p), 200.0)


def test_load_mixed_row_widths_report_line(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("0.0,1.0\n0.005,2.0\n7.5\n")
    with pytest.raises(DataError, match="expected 2 columns, got 1 at line 3"):
        load_timeseries(str(p), 200.0)


def test_load_second_non_numeric_row_reports_line(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("# seed=7\ntimestamp_s,amplitude\nunits_s,counts\n0.0,1.0\n")
    with pytest.raises(DataError, match=f"{p.name}.*at line 3"):
        load_timeseries(str(p), 200.0)


def test_load_single_column(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("1.5\n2.5\n")
    ts = load_timeseries(str(p), 100.0)
    assert list(ts.values) == [1.5, 2.5]
    assert ts.t0_s == 0.0


def test_signal_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    ts = TimeSeries(rng.normal(size=300) * 1e4, 200.0, t0_s=123.456)
    p = tmp_path / "sig.csv"
    save_timeseries(ts, str(p), header_comments=["seed=11"])
    back = load_timeseries(str(p), 200.0)
    assert np.array_equal(back.values, ts.values)
    assert back.t0_s == ts.t0_s
    save_timeseries(back, str(tmp_path / "sig2.csv"), header_comments=["seed=11"])
    assert (tmp_path / "sig.csv").read_bytes() == (tmp_path / "sig2.csv").read_bytes()


def test_events_roundtrip(tmp_path):
    events = EventLog(np.array([400.25, 850.0, 1600.0]))
    p = tmp_path / "events.txt"
    save_events(events, str(p), header_comments=["seed=11"])
    back = load_events(str(p))
    assert np.array_equal(back.event_times_s, events.event_times_s)


def test_load_events_rejects_garbage(tmp_path):
    p = tmp_path / "events.txt"
    p.write_text("400.0\noops\n")
    with pytest.raises(DataError, match="line 2"):
        load_events(str(p))


# -- labeling -----------------------------------------------------------------

def test_class_of_sample_paper_offsets():
    events = EventLog(np.array([10000.0]))
    assert class_of_sample(9860.0, events, POLICY) == CLASS_PRECURSOR  # 140 s before
    assert class_of_sample(9760.0, events, POLICY) == CLASS_FAR  # 240 s: beyond 3 min
    assert class_of_sample(9400.0, events, POLICY) == CLASS_FAR
    assert class_of_sample(10030.0, events, POLICY) == CLASS_ERUPTION


def test_class_of_sample_boundaries():
    events = EventLog(np.array([1000.0]))
    assert class_of_sample(1000.0 - 180.0, events, POLICY) == CLASS_PRECURSOR
    assert class_of_sample(1000.0 - 180.0 - 0.005, events, POLICY) == CLASS_FAR
    assert class_of_sample(1000.0, events, POLICY) == CLASS_ERUPTION
    assert class_of_sample(1000.0 - 0.005, events, POLICY) == CLASS_PRECURSOR
    assert class_of_sample(1000.0 + 120.0, events, POLICY) == CLASS_FAR
    assert class_of_sample(1000.0 + 120.0 - 0.005, events, POLICY) == CLASS_ERUPTION


def test_class_of_sample_gap_policy():
    """class2_end_s > 0 reopens the unlabeled gap right before the onset."""
    gap = LabelPolicy(class2_end_s=60.0)
    events = EventLog(np.array([1000.0]))
    assert class_of_sample(970.0, events, gap) == CLASS_FAR
    assert class_of_sample(940.0 - 0.005, events, gap) == CLASS_PRECURSOR
    assert class_of_sample(940.0, events, gap) == CLASS_FAR


def test_class_of_sample_no_events_is_quiet():
    assert class_of_sample(5.0, EventLog(np.array([])), POLICY) == CLASS_FAR


def test_labeling_partition_on_dense_grid():
    """Every timestamp gets exactly one class and intervals have exact extents."""
    events = EventLog(np.array([400.0, 850.0]))
    ts = make_ts(1200 * 200, fs=200.0)
    cls = sample_classes(ts, events, POLICY)
    assert set(np.unique(cls)) == {CLASS_FAR, CLASS_PRECURSOR, CLASS_ERUPTION}
    assert int(np.sum(cls == CLASS_ERUPTION)) == 2 * 120 * 200
    assert int(np.sum(cls == CLASS_PRECURSOR)) == 2 * 180 * 200
    # spot-check agreement with the scalar classifier across boundaries
    t = ts.timestamps()
    rng = np.random.default_rng(3)
    for i in rng.integers(0, len(ts), size=500):
        assert cls[i] == class_of_sample(t[i], events, POLICY)


def test_sample_classes_with_epoch_scale_t0():
    t0 = 1.5e9
    events = EventLog(np.array([t0 + 400.0]))
    ts = make_ts(1000 * 200, fs=200.0, t0=t0)
    cls = sample_classes(ts, events, POLICY)
    assert int(np.sum(cls == CLASS_ERUPTION)) == 120 * 200
    assert int(np.sum(cls == CLASS_PRECURSOR)) == 180 * 200


# -- windowing ----------------------------------------------------------------

def test_slice_windows_counts():
    ts = make_ts(300 * 200)
    assert len(slice_windows(ts, 60.0, 60.0)) == 5
    assert len(slice_windows(ts, 60.0, 10.0)) == 25


def test_slice_window_sample_count():
    ts = make_ts(60 * 200)
    windows = slice_windows(ts, 60.0, 60.0)
    assert len(windows) == 1
    assert len(windows[0]) == 12000


def test_slice_windows_drop_partial_and_warn():
    ts = make_ts(90 * 200)
    assert len(slice_windows(ts, 60.0, 60.0)) == 1
    short = make_ts(100)
    assert slice_windows(short, 60.0, 60.0) == []


def test_slice_windows_rejects_fractional_samples():
    ts = make_ts(1000, fs=200.0)
    with pytest.raises(ConfigError, match="whole number of samples"):
        slice_windows(ts, 0.0033, 1.0)
    with pytest.raises(ConfigError, match="positive"):
        slice_windows(ts, 1.0, 0.0)


def test_disjoint_tiling_concatenates_to_prefix():
    rng = np.random.default_rng(5)
    ts = TimeSeries(rng.normal(size=1100), 10.0)
    windows = slice_windows(ts, 30.0, 30.0)
    rebuilt = np.concatenate([w.values for w in windows])
    assert np.array_equal(rebuilt, ts.values[: len(rebuilt)])
    starts = [w.t0_s for w in windows]
    assert starts == pytest.approx([i * 30.0 for i in range(len(windows))])


def test_label_windows_end_time_rule():
    events = EventLog(np.array([600.0]))
    ts = make_ts(1200 * 200)
    windows = slice_windows(ts, 60.0, 60.0)
    labeled = label_windows(windows, events, POLICY)
    # window [360, 420) ends at 419.995, just before the precursor region: quiet
    assert labeled[6].label == CLASS_FAR
    # window [600, 660) ends 60 s after onset: eruption
    assert labeled[10].label == CLASS_ERUPTION
    # window [420, 480) ends 120 s before the event, inside [420, 600): precursor
    assert labeled[7].label == CLASS_PRECURSOR
    assert labeled[0].label == CLASS_FAR


def test_label_windows_majority_rule():
    majority = LabelPolicy(window_label_rule="majority-sample")
    events = EventLog(np.array([642.0]))  # window [420, 480): 70% quiet
    ts = make_ts(1200 * 200)
    windows = slice_windows(ts, 60.0, 60.0)
    labeled = label_windows(windows, events, majority)
    assert labeled[7].label == CLASS_FAR
    end_rule = label_windows(windows, events, POLICY)
    assert end_rule[7].label == CLASS_PRECURSOR


def test_label_windows_majority_tie_prefers_lower_class():
    majority = LabelPolicy(window_label_rule="majority-sample")
    events = EventLog(np.array([450.0]))  # window [420, 480): half precursor, half eruption
    ts = make_ts(1200 * 200)
    windows = slice_windows(ts, 60.0, 60.0)
    labeled = label_windows(windows, events, majority)
    assert labeled[7].label == CLASS_PRECURSOR


# -- noise segment ------------------------------------------------------------

def test_noise_segment_earliest_run():
    events = EventLog(np.array([72000.0]))  # hour 20 of a 24 h day at 1 Hz
    ts = make_ts(86400, fs=1.0)
    seg = select_noise_segment(ts, events, 0.05, POLICY)
    assert seg.t0_s == 0.0
    assert len(seg) == 4320  # ceil(0.05 * 86400)


def test_noise_segment_skips_early_event():
    events = EventLog(np.array([60.0]))
    ts = make_ts(7200, fs=1.0)
    seg = select_noise_segment(ts, events, 0.05, POLICY)
    assert seg.t0_s == pytest.approx(180.0)  # first quiet sample after the eruption
    cls = sample_classes(seg, events, POLICY)
    assert np.all(cls == CLASS_FAR)


def test_noise_segment_relabels_clean():
    events = EventLog(np.array([400.0, 850.0]))
    ts = make_ts(1200 * 200)
    seg = select_noise_segment(ts, events, 0.05, POLICY)
    assert np.all(sample_classes(seg, events, POLICY) == CLASS_FAR)


def test_noise_segment_dense_events_error():
    events = EventLog(np.array([310.0, 620.0, 930.0, 1240.0, 1550.0, 1860.0]))
    ts = make_ts(2000, fs=1.0)
    with pytest.raises(DataError, match="longest available"):
        select_noise_segment(ts, events, 0.5, POLICY)


def test_noise_segment_fraction_validation():
    ts = make_ts(100, fs=1.0)
    with pytest.raises(ConfigError):
        select_noise_segment(ts, EventLog(np.array([])), 1.5, POLICY)
