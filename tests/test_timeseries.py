"""Containers, ingestion, labeling, windowing, and noise-segment selection."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geyserstate import timeseries
from geyserstate.errors import ConfigError, DataError
from geyserstate.timeseries import (
    CLASS_ERUPTION,
    CLASS_FAR,
    CLASS_PRECURSOR,
    EventLog,
    LabelPolicy,
    TimeSeries,
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


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), float("-inf")])
def test_timeseries_rejects_a_non_finite_t0(t0):
    with pytest.raises(DataError, match="t0_s must be finite"):
        TimeSeries(np.array([1.0, 2.0]), 200.0, t0)


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


@pytest.mark.parametrize(
    "text, line",
    [("nan,1.0\n0.005,2.0\n", 1), ("0.0,1.0\nnan,2.0\n0.01,3.0\n", 2),
     ("0.0,1.0\n0.005,2.0\n-inf,3.0\n", 3), ("inf,1.0\n", 1)],
    ids=["first-row", "mid-file", "negative-inf", "one-row"],
)
def test_load_non_finite_timestamp_reports_line(tmp_path, text, line):
    p = tmp_path / "sig.csv"
    p.write_text(text)
    with pytest.raises(DataError, match=f"non-finite timestamp [-a-z]+ at line {line}$"):
        load_timeseries(str(p), 200.0)


def test_load_mixed_row_widths_report_line(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_text("0.0,1.0\n0.005,2.0\n7.5\n")
    with pytest.raises(DataError, match="expected 2 columns, got 1 at line 3"):
        load_timeseries(str(p), 200.0)


def test_a_header_of_another_width_reports_line_2(tmp_path):
    """The header counts as a row, as in `ArtifactReader.columns`: a
    one-name header over two-column rows is a width mismatch in both readers."""
    p = tmp_path / "sig.csv"
    p.write_text("amplitude\n0.0,1.0\n0.005,2.0\n0.01,3.0\n")
    assert timeseries.read_numeric(str(p)) is None
    for load in (load_timeseries, timeseries._load_streaming):
        with pytest.raises(DataError, match=f"{p.name}: expected 1 columns, got 2 at line 2"):
            load(str(p), 200.0)


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
    assert (tmp_path / "sig.f8").read_bytes() == (tmp_path / "sig2.f8").read_bytes()


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


def test_utf8_byte_order_mark_keeps_the_first_sample(tmp_path):
    p = tmp_path / "sig.csv"
    p.write_bytes(b"\xef\xbb\xbf0.0,1.5\n0.005,2.5\n0.01,3.5\n")
    for load in (load_timeseries, timeseries._load_streaming):
        ts = load(str(p), 200.0)
        assert list(ts.values) == [1.5, 2.5, 3.5]
        assert ts.t0_s == 0.0


def test_utf8_byte_order_mark_in_events(tmp_path):
    p = tmp_path / "events.csv"
    p.write_bytes(b"\xef\xbb\xbf400.0\n850.0\n")
    assert list(load_events(str(p)).event_times_s) == [400.0, 850.0]


# -- fast read against the streaming reader ----------------------------------

FS = 200.0
# lines a file may carry besides its data rows; each one the streaming
# reader skips, takes for the header, or rejects
ODD_LINES = [
    "", "   ", "\t", "# part=2", "#", "timestamp_s,amplitude", "amplitude",
    "1_0", "1,2 # c", "0.25", "0.0,1.0,2.0", "x,y",
]
ODD_CELLS = ["nan", "-inf", "inf", "1e999", "1_0", "2 # c", " 3.5 ", "", "+1", ".5", "-0.0", "x"]


@st.composite
def series_files(draw):
    """Bytes of a signal file: mostly well formed, with a few edits that may break it."""
    width = draw(st.sampled_from([1, 2]))
    t0 = draw(st.sampled_from([0.0, 123.456, 1.5e9]))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    times = t0 + np.arange(len(values)) / FS
    rows = [[repr(float(t)), repr(v)][2 - width:] for t, v in zip(times, values)]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "gap", "width"]))
        if kind == "cell":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "gap" and width == 2:
            rows[i][0] = repr(float(times[i]) + draw(st.sampled_from([5e-7, 2e-6, 1.0])))
        elif kind == "width":
            rows[i] = rows[i][:1] if width == 2 else rows[i] + ["0.0"]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
    header = draw(st.sampled_from([[], ["timestamp_s,amplitude"], ["amplitude"]]))
    comments = draw(st.lists(st.sampled_from(["# seed=42", "", "#x=1 y=2"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(comments + header + lines)
    if text and draw(st.booleans()):
        text += newline
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode()


def _outcome(load, path):
    """What a load gives, compared bit for bit: the samples and t0, or the error text."""
    try:
        ts = load(path, FS)
    except DataError as exc:
        return "error", str(exc)
    return "ok", ts.values.tobytes(), struct.pack("<d", ts.t0_s)


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=series_files())
def test_fast_read_matches_the_streaming_reader(tmp_path, data):
    p = tmp_path / "sig.csv"
    p.write_bytes(data)
    assert _outcome(load_timeseries, str(p)) == _outcome(timeseries._load_streaming, str(p))


# -- labeling -----------------------------------------------------------------

def classes_at(times_s, events, policy, fs=200.0):
    """`sample_classes` of an fs grid starting 1 s before the earliest time, read at each time."""
    t0 = min(times_s) - 1.0
    n = int(round((max(times_s) - t0) * fs)) + 1
    cls = sample_classes(make_ts(n, fs=fs, t0=t0), events, policy)
    return [int(cls[int(round((t - t0) * fs))]) for t in times_s]


def test_sample_classes_paper_offsets():
    events = EventLog(np.array([10000.0]))
    # 140 s before: precursor; 240 s and 600 s before: beyond 3 min; 30 s after: eruption
    assert classes_at([9860.0, 9760.0, 9400.0, 10030.0], events, POLICY) == [
        CLASS_PRECURSOR, CLASS_FAR, CLASS_FAR, CLASS_ERUPTION,
    ]


def test_sample_classes_boundaries():
    events = EventLog(np.array([1000.0]))
    times = [820.0, 819.995, 1000.0, 999.995, 1120.0, 1119.995]
    assert classes_at(times, events, POLICY) == [
        CLASS_PRECURSOR, CLASS_FAR, CLASS_ERUPTION, CLASS_PRECURSOR, CLASS_FAR, CLASS_ERUPTION,
    ]


def test_sample_classes_gap_policy():
    """class2_end_s > 0 reopens the unlabeled gap right before the onset."""
    gap = LabelPolicy(class2_end_s=60.0)
    events = EventLog(np.array([1000.0]))
    assert classes_at([970.0, 939.995, 940.0], events, gap) == [
        CLASS_FAR, CLASS_PRECURSOR, CLASS_FAR,
    ]


def test_sample_classes_no_events_is_quiet():
    assert np.all(sample_classes(make_ts(2000, t0=5.0), EventLog(np.array([])), POLICY) == CLASS_FAR)


def test_labeling_partition_on_dense_grid():
    """Every timestamp gets exactly one class and intervals have exact extents."""
    events = EventLog(np.array([400.0, 850.0]))
    ts = make_ts(1200 * 200, fs=200.0)
    cls = sample_classes(ts, events, POLICY)
    assert set(np.unique(cls)) == {CLASS_FAR, CLASS_PRECURSOR, CLASS_ERUPTION}
    assert int(np.sum(cls == CLASS_ERUPTION)) == 2 * 120 * 200
    assert int(np.sum(cls == CLASS_PRECURSOR)) == 2 * 180 * 200


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


def test_label_windows_see_a_later_events_precursor():
    """Class-2 is [e - class2_start_s, e - class2_end_s) for any event e, not
    only the next one: the 130 s event's span [70, 110) covers both windows
    ending before the 100 s onset, past the 100 s event's own span [40, 80)."""
    policy = LabelPolicy(class2_start_s=60.0, class2_end_s=20.0, class3_len_s=10.0)
    events = EventLog(np.array([100.0, 130.0]))
    windows = slice_windows(make_ts(200, fs=1.0), 10.0, 10.0)
    for rule in ("window-end-time", "majority-sample"):
        labeled = label_windows(windows, events, dataclasses.replace(policy, window_label_rule=rule))
        assert [w.start_s for w in labeled[8:10]] == [80.0, 90.0]
        assert [w.label for w in labeled[8:10]] == [CLASS_PRECURSOR, CLASS_PRECURSOR]


@st.composite
def labeling_cases(draw):
    """A series, events and policy whose every boundary sits on a quarter-sample
    grid from t0: a boundary is on a sample or 1/(4 fs) s off it, never within
    the 1 us guard of one, so window and series clocks cannot round apart."""
    fs = draw(st.sampled_from([1.0, 2.5, 7.5, 10.0, 200.0]))
    t0 = draw(st.sampled_from([0.0, 0.1, 1.5e9, 1.7e9 + 0.25]))
    n = draw(st.integers(8, 240))
    quarter = 1.0 / (4.0 * fs)
    start_q = draw(st.integers(1, 160))
    end_q = draw(st.integers(0, start_q - 1))
    policy = LabelPolicy(
        class2_start_s=start_q * quarter,
        class2_end_s=end_q * quarter,
        class3_len_s=draw(st.integers(1, 160)) * quarter,
    )
    onsets = draw(st.lists(st.integers(-160, 4 * n + 160), max_size=6, unique=True))
    events = EventLog(np.array([t0 + q * quarter for q in sorted(onsets)]))
    wlen = draw(st.integers(1, n))
    stride = draw(st.integers(1, 2 * wlen))
    return TimeSeries(np.zeros(n), fs, t0), events, policy, wlen, stride


@settings(max_examples=300, deadline=None)
@given(case=labeling_cases())
def test_window_labels_read_the_series_classes(case):
    ts, events, policy, wlen, stride = case
    parent = sample_classes(ts, events, policy)
    windows = slice_windows(ts, wlen / ts.fs_hz, stride / ts.fs_hz)
    starts = range(0, len(ts) - wlen + 1, stride)
    assert len(windows) == len(starts)
    end_rule = label_windows(windows, events, policy)
    majority = label_windows(
        windows, events, dataclasses.replace(policy, window_label_rule="majority-sample")
    )
    for s, end_w, major_w in zip(starts, end_rule, majority):
        span = parent[s : s + wlen]
        assert end_w.label == span[-1]
        assert major_w.label == int(np.argmax(np.bincount(span, minlength=4)[1:])) + 1


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


def test_comments_only_events_file_is_zero_events(tmp_path):
    # what `synth.event_times_s =` (no events) writes
    p = tmp_path / "events.csv"
    save_events(EventLog(np.empty(0)), str(p), header_comments=["seed=1"])
    assert p.read_text() == "# seed=1\n"
    assert load_events(str(p)).event_times_s.size == 0
