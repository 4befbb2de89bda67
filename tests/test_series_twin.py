"""The binary copy beside each series table (`<stem>.f8`) against the
streaming reader.

A load through a copy must give the bits the table parses to, and its t0.
A copy that cannot stand in for its table (the table changed, the copy
gone, cut, garbled or from another run, or its timestamps off the reader's
grid) must leave the load to the text, with the text's value or its exact
error.
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geyserstate import artifacts, timeseries
from geyserstate.artifacts import twin_path, write_tables
from geyserstate.cli import main
from geyserstate.errors import DataError
from geyserstate.timeseries import TimeSeries, load_timeseries, save_timeseries, series_table

TINY_CFG = os.path.join(os.path.dirname(__file__), "tiny.cfg")
DEFAULT_BLOCK_BYTES = artifacts._BLOCK_BYTES


def _outcome(load, path, fs_hz):
    """What a load gives, compared bit for bit: the samples as int64 and the
    bits of t0, or the error text."""
    try:
        ts = load(path, fs_hz)
    except DataError as exc:
        return "error", str(exc)
    return "ok", ts.values.view(np.int64).tolist(), struct.pack("<d", ts.t0_s)


def _forbid_parsing(monkeypatch):
    """From here on a load that parses its table fails the test."""
    def parsed(path, *args):
        raise AssertionError(f"{path} was parsed, not read through its copy")

    monkeypatch.setattr(timeseries, "read_numeric", parsed)
    monkeypatch.setattr(timeseries, "_load_streaming", parsed)


# -- a load through the copy gives the streamed bits ---------------------------


@pytest.mark.parametrize("seed", ["1", "3"])
def test_every_series_file_the_commands_write_loads_through_its_copy(tmp_path, monkeypatch, seed):
    staged, compared = str(tmp_path / "staged"), str(tmp_path / "compared")
    for command in ("synth", "filter"):
        assert main([command, "--config", TINY_CFG, "--out", staged, "--seed", seed]) == 0
    assert main(["pipeline", "--compare", "--config", TINY_CFG, "--out", compared,
                 "--seed", seed]) == 0
    for out in (staged, compared):
        assert sorted(n for n in os.listdir(out) if n.endswith(".f8")) == [
            "bh.f8", "pef.f8", "signal.f8"
        ]
    paths = [os.path.join(out, name)
             for out in (staged, compared) for name in ("signal.csv", "bh.csv", "pef.csv")]
    want = [_outcome(timeseries._load_streaming, path, 50.0) for path in paths]
    _forbid_parsing(monkeypatch)
    for path, streamed in zip(paths, want):
        assert streamed[0] == "ok"
        assert _outcome(load_timeseries, path, 50.0) == streamed, path


# values whose text is hard to get right: signed zeros, subnormals, the ends
# of the range and 17-digit values
HARD_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
    1.7976931348623157e308, 0.30000000000000004, 1.2345678901234567e-05,
    -9.876543210987654e+100,
]


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(HARD_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=40,
    ),
    # 1.7e9: epoch seconds, where a grid gap is off 1/fs by up to 2.4e-7 s
    t0=st.sampled_from([0.0, -0.0, 123.456, 1.7e9, 1.7e9 + 0.1]),
    fs_hz=st.sampled_from([50.0, 200.0, 1000.0]),
    block_rows=st.sampled_from([1, 3, 8, None]),
)
def test_a_drawn_series_loads_through_its_copy_with_the_streamed_bits(
    tmp_path, monkeypatch, values, t0, fs_hz, block_rows
):
    """Small blocks put block seams inside the drawn series."""
    monkeypatch.setattr(artifacts, "_BLOCK_BYTES", 8 * block_rows if block_rows
                        else DEFAULT_BLOCK_BYTES)
    path = str(tmp_path / "sig.csv")
    save_timeseries(TimeSeries(np.array(values), fs_hz, t0), path, ["seed=5"])
    streamed = _outcome(timeseries._load_streaming, path, fs_hz)
    assert streamed[0] == "ok"
    with monkeypatch.context() as patch:
        _forbid_parsing(patch)
        assert _outcome(load_timeseries, path, fs_hz) == streamed


# -- a copy that cannot stand in leaves the load to the text ----------------------


def _flip_last_digit(data):
    """The table's last amplitude with its last digit changed."""
    last = data[-2:-1]
    return data[:-2] + str((int(last) + 1) % 10).encode() + b"\n"


SPOILS = {
    "table changed by one digit": ("csv", _flip_last_digit),
    "table cut inside its last number": ("csv", lambda data: data[:-3]),
    "byte-order mark before the table": ("csv", lambda data: b"\xef\xbb\xbf" + data),
    "copy cut short": ("copy", lambda data: data[:-8]),
    "copy cut inside its header": ("copy", lambda data: data[:20]),
    "copy header garbled": ("copy", lambda data: data.replace(b"twin v1", b"twin v9", 1)),
    "copy rows garbled": ("copy", lambda data: data.replace(b" rows=", b" rows=1", 1)),
}


def _written_pair(tmp_path, seed=3):
    """A 50-row table at 200 Hz and its copy, as `save_timeseries` writes them."""
    ts = TimeSeries(np.random.default_rng(seed).normal(size=50) * 1e4, 200.0, 123.456)
    path = str(tmp_path / "sig.csv")
    save_timeseries(ts, path, ["seed=3"])
    assert os.path.exists(twin_path(path))
    return path


@pytest.mark.parametrize("spoil", list(SPOILS))
def test_a_spoiled_table_or_copy_gives_the_text_value(tmp_path, spoil):
    path = _written_pair(tmp_path)
    side, edit = SPOILS[spoil]
    target = path if side == "csv" else twin_path(path)
    with open(target, "rb") as fh:
        data = fh.read()
    with open(target, "wb") as fh:
        fh.write(edit(data))
    streamed = _outcome(timeseries._load_streaming, path, 200.0)
    assert _outcome(load_timeseries, path, 200.0) == streamed


def test_a_deleted_copy_gives_the_text_value(tmp_path):
    path = _written_pair(tmp_path)
    os.remove(twin_path(path))
    assert _outcome(load_timeseries, path, 200.0) == _outcome(
        timeseries._load_streaming, path, 200.0)


def test_a_copy_from_another_run_gives_the_text_value(tmp_path):
    path = _written_pair(tmp_path)
    (tmp_path / "other").mkdir()
    other = _written_pair(tmp_path / "other", seed=4)
    os.replace(twin_path(other), twin_path(path))
    streamed = _outcome(timeseries._load_streaming, path, 200.0)
    assert streamed != _outcome(timeseries._load_streaming, other, 200.0)
    assert _outcome(load_timeseries, path, 200.0) == streamed


def test_a_reader_rate_off_the_grid_gives_the_spacing_error(tmp_path):
    path = _written_pair(tmp_path)
    got = _outcome(load_timeseries, path, 100.0)
    assert got == ("error", f"malformed {path}: non-uniform spacing at line 4")
    assert got == _outcome(timeseries._load_streaming, path, 100.0)


@pytest.mark.parametrize(
    "row, column, value",
    [
        (3, 0, 0.5), (4, 0, 0.5), (5, 0, 0.5), (11, 0, 0.5),
        (3, 0, np.nan), (4, 0, np.inf), (0, 0, -np.inf),
        (4, 1, np.nan), (11, 1, -np.inf),
    ],
)
def test_a_fault_at_a_block_seam_gives_the_text_error(tmp_path, monkeypatch, row, column, value):
    """Blocks of 4 timestamps: rows 3 and 4 sit on each side of the first
    seam, and 11 is the last row.  A step in the grid from `row` on (so
    that only the gap into `row` is off), a non-finite timestamp, or a
    non-finite amplitude, that the write pass saved in both the table and
    its copy gives the streaming reader's error."""
    monkeypatch.setattr(artifacts, "_BLOCK_BYTES", 32)
    grid = 10.0 + np.arange(12) / 200.0
    values = np.linspace(-1.0, 1.0, 12)
    (grid, values)[column][row:] += value
    path = str(tmp_path / "sig.csv")
    write_tables([series_table(path, ["seed=3"], grid, values)])
    assert os.path.exists(twin_path(path))
    streamed = _outcome(timeseries._load_streaming, path, 200.0)
    assert streamed[0] == "error"
    assert _outcome(load_timeseries, path, 200.0) == streamed


def test_a_table_named_like_a_copy_has_no_copy(tmp_path):
    """A signal saved as `<name>.f8` (paths.signal may name any file) is the
    text table itself, with no copy written over it."""
    ts = TimeSeries(np.arange(5.0), 200.0, 1.5)
    path = str(tmp_path / "sig.f8")
    save_timeseries(ts, path)
    assert os.listdir(tmp_path) == ["sig.f8"]
    assert twin_path(path) is None
    assert _outcome(load_timeseries, path, 200.0) == _outcome(
        timeseries._load_streaming, path, 200.0)
