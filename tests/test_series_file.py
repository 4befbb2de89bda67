"""The binary series file (`<stem>.f8`) that the series stages write and read.

A save writes one header line, which holds the series' clock (its first
timestamp and its rate), and then the amplitudes, float64 bit for bit; a
load gives the series back or, for any fault, a DataError naming the file.
A `.csv` path that does not exist reads the series file of its stem, and
the ground-truth classes are the runs of `sample_classes`.
"""

import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geyserstate.artifacts import read_artifact, write_series
from geyserstate.cli import main
from geyserstate.config import label_policy, load_config, synth_config
from geyserstate.errors import DataError
from geyserstate.synth import generate
from geyserstate.timeseries import (
    TimeSeries,
    _index_range,
    load_events,
    load_timeseries,
    sample_classes,
    save_timeseries,
)

HERE = os.path.dirname(__file__)
TINY_CFG = os.path.join(HERE, "tiny.cfg")
BENCH_CFG = os.path.join(HERE, os.pardir, "bench", "default.cfg")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _bits(ts):
    """A series compared bit for bit: its samples as int64, and t0 (its grid's
    first timestamp, so a t0 of -0.0 saves as the 0.0 of -0.0 + 0 / fs_hz)."""
    return ts.values.view(np.int64).tolist(), ts.t0_s


def _parts(data):
    """The header line and the amplitudes of a series file's bytes, read
    apart from the library."""
    header = data[:data.index(b"\n") + 1]
    return header, np.frombuffer(data[len(header):], dtype="<f8")


# -- a save and a load round-trip bit for bit -------------------------------------


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
    t0=st.sampled_from([0.0, -0.0, 123.456, 1.7e9, 1.7e9 + 0.1]),
    fs_hz=st.sampled_from([50.0, 200.0, 1000.0, 1 / 3]),
    # the seed comment is the writer's: a caller's file may go without it
    comments=st.sampled_from([[], ["seed=5"]]),
)
def test_a_drawn_series_round_trips_bit_for_bit(tmp_path, values, t0, fs_hz, comments):
    ts = TimeSeries(np.array(values), fs_hz, t0)
    path = str(tmp_path / "sig.f8")
    save_timeseries(ts, path, comments)
    header, saved = _parts(read(path))
    assert header == " ".join(
        [f"# series v3 rows={len(ts)} t0={ts.time_of(0)!r} fs={fs_hz!r}", *comments]
    ).encode() + b"\n"
    assert saved.tobytes() == ts.values.tobytes()
    loaded = load_timeseries(path, fs_hz)
    assert _bits(loaded) == _bits(ts)
    assert loaded.timestamps().tobytes() == ts.timestamps().tobytes()


def _text_table(path, ts, seed):
    """The text table a series command wrote before series files: a seed
    comment, a `timestamp_s,amplitude` header, then each timestamp of the
    grid and each amplitude by `repr`."""
    rows = "".join(f"{t!r},{v!r}\n" for t, v in zip(ts.timestamps().tolist(), ts.values.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seed={seed}\ntimestamp_s,amplitude\n" + rows)


@pytest.mark.parametrize("seed", ["1", "3"])
def test_every_series_the_commands_write_loads_as_its_text_table_parses(tmp_path, seed):
    """signal, bh and pef of the staged commands and of `pipeline --compare`
    hold the configured clock and the amplitudes that load, bit for bit,
    which are the ones `load_timeseries` parses from their text, and
    `<out>/pef.csv`, which does not exist, reads `pef.f8`."""
    staged, compared = str(tmp_path / "staged"), str(tmp_path / "compared")
    for command in ("synth", "filter"):
        assert main([command, "--config", TINY_CFG, "--out", staged, "--seed", seed]) == 0
    assert main(["pipeline", "--compare", "--config", TINY_CFG, "--out", compared,
                 "--seed", seed]) == 0
    for out in (staged, compared):
        assert sorted(n for n in os.listdir(out) if n.startswith(("signal", "bh", "pef"))) == [
            "bh.f8", "pef.f8", "signal.f8"]
        for name in ("signal", "bh", "pef"):
            path = os.path.join(out, name + ".f8")
            header, saved = _parts(read(path))
            assert header == f"# series v3 rows=12000 t0=0.0 fs=50.0 seed={seed}\n".encode()
            loaded = load_timeseries(path, 50.0)
            assert saved.tobytes() == loaded.values.tobytes()
            text = str(tmp_path / "text.csv")
            _text_table(text, loaded, seed)
            assert _bits(loaded) == _bits(load_timeseries(text, 50.0)), path
        alias = load_timeseries(os.path.join(out, "pef.csv"), 50.0)
        assert _bits(alias) == _bits(load_timeseries(os.path.join(out, "pef.f8"), 50.0))


def test_the_staged_signal_is_the_generated_one(tmp_path):
    """synth saves the generator's series itself, not a rounded copy."""
    out = str(tmp_path / "o")
    assert main(["synth", "--config", TINY_CFG, "--out", out, "--seed", "3"]) == 0
    want, _ = generate(synth_config(load_config(TINY_CFG), 3))
    assert _bits(load_timeseries(os.path.join(out, "signal.f8"), 50.0)) == _bits(want)


# -- which file a path reads, and which a save removes ----------------------------


def _series(n=50, seed=3, t0=123.456):
    return TimeSeries(np.random.default_rng(seed).normal(size=n) * 1e4, 200.0, t0)


def test_a_missing_csv_path_reads_the_series_file_of_its_stem(tmp_path):
    ts = _series()
    save_timeseries(ts, str(tmp_path / "pef.f8"), ["seed=3"])
    assert os.listdir(tmp_path) == ["pef.f8"]
    assert _bits(load_timeseries(str(tmp_path / "pef.csv"), 200.0)) == _bits(ts)
    # a text table at the .csv path is the caller's, and is what loads
    (tmp_path / "pef.csv").write_text("0.0,7.0\n0.005,8.0\n")
    assert load_timeseries(str(tmp_path / "pef.csv"), 200.0).values.tolist() == [7.0, 8.0]
    # only a .csv path stands for its stem's series file
    with pytest.raises(DataError, match=r"cannot read .*pef\.txt: "):
        load_timeseries(str(tmp_path / "pef.txt"), 200.0)


def test_a_save_removes_the_older_text_of_its_stem(tmp_path):
    """A series saved for `sig.csv` goes to `sig.f8`, and a `sig.csv` left by
    an older run goes, so that no older text loads in its place."""
    (tmp_path / "sig.csv").write_text("0.0,7.0\n0.005,8.0\n")
    ts = _series()
    save_timeseries(ts, str(tmp_path / "sig.csv"), ["seed=3"])
    assert os.listdir(tmp_path) == ["sig.f8"]
    assert _bits(load_timeseries(str(tmp_path / "sig.csv"), 200.0)) == _bits(ts)


def test_a_comment_that_does_not_fit_the_header_writes_nothing(tmp_path):
    for comments in (["seed 3"], ["seed=3\n"], ["x=" + "1" * 2000]):
        with pytest.raises(ValueError, match="do not fit a series header"):
            save_timeseries(_series(), str(tmp_path / "sig.f8"), comments)
    assert not any(tmp_path.iterdir())


def test_an_unwritable_series_file_is_a_data_error_naming_it(tmp_path):
    (tmp_path / "sig.f8").mkdir()
    with pytest.raises(DataError, match=r"cannot write .*sig\.f8: "):
        write_series(str(tmp_path / "sig.f8"), [], 0.0, 200.0, np.zeros(3))
    assert (tmp_path / "sig.f8").is_dir()


def test_a_write_that_fails_after_the_header_leaves_no_file(tmp_path):
    with pytest.raises(ValueError):
        write_series(str(tmp_path / "sig.f8"), [], 0.0, 200.0, ["x", "y", "z"])
    assert not any(tmp_path.iterdir())


# -- every fault of a series file is a DataError naming it ------------------------


def _set(key, value):
    """The edit that sets the header's `key` token to `value`."""
    def edit(data):
        header, values = _parts(data)
        return re.sub(rb" %s=\S*" % key, b" %s=%s" % (key, value), header, 1) + values.tobytes()
    return edit


def _v2(data):
    """The file as an older run wrote it: a `# series v2 rows=<n>` header,
    then the time grid and the amplitudes."""
    header, values = _parts(data)
    t0, fs_hz = map(float, re.search(rb" t0=(\S+) fs=(\S+)", header).groups())
    grid = np.arange(values.size) / fs_hz + t0
    return b"# series v2 rows=%d seed=3\n" % values.size + grid.tobytes() + values.tobytes()


def _amplitude(row, value):
    """The edit that sets the amplitude at `row` (of the rows: n) to `value`."""
    def edit(data):
        header, values = _parts(data)
        values = values.copy()
        values[row(values.size)] = value
        return header + values.tobytes()
    return edit


HEADER_LINE = r"no `# series v3 rows=<n> t0=<t0> fs=<fs>` header line"
SIZE = r"\d+ bytes where \d+ rows take \d+"

# fault: (edit of the file's bytes, the error's text after the file name)
# for a file of 50 rows at 200 Hz read at 200 Hz
FILE_FAULTS = {
    "cut-inside-the-amplitudes": (lambda data: data[:-4], SIZE),
    "cut-inside-the-header": (lambda data: data[:12], HEADER_LINE),
    "garbled-header": (lambda data: data.replace(b" t0=", b" t1=", 1), HEADER_LINE),
    # the header of the binary copies once kept beside text tables
    "twin-header": (lambda data: b"# series-twin v1 csv_sha256=%s rows=%d\n" % (
        b"0" * 64, _parts(data)[1].size) + _parts(data)[1].tobytes(), HEADER_LINE),
    "v2-header": (_v2, HEADER_LINE),
    "rows-0": (_set(b"rows", b"0"), "no rows"),
    "rows-one-more": (lambda data: _set(b"rows", b"%d" % (_parts(data)[1].size + 1))(data), SIZE),
    "one-byte-more": (lambda data: data + b"\0", SIZE),
    # the one timestamp the file holds, the first, is NaN
    "nan-timestamp": (_set(b"t0", b"nan"), "non-finite t0 nan"),
    "fs-0": (_set(b"fs", b"0.0"), "rate 0.0 is not finite and positive"),
    "fs-inf": (_set(b"fs", b"inf"), "rate inf is not finite and positive"),
    # samples spaced 1/100 s apart where the reader's rate spaces them 1/200 s
    "off-spacing": (_set(b"fs", b"100.0"), r"sampled at 100\.0 Hz, not 200\.0 Hz"),
    "nan-amplitude": (_amplitude(lambda n: n // 2, np.nan), "non-finite amplitude at sample 25"),
    "inf-last-amplitude": (_amplitude(lambda n: n - 1, -np.inf),
                           "non-finite amplitude at sample 49"),
}


def _damage(path, fault):
    """Edit the file at `path` by `fault`; returns the fault's error text."""
    edit, detail = FILE_FAULTS[fault]
    damaged = edit(read(path))
    with open(path, "wb") as fh:
        fh.write(damaged)
    return detail


@pytest.mark.parametrize("fault", list(FILE_FAULTS))
def test_a_damaged_series_file_is_a_data_error_naming_it(tmp_path, fault):
    path = str(tmp_path / "sig.f8")
    save_timeseries(_series(), path, ["seed=3"])
    detail = _damage(path, fault)
    with pytest.raises(DataError, match=rf"^malformed {re.escape(path)}: {detail}$"):
        load_timeseries(path, 200.0)


# the faults of the series a command reads: the file faults above, where the
# command's rate is the configured 50 Hz and `off-spacing` writes 100 Hz
COMMAND_SERIES = {"train": "pef", "classify": "pef", "eval": "pef", "filter": "signal"}


@pytest.fixture(scope="module")
def classified(tmp_path_factory):
    """One tiny-config run through classify."""
    out = str(tmp_path_factory.mktemp("classified") / "o")
    for command in ("synth", "filter", "train", "classify"):
        assert main([command, "--config", TINY_CFG, "--out", out]) == 0
    return out


@pytest.mark.parametrize("fault", list(FILE_FAULTS))
@pytest.mark.parametrize("command", list(COMMAND_SERIES))
def test_a_damaged_series_exits_3_naming_the_file(
    classified, tmp_path, capsys, command, fault
):
    """filter reads the signal through `paths.signal` set to its series file."""
    out = str(tmp_path / "o")
    shutil.copytree(classified, out)
    path = os.path.join(out, COMMAND_SERIES[command] + ".f8")
    cfg = tmp_path / "given.cfg"
    cfg.write_text(read(TINY_CFG).decode() + f"paths.signal = {os.path.join(out, 'signal.f8')}\n")
    _damage(path, fault)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"{path}:" in err and "Traceback" not in err


# -- the ground-truth classes ------------------------------------------------------


@pytest.mark.parametrize(
    "cfg, seed, rows",
    [(TINY_CFG, 1, 7), (TINY_CFG, 3, 7), (BENCH_CFG, 42, 19)],
    ids=["tiny-1", "tiny-3", "default-42"],
)
def test_the_class_rows_rebuild_sample_classes(tmp_path, cfg, seed, rows):
    """classes.csv holds one row per run of equal classes; painting each
    row's samples (`_index_range` of its start and end) gives
    `sample_classes` of the signal exactly."""
    out = str(tmp_path / "o")
    assert main(["synth", "--config", cfg, "--out", out, "--seed", str(seed)]) == 0
    values = load_config(cfg)
    ts = load_timeseries(os.path.join(out, "signal.f8"), values["synth.fs_hz"])
    events = load_events(os.path.join(out, "events.csv"))
    with read_artifact(os.path.join(out, "classes.csv"), header=True) as art:
        starts, ends, classes = art.columns(float, float, int)
    assert art.header == ["start_s", "end_s", "class"]
    assert art.meta == {"seed": str(seed)}
    assert len(classes) == rows
    assert np.all(classes[1:] != classes[:-1])
    assert np.array_equal(starts[1:], ends[:-1])
    rebuilt = np.zeros(len(ts), dtype=np.int8)
    for start, end, cls in zip(starts, ends, classes):
        lo, hi = _index_range(ts, start, end)
        assert lo < hi and not rebuilt[lo:hi].any()
        rebuilt[lo:hi] = cls
    assert np.array_equal(rebuilt, sample_classes(ts, events, label_policy(values)))
