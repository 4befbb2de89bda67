"""Command-line contract tests plus the end-to-end acceptance run.

Most tests run on a deliberately tiny config so the whole file stays fast;
the module-scoped `compare_runs` fixture executes the full default
`pipeline --compare` twice and backs the ordering and determinism checks.
"""

import collections
import filecmp
import importlib.util
import logging
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from geyserstate import artifacts, cli, timeseries
from geyserstate.cli import _stage, main
from geyserstate.config import label_policy, load_config

# the tests' tiny config, one copy shared with the CI console-script step
with open(os.path.join(os.path.dirname(__file__), "tiny.cfg"), encoding="utf-8") as _fh:
    TINY_CFG = _fh.read()
# the line of a value appended to the tiny config
EXTRA_LINE = TINY_CFG.count("\n") + 1


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- synth -------------------------------------------------------------------------


def test_synth_deterministic_and_seed_in_header(tiny_cfg, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("synth", "--config", tiny_cfg, "--out", d1, "--seed", "9") == 0
    assert run("synth", "--config", tiny_cfg, "--seed", "9", "--out", d2) == 0
    for name in ("signal.f8", "events.csv", "classes.csv"):
        assert read(os.path.join(d1, name)) == read(os.path.join(d2, name))
    assert read(os.path.join(d1, "signal.f8")).startswith(
        b"# series v3 rows=12000 t0=0.0 fs=50.0 seed=9\n")
    assert read(os.path.join(d1, "classes.csv")).startswith(b"# seed=9\n")


@pytest.mark.parametrize("key", ["paths.signal", "paths.events"])
def test_synth_leaves_the_callers_data_untouched(tmp_path, capsys, key):
    """A path key naming the caller's file exits 2 before synth writes: it
    wrote `<stem>.f8` beside a caller's signal table and removed the table,
    and it overwrote a caller's events file."""
    mine = tmp_path / "mydata.csv"
    mine.write_bytes(b"0.0,1.0\n0.02,2.0\n")
    cfg = tmp_path / "given.cfg"
    cfg.write_text(TINY_CFG + f"{key} = {mine}\n")
    out = tmp_path / "out"
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 2
    assert f"error: stage synth: {key} = {mine} names the caller's data" in capsys.readouterr().err
    assert mine.read_bytes() == b"0.0,1.0\n0.02,2.0\n"
    assert os.listdir(out) == []
    assert sorted(os.listdir(tmp_path)) == ["given.cfg", "mydata.csv", "out"]


def test_synth_creates_missing_out_dir(tiny_cfg, tmp_path):
    nested = str(tmp_path / "deep" / "er")
    assert run("synth", "--config", tiny_cfg, "--out", nested) == 0
    assert os.path.exists(os.path.join(nested, "signal.f8"))


def test_an_out_dir_that_is_a_file_exits_3_naming_it(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("")
    assert run("synth", "--config", tiny_cfg, "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot create directory {out}: ")


def test_synth_classes_follow_the_pre_onset_gap(tmp_path):
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(TINY_CFG + "labels.class2_end_s = 5\n")
    out = str(tmp_path / "o")
    assert run("synth", "--config", str(cfg), "--out", out) == 0
    values = load_config(str(cfg))
    ts = timeseries.load_timeseries(os.path.join(out, "signal.f8"), values["synth.fs_hz"])
    events = timeseries.load_events(os.path.join(out, "events.csv"))
    written = np.loadtxt(os.path.join(out, "classes.csv"), delimiter=",", skiprows=2)
    expected = timeseries.sample_classes(ts, events, label_policy(values))
    rebuilt = np.zeros_like(expected)
    for start, end, cls in written:
        lo, hi = timeseries._index_range(ts, start, end)
        rebuilt[lo:hi] = cls
    assert np.array_equal(rebuilt, expected)
    # 95.0 to 99.98 s, the 5 s before the onset at 100 s, is class 1
    assert [70.0, 95.0, 2] in written.tolist() and [95.0, 100.0, 1] in written.tolist()


def test_synth_nonstationary_ambient_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "synth.ar_a1 = 1.2\nsynth.ar_a2 = -0.1\n")
    code = run("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code != 0
    assert "non-stationary" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_a_duration_beyond_memory_exits_2_naming_the_keys(tmp_path, capsys, command):
    """5e16 samples: numpy refuses the first layer's array before it
    allocates anything, and the run stops at a config error, not a
    MemoryError traceback."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(TINY_CFG + "synth.duration_s = 1e15\n")
    out = tmp_path / "o"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "synth.duration_s = 1e+15 at synth.fs_hz = 50 gives 50000000000000000 samples" in err
    assert "Traceback" not in err
    assert not (out / "signal.f8").exists()


@pytest.mark.parametrize(
    "line, named",
    [
        # rng.poisson refused a negative rate with a ValueError traceback
        ("synth.burst_rate_per_hour = -1", ["synth.burst_rate_per_hour"]),
        # a zero period made every seasonal sample non-finite
        ("synth.seasonal_period_s = 0", ["synth.seasonal_period_s"]),
        # _bursts looped once per synthetic day: 2.4e11 of them
        ("synth.day_period_s = 1e-9", ["synth.day_period_s", "synth.fs_hz"]),
        # a layer phase that overflows made that layer's samples non-finite
        ("synth.seasonal_period_s = 1e-320", ["synth.seasonal_period_s", "synth.duration_s"]),
        ("synth.chirp_f1_hz = 1e308", ["synth.chirp_f1_hz", "synth.precursor_lead_s"]),
        ("synth.eruption_tone_hz = 1e308", ["synth.eruption_tone_hz", "synth.eruption_len_s"]),
        ("synth.burst_freq_hi_hz = 1e308", ["synth.burst_freq_hi_hz", "synth.burst_dur_hi_s"]),
    ],
    ids=["negative-burst-rate", "zero-seasonal-period", "day-shorter-than-a-sample",
         "subnormal-seasonal-period", "overflowing-chirp", "overflowing-tone",
         "overflowing-burst"],
)
@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_a_synth_value_that_breaks_generation_exits_2_naming_the_key(
    tmp_path, capsys, command, line, named
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + line + "\n")
    out = tmp_path / "o"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in named), err
    assert "Traceback" not in err
    assert not (out / "signal.f8").exists()


# -- filter ------------------------------------------------------------------------


def _synth_and_filter(tiny_cfg, out, *extra):
    assert run("synth", "--config", tiny_cfg, "--out", out) == 0
    return run("filter", "--config", tiny_cfg, "--out", out, *extra)


def test_filter_writes_chain(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out) == 0
    for name in ("bh.f8", "ar_model.txt", "pef.f8"):
        assert os.path.exists(os.path.join(out, name))
    assert "R2=" in capsys.readouterr().out


def test_series_files_the_chain_writes_take_the_fast_read(tiny_cfg, tmp_path, monkeypatch):
    """signal.f8, bh.f8 and pef.f8 load as series files: neither text reader
    runs."""
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out) == 0

    def parsed(path, *args):
        raise AssertionError(f"{path} was parsed as text")

    monkeypatch.setattr(timeseries, "read_numeric", parsed)
    monkeypatch.setattr(timeseries, "_load_streaming", parsed)
    for name in ("signal.f8", "bh.f8", "pef.f8"):
        assert len(timeseries.load_timeseries(os.path.join(out, name), 50.0)) == 240 * 50


def test_filter_skip_pef(tiny_cfg, tmp_path):
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out, "--skip-pef") == 0
    assert os.path.exists(os.path.join(out, "bh.f8"))
    assert not os.path.exists(os.path.join(out, "pef.f8"))
    assert not os.path.exists(os.path.join(out, "ar_model.txt"))


def test_filter_skip_pef_removes_an_earlier_residual(tmp_path, capsys):
    """A residual and AR model of an earlier seed do not outlive a
    `--skip-pef` run, text left by an older version included: train then
    has no input, where it used to fit the old residual and exit 0."""
    cfg = os.path.join(os.path.dirname(__file__), "tiny.cfg")
    out = str(tmp_path / "o")
    for command in ("synth", "filter"):
        assert run(command, "--config", cfg, "--out", out, "--seed", "1") == 0
    with open(os.path.join(out, "pef.csv"), "w", encoding="utf-8") as fh:
        fh.write("# seed=1\ntimestamp_s,amplitude\n0.0,1.0\n")
    assert run("synth", "--config", cfg, "--out", out, "--seed", "2") == 0
    assert run("filter", "--config", cfg, "--out", out, "--seed", "2", "--skip-pef") == 0
    for name in ("pef.f8", "pef.csv", "ar_model.txt"):
        assert not os.path.exists(os.path.join(out, name)), name
    capsys.readouterr()
    assert run("train", "--config", cfg, "--out", out, "--seed", "2") == 3
    err = capsys.readouterr().err
    assert f"input signal {os.path.join(out, 'pef.f8')} not found; run the filter stage first" in err


def test_filter_corner_at_nyquist_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "filter.corner_hz = 25\n")
    out = str(tmp_path / "o")
    assert run("synth", "--config", str(cfg), "--out", out) == 0
    assert run("filter", "--config", str(cfg), "--out", out) == 2
    assert "Nyquist" in capsys.readouterr().err


def test_filter_without_signal_exits_3(tiny_cfg, tmp_path, capsys):
    code = run("filter", "--config", tiny_cfg, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "not found" in capsys.readouterr().err


def test_filter_default_synth_r2_at_least_085(tmp_path, capsys):
    """Full-size default generator: the AR stage must explain most of the
    held-out ambient variance."""
    out = str(tmp_path / "o")
    assert run("synth", "--out", out) == 0
    assert run("filter", "--out", out) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if "R2=" in l][-1]
    r2 = float(line.rsplit("R2=", 1)[1].rstrip(")"))
    assert r2 >= 0.85


# -- train -------------------------------------------------------------------------


def _through_train(tiny_cfg, out, *extra):
    assert _synth_and_filter(tiny_cfg, out) == 0
    return run("train", "--config", tiny_cfg, "--out", out, *extra)


def test_train_writes_model_and_respects_cap(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _through_train(tiny_cfg, out) == 0
    for name in ("features.csv", "feature_mask.csv", "impute.csv", "forest.txt"):
        assert os.path.exists(os.path.join(out, name))
    stdout = capsys.readouterr().out
    assert "windows per class" in stdout
    selected = sum(
        line.strip().endswith(",1")
        for line in read(os.path.join(out, "feature_mask.csv")).decode().splitlines()
        if not line.startswith(("#", "feature_name"))
    )
    assert 1 <= selected <= 100


def test_train_same_seed_identical_forest(tiny_cfg, tmp_path):
    o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (o1, o2):
        assert _through_train(tiny_cfg, out, "--seed", "5") == 0
    assert read(os.path.join(o1, "forest.txt")) == read(os.path.join(o2, "forest.txt"))


def test_train_dtw_writes_reference(tiny_cfg, tmp_path):
    out = str(tmp_path / "o")
    assert _through_train(tiny_cfg, out, "--classifier", "dtw") == 0
    assert os.path.exists(os.path.join(out, "dtw_reference.csv"))
    assert not os.path.exists(os.path.join(out, "forest.txt"))


def test_train_single_class_exits_3(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out) == 0
    with open(os.path.join(out, "events.csv"), "w") as fh:
        fh.write("# no events\n")
    assert run("train", "--config", tiny_cfg, "--out", out) == 3
    assert "single class" in capsys.readouterr().err


# -- classify and eval -------------------------------------------------------------


def _through_classify(tiny_cfg, out, *extra):
    assert _through_train(tiny_cfg, out) == 0
    return run("classify", "--config", tiny_cfg, "--out", out, *extra)


def test_classify_then_eval_resubstitution(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _through_classify(tiny_cfg, out) == 0
    pred = read(os.path.join(out, "predictions.csv")).decode().splitlines()
    header = [l for l in pred if not l.startswith("#")][0]
    assert header == "window_start_s,true_label,predicted_label,votes_1,votes_2,votes_3"
    assert run("eval", "--config", tiny_cfg, "--out", out) == 0
    report = read(os.path.join(out, "report.csv")).decode()
    macro = [l for l in report.splitlines() if l.startswith("macro,")][0]
    f1 = float(macro.split(",")[3])
    # training-set memorization with min_samples_leaf=1 should be near-perfect
    assert f1 >= 0.9


def test_classify_stdout_is_the_same_on_a_rerun(tiny_cfg, tmp_path, capsys):
    # the per-window latency is a wall time, so it goes to the log, not stdout
    out = str(tmp_path / "o")
    assert _through_train(tiny_cfg, out) == 0
    capsys.readouterr()
    stdouts = []
    for _ in range(2):
        assert run("classify", "--config", tiny_cfg, "--out", out) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    assert stdouts[0].startswith("classified 24 windows\n")
    assert "ms/window" not in stdouts[0]


def test_classify_catalog_mismatch_exits_3(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _through_train(tiny_cfg, out) == 0
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CFG + "features.fft_bins = 8\n")
    assert run("classify", "--config", str(other), "--out", out) == 3
    assert "catalog" in capsys.readouterr().err


def test_classify_empty_window_set_exits_3(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _through_train(tiny_cfg, out) == 0
    wide = tmp_path / "wide.cfg"
    wide.write_text(TINY_CFG + "window.length_s = 1000\n")
    assert run("classify", "--config", str(wide), "--out", out) == 3
    assert "no windows" in capsys.readouterr().err


def test_eval_missing_window_names_it(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _through_classify(tiny_cfg, out) == 0
    path = os.path.join(out, "predictions.csv")
    lines = read(path).decode().splitlines()
    dropped = lines[2]  # first data row after comment + header
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:2] + lines[3:]) + "\n")
    assert run("eval", "--config", tiny_cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "missing window" in err
    assert dropped.split(",")[0] in err


def test_eval_label_mismatch_exits_3(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _through_classify(tiny_cfg, out) == 0
    path = os.path.join(out, "predictions.csv")
    lines = read(path).decode().splitlines()
    cells = lines[2].split(",")
    cells[1] = "3" if cells[1] != "3" else "1"
    lines[2] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run("eval", "--config", tiny_cfg, "--out", out) == 3
    assert "label mismatch" in capsys.readouterr().err


# -- unreadable artifacts exit 3 and name the file ------------------------------------


def _drop_events(tiny_cfg, out):
    assert run("synth", "--config", tiny_cfg, "--out", out) == 0
    os.remove(os.path.join(out, "events.csv"))
    return run("filter", "--config", tiny_cfg, "--out", out), "events.csv"


def _rewrite_lines(path, edit):
    lines = read(path).decode().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _classify_damaged(name, edit):
    """Train, apply `edit` to the lines of `name`, then classify; the DTW
    classifier when `name` is its reference file."""
    argv = ("--classifier", "dtw") if name == "dtw_reference.csv" else ()

    def damage(tiny_cfg, out):
        assert _through_train(tiny_cfg, out, *argv) == 0
        _rewrite_lines(os.path.join(out, name), edit)
        return run("classify", "--config", tiny_cfg, "--out", out, *argv), name
    return damage


def _params_sub(pattern, repl):
    return lambda lines: [re.sub(pattern, repl, l) if l.startswith("# params ") else l
                          for l in lines]


def _forest_rows(lines):
    """Indices of forest.txt's node rows: the lines after the header line."""
    header = next(i for i, l in enumerate(lines) if l.startswith("tree,"))
    return range(header + 1, len(lines))


def _split_on_feature_500(lines):
    # the first node row is tree 0's root split; its second cell is `feature`
    root = _forest_rows(lines)[0]
    tree, _, rest = lines[root].split(",", 2)
    lines[root] = f"{tree},500,{rest}"
    return lines


def _fourth_leaf_count(lines):
    # every node row counts one class more than the forest's three
    rows = _forest_rows(lines)
    return [l + ",99" if i in rows else l for i, l in enumerate(lines)]


def _extra_node_row_in_tree_0(lines):
    # a copy of tree 0's last row (in preorder a leaf), which no split reaches
    tree_1 = next(i for i in _forest_rows(lines) if lines[i].startswith("1,"))
    return lines[:tree_1] + [lines[tree_1 - 1]] + lines[tree_1:]


def _child_points_at_root(lines):
    # tree 0's root routes both ways back to itself: a walk that never ends
    root = _forest_rows(lines)[0]
    cells = lines[root].split(",")
    cells[3:5] = ["0", "0"]
    lines[root] = ",".join(cells)
    return lines


def _leaf_with_a_child(lines):
    # tree 0's first leaf row gains a left child and a threshold, as in
    # `0,-1,0.5,3,-1,...`, which no walk reads but a re-save would write back
    leaf = next(i for i in _forest_rows(lines) if lines[i].split(",")[1] == "-1")
    cells = lines[leaf].split(",")
    cells[2:4] = ["0.5", "3"]
    lines[leaf] = ",".join(cells)
    return lines


def _first_p_value_2(lines):
    row = next(i for i, l in enumerate(lines) if not l.startswith(("#", "feature_name")))
    name, _, selected = lines[row].split(",")
    lines[row] = f"{name},2.0,{selected}"
    return lines


def _mask_flag_moved(lines):
    # as many features selected as the forest was trained on, but one other
    rows = [i for i, l in enumerate(lines) if not l.startswith(("#", "feature_name"))]
    on = next(i for i in rows if lines[i].endswith(",1"))
    off = next(i for i in rows if lines[i].endswith(",0"))
    lines[on], lines[off] = lines[on][:-1] + "0", lines[off][:-1] + "1"
    return lines


def _classes_line(value):
    return lambda lines: [f"# classes={value}" if l.startswith("# classes=") else l
                          for l in lines]


def _first_row_label_0(lines):
    row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    start, _, rest = lines[row].split(",", 2)
    lines[row] = f"{start},0,{rest}"
    return lines


def _first_median(value):
    # impute.csv's first row after its `feature_name,median` header
    def edit(lines):
        row = next(i for i, l in enumerate(lines) if l.startswith("feature_name,")) + 1
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + value
        return lines
    return edit


def _first_sample_nan(lines):
    # the first reference row's first pooled sample, after its start and label
    row = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    cells = lines[row].split(",")
    cells[2] = "nan"
    lines[row] = ",".join(cells)
    return lines


def _pef_with_utf16_bom(tiny_cfg, out):
    assert _through_train(tiny_cfg, out) == 0
    path = os.path.join(out, "pef.f8")
    data = read(path)
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe" + data)
    return run("classify", "--config", tiny_cfg, "--out", out), "pef.f8"


def _pef_is_a_directory(tiny_cfg, out):
    assert _through_train(tiny_cfg, out) == 0
    path = os.path.join(out, "pef.f8")
    os.remove(path)
    os.mkdir(path)
    return run("classify", "--config", tiny_cfg, "--out", out), "pef.f8"


def _predicted_label_4(tiny_cfg, out):
    assert _through_train(tiny_cfg, out) == 0
    assert run("classify", "--config", tiny_cfg, "--out", out) == 0

    def relabel(lines):
        row = next(i for i, l in enumerate(lines) if l[:1].isdigit())
        start, truth, _, rest = lines[row].split(",", 3)
        lines[row] = f"{start},{truth},4,{rest}"
        return lines

    _rewrite_lines(os.path.join(out, "predictions.csv"), relabel)
    return run("eval", "--config", tiny_cfg, "--out", out), "predictions.csv"


@pytest.mark.parametrize(
    "damage",
    [
        _drop_events,
        _classify_damaged("dtw_reference.csv", _params_sub(r" band_radius=.*", "")),
        _classify_damaged(
            "forest.txt", lambda lines: [l for l in lines if not l.startswith("# params")]
        ),
        _pef_with_utf16_bom,
        _pef_is_a_directory,
        _classify_damaged("forest.txt", _split_on_feature_500),
        _classify_damaged("dtw_reference.csv", _params_sub(r"local_cost=\w+", "local_cost=bogus")),
        _classify_damaged("forest.txt", _params_sub(r"n_trees=\d+", "n_trees=0")),
        _classify_damaged("feature_mask.csv", _first_p_value_2),
        _classify_damaged("feature_mask.csv", _mask_flag_moved),
        _classify_damaged("forest.txt", _classes_line("1,2,4")),
        _classify_damaged("forest.txt", _classes_line("0,1,2")),
        _classify_damaged("dtw_reference.csv", _first_row_label_0),
        _predicted_label_4,
        _classify_damaged("forest.txt", _fourth_leaf_count),
        _classify_damaged("forest.txt", _extra_node_row_in_tree_0),
        _classify_damaged("forest.txt", _classes_line("1,1,3")),
        _classify_damaged("forest.txt", _classes_line("3,2,1")),
        _classify_damaged("forest.txt", _child_points_at_root),
        _classify_damaged("forest.txt", _leaf_with_a_child),
        _classify_damaged("forest.txt", _params_sub(r"bootstrap=1", "bootstrap=2")),
        _classify_damaged("dtw_reference.csv", _params_sub(r"z_normalize=0", "z_normalize=2")),
        _classify_damaged("impute.csv", _first_median("nan")),
        _classify_damaged("impute.csv", _first_median("inf")),
        _classify_damaged("dtw_reference.csv", _first_sample_nan),
    ],
    ids=["filter-missing-events", "classify-dtw-truncated-params",
         "classify-forest-without-params", "classify-pef-utf16-bom", "classify-pef-is-directory",
         "classify-forest-split-on-feature-500", "classify-dtw-bogus-local-cost",
         "classify-forest-zero-trees", "classify-mask-p-value-2", "classify-mask-flag-moved",
         "classify-forest-class-4", "classify-forest-class-0", "classify-dtw-label-0",
         "eval-predicted-label-4", "classify-forest-fourth-leaf-count",
         "classify-forest-extra-node-row", "classify-forest-classes-1-1-3",
         "classify-forest-classes-3-2-1", "classify-forest-child-points-at-root",
         "classify-forest-leaf-with-a-child", "classify-forest-bootstrap-2",
         "classify-dtw-z-normalize-2", "classify-impute-nan-median", "classify-impute-inf-median",
         "classify-dtw-nan-sample"],
)
def test_unreadable_artifact_exits_3_naming_file(tiny_cfg, tmp_path, capsys, damage):
    code, name = damage(tiny_cfg, str(tmp_path / "o"))
    assert code == 3
    assert name in capsys.readouterr().err


# -- every file a command reads x {missing, garbage row, cut mid-row, half row, ...} -


@pytest.fixture(scope="module")
def trained_tiny(tmp_path_factory):
    """One tiny-config run through classify; each fault case damages a copy."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out = str(root / "o")
    assert _through_train(str(cfg), out) == 0
    assert run("train", "--config", str(cfg), "--out", out, "--classifier", "dtw") == 0
    assert run("classify", "--config", str(cfg), "--out", out) == 0
    return str(cfg), out


def _cut_mid_row(data):
    """End the file inside the first cell of its last row.

    A cut inside the last cell would leave a shorter number that still
    parses, and such a file cannot be told from one written that way."""
    body = data.rstrip(b"\n")
    start = body.rfind(b"\n") + 1
    first_cell = body[start:].split(b",")[0]
    return body[: start + max(1, len(first_cell) // 2)]


def _drop_last_row_half(data):
    """Keep the first half of the last row's cells: a row that ends on a
    cell boundary, which only a table of fixed width can tell."""
    body = data.rstrip(b"\n")
    start = body.rfind(b"\n") + 1
    cells = body[start:].split(b",")
    return body[:start] + b",".join(cells[: len(cells) // 2]) + b"\n"


def _first_cell_garbage(data):
    """Spell the first cell of the first data row (the first line that
    starts with a number) as `garbage`."""
    lines = data.split(b"\n")
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    lines[row] = b"garbage," + lines[row].split(b",", 1)[1]
    return b"\n".join(lines)


# the files each command reads besides its config
COMMAND_INPUTS = {
    "classify": ("forest.txt", "feature_mask.csv", "impute.csv", "pef.csv", "events.csv"),
    "classify-dtw": ("dtw_reference.csv",),
    "filter": ("signal.csv", "events.csv"),
    "train": ("pef.csv", "events.csv"),
    "eval": ("predictions.csv", "pef.csv", "events.csv"),
}
INPUT_FAULTS = {
    "missing": None,
    "garbage-row": lambda data: data + b"garbage\n",
    "cut-mid-row": _cut_mid_row,
    "half-last-row": _drop_last_row_half,
    "first-cell-garbage": _first_cell_garbage,
}
# the tables whose first data cell is a number that no later check reads
FIRST_CELL_FILES = ("dtw_reference.csv", "predictions.csv")
COMMAND_ARGV = {"classify-dtw": ("classify", "--classifier", "dtw")}
# a series a command reads as a caller's text table: its series file's
# values as `timestamp_s,amplitude` rows, the series file removed, and the
# command pointed at the table (`--input`, or `paths.signal` for filter)
TEXT_SERIES = ("pef.csv", "signal.csv")


def _given_as_text(cfg, out, name):
    """The command-line arguments that point a command at `name` as text."""
    path = os.path.join(out, name)
    ts = timeseries.load_timeseries(timeseries.series_path(path), 50.0)
    artifacts.write_table(path, ["seed=0"], ("timestamp_s", "amplitude"),
                          (ts.timestamps(), ts.values))
    os.remove(timeseries.series_path(path))
    if name == "signal.csv":
        given = os.path.join(out, "given.cfg")
        with open(given, "w", encoding="utf-8") as fh:
            fh.write(read(cfg).decode() + f"paths.signal = {path}\n")
        return ["--config", given]
    return ["--config", cfg, "--input", path]


def _input_fault_cases():
    for command, names in COMMAND_INPUTS.items():
        for name in names:
            for fault in INPUT_FAULTS:
                # events.csv holds one number per row, so a cut leaves a
                # number that still parses ("180.0" cut to "180." is the
                # same event), and half of a one-cell row is an empty line,
                # the same file with one event fewer: both left out
                if name == "events.csv" and fault in ("cut-mid-row", "half-last-row"):
                    continue
                if fault == "first-cell-garbage" and name not in FIRST_CELL_FILES:
                    continue
                # classify's cases are named by file and fault alone
                prefix = "" if command == "classify" else f"{command}-"
                yield pytest.param(command, name, fault, id=f"{prefix}{name}-{fault}")


@pytest.mark.parametrize("command, name, fault", list(_input_fault_cases()))
def test_classify_input_fault_exits_3_naming_the_file(
    trained_tiny, tmp_path, capsys, command, name, fault
):
    cfg, trained = trained_tiny
    out = str(tmp_path / "o")
    shutil.copytree(trained, out)
    given = _given_as_text(cfg, out, name) if name in TEXT_SERIES else ["--config", cfg]
    path = os.path.join(out, name)
    if INPUT_FAULTS[fault] is None:
        os.remove(path)
    else:
        damaged = INPUT_FAULTS[fault](read(path))
        with open(path, "wb") as fh:
            fh.write(damaged)
    assert run(*COMMAND_ARGV.get(command, (command,)), *given, "--out", out) == 3
    assert name in capsys.readouterr().err


# -- global flags and exit codes -----------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key = 1\n")
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("window.length_s", "nan"), ("window.stride_s", "inf"),
     ("synth.duration_s", "nan"), ("synth.fs_hz", "inf")],
)
def test_non_finite_float_config_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# non-finite\n{key} = {value}\n")
    assert run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"bad.cfg:2: bad value for {key}" in capsys.readouterr().err


@pytest.mark.parametrize("bins", [2000, -5])
def test_fft_bins_beyond_the_window_spectrum_exits_2(tmp_path, capsys, bins):
    """A 10 s window at 50 Hz has 500 samples, so bins 1..250 lie above DC;
    a negative count is out of the key's own range, refused as the config
    is read."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + f"features.fft_bins = {bins}\n")
    out = tmp_path / "o"
    out.mkdir()
    assert run("pipeline", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    if bins < 0:
        assert f"bad.cfg:{EXTRA_LINE}: bad value for features.fft_bins: {bins} is not >= 0" in err
    else:
        assert f"features.fft_bins = {bins}" in err
        assert "250" in err and "500-sample window" in err
    # refused before synth: no series file is written
    assert os.listdir(out) == []


@pytest.mark.parametrize("fs_hz", ["0", "-5"])
@pytest.mark.parametrize("command", ["filter", "train", "classify", "eval", "pipeline"])
def test_non_positive_fs_hz_exits_2_before_a_series_is_read(
    trained_tiny, tmp_path, capsys, command, fs_hz
):
    # pipeline reads the signal it is given instead of synthesizing one
    _, trained = trained_tiny
    out = str(tmp_path / "o")
    shutil.copytree(trained, out)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        TINY_CFG + f"synth.fs_hz = {fs_hz}\npaths.signal = {os.path.join(out, 'signal.f8')}\n"
    )
    assert run(command, "--config", str(cfg), "--out", out) == 2
    err = capsys.readouterr().err
    assert f"fs_hz must be positive, got {float(fs_hz)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, cell", [(0, "nan"), (6000, "nan"), (6000, "inf")],
    ids=["first-row-nan", "mid-file-nan", "mid-file-inf"],
)
@pytest.mark.parametrize("command", ["filter", "pipeline"])
def test_a_non_finite_timestamp_exits_3_naming_it_and_its_line(
    tiny_cfg, tmp_path, capsys, command, row, cell
):
    """A NaN first timestamp was a traceback from the AR segment's offset,
    and a NaN later one passed the spacing test; an inf one read as a gap.
    The signal is a caller's text table of the synthesized one."""
    out = str(tmp_path / "o")
    assert run("synth", "--config", tiny_cfg, "--out", out, "--seed", "3") == 0
    signal = os.path.join(out, "signal.csv")
    ts = timeseries.load_timeseries(os.path.join(out, "signal.f8"), 50.0)
    lines = ["# seed=3", "timestamp_s,amplitude"]
    lines += [f"{t!r},{v!r}" for t, v in zip(ts.timestamps().tolist(), ts.values.tolist())]
    k = 2 + row  # after the seed comment and the column header
    lines[k] = f"{cell},{lines[k].split(',')[1]}"
    with open(signal, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = tmp_path / "given.cfg"
    cfg.write_text(
        TINY_CFG + f"paths.signal = {signal}\npaths.events = {os.path.join(out, 'events.csv')}\n"
    )
    assert run(command, "--config", str(cfg), "--out", out, "--seed", "3") == 3
    err = capsys.readouterr().err
    assert f"malformed {signal}: non-finite timestamp {float(cell)!r} at line {k + 1}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["filter", "pipeline"])
def test_an_r2_whose_sums_overflow_exits_4_without_a_warning(tmp_path, capsys, command):
    """Bursts near the float range: the held-out R2's sums of squares
    overflow, which printed R2=nan (filter) or went on to a report
    (pipeline), both exiting 0 with RuntimeWarnings."""
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(TINY_CFG + "synth.burst_amp_hi = 1e308\n")
    out = str(tmp_path / "o")
    if command == "filter":
        assert run("synth", "--config", str(cfg), "--out", out, "--seed", "3") == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command, "--config", str(cfg), "--out", out, "--seed", "3")
    assert code == 4
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "R2 is not finite" in err and "Traceback" not in err


def test_out_dir_env_override(tiny_cfg, tmp_path, monkeypatch):
    env_dir = str(tmp_path / "env")
    monkeypatch.setenv("GEYSERSTATE_OUT", env_dir)
    assert run("synth", "--config", tiny_cfg) == 0
    assert os.path.exists(os.path.join(env_dir, "signal.f8"))
    flag_dir = str(tmp_path / "flag")
    assert run("synth", "--config", tiny_cfg, "--out", flag_dir) == 0
    assert os.path.exists(os.path.join(flag_dir, "signal.f8"))


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# -- pipeline ----------------------------------------------------------------------


def test_pipeline_single_arm_writes_report(tiny_cfg, tmp_path):
    out = str(tmp_path / "o")
    assert run("pipeline", "--config", tiny_cfg, "--out", out, "--seed", "3") == 0
    for name in ("bh.f8", "pef.f8", "forest.txt", "predictions.csv",
                 "report.txt", "report.csv"):
        assert os.path.exists(os.path.join(out, name))
    assert os.path.exists(os.path.join(out, "plots", "event_1.csv"))


def test_pipeline_stage_tag_on_failure(tmp_path, capsys):
    """A failure inside a stage names it: an AR segment longer than any
    quiet run fails in `pef`.  (A corner at Nyquist, which failed in
    `highpass`, now fails before the first write.)"""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "ar.train_fraction = 0.95\n")
    assert run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
    assert "error: stage pipeline: stage pef: no contiguous Class-1 run" in capsys.readouterr().err


def test_pipeline_seed_changes_results_not_schema(tiny_cfg, tmp_path):
    o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("pipeline", "--config", tiny_cfg, "--out", o1, "--seed", "1") == 0
    assert run("pipeline", "--config", tiny_cfg, "--out", o2, "--seed", "2") == 0
    assert read(os.path.join(o1, "features.csv")) != read(os.path.join(o2, "features.csv"))

    def header(path):
        return [l for l in read(path).decode().splitlines() if not l.startswith("#")][0]

    for name in ("predictions.csv", "report.csv", "features.csv"):
        assert header(os.path.join(o1, name)) == header(os.path.join(o2, name))


def test_stage_logs_its_wall_time(tiny_cfg, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    with _stage("demo"):
        pass
    assert re.search(r"stage=demo seconds=\d+\.\d{3}", caplog.text)
    out = str(tmp_path / "o")
    assert run("synth", "--config", tiny_cfg, "--out", out) == 0
    assert re.search(r"stage=synth seconds=\d+\.\d{3}", caplog.text)
    # wall times go to the log only, never into the output directory
    assert sorted(os.listdir(out)) == ["classes.csv", "events.csv", "signal.f8"]


def test_pipeline_logs_each_stage_and_features_kept(tiny_cfg, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    assert run("pipeline", "--config", tiny_cfg, "--out", str(tmp_path / "o")) == 0
    for name in ("synth", "highpass", "split", "pef", "series", "train", "classify", "eval"):
        assert re.search(rf"stage={name} seconds=\d+\.\d{{3}}", caplog.text)
    assert "stage=filter" not in caplog.text
    assert re.search(r"selected \d+ of \d+ features", caplog.text)


# Counts the calls of the DTW layer: each call appends its name to the file
# COUNTS, so that the calls of a forked DTW arm count too.
_COUNT_DTW_CALLS = """
from geyserstate import dtw
for module, name in ((cli, "knn_dtw_classify"), (dtw, "mean_pool"), (dtw, "_dtw_batch")):
    def counted(*args, fn=getattr(module, name), name=name):
        with open(COUNTS, "a", encoding="utf-8") as fh:
            fh.write(name + "\\n")
        return fn(*args)
    setattr(module, name, counted)
"""


def test_dtw_pools_each_window_once_and_sweeps_once_per_query(
    tiny_cfg, tmp_path, monkeypatch, caplog, cli_process, in_process
):
    """save_reference pools the training windows once and classify reads them
    back pooled; each query is pooled once and swept against them once, by
    pipeline's DTW arm in a forked child (in a new interpreter) and in
    process alike."""
    log = tmp_path / "counts"

    def counts():
        calls = collections.Counter(log.read_text().split())
        log.unlink()
        return calls

    def rows(name):
        return sum(line[:1].isdigit() for line in read(os.path.join(out, name)).decode().splitlines())

    out = str(tmp_path / "forked")
    proc = cli_process("pipeline", "--compare", "--config", tiny_cfg, "--out", out,
                       prelude=f"COUNTS = {str(log)!r}\n" + _COUNT_DTW_CALLS)
    assert proc.returncode == 0, proc.stderr
    assert ("dtw arm: child pid=" in proc.stderr) == cli_process.can_fork
    forked = counts()
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    # the same counters in this process, undone by monkeypatch after the test
    exec(_COUNT_DTW_CALLS, {"cli": cli, "COUNTS": str(log), "setattr": monkeypatch.setattr})
    out = str(tmp_path / "o")
    assert run("pipeline", "--compare", "--config", tiny_cfg, "--out", out) == 0
    assert "dtw arm: in process (test)" in caplog.text
    refs, queries = rows("dtw_reference.csv"), rows("predictions_dtw_pef.csv")
    assert refs > 1 and queries > 1
    assert counts() == forked == {"knn_dtw_classify": queries, "_dtw_batch": queries,
                                  "mean_pool": refs + queries}
    assert run("classify", "--config", tiny_cfg, "--out", out, "--classifier", "dtw") == 0
    queries = rows("predictions.csv")
    assert counts() == {"knn_dtw_classify": queries, "_dtw_batch": queries, "mean_pool": queries}


def test_filter_verbose_logs_ar_search(tiny_cfg, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="geyserstate.filters")
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out, "--verbose") == 0
    assert re.search(
        r"AR order search: screened 16 orders on \d+ common rows from one QR, refit p=\d+",
        caplog.text,
    )
    assert sorted(os.listdir(out)) == [
        "ar_model.txt", "bh.f8", "classes.csv", "events.csv", "pef.f8", "signal.f8",
    ]


def test_staged_commands_write_what_pipeline_writes(tiny_cfg, tmp_path):
    """synth + filter and pipeline run the same stage functions: same bytes."""
    staged, piped = str(tmp_path / "staged"), str(tmp_path / "piped")
    assert _synth_and_filter(tiny_cfg, staged, "--skip-pef") == 0
    assert run("pipeline", "--config", tiny_cfg, "--out", piped) == 0
    for name in ("signal.f8", "events.csv", "classes.csv", "bh.f8"):
        assert read(os.path.join(staged, name)) == read(os.path.join(piped, name)), name


def _written(out):
    return sorted(os.path.relpath(os.path.join(base, f), out)
                  for base, _, files in os.walk(out) for f in files)


def test_filter_failing_before_its_pass_writes_no_series_file(tmp_path, capsys):
    """The AR fit fails before any series is saved: neither bh.f8 nor
    pef.f8 exists, not even half-written."""
    cfg = tmp_path / "long_ar.cfg"
    cfg.write_text(TINY_CFG + "ar.train_fraction = 0.95\n")
    out = tmp_path / "o"
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
    assert run("filter", "--config", str(cfg), "--out", str(out)) == 3
    assert "no contiguous Class-1 run" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["classes.csv", "events.csv", "signal.f8"]


def test_pipeline_failing_after_its_pass_keeps_the_series_files(tiny_cfg, tmp_path, capsys):
    """A pipeline that fails in train, after the PEF, leaves whole series
    files."""
    cfg = tmp_path / "long_windows.cfg"
    cfg.write_text(TINY_CFG + "window.length_s = 100\nwindow.stride_s = 100\n")
    out, whole = str(tmp_path / "o"), str(tmp_path / "whole")
    assert run("pipeline", "--config", str(cfg), "--out", out) == 3
    assert "split leaves an empty window set" in capsys.readouterr().err
    # the staged run fits its AR model on the whole series, so only the
    # files before the PEF can match it byte for byte
    assert _synth_and_filter(tiny_cfg, whole, "--skip-pef") == 0
    for name in ("signal.f8", "classes.csv", "bh.f8"):
        assert read(os.path.join(out, name)) == read(os.path.join(whole, name)), name
    assert len(timeseries.load_timeseries(os.path.join(out, "pef.f8"), 50.0)) == 240 * 50
    assert os.path.exists(os.path.join(out, "plots", "event_1.csv"))


@pytest.mark.parametrize("extra, compare, error", [
    ("window.stride_s = 60.01\n", (),
     "stage pipeline: stride of 60.01 s is not a whole number of samples at 50.0 Hz"),
    ("dtw.k_neighbors = 0\n", ("--compare",), "stage pipeline: k_neighbors must be >= 1, got 0"),
    ("forest.n_trees = 0\n", ("--compare",), "stage pipeline: n_trees must be >= 1, got 0"),
    ("features.fdr_q = 2\n", ("--compare",),
     f"{{cfg}}:{EXTRA_LINE}: bad value for features.fdr_q: 2.0 is not in (0, 1)"),
    ("ar.train_fraction = 1.5\n", (),
     f"{{cfg}}:{EXTRA_LINE}: bad value for ar.train_fraction: 1.5 is not in (0, 1)"),
    ("split.ratio = 1.5\n", (),
     f"{{cfg}}:{EXTRA_LINE}: bad value for split.ratio: 1.5 is not in (0, 1)"),
    ("filter.order = 0\n", (),
     f"{{cfg}}:{EXTRA_LINE}: bad value for filter.order: 0 is not one of (2, 4, 6, 8)"),
    ("filter.corner_hz = 25\n", ("--compare",),
     "stage pipeline: corner 25.0 Hz must lie strictly between 0 and Nyquist 25.0 Hz"),
    ("paths.events = {out}.csv\n", ("--compare",),
     "stage pipeline: stage synth: paths.events = {out}.csv names the caller's data, which "
     "synthesizing would overwrite; unset it to synthesize"),
], ids=["stride", "k-neighbors", "n-trees", "fdr-q", "train-fraction", "split-ratio",
        "filter-order", "corner-above-nyquist", "events-without-signal"])
def test_pipeline_rejecting_a_window_or_dtw_value_leaves_no_series_file(
    tmp_path, capsys, monkeypatch, extra, compare, error
):
    """The window, filter, AR, feature, split, forest and DTW values, and a
    `paths.events` the synthesized events would overwrite, are checked before
    the first write: a value any stage rejects exits 2 with nothing in
    `--out`, no inner stage named, and the DTW arm never started (so no
    child forked).  A value out of its key's own range fails as the config
    is read, naming its file and line."""
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "o"
    out.mkdir()
    cfg.write_text(TINY_CFG + extra.format(out=out))

    def arm(*args):
        raise AssertionError("the DTW arm started")

    monkeypatch.setattr(cli, "_dtw_arm", arm)
    assert run("pipeline", *compare, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: {error.format(cfg=cfg, out=out)}\n" in err
    assert "stage pef:" not in err and "stage series:" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("classifier, extra, error", [
    ("rf", "forest.n_trees = 0\n", "n_trees must be >= 1, got 0"),
    ("dtw", "dtw.k_neighbors = 0\n", "k_neighbors must be >= 1, got 0"),
    ("rf", "features.fft_bins = 300\n", "features.fft_bins = 300 is outside 0..250, the "
     "nonzero-frequency bins of a 500-sample window"),
])
def test_train_rejects_its_classifier_values_before_reading_the_series(
    tmp_path, capsys, classifier, extra, error
):
    """With no series in `--out`, a bad value still exits 2, not 3 for the
    missing input: the params are built before the series is read."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + extra)
    out = tmp_path / "o"
    assert run("train", "--classifier", classifier, "--config", str(cfg), "--out", str(out)) == 2
    assert f"error: stage train: {error}\n" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_classify_rejects_fft_bins_beyond_the_window_before_reading_the_series(tmp_path, capsys):
    """With no series in `--out`, a spectrum wider than the window exits 2
    naming the value, not 3 for the missing input (or, after a run, 3
    blaming `feature_mask.csv` for a catalog that does not match)."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "features.fft_bins = 300\n")
    out = tmp_path / "o"
    assert run("classify", "--config", str(cfg), "--out", str(out)) == 2
    assert "error: stage classify: features.fft_bins = 300 is outside 0..250" in (
        capsys.readouterr().err)
    assert os.listdir(out) == []


def test_an_off_grid_onset_traces_the_samples_that_sample_classes_paints(tmp_path, monkeypatch):
    """A trace holds the samples t with onset - 240 s <= t < onset + 180 s,
    the rule of the class column it carries; 60.005 s and 480.005 s fall
    between samples 0.02 s apart, where rounding would start and end one
    sample early."""
    raw = timeseries.TimeSeries(np.zeros(600 * 50), 50.0)
    grid = raw.timestamps()
    onset = 300.005
    calls = []

    def write_table(*args):
        calls.append(args)
        artifacts.write_table(*args)

    monkeypatch.setattr(cli, "write_table", write_table)
    cli._write_event_traces(str(tmp_path), raw, timeseries.EventLog((onset,)), (grid,) * 5, 3)
    ((path, _, _, columns),) = calls
    assert all(col.base is grid for col in columns)
    assert np.array_equal(columns[0], grid[3001:24001])
    assert grid[3000] < onset - cli.PLOT_BEFORE_S <= grid[3001]
    assert grid[24000] < onset + cli.PLOT_AFTER_S <= grid[24001]
    rows = np.loadtxt(path, delimiter=",", skiprows=3)
    assert np.array_equal(rows[:, 0], grid[3001:24001])


def test_pipeline_on_given_files_writes_the_synthesizing_run_bytes(tmp_path, capsys):
    """pipeline --compare on the signal and events a synthesizing run wrote
    (paths.signal, paths.events) writes every file of that run but
    signal.f8, events.csv and classes.csv, and leaves the given files as
    they were.  The event trace (onset 410 s, 600 s at 50 Hz) repeats the
    given signal, rows 8,500-29,500."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text(TINY_CFG + "synth.duration_s = 600\nsynth.event_times_s = 100, 180, 300, 410\n")
    synthesized, given = str(tmp_path / "synthesized"), str(tmp_path / "given")
    assert run("pipeline", "--compare", "--config", str(cfg), "--out", synthesized) == 0
    printed = capsys.readouterr().out
    inputs = {name: read(os.path.join(synthesized, name)) for name in ("signal.f8", "events.csv")}
    supplied = tmp_path / "supplied.cfg"
    supplied.write_text(cfg.read_text() + "".join(
        f"paths.{key} = {os.path.join(synthesized, name)}\n"
        for key, name in (("signal", "signal.f8"), ("events", "events.csv"))
    ))
    assert run("pipeline", "--compare", "--config", str(supplied), "--out", given) == 0
    assert capsys.readouterr().out == printed.replace(synthesized, given)
    inputs_and_classes = ("signal.f8", "events.csv", "classes.csv")
    assert _written(given) == [n for n in _written(synthesized) if n not in inputs_and_classes]
    match, mismatch, errors = filecmp.cmpfiles(synthesized, given, _written(given), shallow=False)
    assert not mismatch and not errors
    for name, data in inputs.items():
        assert read(os.path.join(synthesized, name)) == data
    trace = read(os.path.join(given, "plots", "event_1.csv")).decode().splitlines()[3:]
    signal = timeseries.load_timeseries(os.path.join(synthesized, "signal.f8"), 50.0)
    rows = zip(signal.timestamps().tolist()[8500:29500], signal.values.tolist()[8500:29500])
    assert [row.rsplit(",", 3)[0] for row in trace] == [f"{t!r},{v!r}" for t, v in rows]


def test_bench_tracing_patches_resolve():
    """bench/tracing.py wraps these names in place; one that no longer
    exists would drop out of the per-layer numbers unnoticed."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, name, _, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module_name), name)), (module_name, name)


# -- full default comparison run (acceptance) ----------------------------------------


@pytest.fixture(scope="module")
def compare_runs(tmp_path_factory):
    d1 = str(tmp_path_factory.mktemp("cmp1"))
    d2 = str(tmp_path_factory.mktemp("cmp2"))
    assert main(["pipeline", "--compare", "--out", d1, "--seed", "42"]) == 0
    assert main(["pipeline", "--compare", "--out", d2, "--seed", "42"]) == 0
    return d1, d2


def _comparison_rows(out):
    rows = {}
    for line in read(os.path.join(out, "comparison.csv")).decode().splitlines():
        if line.startswith(("#", "method,")):
            continue
        cells = line.split(",")
        rows[cells[0]] = [float(v) for v in cells[1:]]
    return rows


def test_compare_ordering_and_threshold(compare_runs):
    rows = _comparison_rows(compare_runs[0])
    assert list(rows) == ["rf_pef", "rf_nopef", "dtw_pef"]
    f1 = {name: vals[2] for name, vals in rows.items()}
    assert f1["rf_pef"] > f1["rf_nopef"] > f1["dtw_pef"]
    assert f1["rf_pef"] >= 0.90


def test_compare_runs_byte_identical(compare_runs):
    d1, d2 = compare_runs
    names = []
    for base, _, files in os.walk(d1):
        rel = os.path.relpath(base, d1)
        names.extend(os.path.join(rel, f) for f in files)
    assert names, "comparison run produced no artifacts"
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert not mismatch and not errors
    assert sorted(match) == sorted(names)


def test_readme_quick_start_table_is_the_comparison(compare_runs):
    # the README's quick start runs `pipeline --compare --seed 42` at the
    # defaults, as the fixture does, and shows the table it prints
    readme = read(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"))
    lines = readme.decode().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("method,"))
    table = lines[start : lines.index("```", start)]
    csv = read(os.path.join(compare_runs[0], "comparison.csv")).decode().splitlines()
    assert len(table) == 4
    assert table == [l for l in csv if not l.startswith("#")]


def test_compare_artifacts_and_window_invariant(compare_runs):
    out = compare_runs[0]
    starts = {}
    for arm in ("rf_pef", "rf_nopef", "dtw_pef"):
        for suffix in (".csv", ".txt"):
            assert os.path.exists(os.path.join(out, f"report_{arm}{suffix}"))
        rows = read(os.path.join(out, f"predictions_{arm}.csv")).decode().splitlines()
        starts[arm] = [l.split(",")[0] for l in rows if not l.startswith(("#", "window_start_s"))]
    assert starts["rf_pef"] == starts["rf_nopef"] == starts["dtw_pef"]

    plot = os.path.join(out, "plots", "event_1.csv")
    header = [l for l in read(plot).decode().splitlines() if not l.startswith("#")][0]
    assert header == "timestamp_s,raw,bh,pef,class"
    data = np.genfromtxt(plot, delimiter=",", skip_header=3)
    assert data.shape[1] == 5
    # traces cover the span before and after the event onset
    assert data.shape[0] > 1000
    assert set(np.unique(data[:, 4])) <= {1.0, 2.0, 3.0}
