"""Command-line contract tests plus the end-to-end acceptance run.

Most tests run on a deliberately tiny config so the whole file stays fast;
the module-scoped `compare_runs` fixture executes the full default
`pipeline --compare` twice and backs the ordering and determinism checks.
"""

import filecmp
import logging
import os
import re

import numpy as np
import pytest

from geyserstate.cli import _stage, main

TINY_CFG = """
synth.duration_s = 240
synth.fs_hz = 50
synth.day_period_s = 120
synth.seasonal_period_s = 120
synth.event_times_s = 100, 180
synth.chirp_f0_hz = 8
synth.chirp_f1_hz = 15
synth.eruption_tone_hz = 15
synth.eruption_amplitude = 0.2
labels.class2_start_s = 30
labels.class3_len_s = 20
window.length_s = 10
window.stride_s = 10
ar.max_order = 16
dtw.downsample_to = 100
features.fft_bins = 16
forest.n_trees = 30
"""


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
    for name in ("signal.csv", "events.csv", "classes.csv"):
        assert read(os.path.join(d1, name)) == read(os.path.join(d2, name))
    assert read(os.path.join(d1, "signal.csv")).startswith(b"# seed=9\n")


def test_synth_creates_missing_out_dir(tiny_cfg, tmp_path):
    nested = str(tmp_path / "deep" / "er")
    assert run("synth", "--config", tiny_cfg, "--out", nested) == 0
    assert os.path.exists(os.path.join(nested, "signal.csv"))


def test_synth_nonstationary_ambient_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "synth.ar_a1 = 1.2\nsynth.ar_a2 = -0.1\n")
    code = run("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code != 0
    assert "non-stationary" in capsys.readouterr().err


# -- filter ------------------------------------------------------------------------


def _synth_and_filter(tiny_cfg, out, *extra):
    assert run("synth", "--config", tiny_cfg, "--out", out) == 0
    return run("filter", "--config", tiny_cfg, "--out", out, *extra)


def test_filter_writes_chain(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out) == 0
    for name in ("bh.csv", "ar_model.txt", "pef.csv"):
        assert os.path.exists(os.path.join(out, name))
    assert "R2=" in capsys.readouterr().out


def test_filter_skip_pef(tiny_cfg, tmp_path):
    out = str(tmp_path / "o")
    assert _synth_and_filter(tiny_cfg, out, "--skip-pef") == 0
    assert os.path.exists(os.path.join(out, "bh.csv"))
    assert not os.path.exists(os.path.join(out, "pef.csv"))
    assert not os.path.exists(os.path.join(out, "ar_model.txt"))


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


def _drop_mask(tiny_cfg, out):
    assert _through_train(tiny_cfg, out) == 0
    os.remove(os.path.join(out, "feature_mask.csv"))
    return run("classify", "--config", tiny_cfg, "--out", out), "feature_mask.csv"


def _garbage_mask_row(tiny_cfg, out):
    assert _through_train(tiny_cfg, out) == 0
    with open(os.path.join(out, "feature_mask.csv"), "a") as fh:
        fh.write("garbage\n")
    return run("classify", "--config", tiny_cfg, "--out", out), "feature_mask.csv"


def _truncated_dtw_params(tiny_cfg, out):
    assert _through_train(tiny_cfg, out, "--classifier", "dtw") == 0
    path = os.path.join(out, "dtw_reference.csv")
    lines = read(path).decode().splitlines()
    lines = [l.split(" band_radius=")[0] if l.startswith("# params ") else l for l in lines]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code = run("classify", "--config", tiny_cfg, "--out", out, "--classifier", "dtw")
    return code, "dtw_reference.csv"


@pytest.mark.parametrize(
    "damage", [_drop_events, _drop_mask, _garbage_mask_row, _truncated_dtw_params],
    ids=["filter-missing-events", "classify-missing-mask", "classify-garbage-mask-row",
         "classify-dtw-truncated-params"],
)
def test_unreadable_artifact_exits_3_naming_file(tiny_cfg, tmp_path, capsys, damage):
    code, name = damage(tiny_cfg, str(tmp_path / "o"))
    assert code == 3
    assert name in capsys.readouterr().err


# -- global flags and exit codes -----------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key = 1\n")
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_out_dir_env_override(tiny_cfg, tmp_path, monkeypatch):
    env_dir = str(tmp_path / "env")
    monkeypatch.setenv("GEYSERSTATE_OUT", env_dir)
    assert run("synth", "--config", tiny_cfg) == 0
    assert os.path.exists(os.path.join(env_dir, "signal.csv"))
    flag_dir = str(tmp_path / "flag")
    assert run("synth", "--config", tiny_cfg, "--out", flag_dir) == 0
    assert os.path.exists(os.path.join(flag_dir, "signal.csv"))


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# -- pipeline ----------------------------------------------------------------------


def test_pipeline_single_arm_writes_report(tiny_cfg, tmp_path):
    out = str(tmp_path / "o")
    assert run("pipeline", "--config", tiny_cfg, "--out", out, "--seed", "3") == 0
    for name in ("bh.csv", "pef.csv", "forest.txt", "predictions.csv",
                 "report.txt", "report.csv"):
        assert os.path.exists(os.path.join(out, name))
    assert os.path.exists(os.path.join(out, "plots", "event_1.csv"))


def test_pipeline_stage_tag_on_failure(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG + "filter.corner_hz = 25\n")
    assert run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "stage filter" in capsys.readouterr().err


def test_pipeline_seed_changes_results_not_schema(tiny_cfg, tmp_path):
    o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("pipeline", "--config", tiny_cfg, "--out", o1, "--seed", "1") == 0
    assert run("pipeline", "--config", tiny_cfg, "--out", o2, "--seed", "2") == 0
    assert read(os.path.join(o1, "features.csv")) != read(os.path.join(o2, "features.csv"))

    def header(path):
        return [l for l in read(path).decode().splitlines() if not l.startswith("#")][0]

    for name in ("predictions.csv", "report.csv", "features.csv"):
        assert header(os.path.join(o1, name)) == header(os.path.join(o2, name))


def test_stage_logs_its_wall_time(caplog):
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    with _stage("demo"):
        pass
    assert re.search(r"stage=demo seconds=\d+\.\d{3}", caplog.text)


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
