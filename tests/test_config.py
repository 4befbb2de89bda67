"""Config file parsing, defaults, and precedence rules."""

import pytest

from geyserstate import features
from geyserstate.config import (
    CONFIG_KEYS,
    OUT_DIR_ENV,
    default_config,
    dtw_params,
    forest_params,
    label_policy,
    load_config,
    resolve_out_dir,
    resolve_paths,
    synth_config,
)
from geyserstate.dtw import DtwParams
from geyserstate.errors import ConfigError
from geyserstate.forest import ForestParams
from geyserstate.synth import SynthConfig
from geyserstate.timeseries import LabelPolicy


def test_defaults_are_complete_and_valid():
    values = load_config(None)
    assert set(values) == set(CONFIG_KEYS)
    # every builder must accept the pure defaults
    synth_config(values, seed=1)
    label_policy(values)
    forest_params(values, seed=1)
    dtw_params(values)


def test_config_defaults_build_the_dataclass_defaults():
    # each default has two homes, the config table and the dataclass (or
    # module constant) a library caller gets; they must not drift apart
    values = default_config()
    assert synth_config(values, 42) == SynthConfig()
    assert forest_params(values, 0) == ForestParams()
    assert dtw_params(values) == DtwParams()
    assert label_policy(values) == LabelPolicy()
    assert values["features.fdr_q"] == features.DEFAULT_FDR_Q
    assert values["features.cap"] == features.DEFAULT_CAP
    assert values["features.fft_bins"] == features.DEFAULT_FFT_BINS


# every key, so that a dataclass field cannot add or drop one unseen
KEY_NAMES = {
    "out.dir", "seed", "paths.signal", "paths.events", "paths.classes",
    "synth.duration_s", "synth.fs_hz", "synth.day_period_s", "synth.seasonal_amplitude",
    "synth.seasonal_period_s", "synth.seasonal_phase", "synth.ar_a1", "synth.ar_a2",
    "synth.ar_sigma", "synth.burst_rate_per_hour", "synth.burst_amp_lo", "synth.burst_amp_hi",
    "synth.burst_dur_lo_s", "synth.burst_dur_hi_s", "synth.burst_freq_lo_hz",
    "synth.burst_freq_hi_hz", "synth.day_active_lo", "synth.day_active_hi",
    "synth.event_times_s", "synth.precursor_amplitude", "synth.chirp_f0_hz", "synth.chirp_f1_hz",
    "synth.eruption_amplitude", "synth.eruption_tone_hz", "synth.enforce_amplitude_cap",
    "filter.order", "filter.corner_hz", "ar.max_order", "ar.criterion", "ar.train_fraction",
    "window.length_s", "window.stride_s",
    "labels.class2_start_s", "labels.class2_end_s", "labels.class3_len_s", "labels.window_rule",
    "features.fdr_q", "features.cap", "features.fft_bins",
    "forest.n_trees", "forest.max_features", "forest.min_samples_leaf", "forest.max_depth",
    "forest.bootstrap",
    "dtw.k_neighbors", "dtw.local_cost", "dtw.band_radius", "dtw.downsample_to", "dtw.z_normalize",
    "split.ratio",
}


def test_key_names_are_pinned():
    assert set(CONFIG_KEYS) == KEY_NAMES


def _spelling(key, default):
    if key == "forest.max_features":
        return "sqrt"
    if default is None:
        return "none"
    if isinstance(default, bool):
        return "true" if default else "false"
    if isinstance(default, tuple):
        return ", ".join(repr(v) for v in default)
    return repr(default) if isinstance(default, float) else str(default)


def test_each_default_spelled_out_loads_to_the_defaults(tmp_path):
    path = tmp_path / "spelled.cfg"
    path.write_text(
        "".join(f"{key} = {_spelling(key, default)}\n" for key, (default, _) in CONFIG_KEYS.items())
    )
    assert load_config(str(path)) == default_config()


def test_empty_file_equals_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_config(str(path)) == default_config()


def test_parses_values_comments_and_blanks(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "filter.corner_hz = 0.25\n"
        "forest.n_trees=50\n"
        "dtw.band_radius = none\n"
        "forest.max_features = sqrt\n"
        "synth.event_times_s = 100, 200.5,300\n"
        "synth.enforce_amplitude_cap = false\n"
    )
    values = load_config(str(path))
    assert values["filter.corner_hz"] == 0.25
    assert values["forest.n_trees"] == 50
    assert values["dtw.band_radius"] is None
    assert values["forest.max_features"] is None
    assert values["synth.event_times_s"] == (100.0, 200.5, 300.0)
    assert values["synth.enforce_amplitude_cap"] is False


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("filter.cornerr_hz = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(str(path))


def test_bad_value_names_key_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# fine\nforest.n_trees = many\n")
    with pytest.raises(ConfigError, match=r":2: bad value for forest.n_trees"):
        load_config(str(path))


def test_line_without_equals_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config(str(path))


def test_utf8_byte_order_mark_is_dropped(tmp_path):
    text = "forest.n_trees = 50\nsynth.duration_s = 240\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(str(marked)) == load_config(str(plain))
    assert load_config(str(marked))["forest.n_trees"] == 50


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.cfg"))


def test_out_dir_precedence(monkeypatch):
    values = default_config()
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    assert resolve_out_dir(values, None) == "out"
    monkeypatch.setenv(OUT_DIR_ENV, "/env/dir")
    assert resolve_out_dir(values, None) == "/env/dir"
    assert resolve_out_dir(values, "/flag/dir") == "/flag/dir"


def test_paths_derive_from_out_dir(tmp_path):
    values = default_config()
    paths = resolve_paths(values, "runs")
    assert paths["signal"].endswith("signal.csv") and paths["signal"].startswith("runs")
    explicit = tmp_path / "given.csv"
    values["paths.signal"] = str(explicit)
    assert resolve_paths(values, "runs")["signal"] == str(explicit)


def test_builders_thread_seed_and_policy():
    values = default_config()
    values["labels.class2_start_s"] = 90.0
    values["labels.class3_len_s"] = 30.0
    cfg = synth_config(values, seed=7)
    assert cfg.seed == 7
    # the generator's precursor lead and eruption length come from the label
    # policy so ground truth stays gapless
    assert cfg.precursor_lead_s == 90.0
    assert cfg.eruption_len_s == 30.0
    assert forest_params(values, seed=7).seed == 7
    policy = label_policy(values)
    assert policy.class2_start_s == 90.0


def test_bool_spellings(tmp_path):
    for raw, expected in (("yes", True), ("0", False), ("ON", True), ("off", False)):
        path = tmp_path / "b.cfg"
        path.write_text(f"forest.bootstrap = {raw}\n")
        assert load_config(str(path))["forest.bootstrap"] is expected
    path = tmp_path / "b.cfg"
    path.write_text("forest.bootstrap = maybe\n")
    with pytest.raises(ConfigError, match="bad value for forest.bootstrap"):
        load_config(str(path))
