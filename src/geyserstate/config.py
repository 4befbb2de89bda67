"""Flat `key = value` configuration with dotted section prefixes.

Every key has a default, so an empty (or absent) file is a valid config.
Unknown keys are rejected rather than ignored: a typo that silently falls
back to a default is worse than an error.  Values are parsed to the type the
key declares; optional integers accept `none`, and no float key accepts
`nan` or `inf`.
"""

from __future__ import annotations

import math
import os

from .errors import ConfigError
from .dtw import DtwParams
from .forest import ForestParams
from .synth import DEFAULT_EVENT_TIMES, SynthConfig
from .timeseries import LabelPolicy


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_optional_int(raw: str):
    low = raw.strip().lower()
    if low in ("none", "null", ""):
        return None
    return int(raw)


def _parse_float_list(raw: str) -> tuple:
    stripped = raw.strip()
    if not stripped:
        return ()
    return tuple(_parse_float(v) for v in stripped.split(","))


def _parse_max_features(raw: str):
    low = raw.strip().lower()
    if low == "sqrt":
        return None  # forest resolves None as floor(sqrt(d))
    return int(raw)


# key -> (default value, parser from string)
CONFIG_KEYS: dict[str, tuple] = {
    "out.dir": ("out", str),
    "seed": (42, int),
    "paths.signal": ("", str),
    "paths.events": ("", str),
    "paths.classes": ("", str),
    "synth.duration_s": (3600.0, _parse_float),
    "synth.fs_hz": (200.0, _parse_float),
    "synth.day_period_s": (1200.0, _parse_float),
    "synth.seasonal_amplitude": (2000.0, _parse_float),
    "synth.seasonal_period_s": (1200.0, _parse_float),
    "synth.seasonal_phase": (0.0, _parse_float),
    "synth.ar_a1": (1.79992, _parse_float),
    "synth.ar_a2": (-0.81, _parse_float),
    "synth.ar_sigma": (0.5, _parse_float),
    "synth.burst_rate_per_hour": (30.0, _parse_float),
    "synth.burst_amp_lo": (20.0, _parse_float),
    "synth.burst_amp_hi": (60.0, _parse_float),
    "synth.burst_dur_lo_s": (4.0, _parse_float),
    "synth.burst_dur_hi_s": (12.0, _parse_float),
    "synth.burst_freq_lo_hz": (0.2, _parse_float),
    "synth.burst_freq_hi_hz": (0.5, _parse_float),
    "synth.day_active_lo": (0.08, _parse_float),
    "synth.day_active_hi": (0.75, _parse_float),
    "synth.event_times_s": (DEFAULT_EVENT_TIMES, _parse_float_list),
    "synth.precursor_amplitude": (2.5, _parse_float),
    "synth.chirp_f0_hz": (12.0, _parse_float),
    "synth.chirp_f1_hz": (20.0, _parse_float),
    "synth.eruption_amplitude": (0.6, _parse_float),
    "synth.eruption_tone_hz": (25.0, _parse_float),
    "synth.enforce_amplitude_cap": (True, _parse_bool),
    "filter.order": (4, int),
    "filter.corner_hz": (0.1, _parse_float),
    "ar.max_order": (64, int),
    "ar.criterion": ("aic", str),
    "ar.train_fraction": (0.05, _parse_float),
    "window.length_s": (60.0, _parse_float),
    "window.stride_s": (60.0, _parse_float),
    "labels.class2_start_s": (180.0, _parse_float),
    "labels.class2_end_s": (0.0, _parse_float),
    "labels.class3_len_s": (120.0, _parse_float),
    "labels.window_rule": ("window-end-time", str),
    "features.fdr_q": (0.05, _parse_float),
    "features.cap": (100, int),
    "features.fft_bins": (32, int),
    "forest.n_trees": (100, int),
    "forest.max_features": (None, _parse_max_features),
    "forest.min_samples_leaf": (1, int),
    "forest.max_depth": (None, _parse_optional_int),
    "forest.bootstrap": (True, _parse_bool),
    "dtw.k_neighbors": (1, int),
    "dtw.local_cost": ("squared", str),
    "dtw.band_radius": (None, _parse_optional_int),
    "dtw.downsample_to": (600, int),
    "dtw.z_normalize": (False, _parse_bool),
    "split.ratio": (2.0 / 3.0, _parse_float),
}

OUT_DIR_ENV = "GEYSERSTATE_OUT"


def default_config() -> dict:
    return {key: default for key, (default, _) in CONFIG_KEYS.items()}


def load_config(path: str | None) -> dict:
    """Parse a config file over the defaults; None means pure defaults."""
    values = default_config()
    if path is None:
        return values
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        _, parser = CONFIG_KEYS[key]
        try:
            values[key] = parser(raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_out_dir(values: dict, cli_out: str | None) -> str:
    """Precedence: --out flag, then the environment override, then config."""
    if cli_out:
        return cli_out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    return values["out.dir"]


def resolve_paths(values: dict, out_dir: str) -> dict:
    """Blank path keys derive from the output directory."""
    return {
        "signal": values["paths.signal"] or os.path.join(out_dir, "signal.csv"),
        "events": values["paths.events"] or os.path.join(out_dir, "events.csv"),
        "classes": values["paths.classes"] or os.path.join(out_dir, "classes.csv"),
    }


def synth_config(values: dict, seed: int) -> SynthConfig:
    return SynthConfig(
        duration_s=values["synth.duration_s"],
        fs_hz=values["synth.fs_hz"],
        day_period_s=values["synth.day_period_s"],
        seasonal_amplitude=values["synth.seasonal_amplitude"],
        seasonal_period_s=values["synth.seasonal_period_s"],
        seasonal_phase=values["synth.seasonal_phase"],
        ar_coefficients=(values["synth.ar_a1"], values["synth.ar_a2"]),
        ar_sigma=values["synth.ar_sigma"],
        burst_rate_per_hour=values["synth.burst_rate_per_hour"],
        burst_amp_lo=values["synth.burst_amp_lo"],
        burst_amp_hi=values["synth.burst_amp_hi"],
        burst_dur_lo_s=values["synth.burst_dur_lo_s"],
        burst_dur_hi_s=values["synth.burst_dur_hi_s"],
        burst_freq_lo_hz=values["synth.burst_freq_lo_hz"],
        burst_freq_hi_hz=values["synth.burst_freq_hi_hz"],
        day_active_lo=values["synth.day_active_lo"],
        day_active_hi=values["synth.day_active_hi"],
        event_times_s=tuple(values["synth.event_times_s"]),
        precursor_lead_s=values["labels.class2_start_s"],
        precursor_amplitude=values["synth.precursor_amplitude"],
        chirp_f0_hz=values["synth.chirp_f0_hz"],
        chirp_f1_hz=values["synth.chirp_f1_hz"],
        eruption_len_s=values["labels.class3_len_s"],
        eruption_amplitude=values["synth.eruption_amplitude"],
        eruption_tone_hz=values["synth.eruption_tone_hz"],
        enforce_amplitude_cap=values["synth.enforce_amplitude_cap"],
        seed=seed,
    )


def label_policy(values: dict) -> LabelPolicy:
    return LabelPolicy(
        class2_start_s=values["labels.class2_start_s"],
        class2_end_s=values["labels.class2_end_s"],
        class3_len_s=values["labels.class3_len_s"],
        window_label_rule=values["labels.window_rule"],
    )


def forest_params(values: dict, seed: int) -> ForestParams:
    return ForestParams(
        n_trees=values["forest.n_trees"],
        max_features=values["forest.max_features"],
        min_samples_leaf=values["forest.min_samples_leaf"],
        max_depth=values["forest.max_depth"],
        bootstrap=values["forest.bootstrap"],
        seed=seed,
    )


def dtw_params(values: dict) -> DtwParams:
    return DtwParams(
        k_neighbors=values["dtw.k_neighbors"],
        local_cost=values["dtw.local_cost"],
        band_radius=values["dtw.band_radius"],
        downsample_to=values["dtw.downsample_to"],
        z_normalize=values["dtw.z_normalize"],
    )
