"""Flat `key = value` configuration with dotted section prefixes.

Every key has a default, so an empty (or absent) file is a valid config.
Unknown keys are rejected rather than ignored: a typo that silently falls
back to a default is worse than an error.  Values are parsed to the type the
key declares; optional integers accept `none`, and no float key accepts
`nan` or `inf`.

Each default lives in one place.  A `synth.*`, `labels.*`, `forest.*` or
`dtw.*` key is a field of `SynthConfig`, `LabelPolicy`, `ForestParams` or
`DtwParams`: it takes its default from the field and its parser from
`artifacts.parser_for` of that default, so a new field of one of these
dataclasses becomes a key.  The few exceptions are named once each below.  The
`features.*` defaults are the constants of `features.py`.  Keys with no
library home (`out.dir`, `seed`, `paths.*`, `filter.*`, `ar.*`, `window.*`,
`split.ratio`) keep literal defaults in `_registry`.
A value outside its key's own range (`_RANGES`) fails in `load_config`,
before a command writes anything; ranges that join keys are the commands'.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .artifacts import parser_for
from .errors import ConfigError
from .dtw import DtwParams
from .features import DEFAULT_CAP, DEFAULT_FDR_Q, DEFAULT_FFT_BINS
from .filters import SUPPORTED_ORDERS
from .forest import ForestParams
from .synth import SynthConfig
from .timeseries import LabelPolicy


def _parse_max_features(raw: str):
    low = raw.strip().lower()
    if low == "sqrt":
        return None  # forest resolves None as floor(sqrt(d))
    return int(raw)


# The exceptions to "a dataclass field is the key <section>.<field>":
_RENAMED = {"window_label_rule": "window_rule"}
_AR_KEYS = ("synth.ar_a1", "synth.ar_a2")  # SynthConfig.ar_coefficients, one key each
# SynthConfig fields read from the label keys, so that the synthetic ground
# truth and the label policy share one class geometry
_FROM_LABELS = {"precursor_lead_s": "labels.class2_start_s", "eruption_len_s": "labels.class3_len_s"}


# key -> (test a parsed value must pass, the range it names)
_RANGES = {
    "filter.order": (lambda v: v in SUPPORTED_ORDERS, f"one of {SUPPORTED_ORDERS}"),
    "ar.max_order": (lambda v: v >= 1, ">= 1"),
    "ar.criterion": (lambda v: v in ("aic", "fixed"), "aic or fixed"),
    "ar.train_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "features.fdr_q": (lambda v: 0 < v < 1, "in (0, 1)"),
    "features.cap": (lambda v: v >= 1, ">= 1"),
    "features.fft_bins": (lambda v: v >= 0, ">= 0"),
    "split.ratio": (lambda v: 0 < v < 1, "in (0, 1)"),
}


def _key(section: str, name: str) -> str:
    return f"{section}.{_RENAMED.get(name, name)}"


def _field_defaults(section: str, cls) -> dict:
    """Key -> default for each field of `cls` set by a key of its section."""
    defaults = {}
    for f in fields(cls):
        if f.name == "ar_coefficients":
            defaults.update(zip(_AR_KEYS, f.default))
        elif f.name != "seed" and f.name not in _FROM_LABELS:  # the seed is --seed or `seed`
            defaults[_key(section, f.name)] = f.default
    return defaults


def _registry() -> dict:
    defaults = {
        "out.dir": "out",
        "seed": 42,
        "paths.signal": "",
        "paths.events": "",
        "paths.classes": "",
        **_field_defaults("synth", SynthConfig),
        "filter.order": 4,
        "filter.corner_hz": 0.1,
        "ar.max_order": 64,
        "ar.criterion": "aic",
        "ar.train_fraction": 0.05,
        "window.length_s": 60.0,
        "window.stride_s": 60.0,
        **_field_defaults("labels", LabelPolicy),
        "features.fdr_q": DEFAULT_FDR_Q,
        "features.cap": DEFAULT_CAP,
        "features.fft_bins": DEFAULT_FFT_BINS,
        **_field_defaults("forest", ForestParams),
        **_field_defaults("dtw", DtwParams),
        "split.ratio": 2.0 / 3.0,
    }
    keys = {key: (d, parser_for(d)) for key, d in defaults.items()}
    keys["forest.max_features"] = (None, _parse_max_features)  # also reads `sqrt`
    return keys


# key -> (default value, parser from string)
CONFIG_KEYS: dict[str, tuple] = _registry()

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
            ok, want = _RANGES.get(key, (None, None))
            if ok and not ok(values[key]):
                raise ValueError(f"{values[key]!r} is not {want}")
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
        "signal": values["paths.signal"] or os.path.join(out_dir, "signal.f8"),
        "events": values["paths.events"] or os.path.join(out_dir, "events.csv"),
        "classes": values["paths.classes"] or os.path.join(out_dir, "classes.csv"),
    }


def _build(cls, section: str, values: dict, **given):
    """`cls` from the keys of its section; `given` sets the fields without one."""
    keyed = {f.name: values[_key(section, f.name)] for f in fields(cls) if f.name not in given}
    return cls(**keyed, **given)


def synth_config(values: dict, seed: int) -> SynthConfig:
    return _build(
        SynthConfig,
        "synth",
        values,
        ar_coefficients=tuple(values[key] for key in _AR_KEYS),
        seed=seed,
        **{name: values[key] for name, key in _FROM_LABELS.items()},
    )


def label_policy(values: dict) -> LabelPolicy:
    return _build(LabelPolicy, "labels", values)


def forest_params(values: dict, seed: int) -> ForestParams:
    return _build(ForestParams, "forest", values, seed=seed)


def dtw_params(values: dict) -> DtwParams:
    return _build(DtwParams, "dtw", values)
