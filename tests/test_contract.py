"""The config half of the exit-code contract, on a fixed edge table.

Every config key but `out.dir` and `paths.*` is set, one at a time, to each
value of `EDGE_VALUES` on the tests' tiny config.  `load_config` must return
or raise ConfigError, and nothing else.  A value it refuses exits 2 from
`pipeline --compare` before `--out` is made; a value it accepts runs
`pipeline --compare` to exit 0, 3 or 4 without raising.  Every accepted case
runs, each as its own test.
"""

import os
import tempfile

import pytest

from geyserstate.cli import main
from geyserstate.config import CONFIG_KEYS, load_config
from geyserstate.errors import ConfigError

with open(os.path.join(os.path.dirname(__file__), "tiny.cfg"), encoding="utf-8") as _fh:
    TINY_CFG = _fh.read()

EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "3", "0.5")
KEYS = [key for key in CONFIG_KEYS if key != "out.dir" and not key.startswith("paths.")]


def _write(directory, key, value) -> str:
    path = os.path.join(directory, "edge.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TINY_CFG + f"{key} = {value}\n")
    return path


def _outcome(directory, key, value):
    """True when load_config accepts the case, False when it refuses it,
    and the exception when anything else escapes."""
    try:
        load_config(_write(directory, key, value))
    except ConfigError:
        return False
    except Exception as exc:  # reported by the first test below
        return exc
    return True


# (key, value) -> outcome, built at collection so each accepted case is a test
with tempfile.TemporaryDirectory() as _dir:
    TABLE = {(key, value): _outcome(_dir, key, value) for key in KEYS for value in EDGE_VALUES}
ACCEPTED = [case for case, got in TABLE.items() if got is True]


def test_load_config_returns_or_raises_config_error_on_every_edge():
    assert len(KEYS) == 51 and len(TABLE) == 459
    escaped = {case: repr(got) for case, got in TABLE.items() if not isinstance(got, bool)}
    assert escaped == {}
    assert 0 < len(ACCEPTED) < len(TABLE)


def test_a_refused_edge_exits_2_before_out_is_made(tmp_path, capsys):
    out = tmp_path / "o"
    for (key, value), got in TABLE.items():
        if got is not False:
            continue
        cfg = _write(str(tmp_path), key, value)
        assert main(["pipeline", "--compare", "--config", cfg, "--out", str(out)]) == 2, key
        assert capsys.readouterr().err.startswith(f"error: {cfg}:"), (key, value)
        assert not out.exists(), (key, value)


@pytest.mark.parametrize("key, value", ACCEPTED, ids=[f"{k}={v}" for k, v in ACCEPTED])
def test_an_accepted_edge_runs_the_pipeline_to_a_contract_exit(tmp_path, key, value):
    cfg = _write(str(tmp_path), key, value)
    out = str(tmp_path / "o")
    assert main(["pipeline", "--compare", "--config", cfg, "--out", out]) in (0, 3, 4)
