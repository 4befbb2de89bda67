"""Fixtures that choose where `pipeline --compare` runs its DTW arm.

The arm runs in a forked child only when the process has `os.fork` and no
other OS thread (`cli._fork_refusal`).  OpenBLAS starts its threads at
import unless OPENBLAS_NUM_THREADS=1, so the test process may or may not
fork: `in_process` keeps the arm in this process, and `cli_process` runs a
command in a new interpreter with one BLAS thread, which forks wherever
`CAN_FORK` holds.
"""

import os
import subprocess
import sys

import pytest

from geyserstate import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CAN_FORK = hasattr(os, "fork")

# Runs the statements in argv[1] and then `cli.main(argv[2:])`, and exits with
# its code (130 on KeyboardInterrupt); it exits 99 if a child process is
# left afterwards, reaped or not.
_RUNNER = """
import os, sys
from geyserstate import cli
exec(sys.argv[1])
try:
    code = cli.main(sys.argv[2:])
except KeyboardInterrupt:
    code = 130
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child process is left", file=sys.stderr)
    code = 99
except ChildProcessError:
    pass
sys.exit(code)
"""


@pytest.fixture()
def in_process(monkeypatch):
    """The DTW arm runs in this process, with the reason `test`."""
    monkeypatch.setattr(cli, "_fork_refusal", lambda: "test")


@pytest.fixture()
def cli_process():
    """`run(*argv, prelude="")`: the command's CompletedProcess (text) in a
    new interpreter under `-X dev` with warnings as errors and one BLAS
    thread, after the Python statements in `prelude`, which see `os`,
    `sys` and `cli`.  `run.can_fork` says whether its arm forks."""

    def run(*argv, prelude=""):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", _RUNNER, prelude, *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )

    run.can_fork = CAN_FORK
    return run


@pytest.fixture()
def forking_cli(cli_process):
    """`cli_process` where `pipeline --compare` forks; skips elsewhere."""
    if not CAN_FORK:
        pytest.skip("the DTW arm forks only with os.fork")
    return cli_process
