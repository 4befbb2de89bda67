"""`pipeline --compare` runs its DTW arm in a forked child (`cli._dtw_arm`)
where `cli._fork_refusal` allows: the same bytes and the same failures as in
process, and no process left after a success, a failure or an interrupt.

The fork path runs in a new interpreter with one BLAS thread (the
`forking_cli` fixture); the in-process path runs here, pinned by `in_process`.
"""

import logging
import os
import re
import threading

import pytest

from geyserstate import cli
from geyserstate.cli import main

TINY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tiny.cfg")
FORKED = re.compile(r"INFO geyserstate\.cli: dtw arm: child pid=\d+ seconds=\d+\.\d{3}\n")


def _compare(out):
    return ("pipeline", "--compare", "--config", TINY, "--out", str(out), "--seed", "1")


def _tree(root):
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(base, name), "rb") as fh:
                files[os.path.relpath(os.path.join(base, name), root)] = fh.read()
    return files


def test_the_forked_arm_writes_the_in_process_bytes(
    tmp_path, forking_cli, in_process, capsys, caplog
):
    forked = forking_cli(*_compare(tmp_path / "forked"))
    assert forked.returncode == 0, forked.stderr
    assert FORKED.search(forked.stderr)
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    assert main(list(_compare(tmp_path / "here"))) == 0
    assert "dtw arm: in process (test)" in caplog.text
    assert capsys.readouterr().out == forked.stdout
    here = _tree(tmp_path / "here")
    assert "dtw_reference.csv" in here and "predictions_dtw_pef.csv" in here
    assert _tree(tmp_path / "forked") == here


# the arm's first query raises NAME(...); setattr is monkeypatch's in process
_ARM_RAISES = """
from geyserstate import errors
def refuse(*args):
    raise getattr(errors, NAME)("no neighbour within reach")
setattr(cli, "knn_dtw_classify", refuse)
"""


@pytest.mark.parametrize("name, code", [("DataError", 3), ("NumericError", 4)])
def test_an_error_in_the_forked_arm_exits_as_in_process(
    tmp_path, forking_cli, in_process, monkeypatch, capsys, name, code
):
    forked = forking_cli(*_compare(tmp_path / "forked"), prelude=f"NAME = {name!r}" + _ARM_RAISES)
    assert forked.returncode == code, forked.stderr
    assert FORKED.search(forked.stderr)
    exec(_ARM_RAISES, {"cli": cli, "NAME": name, "setattr": monkeypatch.setattr})
    assert main(list(_compare(tmp_path / "here"))) == code
    error = "error: stage pipeline: stage classify: no neighbour within reach\n"
    assert capsys.readouterr().err.endswith(error)
    assert forked.stderr.endswith(error)


# prints `forked` once the pipeline has forked its arm
_NOTE_FORK = """
def fork(fork=os.fork):
    pid = fork()
    if pid:
        print("forked", file=sys.stderr, flush=True)
    return pid
os.fork = fork
"""


# the series stage is interrupted; the child dies without a result
_INTERRUPT = "def stop(*args):\n    raise KeyboardInterrupt\ncli._write_pipeline_series = stop\n"
_KILL_CHILD = "cli._dtw_predict = lambda *args: os.kill(os.getpid(), 9)\n"


@pytest.mark.parametrize("fault, code, text, prelude", [
    ("plots is a file", 3, "stage series: cannot create directory", ""),
    ("interrupt", 130, "", _INTERRUPT),
    ("child killed", 1, "RuntimeError: dtw arm: child", _KILL_CHILD),
], ids=["plots-file", "interrupt", "child-killed"])
def test_a_failure_while_the_arm_runs_leaves_no_process(
    tmp_path, forking_cli, fault, code, text, prelude
):
    """A series stage that fails or is interrupted while the child runs, and
    a child that dies without a result: the runner exits 99 if a child
    process is left."""
    out = tmp_path / "o"
    out.mkdir()
    if fault == "plots is a file":
        (out / "plots").write_text("")
    proc = forking_cli(*_compare(out), prelude=_NOTE_FORK + prelude)
    assert proc.returncode == code, proc.stderr
    assert "forked\n" in proc.stderr and text in proc.stderr


def test_the_guard_forks_only_with_one_thread(monkeypatch):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        # this process's OS threads, which may include OpenBLAS's
        assert int(re.fullmatch(r"(\d+) threads", cli._fork_refusal())[1]) >= 2
        # where /proc/self/task does not exist, the live Python threads count
        listdir = os.listdir

        def no_proc(path):
            if path == "/proc/self/task":
                raise FileNotFoundError(path)
            return listdir(path)

        monkeypatch.setattr(os, "listdir", no_proc)
        assert cli._fork_refusal() == "2 threads"
    finally:
        stop.set()
        thread.join()
    assert cli._fork_refusal() is None
    monkeypatch.delattr(os, "fork")
    assert cli._fork_refusal() == "no os.fork"


def test_a_failing_fork_runs_the_arm_here(tmp_path, monkeypatch, caplog):
    """os.fork raising OSError (no process to spare): the arm runs in
    process, and both ends of its pipe are closed."""
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "_fork_refusal", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert main(list(_compare(tmp_path / "o"))) == 0
    assert "dtw arm: in process (os.fork failed: [Errno 11] " in caplog.text
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds
