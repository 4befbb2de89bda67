"""`pipeline --compare` runs its DTW arm in forked children, one per CPU on
contiguous slices of the test windows (`cli._dtw_arm`), where
`cli._fork_refusal` allows: the same bytes and the same failures as in
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


# the process may run on CPUS CPUs, whatever the machine has
_CPUS = "os.sched_getaffinity = lambda pid: set(range(CPUS))\n"


def test_the_forked_arm_writes_the_in_process_bytes(
    tmp_path, forking_cli, in_process, capsys, caplog
):
    """Three CPUs: three children, each on a slice of the windows."""
    forked = forking_cli(*_compare(tmp_path / "forked"), prelude="CPUS = 3\n" + _CPUS)
    assert forked.returncode == 0, forked.stderr
    assert len(FORKED.findall(forked.stderr)) == 3
    caplog.set_level(logging.INFO, logger="geyserstate.cli")
    assert main(list(_compare(tmp_path / "here"))) == 0
    assert "dtw arm: in process (test)" in caplog.text
    assert capsys.readouterr().out == forked.stdout
    here = _tree(tmp_path / "here")
    assert "dtw_reference.csv" in here and "predictions_dtw_pef.csv" in here
    assert _tree(tmp_path / "forked") == here


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(line[:1].isdigit() for line in fh)


def test_more_cpus_than_windows_fork_one_child_per_window(tmp_path, forking_cli):
    proc = forking_cli(*_compare(tmp_path / "o"), prelude="CPUS = 12\n" + _CPUS)
    assert proc.returncode == 0, proc.stderr
    assert _rows(tmp_path / "o" / "predictions_dtw_pef.csv") == 9
    assert len(FORKED.findall(proc.stderr)) == 9


# the second os.fork raises; the arm then counts this process's open files
_SECOND_FORK_FAILS = _CPUS + """
def count_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
FDS_AT_FORK = []
def fork(fork=os.fork):
    FDS_AT_FORK.append(count_fds())
    if len(FDS_AT_FORK) == 2:
        raise BlockingIOError(11, "Resource temporarily unavailable")
    return fork()
os.fork = fork
def predict(*args, predict=cli._dtw_predict):
    # the first fork's count holds its own pipe's two ends
    print(f"fds before the arm {FDS_AT_FORK[0] - 2}, in it {count_fds()}", file=sys.stderr)
    return predict(*args)
cli._dtw_predict = predict
"""


def test_a_failing_second_fork_stops_the_first_child_and_runs_the_arm_here(
    tmp_path, forking_cli
):
    """The child already forked is killed and reaped (the runner exits 99
    if a child process is left), both ends of every pipe are closed, and
    the arm runs in process."""
    proc = forking_cli(*_compare(tmp_path / "o"), prelude="CPUS = 3\n" + _SECOND_FORK_FAILS)
    assert proc.returncode == 0, proc.stderr
    assert "dtw arm: in process (os.fork failed: [Errno 11] " in proc.stderr
    assert not FORKED.search(proc.stderr)
    fds = re.search(r"fds before the arm (\d+), in it (\d+)\n", proc.stderr)
    assert fds[1] == fds[2]


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


# three CPUs; the second child forked kills itself before it sends anything
_SECOND_CHILD_DIES = "CPUS = 3\n" + _CPUS + """
FORKS = []
def fork(fork=os.fork):
    FORKS.append(1)
    pid = fork()
    if pid == 0 and len(FORKS) == 2:
        cli._dtw_predict = lambda *args: os.kill(os.getpid(), 9)
    return pid
os.fork = fork
"""


# the forest fit, which runs beside the children, raises FAULT
_FIT_RAISES = "def fit(*args):\n    raise FAULT\ncli._rf_fit = fit\n"
_KILL_CHILD = "cli._dtw_predict = lambda *args: os.kill(os.getpid(), 9)\n"


@pytest.mark.parametrize("fault, code, text, prelude", [
    ("bh.f8 is a directory", 3, "error: stage pipeline: stage series: cannot write", ""),
    ("interrupt", 130, "", "FAULT = KeyboardInterrupt\n" + _FIT_RAISES),
    ("data error", 3, "error: stage pipeline: stage train: no forest\n",
     "FAULT = cli.DataError('no forest')\n" + _FIT_RAISES),
    ("child killed", 1, "RuntimeError: dtw arm: child", _KILL_CHILD),
    ("one child of three killed", 1, "RuntimeError: dtw arm: child", _SECOND_CHILD_DIES),
], ids=["bh-directory", "interrupt", "data-error", "child-killed", "one-of-three-children-killed"])
def test_a_failure_while_the_arm_runs_leaves_no_process(
    tmp_path, forking_cli, fault, code, text, prelude
):
    """A forest fit that fails or is interrupted while the children run, a
    write block that fails once they are joined, and every child or one of
    three dying without a result: the runner exits 99 if a child process is
    left."""
    out = tmp_path / "o"
    out.mkdir()
    if fault == "bh.f8 is a directory":
        (out / "bh.f8").mkdir()
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
