"""Fixtures shared by the artifact and command-line tests."""

import builtins
import collections
import os
import tempfile

import pytest

from geyserstate import artifacts


class SpellTally:
    """Calls of `repr` in the artifact layer, counted across the processes
    of a write pass: each call appends one byte to a file they share, `p`
    from this process and `h` from a write helper."""

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def clear(self) -> None:
        os.ftruncate(self._fd, 0)

    def counts(self) -> collections.Counter:
        marks = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
        return collections.Counter(parent=marks.count(b"p"), helper=marks.count(b"h"))


@pytest.fixture()
def spell_tally(monkeypatch):
    fd, name = tempfile.mkstemp()
    os.close(fd)
    # O_APPEND: the two processes' bytes go one after the other, none over another
    fd = os.open(name, os.O_RDWR | os.O_APPEND)
    os.remove(name)
    parent = os.getpid()

    def counting_repr(value):
        os.write(fd, b"p" if os.getpid() == parent else b"h")
        return builtins.repr(value)

    monkeypatch.setattr(artifacts, "repr", counting_repr, raising=False)
    try:
        yield SpellTally(fd)
    finally:
        os.close(fd)


@pytest.fixture()
def helper_on(monkeypatch):
    """Every write pass with a row forks its helper, on any number of CPUs."""
    monkeypatch.setattr(artifacts, "_FORK_MIN_CHUNKS", 1)
    monkeypatch.setattr(artifacts, "_cpus", lambda: 2)


@pytest.fixture()
def helper_off(monkeypatch):
    """Every write pass runs in one process, as on one CPU."""
    monkeypatch.setattr(artifacts, "_cpus", lambda: 1)
