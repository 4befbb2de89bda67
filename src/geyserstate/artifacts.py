"""The one place the package opens an artifact file.

Every artifact but a series table's binary copy is plain UTF-8 text (a
leading byte-order mark is dropped): `# ` comment lines, an optional
column-header line, then one comma-separated row per line.  Comment lines
may carry `key=value` tokens (`# seed=42`, `# params n_trees=100 ...`); the
reader collects them into `meta`.

Any fault met while reading, including building the domain object inside
the `with` block, becomes a `DataError` naming the file (and the line when
the fault is in a row), so an unreadable artifact always exits 3.

`read_numeric` is the fast read of an all-number table (the 720k-row
signal files): one `np.loadtxt` call, returning None for anything unusual
so that the caller re-reads through `read_artifact` for its diagnostics.

It is also the one place that spells a table cell.  `write_tables` writes
the tables of one command in one chunked pass: floats by `repr` (the
shortest text that reads back bit for bit), integers and booleans by `str`
of the integer, and strings as they are.  A column that several tables of
the pass hold (the time grid of signal.csv, classes.csv, bh.csv and pef.csv,
the rows the event traces repeat) is spelled once per cell.  The pass cuts
the rows into segments at every chunk boundary and every table's first and
end row; a column is spelled once over a segment for all the tables that
hold it, and memory holds only one chunk of text.  A large pass on a
process that may use two CPUs is split by segment over two processes: a
forked helper spells the segments from a chunk boundary near the middle
into anonymous temporary files, which are appended to the tables once it
exits, so the bytes are those of the one-process pass.  `write_table` is
its one-table case and `write_artifact` its one-string-column case.  Their
inverse, `ArtifactReader.columns`, parses every cell of rows held to one
width.

A series table (`Table.twin`) also gets a binary copy beside it,
`<stem>.f8`, written by the same pass once the table is closed: one line
`# series-twin v1 csv_sha256=<hex> rows=<n>`, then each column in turn as
n raw little-endian float64s.  `read_twin` uses a copy only while the
SHA-256 of the text table is the one in its header, so the text stays the
source of truth and a copy is safe to delete; the pass deletes a table's
copy when it opens the table, so none outlives a rewrite.

`params_line` and `read_params` are the codec of a model file's `params`
comment, each value parsed by `parser_for`, the config keys' type table.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import shutil
import signal
import tempfile
import threading
import time
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields
from typing import NamedTuple, TextIO

import numpy as np

from .errors import DataError, GeyserStateError

# OverflowError: an integer cell beyond int64 fails when its column is built
_READ_FAULTS = (OSError, ValueError, KeyError, IndexError, OverflowError, GeyserStateError)

# UTF-8 that drops a leading byte-order mark instead of reading it as part
# of the first cell
_READ_ENCODING = "utf-8-sig"

# rows spelled per chunk of a table: bounds the text held in memory while a
# 720k-row series file is written
_CHUNK_ROWS = 4096
# a pass of fewer chunks stays in one process.  Forking a 176 MB process,
# waiting for it and appending its rows cost about 30 ms on a 2-core box,
# half a chunk of the pipeline's four series files; there the two-process
# pass tied the one-process pass at 2 chunks and took 2/3 of its time at 8
_FORK_MIN_CHUNKS = 8
# the longest failure message a write helper sends back
_REPORT_BYTES = 1024
# a table is hashed, and a binary copy's timestamps are checked, in blocks
# of this many bytes
_BLOCK_BYTES = 1 << 20
_TWIN_HEADER = "# series-twin v1 csv_sha256={} rows={}\n"
_TWIN_LINE = re.compile(rb"# series-twin v1 csv_sha256=([0-9a-f]{64}) rows=([0-9]{1,18})\n")
_TWIN_HEADER_MAX = len(_TWIN_HEADER.format("0" * 64, 10**18 - 1))

_log = logging.getLogger(__name__)


class Table(NamedTuple):
    """One file of a write pass: rows `start:stop` of equal-length `columns`
    under `# <comment>` lines and a `names` header (none when None).

    The row range follows slice rules, so a reversed range gives a file with
    no rows.  Tables of one pass that hold the same column object share its
    spelled cells.  A `twin` table, of float columns, also gets a binary
    copy at `twin_path(path)`.
    """

    path: str
    comments: Iterable[str]
    names: Iterable[str] | None
    columns: Sequence
    start: int = 0
    stop: int | None = None
    twin: bool = False


def twin_path(path: str) -> str | None:
    """Where the binary copy of the table at `path` goes: `<stem>.f8`, or
    None for a table whose own name ends in `.f8`."""
    stem, ext = os.path.splitext(path)
    return None if ext == ".f8" else stem + ".f8"


def _sha256(path: str) -> str:
    """The SHA-256 of a file, read in blocks into one buffer."""
    digest = hashlib.sha256()
    buf = bytearray(_BLOCK_BYTES)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            digest.update(view[:size])
    return digest.hexdigest()


def _write_twin(path: str, table_path: str, columns: Sequence[np.ndarray]) -> None:
    """The binary copy of the closed table at `table_path`, whose rows hold
    `columns`; each column goes out from its own buffer (`tofile`), so no
    whole-series temporary is made."""
    header = _TWIN_HEADER.format(_sha256(table_path), len(columns[0]))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for col in columns:
            col.astype("<f8", copy=False).tofile(fh)


def _spelled(column) -> tuple[np.ndarray, Callable[[object], str]]:
    """The column as an array and the function that spells one of its cells."""
    col = np.asarray(column)
    if col.dtype.kind == "b":
        col = col.astype(np.int64)
    return col, repr if col.dtype.kind == "f" else str


def _write_rows(outs, spans, spelled, bounds: Sequence[int]) -> None:
    """Rows `bounds[0]:bounds[-1]` of every table, segment by segment, table
    k's to `outs[k]`, a (path, text handle) pair.

    Consecutive bounds delimit a segment that each table covers whole or not
    at all.  A column that a covering table holds is spelled once over the
    segment, and every covering table writes that text whole, so memory
    holds one segment of text per column.
    """
    for a, b in zip(bounds, bounds[1:]):
        text = {}
        for (path, fh), (lo, hi, keys) in zip(outs, spans):
            if a < lo or hi < b:
                continue
            for key in keys:
                if key not in text:
                    col, spell = spelled[key]
                    text[key] = list(map(spell, col[a:b].tolist()))
            try:
                fh.write("\n".join(map(",".join, zip(*(text[k] for k in keys)))) + "\n")
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc}") from None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_split(end: int) -> int:
    """The chunk boundary near the middle of rows `0:end` from which a helper
    process writes the pass, or `end` when the pass stays in one process."""
    chunks = -(-end // _CHUNK_ROWS)
    if (chunks < _FORK_MIN_CHUNKS or not hasattr(os, "fork")
            or threading.active_count() > 1 or _cpus() < 2):
        return end
    return chunks // 2 * _CHUNK_ROWS


def _fork_helper(outs, spans, spelled, bounds: Sequence[int]) -> tuple[int, int]:
    """Fork a process that writes the segments between `bounds` of every
    table to `outs`.

    Returns its pid and the read end of a pipe.  The helper always leaves
    through `os._exit`, so it runs no exit handler and flushes none of the
    buffers it inherited: with code 0 once every table's rows are written
    and flushed, else with code 1 after sending a `cannot write <path>: ...`
    message down the pipe.
    """
    reader, writer = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process that has other OS threads
            # forks (OpenBLAS starts its workers at import); the helper calls
            # no BLAS and takes no lock, so the threads it lacks are not missed
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        code = 1
        try:
            _write_rows(outs, spans, spelled, bounds)
            for _, fh in outs:
                fh.flush()
            code = 0
        except BaseException as exc:
            text = str(exc) if isinstance(exc, DataError) else (
                f"cannot write {outs[0][0]}: write helper failed: {exc!r}")
            os.write(writer, text.encode()[:_REPORT_BYTES])
        finally:
            os._exit(code)
    os.close(writer)
    return pid, reader


def write_tables(tables: Sequence[Table]) -> None:
    """Write every table in one pass that spells each needed cell once.

    Rows go out segment by segment (see `_write_rows`): the segments are cut
    at every multiple of `_CHUNK_ROWS` and at every table's first and end
    row, so none is longer than a chunk and each table covers a segment
    whole or not at all.  When the pass has at least `_FORK_MIN_CHUNKS`
    chunks, `os.fork` exists, the process may run on two CPUs and no other
    Python thread is alive, a forked helper writes the segments from a
    chunk boundary near the middle into one anonymous temporary file per
    table while this process writes the segments before it; each table
    then gets its temporary file appended.  Either way the files hold the
    same bytes, and each cell is spelled once by one of the two processes.

    A `twin` table's old binary copy is deleted as the table is opened, and
    its new copy is written once every table is closed (`_write_twin`).

    A table or copy that cannot be opened or written is a `DataError` naming
    it, and so is a helper that fails or exits nonzero.  On any failure,
    interrupts included, the pass kills and reaps the helper and closes and
    removes every table it opened and every copy it started, so no process
    outlives it, no table is left half-written and no copy is left without
    its table.
    """
    spelled: dict[int, tuple[np.ndarray, Callable[[object], str]]] = {}
    spans = []  # per table: (first row, end row, keys of its columns)
    for table in tables:
        keys = [id(c) for c in table.columns]
        for key, column in zip(keys, table.columns):
            if key not in spelled:
                spelled[key] = _spelled(column)
        n = len(spelled[keys[0]][0]) if keys else 0
        if any(len(spelled[k][0]) != n for k in keys):
            raise ValueError(f"columns of unequal length for {table.path}")
        lo, hi, _ = slice(table.start, table.stop).indices(n)
        spans.append((lo, max(lo, hi), keys))
    end = max((hi for _, hi, _ in spans), default=0)
    bounds = sorted({*range(0, end, _CHUNK_ROWS), end}.union(*(s[:2] for s in spans)))
    split = _helper_split(end)

    twins = [twin_path(t.path) if t.twin else None for t in tables]
    opened: list[tuple[str, TextIO]] = []
    started: list[str] = []  # the binary copies this pass deleted or wrote
    temps: list[TextIO] = []  # the helper's rows, one file per table
    pid = report = None  # the helper until it is reaped, and its pipe
    waited = 0.0
    path = None
    try:
        for table, twin in zip(tables, twins):
            if twin is not None:
                path = twin
                started.append(twin)
                with suppress(FileNotFoundError):
                    os.remove(twin)
            path = table.path
            fh = open(path, "w", encoding="utf-8")
            opened.append((path, fh))
            fh.writelines(f"# {comment}\n" for comment in table.comments)
            if table.names is not None:
                fh.write(",".join(table.names) + "\n")
        if split < end:
            for path, _ in opened:
                temps.append(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", dir=os.path.dirname(os.path.abspath(path))))
            outs = [(path, tmp) for (path, _), tmp in zip(opened, temps)]
            try:
                pid, report = _fork_helper(
                    outs, spans, spelled, [b for b in bounds if b >= split])
            except OSError:  # no process or pipe to spare: write every row here
                split = end
        _write_rows(opened, spans, spelled, [b for b in bounds if b <= split])
        if pid is not None:
            t0 = time.perf_counter()
            status = os.waitpid(pid, 0)[1]
            pid = None
            waited = time.perf_counter() - t0
            code = os.waitstatus_to_exitcode(status)
            if code:
                text = os.read(report, _REPORT_BYTES).decode(errors="replace")
                raise DataError(text or f"cannot write {opened[0][0]}: write helper exited {code}")
            for (path, fh), tmp in zip(opened, temps):
                fh.flush()
                tmp.seek(0)
                shutil.copyfileobj(tmp.buffer, fh.buffer)
        for path, fh in opened:
            fh.close()
        for table, twin, (lo, hi, keys) in zip(tables, twins, spans):
            if twin is not None:
                path = twin
                _write_twin(twin, table.path, [spelled[k][0][lo:hi] for k in keys])
    except BaseException as exc:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for name, fh in opened:
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                os.remove(name)
        for name in started:
            with suppress(OSError):
                os.remove(name)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from None
        raise
    finally:
        for tmp in temps:
            with suppress(OSError):
                tmp.close()
        if report is not None:
            os.close(report)
    _log.debug(
        "write pass: %d tables, %d rows, %s", len(tables), end,
        f"helper from row {split}, waited {waited:.3f} s" if split < end else "one process",
    )


def write_table(
    path: str, comments: Iterable[str], names: Iterable[str] | None, columns: Sequence
) -> None:
    """Write equal-length columns as comma-separated rows under a `names` header."""
    write_tables([Table(path, comments, names, columns)])


def write_artifact(
    path: str, comments: Iterable[str], header: str | None, rows: Iterable[str]
) -> None:
    """Write `# <comment>` lines, the header line if any, then one line per row."""
    write_table(path, comments, None if header is None else (header,), (list(rows),))


class ArtifactReader:
    """Iterates the rows of an open artifact as lists of cells.

    Blank lines are skipped.  With `header` set, the first row is kept in
    `self.header` instead of being yielded.
    """

    def __init__(self, fh, header: bool) -> None:
        self._fh = fh
        self._want_header = header
        self.header: list[str] | None = None
        self.meta: dict[str, str] = {}
        # line of the row the caller is working on; None between rows
        self.row_line: int | None = None

    def __iter__(self) -> Iterator[list[str]]:
        for lineno, raw in enumerate(self._fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                for token in line[1:].split():
                    key, sep, value = token.partition("=")
                    if sep:
                        self.meta[key] = value
                continue
            cells = line.split(",")
            if self._want_header and self.header is None:
                self.header = cells
                continue
            self.row_line = lineno
            yield cells
            self.row_line = None

    def columns(self, *kinds: type) -> list[np.ndarray]:
        """The rows as one array per column, the inverse of `write_table`.

        Every row has the width of the header (with `header` set) or else of
        the first row, and at least one cell per kind.  Cell j is parsed by
        `kinds[j]` (`float`, `int` or `str`), every cell past the last kind
        by the last kind.  A table with no rows gives empty columns.
        """
        cols, parsers = [[] for _ in kinds], kinds
        for cells in self:
            if not cols[0]:  # the first row: fix the width
                width = len(self.header or cells)
                if width < len(kinds):
                    raise ValueError(f"expected at least {len(kinds)} cells, got {width}")
                parsers = kinds + kinds[-1:] * (width - len(kinds))
                cols = [[] for _ in parsers]
            if len(cells) != len(cols):
                raise ValueError(f"expected {len(cols)} cells, got {len(cells)}")
            for col, parse, cell in zip(cols, parsers, cells):
                col.append(parse(cell))
        return [np.array(col, dtype=parse) for col, parse in zip(cols, parsers)]


@contextmanager
def read_artifact(path: str, header: bool = False) -> Iterator[ArtifactReader]:
    """Open `path` for streaming; every fault in the block becomes a DataError."""
    reader = None
    try:
        with open(path, "r", encoding=_READ_ENCODING) as fh:
            reader = ArtifactReader(fh, header)
            yield reader
    except _READ_FAULTS as exc:
        what = "cannot read" if isinstance(exc, (OSError, UnicodeError)) else "malformed"
        # str() of a KeyError is only the quoted key
        detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        where = f" at line {reader.row_line}" if reader and reader.row_line else ""
        raise DataError(f"{what} {path}: {detail}{where}") from None


def _is_numeric(line: str) -> bool:
    try:
        [float(cell) for cell in line.split(",")]
    except ValueError:
        return False
    return True


def read_numeric(path: str) -> np.ndarray | None:
    """The rows of a comma-separated number table as one 2-D float array.

    Leading blank and `#` lines are skipped, and so is one first row with a
    cell that `float` rejects (a column header).  `np.loadtxt` parses the
    rest with no comment character, so it accepts a subset of what
    `read_artifact` streams: no later comment, whitespace-only line, `1_0`
    digit group or trailing `# ...`.  The floats it accepts are the ones
    `float` reads, bit for bit.  Anything unusual (an OS or decode error, a
    parse error, a header and no row after it) gives None, and the caller
    re-reads the file with `read_artifact`, which says what is wrong.
    """
    skip = 0
    header = False
    try:
        with open(path, "r", encoding=_READ_ENCODING) as fh:
            for line in fh:
                text = line.strip()
                if text and text[0] != "#":
                    if header or _is_numeric(text):
                        break
                    header = True
                skip += 1
            else:
                # no row to parse: loadtxt would warn and return an empty array
                return None
        return np.loadtxt(
            path, delimiter=",", comments=None, skiprows=skip, ndmin=2, encoding=_READ_ENCODING
        )
    except (OSError, ValueError):
        return None


def read_twin(
    path: str, check: Callable[[np.ndarray], bool]
) -> tuple[float, np.ndarray] | None:
    """The first timestamp and the amplitudes of the two-column series table
    at `path`, from its binary copy, or None when the copy cannot stand in
    for the table.

    The copy is used only when its header is whole, its length is that of
    its `rows`, at least one, and the table's SHA-256, taken in blocks, is
    the one it names.  Its timestamps are then read in blocks, each led by
    the last timestamp of the block before it, and `check` must pass every
    block: reading them as one array would hold a second whole-series
    buffer next to the amplitudes.  Any fault, an OS error included, gives
    None, and the caller parses the table itself.
    """
    twin = twin_path(path)
    if twin is None:
        return None
    try:
        with open(twin, "rb") as fh:
            line = _TWIN_LINE.fullmatch(fh.readline(_TWIN_HEADER_MAX))
            if line is None:
                return None
            rows = int(line[2])
            if not rows or os.fstat(fh.fileno()).st_size != line.end() + 16 * rows:
                return None
            if _sha256(path) != line[1].decode():
                return None
            step = _BLOCK_BYTES // 8
            block = np.empty(step + 1, dtype="<f8")
            for first in range(0, rows, step):
                size = min(step, rows - first)
                if fh.readinto(block[1:size + 1].view(np.uint8)) != 8 * size:
                    return None
                if not first:
                    t0 = float(block[1])
                if not check(block[0 if first else 1:size + 1]):
                    return None
                block[0] = block[size]
            del block  # before the amplitudes' buffer is taken
            values = np.empty(rows, dtype="<f8")
            if fh.readinto(values.view(np.uint8)) != 8 * rows:
                return None
    except OSError:
        return None
    return t0, values


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


_PARSERS = {bool: _parse_bool, int: int, float: _parse_float, str: str, tuple: _parse_float_list}


def parser_for(default) -> Callable[[str], object]:
    """The parser for the exact type of `default` (a bool is no int); None: optional int."""
    return _parse_optional_int if default is None else _PARSERS[type(default)]


def params_line(params) -> str:
    """`params <field>=<value> ...` of a dataclass in field order, a bool as 0
    or 1 and any other value (None too) by `str`."""
    cells = (f"{k}={int(v) if isinstance(v, bool) else v}" for k, v in asdict(params).items())
    return "params " + " ".join(cells)


def read_params(cls, meta: dict[str, str]):
    """The inverse of `params_line`; a missing field is a KeyError, and a bad
    value a ValueError or whatever `cls` raises."""
    return cls(**{f.name: parser_for(f.default)(meta[f.name]) for f in fields(cls)})
