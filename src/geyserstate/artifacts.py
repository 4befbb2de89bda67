"""The one place the package opens an artifact file.

Every artifact but a series file is plain UTF-8 text (a leading
byte-order mark is dropped): `# ` comment lines, an optional column-header
line, then one comma-separated row per line.  Comment lines may carry
`key=value` tokens (`# seed=42`, `# params n_trees=100 ...`); the reader
collects them into `meta`.

Any fault met while reading, including building the domain object inside
the `with` block, becomes a `DataError` naming the file (and the line when
the fault is in a row), so an unreadable artifact always exits 3; so does
a table the package wrote whose last line lacks the newline `write_table` ends it with.

It is also the one place that spells a table cell.  `write_table` is the
one text writer: it writes a table in chunks of rows, floats by `repr`
(the shortest text that reads back bit for bit), integers and booleans by
`str` of the integer, and strings as they are, so memory holds one chunk
of text; a file of plain lines is its one-string-column case.  Its
inverse, `ArtifactReader.columns`, parses every cell of rows held to one
width.

A series (a signal and its filter outputs) is a binary series file,
`write_series` and `read_series`: one line `# series v3 rows=<n> t0=<t0>
fs=<fs>` followed by the writer's `key=value` comments (`seed=<n>`), then
the n amplitudes as raw little-endian float64s, sample i at `t0 + i / fs`.

Both writers follow one failure rule (`_created`): a file that cannot be
opened or written is a `DataError` naming it, and on any failure once it
is opened, interrupts included, the file is removed, so a failed write
leaves no file of its own.  `discard`, which clears a stale artifact before
a write, names a path it cannot remove the same way.

`params_line` and `read_params` are the codec of a model file's `params`
comment, each value parsed by `field_parsers`, the config keys' type table.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np

from .errors import DataError, GeyserStateError

# OverflowError: an integer cell beyond int64 fails when its column is built
_READ_FAULTS = (OSError, ValueError, KeyError, IndexError, OverflowError, GeyserStateError)

# UTF-8 that drops a leading byte-order mark instead of reading it as part
# of the first cell
_READ_ENCODING = "utf-8-sig"

# rows spelled per chunk of a table: bounds the text held in memory while a
# long table is written
_CHUNK_ROWS = 4096
# a series file's header line: its row count and clock, then `key=value` comments
_SERIES_LINE = re.compile(rb"# series v3 rows=([0-9]{1,18}) t0=(\S+) fs=(\S+)(?: [^\s=]+=\S*)*\n")
_SERIES_HEADER_MAX = 1024


def _spelled(column) -> tuple[np.ndarray, Callable[[object], str]]:
    """The column as an array and the function that spells one of its cells."""
    col = np.asarray(column)
    if col.dtype.kind == "b":
        col = col.astype(np.int64)
    return col, repr if col.dtype.kind == "f" else str


@contextmanager
def _created(path: str, mode: str, encoding: str | None = None) -> Iterator:
    """The file at `path`, opened with `mode` for the with-body to write.

    On any failure once it is opened, interrupts included, the file is
    closed and removed, so no file is left half-written.  An OSError, in
    `open` too, becomes a `DataError` naming the file.
    """
    opened = False
    try:
        with open(path, mode, encoding=encoding) as fh:
            opened = True
            yield fh
    except BaseException as exc:
        if opened:
            with suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from None
        raise


def discard(path: str) -> None:
    """Remove the file at `path`, if there is one; any other OSError (a
    directory in its place) is a `DataError` naming it, as in `_created`."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def write_table(
    path: str, comments: Iterable[str], names: Iterable[str] | None, columns: Sequence
) -> None:
    """Write equal-length `columns`, one row per index, under `# <comment>`
    lines and a `names` header (none when None), `_CHUNK_ROWS` rows at a time."""
    cols = [_spelled(c) for c in columns]
    if len({len(col) for col, _ in cols}) > 1:
        raise ValueError(f"columns of unequal length for {path}")
    with _created(path, "w", "utf-8") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        if names is not None:
            fh.write(",".join(names) + "\n")
        for a in range(0, len(cols[0][0]) if cols else 0, _CHUNK_ROWS):
            text = [map(spell, col[a:a + _CHUNK_ROWS].tolist()) for col, spell in cols]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def write_series(
    path: str, comments: Iterable[str], t0: float, fs_hz: float, values: np.ndarray
) -> None:
    """The series file at `path` of the amplitudes `values`, sample i at
    `t0 + i / fs_hz`.

    Its header line is `# series v3 rows=<n> t0=<t0> fs=<fs_hz>` and then
    the comments, each a `key=value` token; a comment that does not fit is
    a ValueError before the file is opened.  The amplitudes go out from
    their own buffer (`tofile`), so no whole-series temporary is made.
    """
    tokens = [f"# series v3 rows={len(values)} t0={t0!r} fs={fs_hz!r}", *comments]
    header = " ".join(tokens).encode() + b"\n"
    if len(header) > _SERIES_HEADER_MAX or not _SERIES_LINE.fullmatch(header):
        raise ValueError(f"comments {tokens[1:]!r} do not fit a series header")
    with _created(path, "wb") as fh:
        fh.write(header)
        np.asarray(values, dtype="<f8").tofile(fh)


def read_series(path: str) -> tuple[float, float, np.ndarray]:
    """The first timestamp, rate and amplitudes of the series file `path`.

    The header must be whole, name at least one row, a finite `t0` and a
    finite positive `fs`, and the file must be the header and 8 bytes a
    row, no more and no less.  Any fault is a `DataError` naming the file.
    """
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_SERIES_HEADER_MAX)
            match = _SERIES_LINE.fullmatch(line)
            if match is None:
                raise ValueError("no `# series v3 rows=<n> t0=<t0> fs=<fs>` header line")
            rows, t0, fs_hz = int(match[1]), float(match[2]), float(match[3])
            if not rows:
                raise ValueError("no rows")
            if not math.isfinite(t0):
                raise ValueError(f"non-finite t0 {t0!r}")
            if not (math.isfinite(fs_hz) and fs_hz > 0):
                raise ValueError(f"rate {fs_hz!r} is not finite and positive")
            size, want = os.fstat(fh.fileno()).st_size, len(line) + 8 * rows
            if size != want:
                raise ValueError(f"{size} bytes where {rows} rows take {want}")
            values = np.empty(rows, dtype="<f8")
            if fh.readinto(values.view(np.uint8)) != 8 * rows:
                raise ValueError("cut short")
    except _READ_FAULTS as exc:
        raise _read_error(path, exc) from None
    return t0, fs_hz, values


class ArtifactReader:
    """Iterates the rows of an open artifact as lists of cells.

    Blank lines are skipped.  With `header` set, the first row is kept in
    `self.header` instead of being yielded.  With `whole_lines` set, a last
    line without its newline, the mark of a file cut short, is a ValueError.
    """

    def __init__(self, fh, header: bool, whole_lines: bool) -> None:
        self._fh = fh
        self._want_header = header
        self._whole_lines = whole_lines
        self.header: list[str] | None = None
        self.meta: dict[str, str] = {}
        # line of the row the caller is working on; None between rows
        self.row_line: int | None = None

    def __iter__(self) -> Iterator[list[str]]:
        for lineno, raw in enumerate(self._fh, start=1):
            if self._whole_lines and not raw.endswith("\n"):
                self.row_line = lineno
                raise ValueError("no newline ends the last line: the file is cut short")
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
def read_artifact(
    path: str, header: bool = False, whole_lines: bool = True
) -> Iterator[ArtifactReader]:
    """Open `path` for streaming; every fault in the block becomes a DataError.
    Only a caller's table (`whole_lines=False`) may end without a newline."""
    reader = None
    try:
        with open(path, "r", encoding=_READ_ENCODING) as fh:
            reader = ArtifactReader(fh, header, whole_lines)
            yield reader
    except _READ_FAULTS as exc:
        where = f" at line {reader.row_line}" if reader and reader.row_line else ""
        raise _read_error(path, exc, where) from None


def _read_error(path: str, exc: Exception, where: str = "") -> DataError:
    """The DataError of a fault met reading `path`."""
    what = "cannot read" if isinstance(exc, (OSError, UnicodeError)) else "malformed"
    # str() of a KeyError is only the quoted key
    detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
    return DataError(f"{what} {path}: {detail}{where}")


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


def parser_for(default, hint=None) -> Callable[[str], object]:
    """The parser of a value annotated `hint`: an `int | None` also reads
    `none`; any other value by the exact type of `default` (a bool is no int)."""
    return _parse_optional_int if hint == int | None else _PARSERS[type(default)]


def field_parsers(cls) -> dict[str, Callable[[str], object]]:
    """Field name -> `parser_for` of each field of the dataclass `cls`,
    by its default and its annotation."""
    hints = get_type_hints(cls)
    return {f.name: parser_for(f.default, hints[f.name]) for f in fields(cls)}


def params_line(params) -> str:
    """`params <field>=<value> ...` of a dataclass in field order, a bool as 0
    or 1 and any other value (None too) by `str`."""
    cells = (f"{k}={int(v) if isinstance(v, bool) else v}" for k, v in asdict(params).items())
    return "params " + " ".join(cells)


def read_params(cls, meta: dict[str, str]):
    """The inverse of `params_line`; a missing field is a KeyError, and a bad
    value a ValueError or whatever `cls` raises."""
    return cls(**{name: parse(meta[name]) for name, parse in field_parsers(cls).items()})
