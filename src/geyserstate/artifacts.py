"""The one place the package opens an artifact file.

Every artifact is plain UTF-8 text (a leading byte-order mark is dropped):
`# ` comment lines, an optional column-header line, then one
comma-separated row per line.  Comment lines may carry `key=value` tokens
(`# seed=42`, `# params n_trees=100 ...`); the reader collects them into
`meta`.

Any fault met while reading, including building the domain object inside
the `with` block, becomes a `DataError` naming the file (and the line when
the fault is in a row), so an unreadable artifact always exits 3.

`read_numeric` is the fast read of an all-number table (the 720k-row
signal files): one `np.loadtxt` call, returning None for anything unusual
so that the caller re-reads through `read_artifact` for its diagnostics.

It is also the one place that spells a table cell: `write_table` writes
floats by `repr` (the shortest text that reads back bit for bit), integers
and booleans by `str` of the integer, and strings as they are.  Its inverse,
`ArtifactReader.columns`, parses every cell of rows held to one width.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

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


def write_artifact(
    path: str, comments: Iterable[str], header: str | None, rows: Iterable[str]
) -> None:
    """Write `# <comment>` lines, the header line if any, then one line per row."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for comment in comments:
                fh.write(f"# {comment}\n")
            if header is not None:
                fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _spelled(column) -> tuple[np.ndarray, Callable[[object], str]]:
    """The column as an array and the function that spells one of its cells."""
    col = np.asarray(column)
    if col.dtype.kind == "b":
        col = col.astype(np.int64)
    return col, repr if col.dtype.kind == "f" else str


def write_table(
    path: str, comments: Iterable[str], names: Iterable[str] | None, columns: Iterable
) -> None:
    """Write equal-length columns as comma-separated rows under a `names` header."""
    spelled = [_spelled(c) for c in columns]
    n = len(spelled[0][0]) if spelled else 0
    if any(len(col) != n for col, _ in spelled):
        raise ValueError(f"columns of unequal length for {path}")

    def chunks() -> Iterator[str]:
        # each chunk of rows reaches write_artifact as one multi-line row
        for lo in range(0, n, _CHUNK_ROWS):
            cells = [map(spell, col[lo:lo + _CHUNK_ROWS].tolist()) for col, spell in spelled]
            yield "\n".join(map(",".join, zip(*cells)))

    write_artifact(path, comments, None if names is None else ",".join(names), chunks())


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
