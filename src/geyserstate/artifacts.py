"""The one place the package opens an artifact file.

Every artifact is plain UTF-8 text: `# ` comment lines, an optional
column-header line, then one comma-separated row per line.  Comment lines
may carry `key=value` tokens (`# seed=42`, `# params n_trees=100 ...`);
the reader collects them into `meta` as it streams, so a comment such as
`# tree=3` in the middle of a file tells the rows after it apart.

Any fault met while reading, including building the domain object inside
the `with` block, becomes a `DataError` naming the file (and the line when
the fault is in a row), so an unreadable artifact always exits 3.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager

from .errors import DataError, GeyserStateError

_READ_FAULTS = (OSError, ValueError, KeyError, IndexError, GeyserStateError)


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


@contextmanager
def read_artifact(path: str, header: bool = False) -> Iterator[ArtifactReader]:
    """Open `path` for streaming; every fault in the block becomes a DataError."""
    reader = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = ArtifactReader(fh, header)
            yield reader
    except _READ_FAULTS as exc:
        what = "cannot read" if isinstance(exc, (OSError, UnicodeError)) else "malformed"
        # str() of a KeyError is only the quoted key
        detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        where = f" at line {reader.row_line}" if reader and reader.row_line else ""
        raise DataError(f"{what} {path}: {detail}{where}") from None
