"""The artifact layer: one writer, a streaming and a numeric reader, one error contract."""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import geyserstate
from geyserstate import artifacts
from geyserstate.artifacts import read_artifact, read_numeric, write_artifact, write_table
from geyserstate.errors import ConfigError, DataError

PACKAGE = pathlib.Path(geyserstate.__file__).parent


# calls that open a file by name: open() and numpy's text and binary readers
FILE_READERS = {"open", "loadtxt", "genfromtxt", "fromfile"}


def test_only_the_artifact_layer_and_config_open_files():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("artifacts.py", "config.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_READERS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, f"file reads outside artifacts.py: {offenders}"


def test_write_then_read_round_trip(tmp_path):
    path = str(tmp_path / "a.csv")
    write_artifact(path, ["seed=7", "params k=3 mode=x"], "a,b", ["1,2", "# part=2", "3,4"])
    assert (tmp_path / "a.csv").read_text() == (
        "# seed=7\n# params k=3 mode=x\na,b\n1,2\n# part=2\n3,4\n"
    )
    seen = []
    with read_artifact(path, header=True) as art:
        for cells in art:
            seen.append((art.meta.get("part"), cells))
    assert art.header == ["a", "b"]
    assert art.meta == {"seed": "7", "k": "3", "mode": "x", "part": "2"}
    assert seen == [(None, ["1", "2"]), ("2", ["3", "4"])]


def test_fault_in_a_row_names_file_and_line(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("# seed=1\n1\n\nx\n")
    with pytest.raises(DataError, match=r"malformed .*a\.csv: .* at line 4"):
        with read_artifact(str(path)) as art:
            [float(v) for (v,) in art]


def test_fault_after_the_rows_names_file_only(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1\n")
    with pytest.raises(DataError) as info:
        with read_artifact(str(path)) as art:
            list(art)
            raise ConfigError("bad value")
    assert str(info.value).endswith("a.csv: bad value")


def test_missing_key_and_undecodable_bytes(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("# n=1\n")
    with pytest.raises(DataError, match="missing 'k'"):
        with read_artifact(str(path)) as art:
            list(art)
            art.meta["k"]
    path.write_bytes(b"\xff\xfe1\n")
    with pytest.raises(DataError, match=r"cannot read .*a\.csv: 'utf-8' codec") as info:
        with read_artifact(str(path)) as art:
            list(art)
    assert "\\x" not in str(info.value)


def test_read_numeric_skips_leading_comments_and_one_header(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"\xef\xbb\xbf# seed=3\n\nt,x\n# units\n0.5,1.5\r\n1.0,-0.0\n")
    table = read_numeric(str(path))
    assert table.shape == (2, 2)
    assert table.tolist() == [[0.5, 1.5], [1.0, -0.0]]
    assert np.signbit(table[1, 1])
    path.write_text("2.5\n")
    assert read_numeric(str(path)).shape == (1, 1)


@pytest.mark.parametrize(
    "text",
    [
        "",  # no rows at all
        "# seed=1\n\n",
        "t,x\n",  # a header and nothing after it
        "t,x\nunits,counts\n1,2\n",  # a second non-numeric row
        "1,2\n# part=2\n3,4\n",  # a comment after the first row
        "1,2\n   \n3,4\n",  # a whitespace-only line
        "1_0\n",  # a digit group, which float() reads and loadtxt does not
        "1,2 # c\n",
        "1,2\n3\n",  # mixed widths
    ],
)
def test_read_numeric_leaves_anything_unusual_to_the_streaming_reader(tmp_path, text):
    path = tmp_path / "a.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data" included
        assert read_numeric(str(path)) is None


def test_read_numeric_faults_give_none(tmp_path):
    assert read_numeric(str(tmp_path / "missing.csv")) is None
    assert read_numeric(str(tmp_path)) is None
    path = tmp_path / "a.csv"
    path.write_bytes(b"\xff\xfe1\n")
    assert read_numeric(str(path)) is None


def test_unwritable_path_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot write"):
        write_artifact(str(tmp_path / "missing" / "a.csv"), [], None, ["1"])


def test_write_table_spells_cells_like_the_per_row_writers(tmp_path):
    # one row more than a chunk, so the chunk seam is inside the file
    n = artifacts._CHUNK_ROWS + 1
    specials = [0.1, -0.0, 5e-324, 1e16, 1 / 3, float("nan"), float("inf")]
    values = np.resize(np.array(specials), n)
    times = 123.456 + np.arange(n) / 200
    labels = np.arange(n, dtype=np.int64) % 3 + 1
    selected = labels == 2
    names = [f"f{i}" for i in range(n)]
    path = tmp_path / "t.csv"
    write_table(
        str(path), ["seed=1"], ("timestamp_s", "amplitude", "class", "selected", "name"),
        (times, values, labels, selected, names),
    )
    # the spelling each writer used before write_table, one row at a time
    rows = "".join(
        f"{123.456 + i / 200!r},{float(v)!r},{int(c)},{int(sel)},{name}\n"
        for i, (v, c, sel, name) in enumerate(zip(values, labels, selected, names))
    )
    want = "# seed=1\ntimestamp_s,amplitude,class,selected,name\n" + rows
    assert path.read_bytes() == want.encode()


def test_write_table_empty_and_headerless(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["seed=2"], ("a", "b"), (np.empty(0), np.empty(0, dtype=np.int64)))
    assert path.read_text() == "# seed=2\na,b\n"
    write_table(str(path), [], None, ([2.5, -1.0],))
    assert path.read_text() == "2.5\n-1.0\n"
    with pytest.raises(ValueError, match="unequal length"):
        write_table(str(path), [], None, ([1.0], [1, 2]))


# -- columns: the inverse of write_table -------------------------------------


def _columns(path, *kinds, header=False):
    with read_artifact(str(path), header=header) as art:
        return art.columns(*kinds)


def test_columns_width_from_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# catalog=v1\nname,p,selected\na,0.5,1\nb,0.25,0\n")
    names, p, selected = _columns(path, str, float, int, header=True)
    assert names.tolist() == ["a", "b"]
    assert p.dtype == np.float64 and p.tolist() == [0.5, 0.25]
    assert selected.dtype == np.int64 and selected.tolist() == [1, 0]
    # a header one cell wider than every row: each row is short
    path.write_text("name,p,selected,extra\na,0.5,1\n")
    with pytest.raises(DataError, match=r"t\.csv: expected 4 cells, got 3 at line 2"):
        _columns(path, str, float, int, header=True)


def test_columns_width_from_the_first_row_and_the_last_kind_repeats(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0,1,2.5,3.5,4.5\n60.0,3,-1.0,0.0,1e-3\n")
    starts, labels, *samples = _columns(path, float, int, float)
    assert starts.tolist() == [0.0, 60.0]
    assert labels.dtype == np.int64 and labels.tolist() == [1, 3]
    assert [s.dtype for s in samples] == [np.float64] * 3
    assert np.column_stack(samples).tolist() == [[2.5, 3.5, 4.5], [-1.0, 0.0, 1e-3]]
    # a later cell of the repeated kind is parsed too
    path.write_text("0.0,1,2.5,3.5\n60.0,3,-1.0,x\n")
    with pytest.raises(DataError, match=r"t\.csv: could not convert .* at line 2"):
        _columns(path, float, int, float)


def test_columns_short_row_and_bad_cell_name_file_and_line(tmp_path):
    path = tmp_path / "t.csv"
    # a row cut on a cell boundary, after a comment and a blank line
    path.write_text("230.0,1,1,1,0,0\n# note\n\n240.0,1,1\n")
    with pytest.raises(DataError, match=r"malformed .*t\.csv: expected 6 cells, got 3 at line 4"):
        _columns(path, float, int)
    path.write_text("230.0,1,1\n240.0,1.5,1\n")
    with pytest.raises(DataError, match=r"malformed .*t\.csv: invalid literal .* at line 2"):
        _columns(path, float, int)
    # a first row narrower than the kinds
    path.write_text("230.0,1\n")
    with pytest.raises(DataError, match=r"expected at least 3 cells, got 2 at line 1"):
        _columns(path, float, int, float)


def test_columns_integer_beyond_int64_is_a_data_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"230.0,{2**63}\n")
    with pytest.raises(DataError, match=r"malformed .*t\.csv: .*too large"):
        _columns(path, float, int)


def test_columns_of_a_table_with_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# seed=1\n")
    (times,) = _columns(path, float)
    assert times.dtype == np.float64 and times.size == 0
    path.write_text("a,b\n")
    names, values = _columns(path, str, float, header=True)
    assert names.size == 0 and values.size == 0 and values.dtype == np.float64


def test_columns_round_trip_write_table_bit_for_bit(tmp_path):
    values = np.array([-0.0, 5e-324, 1 / 3, float("nan"), float("inf"), -float("inf")])
    labels = np.arange(values.size, dtype=np.int64) % 3 + 1
    names = [f"f{i}" for i in range(values.size)]
    path = tmp_path / "t.csv"
    write_table(str(path), ["seed=1"], ("name", "label", "x", "y"),
                (names, labels, values, values[::-1]))
    back_names, back_labels, x, y = _columns(path, str, int, float, header=True)
    assert back_names.tolist() == names
    assert np.array_equal(back_labels, labels)
    for got, want in ((x, values), (y, values[::-1])):
        assert got.tobytes() == want.tobytes()
