"""The artifact layer: its writers and readers, and their one error contract."""

import ast
import builtins
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import geyserstate
from geyserstate import artifacts
from geyserstate.artifacts import read_artifact, write_series, write_table
from geyserstate.dtw import (
    LOCAL_COSTS, DtwParams, load_reference, pool_reference, save_reference,
)
from geyserstate.errors import ConfigError, DataError
from geyserstate.features import default_catalog, load_feature_matrix, save_feature_matrix
from geyserstate.forest import Forest, ForestParams, Tree, load_forest, save_forest
from geyserstate.timeseries import LabeledWindow

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
    write_table(path, ["seed=7", "params k=3 mode=x"], ("a", "b"), (["1,2", "# part=2", "3,4"],))
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


@pytest.mark.parametrize("text, line", [
    ("# seed=1\na,b\n1,2\n3,4", 4), ("# seed=1\na,b\n1,2\n\n# part=2", 5), ("# seed=1", 1),
], ids=["row", "comment-after-a-blank", "only-a-comment"])
def test_a_last_line_without_its_newline_is_a_cut_file(tmp_path, text, line):
    """A table the package wrote ends every line; a caller's table
    (`whole_lines=False`) may end without a newline."""
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=rf"a\.csv: no newline ends the last line: the file "
                                        rf"is cut short at line {line}$"):
        with read_artifact(str(path), header=True) as art:
            art.columns(int)
    with read_artifact(str(path), header=True, whole_lines=False) as art:
        assert [c.tolist() for c in art.columns(int)] == (
            [[1, 3], [2, 4]] if line == 4 else [[1], [2]] if line == 5 else [[]])


def test_feature_matrix_cut_inside_its_last_number_is_a_data_error(tmp_path):
    catalog = default_catalog(50.0, 4)
    matrix = np.arange(2.5, 2.5 + 2 * len(catalog)).reshape(2, len(catalog))
    path = tmp_path / "features.csv"
    save_feature_matrix(matrix, np.array([1, 2]), np.array([0.0, 10.0]), catalog, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(DataError, match=r"features\.csv: no newline ends the last line: "
                                        r"the file is cut short at line \d+$"):
        load_feature_matrix(str(path), catalog)


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


def test_unwritable_path_is_a_data_error(tmp_path):
    path = str(tmp_path / "missing" / "a.csv")
    with pytest.raises(DataError, match=f"^cannot write {re.escape(path)}: "):
        write_table(path, [], None, (["1"],))


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


# -- write_table at any chunk size, and the shared failure rule --------------------


def _oracle_text(comments, names, columns):
    """The table's text spelled row by row, apart from the writer: floats by
    `repr`, integers and booleans by `str` of the integer, strings as they are."""

    def spell(cell):
        if isinstance(cell, (float, np.floating)):
            return repr(float(cell))
        if isinstance(cell, (bool, int, np.bool_, np.integer)):
            return str(int(cell))
        return cell

    lines = [f"# {c}\n" for c in comments]
    if names is not None:
        lines.append(",".join(names) + "\n")
    for i in range(len(columns[0])):
        lines.append(",".join(spell(col[i]) for col in columns) + "\n")
    return "".join(lines)


def _write_and_check(tables, chunk_rows):
    """Each `(path, comments, names, columns)` table written by its own
    `write_table` call at `chunk_rows` rows per chunk, as the event traces
    are written, gives the oracle's text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "_CHUNK_ROWS", chunk_rows)
        for table in tables:
            write_table(*table)
    for path, *rest in tables:
        assert pathlib.Path(path).read_bytes() == _oracle_text(*rest).encode(), path


def _write_and_check_in_one_process(tables, chunk_rows):
    """As `_write_and_check`, and every float cell of every table is spelled
    exactly once, by `repr` in this process: a cell spelled in another
    process is missing from this count, and one spelled twice adds to it."""
    spelled = 0

    def counting_repr(value):
        nonlocal spelled
        spelled += 1
        return builtins.repr(value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "repr", counting_repr, raising=False)
        _write_and_check(tables, chunk_rows)
    floats = [col for *_, columns in tables for col in columns
              if np.asarray(col).dtype.kind == "f"]
    assert spelled == sum(len(col) for col in floats)


# NaN, both infinities, -0.0, the smallest and a larger subnormal, and a
# float whose repr needs 17 digits
SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.5e-310, 0.1 + 0.2]


@st.composite
def write_passes(draw):
    """Columns of one length (float, int, bool, str) and 1-4 tables over
    views of them, with row ranges that may be empty, reversed, negative or
    overlapping, and a chunk size."""
    n = draw(st.integers(0, 24))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    kinds = {
        "f": st.lists(floats, min_size=n, max_size=n).map(np.array),
        "i": st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        "b": st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        "s": st.lists(st.text("ab-_.", max_size=3), min_size=n, max_size=n),
    }
    pool = draw(st.lists(st.sampled_from("fibs").flatmap(kinds.get), min_size=1, max_size=4))
    bound = st.integers(-n - 2, n + 2)
    tables = []
    for k in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        names = draw(st.none() | st.just([f"c{j}" for j in range(len(cols))]))
        rows = slice(draw(bound), draw(st.none() | bound))
        tables.append((f"t{k}.csv", [f"table={k}"], names, [c[rows] for c in cols]))
    return tables, draw(st.sampled_from([1, 2, 3, 5, 4096]))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=write_passes())
def test_write_tables_matches_a_row_by_row_spelling(tmp_path, case):
    specs, chunk_rows = case
    _write_and_check([(str(tmp_path / name), *rest) for name, *rest in specs], chunk_rows)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=write_passes())
def test_write_tables_in_one_process_matches_a_row_by_row_spelling(tmp_path, case):
    specs, chunk_rows = case
    _write_and_check_in_one_process(
        [(str(tmp_path / name), *rest) for name, *rest in specs], chunk_rows
    )


def _seam_tables(tmp_path):
    """Tables over views of the same columns that start and end inside
    4096-row chunks, overlap, touch, and leave gaps inside one chunk, over
    4 chunks at the writer's own size; special floats every 97 rows."""
    n = 3 * 4096 + 17
    rng = np.random.default_rng(3)
    grid = 1.5e9 + np.arange(n) / 40
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    a[::97] = np.resize(SPECIAL_FLOATS, a[::97].size)
    classes = rng.integers(1, 4, n)
    ranges = [(0, n), (4000, 4100), (4100, 9000), (5000, 6000), (6500, 7000),
              (9000, 5000), (8192, 8192), (12000, None), (-5, None)]
    tables = [(str(tmp_path / "full.csv"), ["seed=1"], ("t", "a"), (grid, a))]
    tables += [
        (str(tmp_path / f"part{k}.csv"), [], ("t", "a", "b", "class"),
         [c[lo:hi] for c in (grid, a, b, classes)])
        for k, (lo, hi) in enumerate(ranges)
    ]
    return tables


def test_write_tables_shares_cells_across_chunk_seams(tmp_path):
    _write_and_check(_seam_tables(tmp_path), artifacts._CHUNK_ROWS)


def test_write_tables_in_one_process_shares_cells_across_chunk_seams(tmp_path):
    _write_and_check_in_one_process(_seam_tables(tmp_path), artifacts._CHUNK_ROWS)


def _fail_in_write_table(path, fault, monkeypatch):
    """write_table of 5000 rows, 500 a chunk, failing on the row that reads 4000."""
    def spell(value):
        if value == 4000.0:
            assert os.path.exists(path)
            raise fault("mid-write")
        return builtins.repr(value)

    monkeypatch.setattr(artifacts, "_CHUNK_ROWS", 500)
    monkeypatch.setattr(artifacts, "repr", spell, raising=False)
    write_table(path, ["seed=1"], ("x",), (np.arange(5000.0),))


def _fail_in_write_series(path, fault, monkeypatch):
    """write_series failing on its amplitudes, whose buffer export raises
    after the file is opened and the header written to it."""
    class Amplitudes:
        def __len__(self):
            return 5000

        def __array__(self, dtype=None, copy=None):
            assert os.path.exists(path)
            raise fault("mid-write")

    write_series(path, ["seed=1"], 0.0, 200.0, Amplitudes())


@pytest.mark.parametrize("fault, raised", [
    (KeyboardInterrupt, KeyboardInterrupt), (SystemExit, SystemExit), (OSError, DataError),
], ids=["KeyboardInterrupt", "SystemExit", "OSError"])
@pytest.mark.parametrize("write", [_fail_in_write_table, _fail_in_write_series],
                         ids=["write_table", "write_series"])
def test_a_fault_mid_write_leaves_no_file(tmp_path, monkeypatch, write, fault, raised):
    """Both writers follow one rule.  A fault in the middle of the body
    propagates, an OSError as a DataError naming the file, and the file is
    closed (a leaked handle is a ResourceWarning, an error under `-X dev`
    and the suite's warning filter) and removed.  SystemExit is what a
    SIGTERM handler raises."""
    path = str(tmp_path / "t.out")
    with pytest.raises(raised) as info:
        write(path, fault, monkeypatch)
    if raised is DataError:
        assert str(info.value) == f"cannot write {path}: mid-write"
    assert not any(tmp_path.iterdir())


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


# -- the params codec --------------------------------------------------------------

# a split on feature 0 and its two leaves, for forests of any number of trees
STUMP = Tree(np.array([0, -1, -1]), np.array([0.5, np.nan, np.nan]), np.array([1, -1, -1]),
             np.array([2, -1, -1]), np.array([[1, 1], [1, 0], [0, 1]]))
OPTIONAL_INT = st.one_of(st.none(), st.integers(1, 10**6))


def _round_trip(tmp_path, forest_params, dtw_params):
    """The params `load_forest` and `load_reference` read back from the files
    `save_forest` and `save_reference` write with these params."""
    forest_path, dtw_path = str(tmp_path / "forest.txt"), str(tmp_path / "dtw_reference.csv")
    trees = (STUMP,) * forest_params.n_trees
    save_forest(Forest(trees, np.array([1, 2]), forest_params, n_features=1), forest_path)
    windows = [LabeledWindow(np.arange(4.0), 0.0, 1)]
    save_reference(windows, pool_reference(windows, dtw_params)[0], dtw_path, dtw_params)
    return load_forest(forest_path).params, load_reference(dtw_path)[2]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    forest_params=st.builds(
        ForestParams, n_trees=st.integers(1, 4), max_features=OPTIONAL_INT,
        min_samples_leaf=st.integers(1, 10**6), max_depth=OPTIONAL_INT,
        bootstrap=st.booleans(), seed=st.integers(0, 2**63 - 1),
    ),
    dtw_params=st.builds(
        DtwParams, k_neighbors=st.integers(1, 10**6), local_cost=st.sampled_from(LOCAL_COSTS),
        band_radius=st.one_of(st.none(), st.integers(0, 10**6)),
        downsample_to=st.integers(1, 10**6), z_normalize=st.booleans(),
    ),
)
def test_params_round_trip_through_both_model_files(tmp_path, forest_params, dtw_params):
    assert _round_trip(tmp_path, forest_params, dtw_params) == (forest_params, dtw_params)


def test_default_params_lines_of_both_model_files(tmp_path):
    _round_trip(tmp_path, ForestParams(), DtwParams())
    assert ("# params n_trees=100 max_features=None min_samples_leaf=1 max_depth=None "
            "bootstrap=1 seed=0\n") in (tmp_path / "forest.txt").read_text()
    assert ("# params k_neighbors=1 local_cost=squared band_radius=30 downsample_to=600 "
            "z_normalize=0\n") in (tmp_path / "dtw_reference.csv").read_text()
