"""Forest tests.

The split oracle enumerates every feature and every midpoint between
consecutive distinct sorted values, scoring each candidate with a naive
gini computation, independent of the production implementation.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geyserstate.errors import ConfigError, DataError
from geyserstate.forest import (
    Forest,
    ForestParams,
    Tree,
    best_split,
    gini_impurity,
    grow_tree,
    load_forest,
    predict_forest,
    save_forest,
    train_forest,
)


# -- oracle ------------------------------------------------------------------------

def naive_gini(y):
    y = np.asarray(y)
    p = np.array([np.mean(y == c) for c in np.unique(y)])
    return 1.0 - float(np.sum(p * p))


def brute_force_split(matrix, y, min_leaf=1):
    """Try every (feature, midpoint); first encounter wins ties."""
    n, d = matrix.shape
    parent = naive_gini(y)
    best = None
    for j in range(d):
        distinct = np.unique(matrix[:, j])
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:
                thr = lo
            mask = matrix[:, j] <= thr
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            dec = parent - (nl * naive_gini(y[mask]) + nr * naive_gini(y[~mask])) / n
            if dec > 0 and (best is None or dec > best[2] + 1e-15):
                best = (j, thr, dec)
    return best


def per_column_split(matrix, y_idx, feature_subset, n_classes, min_samples_leaf=1):
    """`best_split` as one sort, cumsum and score per column of the subset:
    the same Gini arithmetic in a Python loop, the reference for the
    whole-subset search."""
    n = y_idx.size
    if n < 2:
        return None
    parent_counts = np.bincount(y_idx, minlength=n_classes)
    parent_gini = gini_impurity(parent_counts)
    if parent_gini == 0.0:
        return None
    best = None
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), y_idx] = 1.0
    for j in np.sort(np.asarray(feature_subset)):
        values = matrix[:, j]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        left_counts = np.cumsum(one_hot[order], axis=0)[:-1]
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        valid = (sv[:-1] < sv[1:]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
        if not valid.any():
            continue
        right_counts = parent_counts[None, :] - left_counts
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
        decrease[~valid] = -np.inf
        i = int(np.argmax(decrease))
        if decrease[i] <= 0.0:
            continue
        mid = sv[i] + (sv[i + 1] - sv[i]) / 2.0
        if mid >= sv[i + 1]:
            mid = sv[i]
        if best is None or decrease[i] > best[2]:
            best = (int(j), float(mid), float(decrease[i]))
    return best


def make_separable(n_per_class=60, n_noise=3, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 2, 3], n_per_class)
    n = labels.size
    f0 = labels * 1.0 + rng.normal(scale=scale, size=n)
    f1 = (labels == 2) * 2.0 + rng.normal(scale=scale, size=n)
    noise = rng.normal(size=(n, n_noise))
    return np.column_stack([f0, f1, noise]), labels


def predict_rows(forest, matrix):
    """predict_forest on each row; returns (labels, votes matrix)."""
    results = [predict_forest(forest, row) for row in matrix]
    return np.array([r[0] for r in results]), np.array([r[1] for r in results])


# -- gini --------------------------------------------------------------------------

def test_gini_hand_values():
    assert gini_impurity([4, 0, 0]) == 0.0
    assert gini_impurity([2, 2, 0]) == pytest.approx(0.5)
    assert gini_impurity([1, 1, 1]) == pytest.approx(2.0 / 3.0)


def test_gini_rejects_empty_node():
    with pytest.raises(DataError):
        gini_impurity([0, 0, 0])
    with pytest.raises(ConfigError):
        gini_impurity([-1, 2])


# -- best_split ----------------------------------------------------------------------

def test_best_split_documented_example():
    matrix = np.array([[1.0], [2.0], [8.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    found = best_split(matrix, y, np.array([0]), n_classes=2)
    assert found is not None
    feature, threshold, decrease = found
    assert feature == 0
    assert threshold == pytest.approx(5.0)
    assert decrease == pytest.approx(0.5)


def test_best_split_pure_node_is_none():
    matrix = np.array([[1.0], [2.0], [3.0]])
    assert best_split(matrix, np.zeros(3, dtype=int), np.array([0]), 2) is None


def test_best_split_identical_rows_is_none():
    matrix = np.array([[4.0], [4.0]])
    assert best_split(matrix, np.array([0, 1]), np.array([0]), 2) is None


def test_best_split_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        matrix = np.round(rng.normal(size=(n, d)) * 4) / 2.0  # force value ties
        y = rng.integers(0, 3, size=n)
        mine = best_split(matrix, y, np.arange(d), n_classes=3)
        oracle = brute_force_split(matrix, y)
        if oracle is None:
            assert mine is None
            continue
        assert mine is not None
        assert mine[0] == oracle[0]
        assert mine[1] == pytest.approx(oracle[1], abs=1e-12)
        assert mine[2] == pytest.approx(oracle[2], rel=1e-12)


def test_best_split_equals_the_per_column_loop():
    """The whole-subset search returns the loop's tuple exactly: same
    feature, threshold and decrease, on subsets with and without ties."""
    rng = np.random.default_rng(17)
    for case in range(3000):
        n = int(rng.integers(2, 45))
        d = int(rng.integers(1, 30))
        n_classes = int(rng.integers(2, 4))
        matrix = rng.normal(size=(n, d))
        if case % 3 == 0:
            matrix = np.round(matrix * 2) / 2.0  # value ties
        y = rng.integers(0, n_classes, size=n)
        subset = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        leaf = int(rng.integers(1, 4))
        assert best_split(matrix, y, subset, n_classes, leaf) == per_column_split(
            matrix, y, subset, n_classes, leaf
        ), case


def test_best_split_respects_min_leaf():
    matrix = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 1, 1, 1])
    found = best_split(matrix, y, np.array([0]), 2, min_samples_leaf=2)
    # The optimal cut (after row 0) is forbidden; the only legal cut is 2|2.
    assert found is not None
    assert found[1] == pytest.approx(2.5)


# -- grow_tree -------------------------------------------------------------------------

def test_grow_tree_single_row_is_leaf():
    tree = grow_tree(np.array([[3.0]]), np.array([2]), 3, ForestParams(), tree_seed=0)
    assert tree.n_nodes == 1
    assert tree.feature[0] == -1
    assert np.array_equal(tree.counts[0], [0, 0, 1])


def test_grow_tree_memorizes_separable_data():
    matrix, labels = make_separable(seed=3)
    y_idx = labels - 1
    tree = grow_tree(matrix, y_idx, 3, ForestParams(max_features=5), tree_seed=7)
    hits = 0
    for i in range(labels.size):
        node = 0
        while tree.feature[node] >= 0:
            node = (
                tree.left[node]
                if matrix[i, tree.feature[node]] <= tree.threshold[node]
                else tree.right[node]
            )
        hits += int(np.argmax(tree.counts[node]) == y_idx[i])
    assert hits == labels.size


def test_grow_tree_deterministic():
    matrix, labels = make_separable(seed=5)
    a = grow_tree(matrix, labels - 1, 3, ForestParams(max_features=2), tree_seed=11)
    b = grow_tree(matrix, labels - 1, 3, ForestParams(max_features=2), tree_seed=11)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.counts, b.counts)


def test_grow_tree_stump_matches_brute_force():
    rng = np.random.default_rng(31)
    params = ForestParams(max_depth=1)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        matrix = rng.normal(size=(n, 3))
        y = rng.integers(0, 3, size=n)
        tree = grow_tree(matrix, y, 3, params, tree_seed=0)
        oracle = brute_force_split(matrix, y)
        if oracle is None:
            assert tree.n_nodes == 1
            continue
        assert tree.feature[0] == oracle[0]
        assert tree.threshold[0] == pytest.approx(oracle[1], abs=1e-12)


def test_grow_tree_depth_limit():
    matrix, labels = make_separable(seed=8)
    tree = grow_tree(matrix, labels - 1, 3, ForestParams(max_depth=1), tree_seed=0)
    assert tree.n_nodes == 3  # a root split and two leaves


# -- train/predict ----------------------------------------------------------------------

def test_forest_training_labels_recovered():
    matrix, labels = make_separable(seed=1)
    forest = train_forest(matrix, labels, ForestParams(n_trees=30, seed=7))
    pred, votes = predict_rows(forest, matrix)
    assert np.mean(pred == labels) >= 0.99
    assert np.all(votes.sum(axis=1) == 30)


def test_forest_single_tree_no_bootstrap_equals_tree():
    matrix, labels = make_separable(seed=2)
    forest = train_forest(matrix, labels, ForestParams(n_trees=1, bootstrap=False, seed=4))
    pred, votes = predict_rows(forest, matrix)
    assert np.all(votes.max(axis=1) == 1)
    assert np.array_equal(pred, labels)


def test_forest_vote_tie_goes_to_lower_class():
    leaf = lambda cls: Tree(
        np.array([-1], dtype=np.int32),
        np.array([np.nan]),
        np.array([-1], dtype=np.int32),
        np.array([-1], dtype=np.int32),
        np.eye(3, dtype=np.int64)[cls][None, :],
    )
    trees = tuple([leaf(0)] * 50 + [leaf(1)] * 50)
    forest = Forest(trees, np.array([1, 2, 3]), ForestParams(n_trees=100), n_features=2)
    label, votes = predict_forest(forest, np.zeros(2))
    assert np.array_equal(votes, [50, 50, 0])
    assert label == 1


def test_forest_out_of_bag_error_small():
    matrix, labels = make_separable(n_per_class=67, seed=7)
    matrix, labels = matrix[:200], labels[:200]
    forest = train_forest(matrix, labels, ForestParams(n_trees=100, seed=7))
    n = labels.size
    in_bag = np.zeros((len(forest.trees), n), dtype=bool)
    for t in range(len(forest.trees)):
        # the seeding contract: tree t's first draw is its bootstrap rows
        in_bag[t, np.random.default_rng([7, t]).integers(0, n, size=n)] = True
    errors = 0
    scored = 0
    for i in range(n):
        votes = np.zeros(3, dtype=int)
        for t, tree in enumerate(forest.trees):
            if in_bag[t, i]:
                continue
            node = 0
            while tree.feature[node] >= 0:
                node = (
                    tree.left[node]
                    if matrix[i, tree.feature[node]] <= tree.threshold[node]
                    else tree.right[node]
                )
            votes[np.argmax(tree.counts[node])] += 1
        if votes.sum() == 0:
            continue
        scored += 1
        errors += int(forest.classes[np.argmax(votes)] != labels[i])
    assert scored > 150
    assert errors / scored < 0.10


def test_forest_determinism_bitwise():
    matrix, labels = make_separable(seed=12)
    a = train_forest(matrix, labels, ForestParams(n_trees=10, seed=3))
    b = train_forest(matrix, labels, ForestParams(n_trees=10, seed=3))
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
        assert np.array_equal(ta.counts, tb.counts)


def test_forest_shuffle_stability_macro_f1():
    # Retraining on shuffled rows with fresh bootstraps must not move
    # held-out macro-F1 by more than 0.05 across 5 shuffles.
    matrix, labels = make_separable(n_per_class=80, seed=20, scale=0.6)
    rng = np.random.default_rng(0)
    holdout = rng.permutation(labels.size)
    test_idx, train_idx = holdout[:60], holdout[60:]

    def macro_f1(true, pred):
        scores = []
        for c in (1, 2, 3):
            tp = np.sum((pred == c) & (true == c))
            fp = np.sum((pred == c) & (true != c))
            fn = np.sum((pred != c) & (true == c))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            scores.append(2 * p * r / (p + r) if p + r else 0.0)
        return float(np.mean(scores))

    f1s = []
    for s in range(5):
        perm = np.random.default_rng(100 + s).permutation(train_idx.size)
        forest = train_forest(
            matrix[train_idx][perm], labels[train_idx][perm],
            ForestParams(n_trees=50, seed=s),
        )
        pred, _ = predict_rows(forest, matrix[test_idx])
        f1s.append(macro_f1(labels[test_idx], pred))
    assert max(f1s) - min(f1s) < 0.05


def test_forest_validation_errors():
    matrix, labels = make_separable(seed=6)
    with pytest.raises(DataError):
        train_forest(matrix, np.ones_like(labels))
    # a subset larger than the columns is clamped to them, as `grow_tree`
    # draws it, and the forest records the clamped size
    d = matrix.shape[1]
    clamped = train_forest(matrix, labels, ForestParams(n_trees=2, max_features=99, seed=1))
    every = train_forest(matrix, labels, ForestParams(n_trees=2, max_features=d, seed=1))
    assert clamped.params == every.params and clamped.params.max_features == d
    for ta, tb in zip(clamped.trees, every.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
    bad = matrix.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        train_forest(bad, labels)
    forest = train_forest(matrix, labels, ForestParams(n_trees=2, seed=1))
    with pytest.raises(DataError):
        predict_forest(forest, np.zeros(matrix.shape[1] + 1))


def test_forest_rejects_split_on_missing_feature():
    stump = Tree(
        np.array([2, -1, -1], dtype=np.int32),
        np.array([0.5, np.nan, np.nan]),
        np.array([1, -1, -1], dtype=np.int32),
        np.array([2, -1, -1], dtype=np.int32),
        np.array([[1, 1], [1, 0], [0, 1]], dtype=np.int64),
    )
    Forest((stump,), np.array([1, 2]), ForestParams(n_trees=1), n_features=3)
    with pytest.raises(ConfigError, match="feature 2"):
        Forest((stump,), np.array([1, 2]), ForestParams(n_trees=1), n_features=2)


def _stump(left, right, extra_leaves=0):
    """A root split with the given children over 3 + extra_leaves nodes."""
    n = 3 + extra_leaves
    return Tree(
        np.array([0] + [-1] * (n - 1), dtype=np.int32),
        np.array([0.5] + [np.nan] * (n - 1)),
        np.array([left] + [-1] * (n - 1), dtype=np.int32),
        np.array([right] + [-1] * (n - 1), dtype=np.int32),
        np.ones((n, 2), dtype=np.int64),
    )


def _two_class_forest(*trees):
    return Forest(trees, np.array([1, 2]), ForestParams(n_trees=len(trees)), n_features=1)


def test_tree_rejects_a_shape_a_walk_could_loop_in():
    _two_class_forest(_stump(1, 2))
    with pytest.raises(ConfigError, match="after its parent"):
        _two_class_forest(_stump(0, 2))  # the root's left child is the root: a walk never ends
    with pytest.raises(ConfigError, match="exactly one split"):
        _two_class_forest(_stump(1, 1))  # node 1 has two parents, node 2 none
    with pytest.raises(ConfigError, match="exactly one split"):
        _two_class_forest(_stump(1, 2, extra_leaves=1))  # node 3 has no parent


def test_a_child_cannot_point_into_the_next_tree():
    # tree 0's second split claims local nodes 4 and 5, which are tree 1's
    # two non-roots: each non-root of the forest is still one split's child
    grabbing = Tree(
        np.array([0, 0, -1], dtype=np.int32),
        np.array([0.5, 0.5, np.nan]),
        np.array([1, 4, -1], dtype=np.int32),
        np.array([2, 5, -1], dtype=np.int32),
        np.ones((3, 2), dtype=np.int64),
    )
    leaves = Tree(*(np.full(3, v) for v in (-1, np.nan, -1, -1)), np.ones((3, 2), dtype=np.int64))
    with pytest.raises(ConfigError, match="exactly one split"):
        _two_class_forest(grabbing, leaves)


def test_forest_rejects_classes_not_strictly_increasing():
    stump = _stump(1, 2)
    Forest((stump,), np.array([1, 2]), ForestParams(n_trees=1), n_features=1)
    for classes in ([1, 1], [2, 1]):
        with pytest.raises(ConfigError, match="strictly increasing"):
            Forest((stump,), np.array(classes), ForestParams(n_trees=1), n_features=1)


def test_forest_round_trip_bit_exact(tmp_path):
    matrix, labels = make_separable(seed=9)
    forest = train_forest(
        matrix, labels, ForestParams(n_trees=12, seed=5),
        catalog_version="v1@200Hz", feature_names=tuple(f"f{i}" for i in range(matrix.shape[1])),
    )
    path = tmp_path / "forest.txt"
    save_forest(forest, str(path))
    loaded = load_forest(str(path))
    assert loaded.catalog_version == forest.catalog_version
    assert loaded.feature_names == forest.feature_names
    assert loaded.params == forest.params
    assert np.array_equal(loaded.classes, forest.classes)
    for ta, tb in zip(forest.trees, loaded.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
        assert np.array_equal(ta.left, tb.left)
        assert np.array_equal(ta.right, tb.right)
        assert np.array_equal(ta.counts, tb.counts)
    # Serialized form is reproducible too.
    again = tmp_path / "forest2.txt"
    save_forest(loaded, str(again))
    assert path.read_text() == again.read_text()


# a one-stump forest in the v1 layout: `# tree=` comments, `-` for a leaf's
# threshold and `:`-joined counts, with no header line
V1_STUMP = """\
# forest-format v1
# catalog=
# classes=1,2
# params n_trees=1 max_features=1 min_samples_leaf=1 max_depth=None bootstrap=0 seed=0
# n_features=1
# tree=0 nodes=3
0,0.5,1,2,1:1
-1,-,-1,-1,1:0
-1,-,-1,-1,0:1
"""


def test_forest_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("# forest-format v1\nnot,a,node\n", V1_STUMP):
        path.write_text(text)
        with pytest.raises(DataError):
            load_forest(str(path))


# -- the flat walk against the per-tree walk -----------------------------------------

def per_tree_vote(forest, x):
    """The walk predict_forest replaced, kept as the oracle: each tree in
    turn from its root, x[feature] <= threshold going left, and the reached
    leaf voting for its argmax count (lowest class index on a tie)."""
    votes = np.zeros(forest.classes.size, dtype=np.int64)
    for tree in forest.trees:
        node = 0
        while tree.feature[node] >= 0:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        votes[int(np.argmax(tree.counts[node]))] += 1
    return int(forest.classes[int(np.argmax(votes))]), votes


# a few levels shared by the built trees' thresholds and the queries, so
# that a query often equals a threshold exactly
LEVELS = (-1.0, 0.0, 0.5, 2.0)


@st.composite
def _built_tree(draw, n_features, n_classes):
    """A random preorder tree: root-leaf trees, splits on LEVELS, and leaf
    counts drawn from 0..2, so leaves often tie between classes."""
    nodes = []  # (feature, threshold, left, right, counts), leaves as built

    def build(depth):
        node = len(nodes)
        counts = draw(st.lists(st.integers(0, 2), min_size=n_classes, max_size=n_classes)
                      .filter(lambda c: sum(c) > 0))
        nodes.append((-1, math.nan, -1, -1, counts))
        if depth < 4 and draw(st.booleans()):
            split = (draw(st.integers(0, n_features - 1)), draw(st.sampled_from(LEVELS)))
            left = build(depth + 1)
            nodes[node] = (*split, left, build(depth + 1), counts)
        return node

    build(0)
    feature, threshold, left, right, counts = (np.array(column) for column in zip(*nodes))
    return Tree(feature, threshold, left, right, counts)


@st.composite
def _forests(draw):
    """A forest from train_forest at random parameters on rows of LEVELS
    and noise, or one of up to six hand-built trees, few enough that their
    votes often tie."""
    n_features = draw(st.integers(1, 4))
    classes = np.array(draw(st.sampled_from([[1, 2], [1, 2, 3], [0, 5, 7, 9]])))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(4, 40))
        matrix = np.where(rng.random((n, n_features)) < 0.5,
                          rng.choice(LEVELS, size=(n, n_features)),
                          rng.normal(size=(n, n_features)))
        labels = classes[np.arange(n) % classes.size]
        params = ForestParams(
            n_trees=draw(st.integers(1, 12)),
            max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
            min_samples_leaf=draw(st.integers(1, 4)),
            bootstrap=draw(st.booleans()),
            seed=draw(st.integers(0, 1000)),
        )
        return train_forest(matrix, labels, params)
    trees = draw(st.lists(_built_tree(n_features, classes.size), min_size=1, max_size=6))
    return Forest(tuple(trees), classes, ForestParams(n_trees=len(trees)), n_features)


def _queries(forest, data, n=5):
    """n feature vectors of LEVELS, the forest's thresholds, non-finite
    values and floats, so that a query often meets a threshold exactly."""
    thresholds = [t for tree in forest.trees for t in tree.threshold.tolist()
                  if not math.isnan(t)]
    value = st.one_of(
        st.sampled_from([*LEVELS, math.nan, math.inf, -math.inf]),
        st.sampled_from(thresholds) if thresholds else st.nothing(),
        st.floats(-3.0, 3.0),
    )
    vector = st.lists(value, min_size=forest.n_features, max_size=forest.n_features)
    return [np.array(data.draw(vector)) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(forest=_forests(), data=st.data())
def test_flat_walk_equals_the_per_tree_walk(forest, data):
    for x in _queries(forest, data):
        label, votes = predict_forest(forest, x)
        oracle_label, oracle_votes = per_tree_vote(forest, x)
        assert label == oracle_label
        assert votes.tolist() == oracle_votes.tolist()


def test_leaf_with_children_or_a_threshold_is_rejected():
    def stump(**cells):
        arrays = {"feature": [0, -1, -1], "threshold": [0.5, math.nan, math.nan],
                  "left": [1, -1, -1], "right": [2, -1, -1], **cells}
        return Tree(*(np.array(arrays[k]) for k in ("feature", "threshold", "left", "right")),
                    np.ones((3, 2), dtype=np.int64))

    _two_class_forest(stump())
    for cells in ({"left": [1, 2, -1]}, {"right": [2, -1, 0]}, {"threshold": [0.5, 0.5, math.nan]}):
        with pytest.raises(ConfigError, match="a leaf must have no children"):
            _two_class_forest(stump(**cells))
    with pytest.raises(ConfigError, match="below -1"):
        _two_class_forest(stump(feature=[0, -2, -1]))
    with pytest.raises(ConfigError, match="one length"):
        _two_class_forest(stump(right=[2, -1]))


@settings(max_examples=60, deadline=None)
@given(forest=_forests(), data=st.data())
def test_save_load_save_keeps_the_bytes_and_the_votes(forest, data):
    # root-only trees, several trees and trained forests all pass the load's checks
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.txt"), os.path.join(tmp, "second.txt")
        save_forest(forest, first)
        loaded = load_forest(first)
        save_forest(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    for x in _queries(forest, data):
        label, votes = predict_forest(forest, x)
        loaded_label, loaded_votes = predict_forest(loaded, x)
        assert label == loaded_label
        assert votes.tolist() == loaded_votes.tolist()


# -- prediction latency ------------------------------------------------------------

def test_predict_latency_under_one_ms():
    """Mean single-vector prediction stays at the sub-millisecond scale."""
    import time

    matrix, labels = make_separable(n_per_class=20, n_noise=25, seed=5)
    forest = train_forest(matrix, labels, ForestParams(n_trees=100, seed=5))
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(1000, matrix.shape[1]))
    start = time.perf_counter()
    for q in queries:
        predict_forest(forest, q)
    mean_s = (time.perf_counter() - start) / queries.shape[0]
    assert mean_s <= 1e-3, f"mean prediction latency {mean_s * 1e3:.3f} ms"
