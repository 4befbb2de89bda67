"""Random forest of CART trees, written against numpy primitives only.

Determinism contract: tree t of a forest trained with master seed s uses
rng = np.random.default_rng([s, t]).  Its first draw is the bootstrap index
vector rng.integers(0, n, size=n) (when bootstrap is on), and every node then
draws its feature subset from the same stream via rng.choice without
replacement.  Re-deriving a tree's bootstrap rows from (s, t) is therefore a
supported operation, which is how out-of-bag checks are done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .artifacts import params_line, read_artifact, read_params, write_table
from .errors import ConfigError, DataError

LEAF = -1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: int | None = None  # None means floor(sqrt(d)) at train time
    min_samples_leaf: int = 1
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_features is not None and self.max_features < 1:
            raise ConfigError(f"max_features must be >= 1, got {self.max_features}")
        if self.min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; node 0 is the root.

    Internal nodes have feature >= 0 and route x[feature] <= threshold to
    `left`.  Leaves have feature == LEAF, no children (left == right ==
    LEAF) and a NaN threshold, and carry per-class sample counts.  A plain
    record: the `Forest` that holds it checks its shape.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclass(frozen=True)
class Forest:
    """Trees plus the flat node arrays `predict_forest` walks and `save_forest` writes.

    `__post_init__` concatenates the trees' nodes once and checks every
    tree on the concatenated arrays.  In the walked arrays child indices are
    offset by their tree's first node, a leaf's children are the leaf itself
    (so a walk that reaches it stays there), and each node carries the vote
    of its counts, the lowest class index among the largest.
    """

    trees: tuple[Tree, ...]
    classes: np.ndarray
    params: ForestParams
    n_features: int
    catalog_version: str = ""
    feature_names: tuple[str, ...] = field(default=())
    _roots: np.ndarray = field(init=False, repr=False, compare=False)
    _feature: np.ndarray = field(init=False, repr=False, compare=False)
    _threshold: np.ndarray = field(init=False, repr=False, compare=False)
    _left: np.ndarray = field(init=False, repr=False, compare=False)
    _right: np.ndarray = field(init=False, repr=False, compare=False)
    _vote: np.ndarray = field(init=False, repr=False, compare=False)
    # forest.txt's node table: tree, feature, threshold, left and right
    # indexed within the tree, and one count column per class
    _node_columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.trees:
            raise ConfigError("a forest needs at least one tree")
        if np.any(np.diff(self.classes) <= 0):
            raise ConfigError("classes must be strictly increasing")
        if self.feature_names and len(self.feature_names) != self.n_features:
            raise ConfigError("feature_names length must match n_features")
        names = [f.name for f in fields(Tree)]
        lengths = np.array([[len(getattr(t, name)) for name in names] for t in self.trees])
        if np.any(lengths != lengths[:, :1]):
            raise ConfigError("the five node arrays must have one length")
        sizes = lengths[:, 0]
        if np.any(sizes == 0):
            raise ConfigError("a tree needs at least one node")
        widths = [t.counts.shape[1] for t in self.trees if t.counts.shape[1] != self.classes.size]
        if widths:
            raise ConfigError(f"leaf counts of width {widths[0]} for {self.classes.size} classes")
        feature, threshold, left, right, counts = (
            np.concatenate([getattr(t, name) for t in self.trees]) for name in names
        )
        tree_of = np.repeat(np.arange(sizes.size), sizes)
        roots = np.cumsum(sizes) - sizes
        node, offset = np.arange(feature.size), roots[tree_of]
        if np.any(feature < LEAF):
            raise ConfigError(f"a feature index below {LEAF}")
        internal, leaf = feature >= 0, feature == LEAF
        if np.any(~np.isfinite(threshold[internal])):
            raise ConfigError("internal thresholds must be finite")
        if not np.all((left[leaf] == LEAF) & (right[leaf] == LEAF) & np.isnan(threshold[leaf])):
            raise ConfigError("a leaf must have no children and a NaN threshold")
        # the preorder grow_tree builds, children indexed within their tree:
        # each after its parent, and each node but a root of one split, so a walk ends
        parents = np.tile(np.flatnonzero(internal), 2)
        children = np.concatenate([left[internal], right[internal]]) + offset[parents]
        if np.any(children <= parents):
            raise ConfigError("every child must come after its parent")
        inside = children < (roots + sizes)[tree_of[parents]]
        if not (inside.all() and np.array_equal(np.sort(children), node[node != offset])):
            raise ConfigError("every node but the root must be the child of exactly one split")
        if np.any(counts[leaf].sum(axis=1) <= 0):
            raise ConfigError("every leaf must hold at least one sample")
        if feature.max() >= self.n_features:
            raise ConfigError(
                f"a split on feature {feature.max()} exceeds n_features {self.n_features}"
            )
        for name, value in (
            ("_roots", roots),
            ("_feature", feature.astype(np.intp)),
            ("_threshold", threshold),
            ("_left", np.where(leaf, node, left + offset)),
            ("_right", np.where(leaf, node, right + offset)),
            ("_vote", np.argmax(counts, axis=1)),
            ("_node_columns", (tree_of, feature, threshold, left, right, *counts.T)),
        ):
            object.__setattr__(self, name, value)


def gini_impurity(class_counts) -> float:
    """1 - sum((c/N)^2) over a node's per-class sample counts."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or np.any(counts < 0):
        raise ConfigError("class counts must be a 1-D non-negative vector")
    total = counts.sum()
    if total <= 0:
        raise DataError("cannot score an empty node")
    p = counts / total
    return float(1.0 - np.dot(p, p))


def best_split(
    matrix: np.ndarray,
    y_idx: np.ndarray,
    feature_subset: np.ndarray,
    n_classes: int,
    min_samples_leaf: int = 1,
) -> tuple[int, float, float] | None:
    """Exhaustive best (feature, threshold, gini decrease) over the subset.

    Candidate thresholds are midpoints of consecutive distinct sorted values;
    rows with x[feature] <= threshold go left.  Ties are broken toward the
    lower feature index, then the lower threshold.  Returns None when no
    candidate strictly decreases impurity.
    """
    n = y_idx.size
    if n < 2:
        return None
    parent_counts = np.bincount(y_idx, minlength=n_classes)
    parent_gini = gini_impurity(parent_counts)
    if parent_gini == 0.0:
        return None
    cols = np.sort(np.asarray(feature_subset))
    values = matrix[:, cols]
    order = np.argsort(values, axis=0, kind="stable")
    sv = np.take_along_axis(values, order, axis=0)
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), y_idx] = 1.0
    left_counts = np.cumsum(one_hot[order], axis=0)[:-1]  # (n-1, k, C): after position i
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    valid = (sv[:-1] < sv[1:]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    right_counts = parent_counts - left_counts
    gini_l = 1.0 - np.sum((left_counts / nl[..., None]) ** 2, axis=2)
    gini_r = 1.0 - np.sum((right_counts / nr[..., None]) ** 2, axis=2)
    decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
    decrease[~valid] = -np.inf
    rows = np.argmax(decrease, axis=0)  # first max = lowest threshold, per column
    col_best = decrease[rows, np.arange(cols.size)]
    c = int(np.argmax(col_best))  # first max = lowest feature
    if col_best[c] <= 0.0:
        return None
    lo, hi = sv[rows[c], c], sv[rows[c] + 1, c]
    mid = lo + (hi - lo) / 2.0
    if mid >= hi:  # adjacent floats: midpoint rounded up
        mid = lo
    return int(cols[c]), float(mid), float(col_best[c])


def grow_tree(
    matrix: np.ndarray,
    y_idx: np.ndarray,
    n_classes: int,
    params: ForestParams,
    tree_seed,
) -> Tree:
    """Recursive CART growth; deterministic given tree_seed.

    tree_seed may be an int, a seed sequence, or an already-positioned
    Generator (train_forest passes the per-tree stream after the bootstrap
    draw so subset draws continue it).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    y_idx = np.asarray(y_idx)
    if matrix.ndim != 2 or matrix.shape[0] != y_idx.size:
        raise DataError("matrix rows must match label count")
    if y_idx.size == 0:
        raise DataError("cannot grow a tree from zero rows")
    rng = tree_seed if isinstance(tree_seed, np.random.Generator) else np.random.default_rng(tree_seed)
    d = matrix.shape[1]
    k = d if params.max_features is None else min(params.max_features, d)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(LEAF)
        threshold.append(math.nan)
        left.append(LEAF)
        right.append(LEAF)
        counts.append(np.zeros(n_classes, dtype=np.int64))
        return len(feature) - 1

    def build(rows: np.ndarray, depth: int) -> int:
        node = new_node()
        node_counts = np.bincount(y_idx[rows], minlength=n_classes)
        counts[node] = node_counts.astype(np.int64)
        pure = np.count_nonzero(node_counts) <= 1
        depth_stop = params.max_depth is not None and depth >= params.max_depth
        if pure or depth_stop or rows.size < 2 * params.min_samples_leaf:
            return node
        subset = rng.choice(d, size=k, replace=False)
        found = best_split(
            matrix[rows], y_idx[rows], subset, n_classes, params.min_samples_leaf
        )
        if found is None:
            return node
        f, thr, _ = found
        go_left = matrix[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(rows[go_left], depth + 1)
        right[node] = build(rows[~go_left], depth + 1)
        return node

    build(np.arange(y_idx.size), depth=0)
    return Tree(
        np.array(feature, dtype=np.int32),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.vstack(counts),
    )


def train_forest(
    matrix: np.ndarray,
    labels: np.ndarray,
    params: ForestParams | None = None,
    catalog_version: str = "",
    feature_names: tuple[str, ...] = (),
) -> Forest:
    """Bootstrap-aggregated trees with the per-tree seeding contract above."""
    params = params or ForestParams()
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels)
    if matrix.ndim != 2 or matrix.shape[0] != labels.size:
        raise DataError("matrix rows must match label count")
    if not np.all(np.isfinite(matrix)):
        raise DataError("training matrix must be finite; impute first")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError("training needs at least 2 classes")
    n, d = matrix.shape
    # the subset size each split draws (`grow_tree`), as forest.txt records it
    effective = replace(params, max_features=min(params.max_features or max(1, math.isqrt(d)), d))
    y_idx = np.searchsorted(classes, labels)
    trees = []
    for t in range(effective.n_trees):
        rng = np.random.default_rng([effective.seed, t])
        if effective.bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(grow_tree(matrix[rows], y_idx[rows], classes.size, effective, rng))
    return Forest(
        trees=tuple(trees),
        classes=classes,
        params=effective,
        n_features=d,
        catalog_version=catalog_version,
        feature_names=tuple(feature_names),
    )


def predict_forest(forest: Forest, fv: np.ndarray) -> tuple[int, np.ndarray]:
    """Majority vote over trees; returns (label, votes per class).

    Every tree is walked at once over the forest's flat node arrays: from the
    roots, each level is one gather and one `np.where(x[feature] <= threshold,
    left, right)`, until no node moves: a leaf's children are the leaf itself.
    A NaN feature goes right, as it fails the comparison.  A leaf votes for
    the lowest class index among its largest counts, and a vote tie goes to
    the lowest class label.
    """
    x = np.asarray(fv, dtype=np.float64)
    if x.ndim != 1 or x.size != forest.n_features:
        raise DataError(
            f"feature vector of length {x.size} does not match forest dimension {forest.n_features}"
        )
    nodes = forest._roots
    while True:
        moved = np.where(x[forest._feature[nodes]] <= forest._threshold[nodes],
                         forest._left[nodes], forest._right[nodes])
        if np.array_equal(moved, nodes):
            break
        nodes = moved
    votes = np.bincount(forest._vote[nodes], minlength=forest.classes.size)
    return int(forest.classes[int(np.argmax(votes))]), votes


# -- persistence -----------------------------------------------------------------

def _node_names(classes: np.ndarray) -> list[str]:
    return ["tree", "feature", "threshold", "left", "right", *(f"count_{c}" for c in classes)]


def save_forest(forest: Forest, path: str) -> None:
    """Versioned text format; load(save(f)) reproduces f bit for bit.

    One row per node, trees in order, under the header
    `tree,feature,threshold,left,right,count_<c>...` with one count column
    per class.  `left` and `right` index the rows of the node's own tree,
    and a leaf's threshold reads `nan`.
    """
    comments = [
        "forest-format v2",
        f"catalog={forest.catalog_version}",
        "classes=" + ",".join(str(int(c)) for c in forest.classes),
        params_line(forest.params),
        f"n_features={forest.n_features}",
    ]
    if forest.feature_names:
        comments.append("feature_names=" + ",".join(forest.feature_names))
    write_table(path, comments, _node_names(forest.classes), forest._node_columns)


def load_forest(path: str) -> Forest:
    with read_artifact(path, header=True) as art:
        tree_of, *nodes = art.columns(int, int, float, int, int, int)
        meta = art.meta
        classes = np.array([int(c) for c in meta["classes"].split(",")])
        if art.header != _node_names(classes):
            raise ValueError(f"header is not {','.join(_node_names(classes))}")
        params = read_params(ForestParams, meta)
        ids, steps = np.unique(tree_of), np.diff(tree_of)
        if ids.size != params.n_trees or np.any(ids != np.arange(ids.size)) or np.any(steps < 0):
            raise ValueError(f"the tree column must run 0..{params.n_trees - 1} in order")
        # the four node columns, then the counts as one matrix, cut into trees
        columns = (*nodes[:4], np.column_stack(nodes[4:]))
        cuts = np.flatnonzero(steps) + 1
        trees = tuple(Tree(*parts) for parts in zip(*(np.split(c, cuts) for c in columns)))
        names = meta.get("feature_names")
        return Forest(
            trees=trees,
            classes=classes,
            params=params,
            n_features=int(meta["n_features"]),
            catalog_version=meta.get("catalog", ""),
            feature_names=tuple(names.split(",")) if names else (),
        )
