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
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import read_artifact, write_artifact
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
    `left`.  Leaves have feature == LEAF and carry per-class sample counts.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        n = self.feature.size
        internal = self.feature >= 0
        if n == 0:
            raise ConfigError("a tree needs at least one node")
        if np.any(~np.isfinite(self.threshold[internal])):
            raise ConfigError("internal thresholds must be finite")
        for child in (self.left[internal], self.right[internal]):
            if child.size and (child.min() < 0 or child.max() >= n):
                raise ConfigError("internal node children must exist")
        leaf_sums = self.counts[~internal].sum(axis=1)
        if np.any(leaf_sums <= 0):
            raise ConfigError("every leaf must hold at least one sample")

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    classes: np.ndarray
    params: ForestParams
    n_features: int
    catalog_version: str = ""
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.trees:
            raise ConfigError("a forest needs at least one tree")
        if self.feature_names and len(self.feature_names) != self.n_features:
            raise ConfigError("feature_names length must match n_features")
        for tree in self.trees:
            if tree.feature.max() >= self.n_features:
                raise ConfigError(
                    f"a split on feature {tree.feature.max()} exceeds n_features {self.n_features}"
                )


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
    best: tuple[int, float, float] | None = None
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), y_idx] = 1.0
    for j in np.sort(np.asarray(feature_subset)):
        values = matrix[:, j]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        left_counts = np.cumsum(one_hot[order], axis=0)[:-1]  # after position i
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
        i = int(np.argmax(decrease))  # first max = lowest threshold
        if decrease[i] <= 0.0:
            continue
        mid = sv[i] + (sv[i + 1] - sv[i]) / 2.0
        if mid >= sv[i + 1]:  # adjacent floats: midpoint rounded up
            mid = sv[i]
        if best is None or decrease[i] > best[2]:
            best = (int(j), float(mid), float(decrease[i]))
    return best


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
    if params.max_features is not None and params.max_features > d:
        raise ConfigError(f"max_features {params.max_features} exceeds {d} features")
    effective = params if params.max_features is not None else replace(
        params, max_features=max(1, int(math.isqrt(d)))
    )
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


def bootstrap_rows(forest: Forest, tree_index: int, n_rows: int) -> np.ndarray:
    """Re-derive tree t's bootstrap index vector from the seeding contract."""
    if not forest.params.bootstrap:
        return np.arange(n_rows)
    rng = np.random.default_rng([forest.params.seed, tree_index])
    return rng.integers(0, n_rows, size=n_rows)


def _tree_vote(tree: Tree, x: np.ndarray) -> int:
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return int(np.argmax(tree.counts[node]))  # argmax tie -> lowest class index


def predict_forest(forest: Forest, fv: np.ndarray) -> tuple[int, np.ndarray]:
    """Majority vote over trees; returns (label, votes per class).

    Vote ties go to the lowest class label.
    """
    x = np.asarray(fv, dtype=np.float64)
    if x.ndim != 1 or x.size != forest.n_features:
        raise DataError(
            f"feature vector of length {x.size} does not match forest dimension {forest.n_features}"
        )
    votes = np.zeros(forest.classes.size, dtype=np.int64)
    for tree in forest.trees:
        votes[_tree_vote(tree, x)] += 1
    return int(forest.classes[int(np.argmax(votes))]), votes


# -- persistence -----------------------------------------------------------------

def save_forest(forest: Forest, path: str) -> None:
    """Versioned text format; load(save(f)) reproduces f bit for bit."""
    p = forest.params
    comments = [
        "forest-format v1",
        f"catalog={forest.catalog_version}",
        "classes=" + ",".join(str(int(c)) for c in forest.classes),
        f"params n_trees={p.n_trees} max_features={p.max_features} "
        f"min_samples_leaf={p.min_samples_leaf} max_depth={p.max_depth} "
        f"bootstrap={int(p.bootstrap)} seed={p.seed}",
        f"n_features={forest.n_features}",
    ]
    if forest.feature_names:
        comments.append("feature_names=" + ",".join(forest.feature_names))
    write_artifact(path, comments, None, _node_rows(forest))


def _node_rows(forest: Forest):
    """Each tree's `# tree=` comment, then one row per node."""
    for t, tree in enumerate(forest.trees):
        yield f"# tree={t} nodes={tree.n_nodes}"
        for i in range(tree.n_nodes):
            thr = repr(float(tree.threshold[i])) if tree.feature[i] >= 0 else "-"
            row_counts = ":".join(str(int(c)) for c in tree.counts[i])
            yield (
                f"{int(tree.feature[i])},{thr},{int(tree.left[i])},"
                f"{int(tree.right[i])},{row_counts}"
            )


_NODE_DTYPES = (np.int32, np.float64, np.int32, np.int32, np.int64)


def load_forest(path: str) -> Forest:
    nodes: dict[str, list[tuple]] = {}  # node rows under each `# tree=` comment
    with read_artifact(path) as art:
        for f, thr, lt, rt, raw_counts in art:
            nodes.setdefault(art.meta["tree"], []).append(
                (
                    int(f),
                    float("nan") if thr == "-" else float(thr),
                    int(lt),
                    int(rt),
                    [int(c) for c in raw_counts.split(":")],
                )
            )
        meta = art.meta
        none_or_int = lambda v: None if v == "None" else int(v)
        params = ForestParams(
            n_trees=int(meta["n_trees"]),
            max_features=none_or_int(meta["max_features"]),
            min_samples_leaf=int(meta["min_samples_leaf"]),
            max_depth=none_or_int(meta["max_depth"]),
            bootstrap=bool(int(meta["bootstrap"])),
            seed=int(meta["seed"]),
        )
        if len(nodes) != params.n_trees:
            raise ValueError(f"holds {len(nodes)} trees, header says {params.n_trees}")
        trees = tuple(
            Tree(*(np.array(col, dtype=dt) for col, dt in zip(zip(*rows), _NODE_DTYPES)))
            for rows in nodes.values()
        )
        names = meta.get("feature_names")
        return Forest(
            trees=trees,
            classes=np.array([int(c) for c in meta["classes"].split(",")]),
            params=params,
            n_features=int(meta["n_features"]),
            catalog_version=meta.get("catalog", ""),
            feature_names=tuple(names.split(",")) if names else (),
        )
