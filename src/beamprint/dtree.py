"""Greedy multi-output regression tree over raw feature vectors.

Node impurity is the sum over samples of the squared distance to the
node mean, summed over both output coordinates. Splits test
value <= threshold with thresholds at midpoints between consecutive
distinct feature values; the best split minimises the summed child
impurity, with ties broken toward the lower feature index, then the
lower threshold. No pruning.

The tree grows level by level. The open nodes of one depth are grouped
by row count, and each group is stacked into (B, n, d) features and
(B, n, 2) labels, so one batch of numpy calls settles all its nodes.
Each node keeps its rows in ascending order and nothing is padded, so
every node gets the bits a node-by-node build would give it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .configfile import decode, from_dict, to_dict
from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 30
    min_samples_leaf: int = 2
    min_impurity_decrease: float = 0.0


def validate_tree_config(config: TreeConfig) -> None:
    if config.max_depth < 1:
        raise ConfigurationError("max depth must be at least 1")
    if config.min_samples_leaf < 1:
        raise ConfigurationError("min samples per leaf must be at least 1")
    if config.min_impurity_decrease < 0:
        raise ConfigurationError("min impurity decrease must be non-negative")


@dataclass
class TreeNode:
    n_samples: int
    # internal nodes carry a split, leaves carry the mean label
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class TreeModel:
    """A fitted tree. The node graph under `root` is what serializes;
    prediction walks flat per-node arrays compiled from it once, at
    construction, so edit a tree by building a new TreeModel."""

    root: TreeNode
    n_features: int
    config: TreeConfig
    # node i splits on feature[i] at threshold[i], or is a leaf when
    # feature[i] < 0; left/right are child indices (meaningless on
    # leaves); value[i] is the leaf mean (zeros on split nodes)
    feature: np.ndarray = field(init=False, repr=False, compare=False)
    threshold: np.ndarray = field(init=False, repr=False, compare=False)
    left: np.ndarray = field(init=False, repr=False, compare=False)
    right: np.ndarray = field(init=False, repr=False, compare=False)
    value: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # breadth-first: the list grows as it is read, and a split node's
        # children land at the two positions it appends
        nodes = [self.root]
        left = []
        for node in nodes:
            left.append(len(nodes))
            if not node.is_leaf:
                nodes.extend((node.left, node.right))
        self.feature = np.array([-1 if n.is_leaf else n.feature for n in nodes], dtype=np.intp)
        self.threshold = np.array([0.0 if n.is_leaf else n.threshold for n in nodes])
        self.left = np.array(left, dtype=np.intp)
        self.right = self.left + 1
        self.value = np.array([n.value if n.is_leaf else (0.0, 0.0) for n in nodes])

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def depth(self) -> int:
        """Split levels on the longest root-to-leaf path, one pass per level."""
        depth = 0
        level = np.zeros(1, dtype=np.intp)
        while True:
            split = level[self.feature[level] >= 0]
            if not split.size:
                return depth
            level = np.concatenate((self.left[split], self.right[split]))
            depth += 1


def node_impurity(labels: np.ndarray) -> Union[float, np.ndarray]:
    """Summed squared distance to the label mean, both outputs: a float
    for labels (n, 2), and one impurity per node for a batch (B, n, 2)."""
    diff = labels - labels.mean(axis=-2, keepdims=True)
    sq = diff * diff
    if labels.ndim == 2:
        return float(sq.sum())
    return sq.reshape(len(labels), -1).sum(axis=1)


def best_split(
    values: np.ndarray, labels: np.ndarray, min_samples_leaf: int
) -> Union[Optional[Tuple[float, int, float]], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exhaustive best (child impurity sum, feature, threshold), or None.

    values (n, d) and labels (n, 2) are one node's rows. With a leading
    batch axis, values (B, n, d) and labels (B, n, 2) are B nodes of n
    rows each, searched in the same calls, and the result is three (B,)
    arrays: score, feature and threshold, with an inf score where a node
    has no legal split. A 2-D call is the B = 1 case of that search.

    Scores every candidate of every feature at once: one stable sort of
    each column, then centred prefix sums per label column, so each
    candidate threshold costs O(1). Each node's (n - 1, d) score matrix
    is searched feature-major, and argmin returns the first minimum, so
    ties go to the lower feature, then the lower threshold. Nothing is
    padded: each node's means and prefix sums see only its own rows, so
    a node gets the same bits in any batch.
    """
    batched = values.ndim == 3
    if not batched:
        values, labels = values[None], labels[None]
    found = _search(values, labels, min_samples_leaf)
    if batched:
        return found
    score, feature, threshold = found
    if not np.isfinite(score[0]):
        return None
    return float(score[0]), int(feature[0]), float(threshold[0])


def _search(
    values: np.ndarray, labels: np.ndarray, min_samples_leaf: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """best_split over a (B, n, d) batch: (B,) score, feature and threshold."""
    nodes, n, d = values.shape
    if n < 2 or d == 0:
        return np.full(nodes, np.inf), np.zeros(nodes, dtype=np.intp), np.zeros(nodes)
    centred = labels - labels.mean(axis=1, keepdims=True)
    order = np.argsort(values, axis=1, kind="stable")
    b = np.arange(nodes)
    v = values[b[:, None, None], order, np.arange(d)]
    sizes_left = np.arange(1, n, dtype=np.float64)[:, None]
    sizes_right = n - sizes_left
    # per candidate: sum over outputs of the left SSE, likewise right
    for k in range(labels.shape[2]):
        y = centred[b[:, None, None], order, k]
        cs = np.cumsum(y, axis=1)
        cs2 = np.cumsum(y * y, axis=1)
        left_sum = cs[:, :-1]
        left_sq = cs2[:, :-1]
        left = left_sq - left_sum**2 / sizes_left
        right = (cs2[:, -1:] - left_sq) - (cs[:, -1:] - left_sum) ** 2 / sizes_right
        if k == 0:
            sse_left, sse_right = left, right
        else:
            sse_left += left
            sse_right += right
    sse = np.maximum(sse_left + sse_right, 0.0)
    valid = (v[:, 1:] > v[:, :-1]) & (sizes_left >= min_samples_leaf) & (sizes_right >= min_samples_leaf)
    sse[~valid] = np.inf
    sse = sse.transpose(0, 2, 1).reshape(nodes, d * (n - 1))
    best = np.argmin(sse, axis=1)
    feature, i = np.divmod(best, n - 1)
    return sse[b, best], feature, (v[b, i, feature] + v[b, i + 1, feature]) / 2.0


def _grow(
    nodes: List[TreeNode], rows: np.ndarray, values: np.ndarray, labels: np.ndarray, depth: int, config: TreeConfig
) -> List[Tuple[TreeNode, np.ndarray]]:
    """Make each of a batch of same-depth nodes a leaf or a split. rows
    (B, n) holds each node's training rows, ascending. Returns the new
    children, each with its rows, ascending."""
    n = rows.shape[1]
    y = labels[rows]
    mean = y.mean(axis=1)
    split = np.zeros(0, dtype=np.intp)
    if depth < config.max_depth and n >= 2 * config.min_samples_leaf:
        impurity = node_impurity(y)
        impure = np.flatnonzero(impurity > 0.0)
        x = values[rows[impure]]
        score, feature, threshold = best_split(x, y[impure], config.min_samples_leaf)
        gain = np.flatnonzero(impurity[impure] - score > config.min_impurity_decrease)
        split, feature, threshold = impure[gain], feature[gain], threshold[gain]
        go_left = x[gain, :, feature] <= threshold[:, None]
    is_leaf = np.ones(len(nodes), dtype=bool)
    is_leaf[split] = False
    for node, m, leaf in zip(nodes, mean, is_leaf):
        if leaf:
            node.value = m
    if not split.size:
        return []
    # each split node's rows, left side first
    parted = np.take_along_axis(rows[split], np.argsort(~go_left, axis=1, kind="stable"), axis=1)
    n_left = np.count_nonzero(go_left, axis=1)
    children = []
    for b, f, t, part, k in zip(split.tolist(), feature.tolist(), threshold.tolist(), parted, n_left.tolist()):
        node = nodes[b]
        node.feature, node.threshold = f, t
        node.left, node.right = TreeNode(n_samples=k), TreeNode(n_samples=n - k)
        children += ((node.left, part[:k]), (node.right, part[k:]))
    return children


def fit(values: np.ndarray, labels: np.ndarray, config: Optional[TreeConfig] = None) -> TreeModel:
    """Grow a tree on raw features and raw metre labels, one depth at a
    time: the cost goes by groups of same-size nodes, not by nodes."""
    config = config or TreeConfig()
    validate_tree_config(config)
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise DataError("tree fitting needs a non-empty (n, d) feature array")
    if labels.shape != (values.shape[0], 2):
        raise DataError("tree fitting needs labels of shape (n, 2)")
    if not np.isfinite(values).all() or not np.isfinite(labels).all():
        raise DataError("tree fitting needs finite features and labels")
    root = TreeNode(n_samples=values.shape[0])
    level = [(root, np.arange(values.shape[0]))]
    depth = 0
    while level:
        groups: Dict[int, list] = {}
        for node, rows in level:
            groups.setdefault(len(rows), []).append((node, rows))
        level = []
        for group in groups.values():
            nodes, rows = zip(*group)
            level += _grow(list(nodes), np.stack(rows), values, labels, depth, config)
        depth += 1
    return TreeModel(root=root, n_features=values.shape[1], config=config)


def predict_tree(model: TreeModel, values: np.ndarray) -> np.ndarray:
    """Route each vector to its leaf mean; metres out."""
    values = np.asarray(values, dtype=np.float64)
    single = values.ndim == 1
    if single:
        values = values[None, :]
    if values.ndim != 2 or values.shape[1] != model.n_features:
        raise DataError(
            f"feature width {values.shape[-1]} does not match tree width {model.n_features}"
        )
    # every row starts at the root; each pass moves the rows still on a
    # split node one level down, so a batch costs one pass per level
    node = np.zeros(values.shape[0], dtype=np.intp)
    rows = np.arange(values.shape[0])
    while rows.size:
        at = node[rows]
        split = model.feature[at] >= 0
        rows, at = rows[split], at[split]
        go_left = values[rows, model.feature[at]] <= model.threshold[at]
        node[rows] = np.where(go_left, model.left[at], model.right[at])
    out = model.value[node]
    return out[0] if single else out


def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def leaf_count(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    return leaf_count(node.left) + leaf_count(node.right)


# ---------------------------------------------------------------------------
# Serialization (versioned nested JSON blob)

_TREE_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"n": node.n_samples, "value": node.value.tolist()}
    return {
        "n": node.n_samples,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


_LEAF_KEYS = {"n", "value"}
_SPLIT_KEYS = {"n", "feature", "threshold", "left", "right"}


def _node_from_dict(d, where: str) -> TreeNode:
    """One node and its subtree; every field typed and finite."""
    keys = d.keys() if isinstance(d, dict) else None
    if keys != _LEAF_KEYS and keys != _SPLIT_KEYS:
        raise ConfigurationError(
            f"{where} must be a leaf {sorted(_LEAF_KEYS)} or a split {sorted(_SPLIT_KEYS)} object"
        )
    n = decode(int, d["n"], f"{where}.n")
    if keys == _LEAF_KEYS:
        value = d["value"]
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigurationError(f"{where}.value must be an (x, y) pair")
        return TreeNode(n_samples=n, value=np.array([decode(float, v, f"{where}.value") for v in value]))
    feature = decode(int, d["feature"], f"{where}.feature")
    if feature < 0:
        raise ConfigurationError(f"{where}.feature is negative ({feature})")
    return TreeNode(
        n_samples=n,
        feature=feature,
        threshold=decode(float, d["threshold"], f"{where}.threshold"),
        left=_node_from_dict(d["left"], f"{where}.left"),
        right=_node_from_dict(d["right"], f"{where}.right"),
    )


def tree_to_dict(model: TreeModel) -> dict:
    return {
        "version": _TREE_VERSION,
        "n_features": model.n_features,
        "config": to_dict(model.config),
        "root": _node_to_dict(model.root),
    }


def tree_from_dict(d: dict) -> TreeModel:
    if d.get("version") != _TREE_VERSION:
        raise ConfigurationError(f"unsupported tree blob version {d.get('version')}")
    config = from_dict(TreeConfig, d.get("config", {}), "tree config")
    validate_tree_config(config)
    if "root" not in d or "n_features" not in d:
        raise ConfigurationError("tree blob needs 'root' and 'n_features'")
    model = TreeModel(
        root=_node_from_dict(d["root"], "tree root"),
        n_features=decode(int, d["n_features"], "tree n_features"),
        config=config,
    )
    if model.feature.max() >= model.n_features:
        raise ConfigurationError(
            f"tree splits on feature {model.feature.max()}, past its width {model.n_features}"
        )
    return model
