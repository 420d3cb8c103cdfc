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

from dataclasses import dataclass, field, fields
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
    # the range leaves out NaN and infinity, which CLI flags and the API
    # bring past the file codec's finite-number rule
    if not 0 <= config.min_impurity_decrease < np.inf:
        raise ConfigurationError("min_impurity_decrease must be a finite non-negative number")


@dataclass(eq=False)
class TreeModel:
    """A fitted tree as per-node arrays in breadth-first order. Node i
    splits on feature[i] at threshold[i] (0 on leaves), or is a leaf when
    feature[i] < 0; its children are left[i] and left[i] + 1, since each
    split node's pair follows the pairs of the split nodes before it.
    value[i] is the leaf mean (zeros on split nodes), n_samples[i] the
    node's training rows."""

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    n_features: int
    config: TreeConfig
    left: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        split = self.feature >= 0
        self.left = 1 + 2 * (np.cumsum(split, dtype=np.intp) - split)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeModel):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def depth(self) -> int:
        """Split levels on the longest root-to-leaf path, one pass per level."""
        depth = 0
        level = np.zeros(1, dtype=np.intp)
        while True:
            left = self.left[level[self.feature[level] >= 0]]
            if not left.size:
                return depth
            level = np.concatenate((left, left + 1))
            depth += 1

    # Aliases for perfbench's traced fit hook (`_tree_fitted` in
    # perfbench/layers.py), which calls dtree.leaf_count(model.root) and
    # dtree.tree_depth(model.root): this property and the two functions
    # below go when perfbench reads the stage spans (ROADMAP item 1).
    @property
    def root(self) -> "TreeModel":
        return self


def leaf_count(tree: TreeModel) -> int:
    return tree.leaf_count


def tree_depth(tree: TreeModel) -> int:
    return tree.depth


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
    ids: np.ndarray, rows: np.ndarray, values: np.ndarray, labels: np.ndarray, depth: int, config: TreeConfig,
    out: tuple,
) -> None:
    """Make each of a batch of same-depth nodes a leaf or a split. ids
    are the nodes' places in their depth's arrays, rows (B, n) their
    training rows, ascending. Writes each node's split or leaf mean into
    its depth's (feature, threshold, value, children) at its place, with
    a split node's children as (left rows, right rows), each ascending."""
    feature, threshold, value, children = out
    n = rows.shape[1]
    y = labels[rows]
    mean = y.mean(axis=1)
    split = np.zeros(0, dtype=np.intp)
    if depth < config.max_depth and n >= 2 * config.min_samples_leaf:
        impurity = node_impurity(y)
        impure = np.flatnonzero(impurity > 0.0)
        x = values[rows[impure]]
        score, best_feature, best_threshold = best_split(x, y[impure], config.min_samples_leaf)
        gain = np.flatnonzero(impurity[impure] - score > config.min_impurity_decrease)
        split = impure[gain]
        feature[ids[split]], threshold[ids[split]] = best_feature[gain], best_threshold[gain]
        go_left = x[gain, :, best_feature[gain]] <= best_threshold[gain, None]
    is_leaf = np.ones(len(ids), dtype=bool)
    is_leaf[split] = False
    value[ids[is_leaf]] = mean[is_leaf]
    if not split.size:
        return
    # each split node's rows, left side first
    parted = np.take_along_axis(rows[split], np.argsort(~go_left, axis=1, kind="stable"), axis=1)
    n_left = np.count_nonzero(go_left, axis=1)
    for i, part, k in zip(ids[split].tolist(), parted, n_left.tolist()):
        children[i] = (part[:k], part[k:])


def fit(values: np.ndarray, labels: np.ndarray, config: Optional[TreeConfig] = None) -> TreeModel:
    """Grow a tree on raw features and raw metre labels, one depth at a
    time: the cost goes by groups of same-size nodes, not by nodes.

    Each depth's nodes sit in breadth-first order, so the children of
    its split nodes, left first, are the next depth in order, and the
    depths laid end to end are the model's node arrays."""
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
    depths = []
    open_rows = [np.arange(values.shape[0])]  # each node's rows, one depth
    while open_rows:
        m = len(open_rows)
        feature, threshold, value, children = np.full(m, -1, dtype=np.intp), np.zeros(m), np.zeros((m, 2)), [()] * m
        groups: Dict[int, List[int]] = {}
        for i, rows in enumerate(open_rows):
            groups.setdefault(len(rows), []).append(i)
        for ids in groups.values():
            rows = np.stack([open_rows[i] for i in ids])
            _grow(np.array(ids), rows, values, labels, len(depths), config, (feature, threshold, value, children))
        depths.append((feature, threshold, value, np.array([len(rows) for rows in open_rows], dtype=np.intp)))
        open_rows = [part for pair in children for part in pair]
    feature, threshold, value, n_samples = (np.concatenate(column) for column in zip(*depths))
    return TreeModel(feature, threshold, value, n_samples, n_features=values.shape[1], config=config)


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
        node[rows] = model.left[at] + ~go_left  # the right child is left + 1
    out = model.value[node]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Serialization (versioned nested JSON blob)

_TREE_VERSION = 1
_LEAF_KEYS = {"n", "value"}
_SPLIT_KEYS = {"n", "feature", "threshold", "left", "right"}


def tree_to_dict(model: TreeModel) -> dict:
    """The nested node objects of bundle version 1, built from the last
    node back: a child's id is above its parent's, so its object is
    made first."""
    feature, threshold, value = model.feature.tolist(), model.threshold.tolist(), model.value.tolist()
    n, left = model.n_samples.tolist(), model.left.tolist()
    nodes: List[Optional[dict]] = [None] * len(feature)
    for i in reversed(range(len(feature))):
        node = nodes[i] = {"n": n[i]}
        if feature[i] < 0:
            node["value"] = value[i]
        else:
            node.update(feature=feature[i], threshold=threshold[i], left=nodes[left[i]], right=nodes[left[i] + 1])
    return {
        "version": _TREE_VERSION,
        "n_features": model.n_features,
        "config": to_dict(model.config),
        "root": nodes[0],
    }


def tree_from_dict(d: dict) -> TreeModel:
    """Flatten the nested node objects breadth first, which is the node
    arrays' order; every field typed and finite."""
    if d.get("version") != _TREE_VERSION:
        raise ConfigurationError(f"unsupported tree blob version {d.get('version')}")
    config = from_dict(TreeConfig, d.get("config", {}), "tree config")
    validate_tree_config(config)
    if "root" not in d or "n_features" not in d:
        raise ConfigurationError("tree blob needs 'root' and 'n_features'")
    n_features = decode(int, d["n_features"], "tree n_features")
    nodes = []  # (n, feature, threshold, value) of each node
    queue = [(d["root"], "tree root")]
    for node, where in queue:
        keys = node.keys() if isinstance(node, dict) else None
        if keys != _LEAF_KEYS and keys != _SPLIT_KEYS:
            raise ConfigurationError(
                f"{where} must be a leaf {sorted(_LEAF_KEYS)} or a split {sorted(_SPLIT_KEYS)} object"
            )
        n = decode(int, node["n"], f"{where}.n")
        if keys == _LEAF_KEYS:
            pair = node["value"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigurationError(f"{where}.value must be an (x, y) pair")
            nodes.append((n, -1, 0.0, [decode(float, v, f"{where}.value") for v in pair]))
            continue
        feature = decode(int, node["feature"], f"{where}.feature")
        if not 0 <= feature < n_features:
            raise ConfigurationError(f"{where}.feature {feature} lies outside the tree's width {n_features}")
        nodes.append((n, feature, decode(float, node["threshold"], f"{where}.threshold"), (0.0, 0.0)))
        queue += ((node["left"], f"{where}.left"), (node["right"], f"{where}.right"))
    n_samples, feature, threshold, value = zip(*nodes)
    return TreeModel(
        np.array(feature, dtype=np.intp), np.array(threshold), np.array(value), np.array(n_samples, dtype=np.intp),
        n_features=n_features, config=config,
    )
