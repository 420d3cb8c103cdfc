"""Greedy multi-output regression tree over raw feature vectors.

Node impurity is the sum over samples of the squared distance to the
node mean, summed over both output coordinates. Splits test
value <= threshold with thresholds at midpoints between consecutive
distinct feature values; the best split minimises the summed child
impurity, with ties broken toward the lower feature index, then the
lower threshold. No pruning.

The tree grows level by level on presorted rows (the presort variant
of CART, Breiman et al. 1984; SLIQ's attribute lists, Mehta, Agrawal
and Rissanen 1996). `fit` sorts each feature once. Every open node
keeps its rows in each feature's order, and a split parts that order
stably, so no node is sorted again. A depth's nodes are searched by
size class, row counts in (2^(c-1), 2^c], each class's nodes padded to
its longest, in one batch of numpy calls that scores only the legal
candidates. Prefix sums start at each node's first row, and means and
impurities are taken over each node's ascending rows with the nodes
grouped by exact row count, so every node gets the bits a node-by-node
build would give it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple, Union

import numpy as np

from .configfile import decode, from_dict, to_dict
from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 30
    min_samples_leaf: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ConfigurationError("max depth must be at least 1")
        if self.min_samples_leaf < 1:
            raise ConfigurationError("min samples per leaf must be at least 1")
        # the range leaves out NaN and infinity, which CLI flags and the API
        # bring past the file codec's finite-number rule
        if not 0 <= self.min_impurity_decrease < np.inf:
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

    Sorts each node's columns once (stable, so ties keep row order) and
    runs the search `fit` runs on its presorted rows.
    """
    values, labels = np.asarray(values, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    batched = values.ndim == 3
    if not batched:
        values, labels = values[None], labels[None]
    nodes, n, d = values.shape
    # each node's rows by each feature, as rows of the stacked (nodes * n) set
    rows = np.argsort(values, axis=1, kind="stable").transpose(2, 0, 1) + n * np.arange(nodes)[:, None]
    found = _search(
        np.ascontiguousarray(values.reshape(nodes * n, d).T),
        np.ascontiguousarray(labels.reshape(nodes * n, 2)),
        labels.mean(axis=1), rows, np.full(nodes, n), min_samples_leaf,
    )
    if batched:
        return found
    score, feature, threshold = found
    if not np.isfinite(score[0]):
        return None
    return float(score[0]), int(feature[0]), float(threshold[0])


def _search(
    columns: np.ndarray, labels: np.ndarray, mean: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
    min_samples_leaf: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """best_split of B nodes: (B,) score, feature and threshold.

    columns (d, N) holds the features of N rows, a line each, and labels
    (N, 2) their labels. rows (d, B, w) holds node b's rows sorted by
    feature j in rows[j, b, :sizes[b]]; the places after them may hold
    any row. mean (B, 2) is each node's label mean. The candidate at
    place i puts i + 1 rows on the left. It is legal where the value
    rises and both sides keep min_samples_leaf rows, so no legal
    candidate reads a place past its node's rows. Centred prefix sums
    of the labels start at each node's first place, so each candidate
    threshold costs O(1) and a node's scores have the bits of an
    unpadded search. Only legal candidates are scored, node by node in
    feature-major order, and each node takes its first minimum: ties go
    to the lower feature, then the lower threshold.
    """
    d, nodes, w = rows.shape
    v = columns.take(rows + (columns.shape[1] * np.arange(d))[:, None, None])
    sizes_left = np.arange(1, w)
    sizes_right = sizes[:, None] - sizes_left
    legal = (v[:, :, 1:] > v[:, :, :-1]) & (np.minimum(sizes_left, sizes_right) >= min_samples_leaf)
    b, j = np.divmod(np.flatnonzero(legal.transpose(1, 0, 2)), d * (w - 1))
    j, i = np.divmod(j, w - 1)
    at = (j * nodes + b) * w + i  # flat places in the (d, B, w) arrays
    end = at - i + sizes[b] - 1
    # each label pair as one complex number: a complex add is the two float
    # adds, so one complex prefix sum gives both columns' prefix sums
    y = labels.view(np.complex128)[:, 0].take(rows) - mean.view(np.complex128)
    cs = np.cumsum(y, axis=2)
    y = y.view(np.float64)
    cs2 = np.cumsum((y * y).view(np.complex128), axis=2)
    left_sum, left_sq, total, total_sq = (
        a.take(place).view(np.float64).reshape(-1, 2) for a, place in ((cs, at), (cs2, at), (cs, end), (cs2, end))
    )
    n_left = i[:, None] + 1.0
    left = left_sq - left_sum**2 / n_left
    right = (total_sq - left_sq) - (total - left_sum) ** 2 / (sizes[b, None] - n_left)
    # per candidate: the sum over outputs of the left SSE, likewise right
    sse = np.maximum((left[:, 0] + left[:, 1]) + (right[:, 0] + right[:, 1]), 0.0)
    score, feature, threshold = np.full(nodes, np.inf), np.zeros(nodes, dtype=np.intp), np.zeros(nodes)
    first = np.flatnonzero(np.diff(b, prepend=-1))  # each node's first candidate
    lowest = np.repeat(np.minimum.reduceat(sse, first), np.diff(first, append=len(b)))
    # argmin's pick in each node: its first minimum, or its first NaN
    hit = np.flatnonzero((sse == lowest) | np.isnan(sse))
    hit = hit[np.diff(b[hit], prepend=-1) > 0]
    node, at = b[hit], at[hit]
    score[node], feature[node] = sse[hit], j[hit]
    threshold[node] = (v.take(at) + v.take(at + 1)) / 2.0
    return score, feature, threshold


def fit(values: np.ndarray, labels: np.ndarray, config: Optional[TreeConfig] = None) -> TreeModel:
    """Grow a tree on raw features and raw metre labels, one depth at a
    time: the cost goes by size classes of nodes, not by nodes.

    Each feature is sorted once. Line j < d of `order` then holds every
    open node's rows in the order of feature j (ties by row id), and its
    last line holds them ascending, each node as one segment of every
    line; slot[k] is segment k's place among its depth's nodes in
    breadth-first order. The children of a depth's split nodes, left
    first, are the next depth in that order, and the depths laid end to
    end are the model's node arrays."""
    config = config or TreeConfig()
    values = np.asarray(values, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise DataError("tree fitting needs a non-empty (n, d) feature array")
    if labels.shape != (values.shape[0], 2):
        raise DataError("tree fitting needs labels of shape (n, 2)")
    if not np.isfinite(values).all() or not np.isfinite(labels).all():
        raise DataError("tree fitting needs finite features and labels")
    n, d = values.shape
    columns = np.ascontiguousarray(values.T)
    order = np.vstack((np.argsort(columns, axis=1, kind="stable"), np.arange(n)))
    sizes, slot = np.array([n]), np.zeros(1, dtype=np.intp)  # each open node's row count and place
    depths = []
    while sizes.size:
        m, starts = len(sizes), np.cumsum(sizes) - sizes
        mean, impurity = np.zeros((m, 2)), np.zeros(m)
        # over each node's ascending rows, nodes grouped by row count: each
        # node gets the bits of a node-by-node build
        row_counts, nodes = np.unique(sizes, return_counts=True)
        for size, ids in zip(row_counts, np.split(np.argsort(sizes, kind="stable"), np.cumsum(nodes)[:-1])):
            y = labels[order[d].take(starts[ids, None] + np.arange(size))]
            mean[ids], impurity[ids] = y.mean(axis=1), node_impurity(y)
        feature, threshold = np.full(m, -1, dtype=np.intp), np.zeros(m)
        searched = np.flatnonzero(
            (impurity > 0.0) & (sizes >= 2 * config.min_samples_leaf) & (len(depths) < config.max_depth)
        )
        size_class = np.ceil(np.log2(sizes[searched]))
        for c in np.unique(size_class):
            group = searched[size_class == c]
            width = sizes[group].max()
            # each node padded to the class's longest; no search bigger than the root's
            per = max(1, n // width)
            for ids in np.split(group, np.arange(per, len(group), per)):
                places = np.minimum(starts[ids, None] + np.arange(width), order.shape[1] - 1)
                score, best_feature, best_threshold = _search(
                    columns, labels, mean[ids], np.take(order[:d], places, axis=1), sizes[ids],
                    config.min_samples_leaf,
                )
                gain = impurity[ids] - score > config.min_impurity_decrease
                feature[ids[gain]], threshold[ids[gain]] = best_feature[gain], best_threshold[gain]
        split = feature >= 0
        bfs = np.argsort(slot)
        depths.append((feature[bfs], threshold[bfs], np.where(split[:, None], 0.0, mean)[bfs], sizes[bfs]))
        # the next depth: on every line, the split nodes' left rows, then
        # their right rows, each in line order. Split node k's children are
        # the next depth's nodes 2p and 2p + 1, p its rank among this
        # depth's split nodes in breadth-first order
        rows = order[d, np.repeat(split, sizes)]
        node = np.repeat(np.flatnonzero(split), sizes[split])
        goes_right = values[rows, feature[node]] > threshold[node]
        side = np.full(n, 2, dtype=np.int8)  # 0 left, 1 right, 2 on a leaf
        side[rows] = goes_right
        sides = side.take(order)
        n_left = np.bincount(node[~goes_right], minlength=m)[split]
        n_right = sizes[split] - n_left
        order = np.hstack(
            [
                np.compress(sides.ravel() == k, order).reshape(d + 1, count.sum())
                for k, count in enumerate((n_left, n_right))
            ]
        )
        p = (np.cumsum(split[bfs]) - 1)[slot[split]]
        sizes, slot = np.concatenate((n_left, n_right)), np.concatenate((2 * p, 2 * p + 1))
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
_INTP_MAX = int(np.iinfo(np.intp).max)
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


def _array_int(value, where: str) -> int:
    """A JSON integer that the node arrays can hold."""
    out = decode(int, value, where)
    if abs(out) > _INTP_MAX:
        raise ConfigurationError(f"{where} {out} is too large for the node arrays")
    return out


def tree_from_dict(d: dict) -> TreeModel:
    """Flatten the nested node objects breadth first, which is the node
    arrays' order; every field typed and finite, every sample count at
    least 1 and each split's the sum of its children's."""
    if d.get("version") != _TREE_VERSION:
        raise ConfigurationError(f"unsupported tree blob version {d.get('version')}")
    config = from_dict(TreeConfig, d.get("config", {}), "tree config")
    if "root" not in d or "n_features" not in d:
        raise ConfigurationError("tree blob needs 'root' and 'n_features'")
    n_features = _array_int(d["n_features"], "tree n_features")
    nodes = []  # (n, feature, threshold, value) of each node
    queue = [(d["root"], "tree root")]
    for node, where in queue:
        keys = node.keys() if isinstance(node, dict) else None
        if keys != _LEAF_KEYS and keys != _SPLIT_KEYS:
            raise ConfigurationError(
                f"{where} must be a leaf {sorted(_LEAF_KEYS)} or a split {sorted(_SPLIT_KEYS)} object"
            )
        n = _array_int(node["n"], f"{where}.n")
        if n < 1:
            raise ConfigurationError(f"{where}.n must be at least 1, got {n}")
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
    model = TreeModel(
        np.array(feature, dtype=np.intp), np.array(threshold), np.array(value), np.array(n_samples, dtype=np.intp),
        n_features=n_features, config=config,
    )
    # a node's position in `queue` is its position in the node arrays
    splits = np.flatnonzero(model.feature >= 0)
    n, left = model.n_samples, model.left[splits]
    wrong = splits[n[splits] != n[left] + n[left + 1]]
    if wrong.size:
        i = int(wrong[0])
        j = int(model.left[i])
        raise ConfigurationError(f"{queue[i][1]}.n is {n[i]}, not the sum of its children's {n[j]} + {n[j + 1]}")
    return model
