import hashlib
import importlib.util
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np
import pytest

from beamprint.configfile import from_dict
from beamprint.errors import ConfigurationError, DataError
from beamprint.dtree import (
    TreeConfig,
    TreeModel,
    best_split,
    fit,
    node_impurity,
    predict_tree,
    tree_from_dict,
    tree_to_dict,
)


def brute_force_split(values, labels, min_samples_leaf):
    """Reference: try every feature and midpoint threshold directly."""
    n, d = values.shape
    best = None
    for j in range(d):
        vs = np.unique(values[:, j])
        for lo, hi in zip(vs[:-1], vs[1:]):
            thr = (lo + hi) / 2.0
            left = values[:, j] <= thr
            nl = int(left.sum())
            if nl < min_samples_leaf or n - nl < min_samples_leaf:
                continue
            score = node_impurity(labels[left]) + node_impurity(labels[~left])
            key = (score, j, thr)
            if best is None or key < best:
                best = key
    return best


def oracle_best_split(values, labels, min_samples_leaf):
    """Reference: the per-feature split search, one sort and one prefix
    sum per feature, as it was before the search was vectorised."""
    n, d = values.shape
    centred = labels - labels.mean(axis=0)
    best = None
    sizes_left = np.arange(1, n, dtype=np.float64)
    sizes_right = n - sizes_left
    for j in range(d):
        order = np.argsort(values[:, j], kind="stable")
        v = values[order, j]
        y = centred[order]
        cs = np.cumsum(y, axis=0)
        cs2 = np.cumsum(y * y, axis=0)
        valid = (v[1:] > v[:-1]) & (sizes_left >= min_samples_leaf) & (sizes_right >= min_samples_leaf)
        if not valid.any():
            continue
        left_sum = cs[:-1]
        left_sq = cs2[:-1]
        right_sum = cs[-1] - left_sum
        right_sq = cs2[-1] - left_sq
        sse = (left_sq - left_sum**2 / sizes_left[:, None]).sum(axis=1)
        sse = sse + (right_sq - right_sum**2 / sizes_right[:, None]).sum(axis=1)
        sse = np.maximum(sse, 0.0)
        sse[~valid] = np.inf
        idx = int(np.argmin(sse))
        score = float(sse[idx])
        if not np.isfinite(score):
            continue
        if best is None or score < best[0]:
            best = (score, j, float((v[idx] + v[idx + 1]) / 2.0))
    return best


def recursive_predict(root, values):
    """Reference: walk the oracle's node graph one row at a time."""
    out = np.empty((values.shape[0], 2))
    for i, row in enumerate(values):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def test_impurity_oracle():
    # labels (0,0),(0,0),(5,5),(5,5): mean (2.5,2.5), sse = 4*6.25*2 = 50
    labels = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    assert node_impurity(labels) == pytest.approx(50.0)
    assert node_impurity(np.array([[3.0, 4.0]])) == 0.0
    assert node_impurity(np.full((7, 2), 2.0)) == 0.0


def test_toy_split_threshold():
    # feature 0,0,10,10 with two label clusters: midpoint 5 splits cleanly
    values = np.array([[0.0], [0.0], [10.0], [10.0]])
    labels = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    model = fit(values, labels, TreeConfig())
    # the root splits; its children, nodes 1 and 2, are leaves
    assert model.feature.tolist() == [0, -1, -1]
    assert model.threshold[0] == pytest.approx(5.0)
    assert model.left[0] == 1
    assert model.value.tolist() == [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
    assert model.n_samples.tolist() == [4, 2, 2]


def test_predict_routes_le_left():
    values = np.array([[0.0], [0.0], [10.0], [10.0]])
    labels = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    model = fit(values, labels)
    # the threshold itself goes left
    assert predict_tree(model, np.array([5.0])).tolist() == [0.0, 0.0]
    assert predict_tree(model, np.array([5.0001])).tolist() == [5.0, 5.0]
    batch = predict_tree(model, np.array([[-1.0], [20.0]]))
    assert batch.tolist() == [[0.0, 0.0], [5.0, 5.0]]


def test_split_tie_breaks_lower_feature_and_threshold():
    # two identical features: the split must name feature 0. labels are
    # symmetric around the middle so thresholds 1.5 and 2.5 tie; the
    # lower one must win.
    values = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [4.0, 4.0]])
    labels = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    got = best_split(values, labels, min_samples_leaf=1)
    assert got is not None
    score, feature, threshold = got
    assert feature == 0
    assert threshold == pytest.approx(0.5)
    # check 0.5 really ties with the mirrored 3.5 candidate
    left = values[:, 0] <= 3.5
    mirrored = node_impurity(labels[left]) + node_impurity(labels[~left])
    assert score == pytest.approx(mirrored)


def test_split_respects_min_samples_leaf():
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [9.0, 9.0]])
    # unrestricted, the best cut isolates the outlier
    unrestricted = best_split(values, labels, min_samples_leaf=1)
    assert unrestricted[2] == pytest.approx(2.5)
    # with a 2-sample floor the 2.5 cut is illegal
    constrained = best_split(values, labels, min_samples_leaf=2)
    assert constrained[2] == pytest.approx(1.5)


def test_fit_matches_brute_force_root(rng):
    for _ in range(30):
        n = int(rng.integers(4, 40))
        # quantized values force duplicates, exercising the
        # distinct-value threshold handling
        values = np.round(rng.normal(size=(n, 2)) * 4.0) / 2.0
        labels = rng.normal(size=(n, 2)) * 5.0
        got = best_split(values, labels, min_samples_leaf=2)
        want = brute_force_split(values, labels, 2)
        if want is None:
            assert got is None
            continue
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2], abs=1e-9)
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)


def test_fit_duplicate_rows_only_returns_leaf():
    values = np.zeros((6, 2))
    labels = np.arange(12.0).reshape(6, 2)
    model = fit(values, labels)
    assert model.feature.tolist() == [-1]
    assert model.value.tolist() == [labels.mean(axis=0).tolist()]


def test_max_depth_limits_tree():
    rng = np.random.default_rng(7)
    values = rng.uniform(size=(200, 2))
    labels = rng.uniform(size=(200, 2))
    shallow = fit(values, labels, TreeConfig(max_depth=3))
    assert shallow.depth <= 3
    deep = fit(values, labels, TreeConfig(max_depth=30))
    assert deep.depth > 3
    assert shallow.leaf_count <= 8


def test_min_samples_leaf_holds_everywhere():
    rng = np.random.default_rng(8)
    values = rng.uniform(size=(100, 3))
    labels = rng.uniform(size=(100, 2))
    model = fit(values, labels, TreeConfig(min_samples_leaf=5))
    split = model.feature >= 0
    assert model.n_samples[~split].min() >= 5
    # every split node's rows go to its two children
    left = model.left[split]
    assert np.array_equal(model.n_samples[split], model.n_samples[left] + model.n_samples[left + 1])
    assert model.n_samples[0] == 100


def test_min_impurity_decrease_stops_growth():
    rng = np.random.default_rng(9)
    values = rng.uniform(size=(64, 2))
    labels = rng.uniform(size=(64, 2))
    free = fit(values, labels, TreeConfig(min_impurity_decrease=0.0))
    taxed = fit(values, labels, TreeConfig(min_impurity_decrease=1e9))
    assert taxed.feature.tolist() == [-1]
    assert free.feature[0] >= 0


def test_fit_memorizes_training_grid():
    # distinct feature rows, depth to spare: every training point lands
    # in its own leaf and is reproduced exactly
    rng = np.random.default_rng(10)
    values = rng.permutation(64 * 4).astype(np.float64).reshape(64, 4)
    labels = rng.normal(size=(64, 2))
    model = fit(values, labels, TreeConfig(max_depth=30, min_samples_leaf=1))
    assert np.allclose(predict_tree(model, values), labels)


def test_fit_deterministic():
    rng = np.random.default_rng(11)
    values = rng.uniform(size=(80, 3))
    labels = rng.uniform(size=(80, 2))
    a = fit(values, labels)
    b = fit(values, labels)
    assert a == b
    assert tree_to_dict(a) == tree_to_dict(b)


def test_fit_validation():
    with pytest.raises(DataError):
        fit(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(DataError):
        fit(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(DataError):
        fit(np.array([[np.nan, 0.0]]), np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        fit(np.zeros((4, 2)), np.zeros((4, 2)), TreeConfig(max_depth=0))
    # CLI flags reach the config without the file codec's finite rule
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="min_impurity_decrease"):
            fit(np.zeros((4, 2)), np.zeros((4, 2)), TreeConfig(min_impurity_decrease=bad))


def test_predict_validation():
    model = fit(np.arange(8.0).reshape(4, 2), np.zeros((4, 2)))
    with pytest.raises(DataError):
        predict_tree(model, np.zeros((3, 5)))


def test_tree_dict_round_trip():
    rng = np.random.default_rng(12)
    values = rng.uniform(size=(50, 2))
    labels = rng.uniform(size=(50, 2))
    model = fit(values, labels, TreeConfig(max_depth=6, min_samples_leaf=3))
    blob = tree_to_dict(model)
    back = tree_from_dict(blob)
    assert back == model
    for name in ("feature", "threshold", "left", "value", "n_samples"):
        assert getattr(back, name).dtype == getattr(model, name).dtype, name
    assert back.n_features == model.n_features
    assert back.config == model.config
    x = rng.uniform(size=(20, 2))
    assert np.array_equal(predict_tree(back, x), predict_tree(model, x))


def test_tree_dict_rejects_bad_version():
    model = fit(np.arange(8.0).reshape(4, 2), np.zeros((4, 2)))
    blob = tree_to_dict(model)
    blob["version"] = 99
    with pytest.raises(ConfigurationError):
        tree_from_dict(blob)


def test_tree_config_round_trip():
    cfg = TreeConfig(max_depth=12, min_samples_leaf=4, min_impurity_decrease=0.5)
    d = tree_to_dict(fit(np.arange(16.0).reshape(8, 2), np.zeros((8, 2)), cfg))
    assert from_dict(TreeConfig, d["config"], "tree config") == cfg


def test_flat_descent_matches_recursive_reference(rng):
    for min_leaf in (1, 2, 5):
        # quantized features: many rows sit on a split value's neighbours
        values = np.round(rng.normal(size=(300, 3)) * 3.0) / 2.0
        labels = rng.normal(size=(300, 2)) * 10.0
        config = TreeConfig(min_samples_leaf=min_leaf)
        model = fit(values, labels, config)
        probe = np.vstack([values, rng.normal(size=(200, 3)) * 2.0])
        assert np.array_equal(predict_tree(model, probe), recursive_predict(oracle_fit(values, labels, config), probe))


def test_flat_descent_at_exact_thresholds(rng):
    values = rng.uniform(size=(120, 2))
    labels = rng.normal(size=(120, 2))
    config = TreeConfig(max_depth=6)
    model = fit(values, labels, config)
    # for every split, rows carrying exactly its threshold (which must go
    # left) and the next float above it (which must go right)
    rows = []
    split = model.feature >= 0
    for feature, threshold in zip(model.feature[split], model.threshold[split]):
        for v in (threshold, np.nextafter(threshold, np.inf)):
            row = rng.uniform(size=2)
            row[feature] = v
            rows.append(row)
    probe = np.array(rows)
    assert np.array_equal(predict_tree(model, probe), recursive_predict(oracle_fit(values, labels, config), probe))


def test_flat_descent_single_leaf_tree():
    model = fit(np.zeros((6, 2)), np.arange(12.0).reshape(6, 2))
    assert model.leaf_count == 1
    probe = np.array([[0.0, 0.0], [-5.0, 7.0], [np.inf, -np.inf]])
    assert predict_tree(model, probe).tolist() == [[5.0, 6.0]] * 3
    assert predict_tree(model, probe[0]).tolist() == [5.0, 6.0]


def test_single_row_predicts_as_in_a_batch(rng):
    values = rng.uniform(size=(80, 4))
    model = fit(values, rng.normal(size=(80, 2)), TreeConfig(min_samples_leaf=1))
    probe = rng.uniform(size=(25, 4))
    batch = predict_tree(model, probe)
    for i, row in enumerate(probe):
        single = predict_tree(model, row)
        assert single.shape == (2,)
        assert np.array_equal(single, batch[i])
    assert predict_tree(model, probe[:0]).shape == (0, 2)


def test_tree_dict_rejects_out_of_range_features():
    model = fit(np.arange(8.0).reshape(4, 2), np.arange(8.0).reshape(4, 2), TreeConfig(min_samples_leaf=1))
    for feature in (2, -1):
        blob = tree_to_dict(model)
        blob["root"]["feature"] = feature
        with pytest.raises(ConfigurationError):
            tree_from_dict(blob)
    blob = tree_to_dict(model)
    blob["root"]["left"] = {"n": 1, "value": [1.0, 2.0, 3.0]}
    with pytest.raises(ConfigurationError):
        tree_from_dict(blob)


def _tree_edit(**root_fields):
    def edit(blob):
        blob["root"].update(root_fields)

    return edit


def _leaf_edit(**leaf_fields):
    def edit(blob):
        blob["root"]["left"].update(leaf_fields)

    return edit


# each of these loaded at one time: bare int()/float() conversions took
# strings, bools and NaN
_BAD_TREE_BLOBS = {
    "string nan threshold on a bool feature": _tree_edit(threshold="nan", feature=True),
    "string nan threshold": _tree_edit(threshold="nan"),
    "nan threshold": _tree_edit(threshold=float("nan")),
    "infinite threshold": _tree_edit(threshold=float("inf")),
    "bool feature": _tree_edit(feature=True),
    "float feature": _tree_edit(feature=0.0),
    "string sample count": _tree_edit(n="5"),
    # these loaded until sample counts were checked: prediction never reads them
    "negative sample count": _tree_edit(n=-5),
    "empty leaf": _leaf_edit(n=0),
    "split count not its children's sum": lambda blob: blob["root"].update(n=blob["root"]["n"] + 1),
    "string leaf value": _leaf_edit(value=["1", "2"]),
    "nan leaf value": _leaf_edit(value=[float("nan"), 1.0]),
    "scalar leaf value": _leaf_edit(value=1.0),
    "leaf with a split feature": _leaf_edit(feature=0),
    "split without a threshold": lambda blob: blob["root"].pop("threshold"),
    "node not an object": lambda blob: blob["root"].update(right=[1.0, 2.0]),
    "string width": lambda blob: blob.update(n_features="2"),
    "missing root": lambda blob: blob.pop("root"),
    "fractional max depth": lambda blob: blob["config"].update(max_depth=2.9),
    "unknown config key": lambda blob: blob["config"].update(max_leaves=4),
}


@pytest.mark.parametrize("case", sorted(_BAD_TREE_BLOBS))
def test_tree_dict_rejects_mistyped_fields(case):
    model = fit(np.arange(8.0).reshape(4, 2), np.arange(8.0).reshape(4, 2))
    blob = json.loads(json.dumps(tree_to_dict(model)))
    # the edits need a split root whose left child is a leaf
    assert model.feature[0] >= 0 and model.feature[model.left[0]] < 0
    _BAD_TREE_BLOBS[case](blob)
    with pytest.raises(ConfigurationError, match="tree"):
        tree_from_dict(blob)


def test_tree_dict_names_the_node_whose_sample_count_is_wrong():
    model = fit(np.arange(4.0).reshape(4, 1), np.arange(8.0).reshape(4, 2), TreeConfig(min_samples_leaf=1))
    assert len(model.feature) == 7 and model.feature[model.left[0]] >= 0
    blob = tree_to_dict(model)
    blob["root"]["left"]["left"]["n"] += 1  # the root's count still adds up
    with pytest.raises(ConfigurationError, match=r"tree root\.left\.n is 2, not the sum of its children's 2 \+ 1"):
        tree_from_dict(blob)
    blob = tree_to_dict(model)
    blob["root"]["n"], blob["root"]["left"]["n"] = -5, 0
    with pytest.raises(ConfigurationError, match=r"tree root\.n must be at least 1, got -5"):
        tree_from_dict(blob)


# ---------------------------------------------------------------------------
# golden digests of the flat node arrays, taken before the split search was
# vectorised across features


def tie_heavy_set(seed, n=500):
    """Small-integer features, one column a copy of another, integer labels:
    most candidate splits tie with another one."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 6, size=(n, 6)).astype(np.float64)
    values[:, 4] = values[:, 1]
    labels = np.column_stack(
        [10 * values[:, 0] + rng.integers(0, 4, n), 5 * values[:, 2] - 3 * values[:, 1] + rng.integers(0, 3, n)]
    )
    return values, labels.astype(np.float64)


def tree_digest(model):
    h = hashlib.sha256()
    h.update(np.asarray(model.feature, dtype="<i8").tobytes())
    h.update(np.asarray(model.threshold, dtype="<f8").tobytes())
    h.update(np.asarray(model.value, dtype="<f8").tobytes())
    return h.hexdigest()


GOLDEN_TREES = {
    # min_samples_leaf: digest
    1: "ecff9b8ad50f13fddf78bd1c1f712e402ecdc22140f162192d8972a7d520dc68",
    2: "d9651bba93414965c35acdbd8f96f0aac2b053c9bcbde170b022dd8f5a3a728c",
    5: "ec6e04092f4382ca32059f7ff5f10473af1d8ff7c7a081f5bcf21726927d292c",
}


@pytest.mark.parametrize("min_leaf", sorted(GOLDEN_TREES))
def test_fit_matches_golden_digest(min_leaf):
    values, labels = tie_heavy_set(seed=min_leaf)
    model = fit(values, labels, TreeConfig(min_samples_leaf=min_leaf))
    assert tree_digest(model) == GOLDEN_TREES[min_leaf]


def test_best_split_matches_per_feature_oracle(rng):
    cases = 0
    for trial in range(120):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 6))
        values = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        if trial % 2:
            values += rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
        if d > 1:
            # a duplicated column ties every candidate across features
            values[:, -1] = values[:, 0]
        if trial % 3 == 0:
            values[:, int(rng.integers(d))] = 2.5  # a constant column
        labels = np.round(rng.normal(size=(n, 2)) * 3.0)
        for min_leaf in (1, 2, n // 2, n // 2 + 1):
            if min_leaf < 1:
                continue
            got = best_split(values, labels, min_leaf)
            assert got == oracle_best_split(values, labels, min_leaf), (trial, min_leaf)
            cases += got is not None
    assert cases > 100


def test_best_split_cross_feature_tie_goes_to_lower_feature():
    values = np.array([[3.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 5.0, 5.0], [0.0, 6.0, 6.0]])
    labels = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 4.0], [4.0, 5.0]])
    got = best_split(values, labels, 1)
    assert got == oracle_best_split(values, labels, 1)
    assert got[1] == 1 and got[2] == 3.0


def test_best_split_edge_shapes():
    two = np.array([[0.0], [1.0]])
    labels = np.array([[0.0, 0.0], [2.0, 2.0]])
    assert best_split(two, labels, 1) == oracle_best_split(two, labels, 1) == (0.0, 0, 0.5)
    # no legal split: a leaf needs more rows than either side can hold
    assert best_split(two, labels, 2) is None
    assert best_split(np.full((6, 3), 1.0), np.arange(12.0).reshape(6, 2), 1) is None
    assert best_split(np.zeros((1, 2)), np.zeros((1, 2)), 1) is None
    assert best_split(np.zeros((4, 0)), np.arange(8.0).reshape(4, 2), 1) is None


def test_depth_and_leaf_count_from_flat_arrays(rng):
    for min_leaf, max_depth in ((1, 30), (2, 5), (5, 30), (1, 1)):
        values = np.round(rng.normal(size=(200, 3)) * 3.0)
        labels = rng.normal(size=(200, 2))
        config = TreeConfig(min_samples_leaf=min_leaf, max_depth=max_depth)
        model = fit(values, labels, config)
        root = oracle_fit(values, labels, config)
        assert model.depth == graph_depth(root)
        assert model.leaf_count == graph_leaf_count(root)
    single = fit(np.zeros((4, 2)), np.arange(8.0).reshape(4, 2))
    assert (single.depth, single.leaf_count) == (0, 1)


# ---------------------------------------------------------------------------
# the recursive fit that the level-by-level fit replaced, kept as its exact
# oracle: one best_split call per node, children built depth first, into a
# node graph of the test's own


@dataclass
class Node:
    n_samples: int
    # split nodes carry a feature, leaves the mean label
    feature: int = -1
    threshold: float = 0.0
    left: Optional["Node"] = None
    right: Optional["Node"] = None
    value: Tuple[float, float] = (0.0, 0.0)

    @property
    def is_leaf(self):
        return self.feature < 0


def oracle_fit(values, labels, config):
    def build(values, labels, depth):
        n = values.shape[0]
        mean = labels.mean(axis=0)
        impurity = node_impurity(labels)
        if depth >= config.max_depth or n < 2 * config.min_samples_leaf or impurity <= 0.0:
            return Node(n_samples=n, value=mean)
        found = best_split(values, labels, config.min_samples_leaf)
        if found is None:
            return Node(n_samples=n, value=mean)
        child_sse, feature, threshold = found
        if impurity - child_sse <= config.min_impurity_decrease:
            return Node(n_samples=n, value=mean)
        go_left = values[:, feature] <= threshold
        return Node(
            n_samples=n,
            feature=feature,
            threshold=threshold,
            left=build(values[go_left], labels[go_left], depth + 1),
            right=build(values[~go_left], labels[~go_left], depth + 1),
        )

    return build(np.asarray(values, dtype=np.float64), np.asarray(labels, dtype=np.float64), 0)


def flatten(root):
    """The oracle's graph as node arrays, breadth first: the list grows as
    it is read, and a split node's children land at the two places it
    appends, so its left child's place is the list's length before."""
    nodes, left = [root], []
    for node in nodes:
        left.append(len(nodes))
        if not node.is_leaf:
            nodes.extend((node.left, node.right))
    return SimpleNamespace(
        feature=np.array([node.feature for node in nodes], dtype=np.intp),
        threshold=np.array([node.threshold for node in nodes]),
        left=np.array(left, dtype=np.intp),
        value=np.array([node.value for node in nodes]),
        n_samples=np.array([node.n_samples for node in nodes], dtype=np.intp),
    )


def graph_depth(node):
    return 0 if node.is_leaf else 1 + max(graph_depth(node.left), graph_depth(node.right))


def graph_leaf_count(node):
    return 1 if node.is_leaf else graph_leaf_count(node.left) + graph_leaf_count(node.right)


def graph_to_dict(node):
    """The bundle's nested node objects, written recursively."""
    if node.is_leaf:
        return {"n": node.n_samples, "value": [float(v) for v in node.value]}
    return {
        "n": node.n_samples,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": graph_to_dict(node.left),
        "right": graph_to_dict(node.right),
    }


def oracle_case(seed):
    """A seeded (values, labels, config) drawn from the shapes that break
    a batched fit: ties, duplicated and constant columns, constant and
    negative-zero labels, single rows and single features."""
    rng = np.random.default_rng(seed)
    n = (1, 2, 3)[seed % 3] if seed % 11 == 0 else int(rng.integers(4, 160))
    d = 1 if seed % 7 == 0 else int(rng.integers(1, 7))
    if seed % 2:
        values = rng.integers(0, 5, size=(n, d)).astype(np.float64)  # ties everywhere
    else:
        values = np.round(rng.normal(size=(n, d)) * 4.0) / 4.0
    if d > 2:
        values[:, -1] = values[:, 0]
        values[:, 1] = -1.5
    kind = seed % 5
    if kind == 0:
        labels = np.full((n, 2), 3.25)
    elif kind == 1:
        labels = np.full((n, 2), -0.0)
    elif kind == 2:
        labels = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
        labels[labels == 0] = -0.0
    else:
        labels = rng.normal(size=(n, 2)) * 10.0
    config = TreeConfig(
        max_depth=1 + seed % 12,
        min_samples_leaf=(1, 2, 5)[seed // 12 % 3],
        min_impurity_decrease=(0.0, 0.5, 3.0)[seed // 36 % 3],
    )
    return values, labels, config


def test_fit_matches_recursive_oracle():
    splits = 0
    for seed in range(240):
        values, labels, config = oracle_case(seed)
        got = fit(values, labels, config)
        root = oracle_fit(values, labels, config)
        want = flatten(root)
        assert np.array_equal(got.feature, want.feature), seed
        assert got.threshold.view(np.uint64).tolist() == want.threshold.view(np.uint64).tolist(), seed
        assert np.array_equal(got.left, want.left), seed
        assert got.value.view(np.uint64).tolist() == want.value.view(np.uint64).tolist(), seed
        assert np.array_equal(got.n_samples, want.n_samples), seed
        # the bundle's node objects: the same text as a recursive writer's,
        # and read back to the same arrays
        blob = tree_to_dict(got)
        assert json.dumps(blob["root"]) == json.dumps(graph_to_dict(root)), seed
        assert tree_from_dict(json.loads(json.dumps(blob))) == got, seed
        splits += int(np.count_nonzero(got.feature >= 0))
    assert splits > 1000


def large_oracle_case():
    """2,000 rows of integer-valued features with a duplicated and a
    constant column, and labels with -0.0: from the third level on, one
    size class holds many nodes of different row counts."""
    rng = np.random.default_rng(2000)
    n = 2000
    base = np.column_stack([rng.integers(0, k, n) for k in (40, 12, 5, 300)]).astype(np.float64)
    values = np.column_stack((base[:, :2], base[:, 0], np.full(n, 7.0), base[:, 2:]))
    labels = np.column_stack(
        (3.0 * base[:, 0] + rng.integers(-4, 5, n), 2.0 * base[:, 1] - base[:, 2] + rng.integers(-2, 3, n))
    )
    labels[labels == 0] = -0.0
    return values, labels


def test_fit_matches_recursive_oracle_on_a_large_tie_heavy_set():
    values, labels = large_oracle_case()
    assert np.signbit(labels[labels == 0]).all() and (labels == 0).any()
    for config in (TreeConfig(), TreeConfig(min_samples_leaf=1), TreeConfig(max_depth=6, min_samples_leaf=5)):
        got = fit(values, labels, config)
        want = flatten(oracle_fit(values, labels, config))
        for name in ("feature", "threshold", "value", "left", "n_samples"):
            bits = [np.ascontiguousarray(getattr(tree, name)).view(np.uint64) for tree in (got, want)]
            assert np.array_equal(*bits), (config, name)
        assert got.depth >= 6 and len(got.feature) > 100


def test_fit_raises_no_floating_point_warning():
    # the padded places of a size class must never divide by zero or make a NaN
    cases = [oracle_case(seed) for seed in range(240)] + [(*large_oracle_case(), TreeConfig())]
    with np.errstate(all="raise"):
        for values, labels, config in cases:
            fit(values, labels, config)


def test_stacked_best_split_matches_per_node_calls(rng):
    for n, d in ((2, 1), (5, 3), (17, 4), (40, 6)):
        for min_leaf in (1, 2, 5):
            nodes = 9
            values = rng.integers(0, 4, size=(nodes, n, d)).astype(np.float64)
            values[1:3, :, -1] = 2.0  # constant columns
            values[4] = 1.0  # a node with no legal split
            labels = np.round(rng.normal(size=(nodes, n, 2)) * 3.0)
            labels[5] = -0.0
            score, feature, threshold = best_split(values, labels, min_leaf)
            assert score.shape == feature.shape == threshold.shape == (nodes,)
            for b in range(nodes):
                one = best_split(values[b], labels[b], min_leaf)
                assert one == oracle_best_split(values[b], labels[b], min_leaf), (n, d, min_leaf, b)
                if one is None:
                    assert score[b] == np.inf
                else:
                    assert (float(score[b]), int(feature[b]), float(threshold[b])) == one


# ---------------------------------------------------------------------------
# one representation: equality, the bundle codec and perfbench's fit hook


def test_tree_equality_compares_every_node_array():
    rng = np.random.default_rng(13)
    values = rng.uniform(size=(60, 3))
    labels = rng.normal(size=(60, 2))
    model = fit(values, labels, TreeConfig(min_samples_leaf=1))
    assert model == fit(values, labels, TreeConfig(min_samples_leaf=1))
    assert model != fit(values, labels, TreeConfig(min_samples_leaf=2))
    assert model != fit(values, labels, TreeConfig(min_samples_leaf=1, max_depth=29))  # config alone
    for name in ("threshold", "value", "n_samples"):
        other = tree_from_dict(tree_to_dict(model))
        getattr(other, name)[-1] += 1
        assert model != other, name
    assert model != tree_to_dict(model)


def test_tree_dict_codec_needs_no_recursion():
    # a chain 3,000 splits deep: each split's left child is a leaf
    depth = 3000
    feature = np.zeros(2 * depth + 1, dtype=np.intp)
    feature[1::2] = -1
    feature[-1] = -1
    n_samples = np.empty(2 * depth + 1, dtype=np.intp)
    n_samples[0::2] = np.arange(depth + 1, 0, -1)
    n_samples[1::2] = 1
    threshold = np.where(feature >= 0, np.arange(2 * depth + 1, dtype=np.float64), 0.0)
    value = np.zeros((2 * depth + 1, 2))
    value[feature < 0] = np.arange(depth + 1)[:, None]
    model = TreeModel(feature, threshold, value, n_samples, n_features=1, config=TreeConfig(max_depth=depth))
    assert (model.depth, model.leaf_count) == (depth, depth + 1)
    assert tree_from_dict(tree_to_dict(model)) == model
    probe = np.array([[-1.0], [1.0], [2.0 * depth]])
    assert predict_tree(model, probe).tolist() == [[0.0, 0.0], [1.0, 1.0], [depth, depth]]


def _perfbench_layers():
    """perfbench/layers.py, loaded by path: it is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Counters:
    """The part of perfbench's tracer that its on-return hooks use."""

    def __init__(self):
        self.counters = defaultdict(float)

    def count(self, name, amount=1.0):
        self.counters[name] += amount


def test_perfbench_tree_hook_reads_the_node_arrays():
    # the traced benchmark counts nodes and depth through dtree.leaf_count,
    # dtree.tree_depth and TreeModel.root
    layers = _perfbench_layers()
    rng = np.random.default_rng(15)
    values = np.round(rng.normal(size=(400, 3)) * 3.0)
    for config in (TreeConfig(), TreeConfig(max_depth=3), TreeConfig(min_impurity_decrease=1e9)):
        model = fit(values, rng.normal(size=(400, 2)), config)
        tracer = _Counters()
        layers._tree_fitted(tracer, (), {}, model)
        assert tracer.counters["dtree.nodes"] == len(model.feature) == 2 * model.leaf_count - 1
        assert tracer.counters["dtree.depth"] == model.depth
