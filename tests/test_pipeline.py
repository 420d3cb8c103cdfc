import copy
import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from beamprint import dtree, mlp, pipeline
from beamprint.dtree import TreeConfig
from beamprint.errors import ConfigurationError, DataError, DatasetParseError, FeatureExtractionError
from beamprint.evaluate import load_report
from beamprint.features import (
    OUTSIDE_VOCABULARY,
    SKIP_NEIGHBORS,
    SKIP_REASONS,
    SKIP_SERVING,
    TOPOLOGY_CELL,
    TOPOLOGY_NETWORK,
    FeatureAccumulator,
    FeatureConfig,
    FeatureSet,
    NormalizationStats,
    extract,
    extract_features,
    feature_length,
)
from beamprint.fingerprint import (
    _BUILD_ROWS,
    cell_rows,
    los_filter,
    los_rows,
    partition_by_cell,
    save_dataset,
)
from beamprint.mlp import MlpConfig
from beamprint.pipeline import (
    _INFER_REPORTS,
    MODEL_MLP,
    MODEL_TREE,
    Arm,
    ModelBundle,
    ModelSpec,
    experiment_spec_from_dict,
    experiment_spec_to_dict,
    infer_file,
    infer_record,
    load_experiment_spec,
    load_model_bundle,
    model_spec_from_dict,
    model_spec_to_dict,
    parse_measurement_line,
    replay,
    run_experiment,
    run_single,
    save_model_bundle,
    split_dataset,
    train_model,
)
from beamprint.scenario import build_scenario, default_scenario_config, save_scenario_config, scenario_config_to_dict

from conftest import record_of, row_of, small_scenario_config, triples
from test_features import oracle_record, same_feature_sets
from test_fingerprint import _overhead_growth, _traced_overhead, los_only_build
from test_mlp import GOLDEN_FLOAT_KERNELS, float_kernels_digest, radio_kernels_as_pinned


# ---------------------------------------------------------------------------
# dataset split


def test_split_sizes_oracle(small_dataset):
    ten = small_dataset.subset(np.arange(10))
    train, test = split_dataset(ten, 0.9, seed=7)
    assert len(train) == 9
    assert len(test) == 1


def test_split_partitions_the_records(small_dataset):
    train, test = split_dataset(small_dataset, 0.8, seed=3)
    assert len(train) + len(test) == len(small_dataset)
    whole = sorted(zip(small_dataset.xs, small_dataset.ys))
    got = sorted(zip(np.concatenate([train.xs, test.xs]), np.concatenate([train.ys, test.ys])))
    assert got == whole
    # grid points are unique, so disjointness follows from the multiset match
    train_pts = set(zip(train.xs, train.ys))
    test_pts = set(zip(test.xs, test.ys))
    assert not train_pts & test_pts


def test_split_is_seeded(small_dataset):
    a_train, a_test = split_dataset(small_dataset, 0.9, seed=7)
    b_train, b_test = split_dataset(small_dataset, 0.9, seed=7)
    assert a_train == b_train
    assert a_test == b_test
    c_train, _ = split_dataset(small_dataset, 0.9, seed=8)
    assert c_train != a_train


def test_split_carries_dataset_metadata(small_dataset):
    train, _ = split_dataset(small_dataset, 0.9, seed=7)
    assert train.cells == small_dataset.cells
    assert train.n_beams == small_dataset.n_beams
    assert train.scenario_hash == small_dataset.scenario_hash


def test_split_rejects_bad_fraction(small_dataset):
    for fraction in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigurationError):
            split_dataset(small_dataset, fraction, seed=7)


def test_split_rejects_empty_side(small_dataset):
    three = small_dataset.subset(np.arange(3))
    with pytest.raises(DataError):
        split_dataset(three, 0.9, seed=7)  # round(2.7) = 3 -> no test rows
    with pytest.raises(DataError):
        split_dataset(small_dataset.subset(np.arange(10)), 0.01, seed=7)


# ---------------------------------------------------------------------------
# model specs


def test_model_spec_labels():
    spec = ModelSpec(MODEL_MLP, mlp_config=MlpConfig(hidden_layers=(64,), rng_seed=11))
    assert spec.label == "mlp_h64_s11"
    spec = ModelSpec(MODEL_MLP, mlp_config=MlpConfig(hidden_layers=(64, 64), activation="relu"))
    assert spec.label == "mlp_h64x64_relu_s0"
    spec = ModelSpec(MODEL_TREE, tree_config=TreeConfig())
    assert spec.label == "tree_d30_l2"


def test_model_spec_dict_round_trip():
    for d in (
        {"type": "mlp", "hidden_layers": [32, 16], "activation": "relu", "rng_seed": 5},
        {"type": "tree", "max_depth": 9, "min_samples_leaf": 4},
    ):
        spec = model_spec_from_dict(d)
        assert model_spec_from_dict(model_spec_to_dict(spec)) == spec


def test_model_spec_rejects_bad_type():
    with pytest.raises(ConfigurationError):
        model_spec_from_dict({"hidden_layers": [8]})
    with pytest.raises(ConfigurationError):
        model_spec_from_dict({"type": "forest"})
    with pytest.raises(ConfigurationError):
        model_spec_from_dict({"type": "mlp", "n_trees": 5})


# a type name that is no string; a lookup in the model type table must
# not end in TypeError: unhashable type
NOT_A_TYPE_NAME = pytest.mark.parametrize("kind", [["mlp"], {}, 1, None], ids=["list", "object", "number", "null"])


@NOT_A_TYPE_NAME
def test_model_spec_refuses_a_type_that_is_no_name(kind):
    with pytest.raises(ConfigurationError, match="unknown model type"):
        model_spec_from_dict({"type": kind, "hidden_layers": [8]})


# ---------------------------------------------------------------------------
# training + bundles


@pytest.fixture(scope="module")
def los_small(small_dataset):
    return los_filter(small_dataset)


@pytest.fixture(scope="module")
def small_splits(los_small):
    return split_dataset(los_small, 0.9, seed=7)


@pytest.fixture(scope="module")
def small_split_rows(small_dataset):
    """small_splits as row indices into small_dataset, the way
    run_experiment gives an arm its records."""
    rows = los_rows(small_dataset)
    train, test = pipeline._split_rows(len(rows), 0.9, seed=7)
    return rows[train], rows[test]


def test_split_rows_select_the_split_dataset_records(small_dataset, small_splits, small_split_rows):
    for ds, rows in zip(small_splits, small_split_rows):
        assert small_dataset.subset(rows) == ds


@pytest.fixture(scope="module")
def tree_bundle(small_splits):
    train_ds, _ = small_splits
    fc = FeatureConfig()
    train_set = extract_features(train_ds, fc)
    spec = ModelSpec(MODEL_TREE, tree_config=TreeConfig(max_depth=8))
    return train_model(train_set, spec, fc)


def test_train_model_tree(tree_bundle, small_splits):
    _, test_ds = small_splits
    test_set = extract_features(test_ds, tree_bundle.feature_config)
    pred = tree_bundle.predict(test_set.values)
    assert pred.shape == (len(test_set), 2)
    assert np.isfinite(pred).all()


def test_train_model_mlp_binds_normalizer(small_splits):
    train_ds, _ = small_splits
    fc = FeatureConfig()
    train_set = extract_features(train_ds, fc)
    spec = ModelSpec(MODEL_MLP, mlp_config=MlpConfig(hidden_layers=(4,), max_epochs=2))
    bundle = train_model(train_set, spec, fc)
    assert bundle.model.normalizer is not None
    pred = bundle.predict(train_set.values[:5])
    assert pred.shape == (5, 2)


def test_train_model_rejects_empty():
    fc = FeatureConfig()
    empty = FeatureSet(
        values=np.zeros((0, 7)),
        labels=np.zeros((0, 2)),
        config=fc,
        reasons=np.zeros(0, dtype=np.int8),
    )
    spec = ModelSpec(MODEL_TREE, tree_config=TreeConfig())
    with pytest.raises(DataError):
        train_model(empty, spec, fc)


def test_bundle_file_round_trip(tree_bundle, small_splits, tmp_path):
    _, test_ds = small_splits
    path = tmp_path / "model.json"
    save_model_bundle(tree_bundle, path)
    loaded = load_model_bundle(path)
    assert loaded.model_type == MODEL_TREE
    assert loaded.feature_config == tree_bundle.feature_config
    test_set = extract_features(test_ds, tree_bundle.feature_config)
    assert np.array_equal(loaded.predict(test_set.values), tree_bundle.predict(test_set.values))


def test_load_bundle_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigurationError):
        load_model_bundle(tmp_path / "missing.json")
    junk = tmp_path / "junk.json"
    junk.write_text("not json")
    with pytest.raises(ConfigurationError):
        load_model_bundle(junk)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ConfigurationError):
        load_model_bundle(wrong)


def test_load_bundle_rejects_bad_version_and_type(tmp_path, tree_bundle):
    path = tmp_path / "model.json"
    save_model_bundle(tree_bundle, path)
    blob = json.loads(path.read_text())
    blob["version"] = 99
    bad = tmp_path / "bad_version.json"
    bad.write_text(json.dumps(blob))
    with pytest.raises(ConfigurationError):
        load_model_bundle(bad)
    blob["version"] = 1
    blob["model_type"] = "forest"
    bad.write_text(json.dumps(blob))
    with pytest.raises(ConfigurationError):
        load_model_bundle(bad)


@pytest.fixture(scope="module")
def mlp_bundle(small_splits):
    train_ds, _ = small_splits
    fc = FeatureConfig()
    spec = ModelSpec(MODEL_MLP, mlp_config=MlpConfig(hidden_layers=(4,), max_epochs=2))
    return train_model(extract_features(train_ds, fc), spec, fc)


def _rewrite(tmp_path, bundle, edit):
    path = tmp_path / "model.json"
    save_model_bundle(bundle, path)
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    return path


@NOT_A_TYPE_NAME
def test_load_bundle_refuses_a_model_type_that_is_no_name(tmp_path, tree_bundle, kind):
    path = _rewrite(tmp_path, tree_bundle, lambda blob: blob.__setitem__("model_type", kind))
    with pytest.raises(ConfigurationError, match="unknown model type"):
        load_model_bundle(path)


def test_load_bundle_refuses_unknown_keys(tmp_path, tree_bundle):
    # a tree bundle with another type's key, or a misspelt one, loaded as a tree
    path = _rewrite(tmp_path, tree_bundle, lambda blob: blob.update(knn={"k": 3}, extra=1))
    with pytest.raises(ConfigurationError, match=r"unknown model file keys in .*: \['extra', 'knn'\]"):
        load_model_bundle(path)


def test_load_bundle_rejects_missing_feature_config_or_model(tmp_path, tree_bundle):
    path = _rewrite(tmp_path, tree_bundle, lambda blob: blob.pop("feature_config"))
    with pytest.raises(ConfigurationError, match="feature_config"):
        load_model_bundle(path)
    path = _rewrite(tmp_path, tree_bundle, lambda blob: blob.pop("tree"))
    with pytest.raises(ConfigurationError):
        load_model_bundle(path)


def test_load_bundle_rejects_width_mismatch(tmp_path, tree_bundle, mlp_bundle):
    # the bundles take 7 features (3 serving beams + cell id); 2 serving
    # beams would make 5
    def narrow(blob):
        blob["feature_config"]["serving_beams"] = 2

    for bundle in (tree_bundle, mlp_bundle):
        with pytest.raises(ConfigurationError, match="features"):
            load_model_bundle(_rewrite(tmp_path, bundle, narrow))


def _set(path, value):
    """An edit that replaces blob["mlp"][path[0]][path[1]]...[path[-1]]."""

    def edit(blob):
        node = blob["mlp"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return edit


# the mlp bundle chains 7 inputs -> 4 hidden -> 2 outputs
_BAD_MLP_BLOBS = {
    "output width 1": lambda blob: (
        _set(["weights", 1], lambda w: [row[:1] for row in w])(blob),
        _set(["biases", 1], lambda b: b[:1])(blob),
    ),
    "short bias": _set(["biases", 0], lambda b: b[:-1]),
    "long bias": _set(["biases", 1], lambda b: b + [0.0]),
    "layer shapes do not chain": _set(["weights", 1], lambda w: w[:-1]),
    "string weight": _set(["weights", 0, 2, 1], "0.5"),
    "bool weight": _set(["weights", 1, 0, 0], True),
    "null bias": _set(["biases", 0, 0], None),
    "nan weight": _set(["weights", 0, 0, 0], float("nan")),
    "weight past float range": _set(["weights", 0, 0, 0], 10**400),
    "ragged rows": _set(["weights", 0, 3], lambda row: row[:-1]),
    "scalar layer": _set(["biases", 1], 1.0),
    "hidden layers disagree": _set(["config", "hidden_layers"], [5]),
    "extra hidden layer in config": _set(["config", "hidden_layers"], [4, 4]),
    "missing layer": _set(["weights"], lambda w: w[:1]),
    "weights not a list": _set(["weights"], {"0": []}),
    "empty weights": (lambda blob: (_set(["weights"], [])(blob), _set(["biases"], [])(blob))),
    "hidden layers not a list": _set(["config", "hidden_layers"], 4),
    "normalizer missing a key": _set(["normalizer"], lambda norm: {k: v for k, v in norm.items() if k != "feature_mean"}),
    "non-numeric loss history": _set(["loss_history"], ["low"]),
    "short feature mean": _set(["normalizer", "feature_mean"], lambda v: v[:-1]),
    "long feature std": _set(["normalizer", "feature_std"], lambda v: v + [1.0]),
    "label mean of width 1": _set(["normalizer", "label_mean"], lambda v: v[:1]),
    "nested label std": _set(["normalizer", "label_std"], lambda v: [v]),
    "string loss history": _set(["loss_history"], lambda h: ["nan", "1"]),
    "nan in loss history": _set(["loss_history"], lambda h: [float("nan"), 1.0]),
    "string feature std": _set(["normalizer", "feature_std"], lambda v: ["1", "0", "nan"] + ["1"] * (len(v) - 3)),
    "zero feature std": _set(["normalizer", "feature_std"], lambda v: [0.0] + v[1:]),
    "negative label std": _set(["normalizer", "label_std"], lambda v: [-1.0, v[1]]),
    "nan label mean": _set(["normalizer", "label_mean"], lambda v: [float("nan"), v[1]]),
    "string fit_on_train": _set(["normalizer", "fit_on_train"], "false"),
    "unknown normalizer key": _set(["normalizer", "feature_min"], [0.0]),
    "normalizer not an object": _set(["normalizer"], [1.0]),
    "fractional batch size": _set(["config", "batch_size"], 2.5),
}


@pytest.mark.parametrize("case", sorted(_BAD_MLP_BLOBS))
def test_load_bundle_rejects_broken_mlp_layers(tmp_path, mlp_bundle, case):
    path = _rewrite(tmp_path, mlp_bundle, _BAD_MLP_BLOBS[case])
    with pytest.raises(ConfigurationError, match="mlp"):
        load_model_bundle(path)


def test_load_bundle_keeps_mlp_weights_exact(tmp_path, mlp_bundle):
    loaded = load_model_bundle(_rewrite(tmp_path, mlp_bundle, lambda blob: None))
    for got, want in zip(loaded.model.weights + loaded.model.biases,
                         mlp_bundle.model.weights + mlp_bundle.model.biases):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    for layer in loaded.model.weights + loaded.model.biases:
        assert layer.base is loaded.model.params


def test_saved_bundles_load_back_equal(tmp_path, tree_bundle, mlp_bundle):
    for bundle in (tree_bundle, mlp_bundle):
        path = tmp_path / f"{bundle.model_type}.json"
        save_model_bundle(bundle, path)
        assert load_model_bundle(path) == bundle
    # one weight, loss or normalizer entry apart makes the nets unequal
    edits = [
        lambda net: net.params.__setitem__(0, net.params[0] + 1.0),
        lambda net: net.loss_history.append(0.0),
        lambda net: setattr(net, "normalizer", replace(net.normalizer, label_std=2.0 * net.normalizer.label_std)),
    ]
    for edit in edits:
        net = load_model_bundle(path).model
        edit(net)
        assert net != mlp_bundle.model


def _pinned_bundles():
    """A fixed small tree and MLP whose saved bytes are pinned below."""
    fc = FeatureConfig(n_serving_beams=1, include_serving_cell_id=False)
    i = np.arange(20.0)
    values = np.column_stack([i % 5, (i * 7) % 11])
    labels = np.column_stack([i, (i * 3) % 8])
    tree = dtree.fit(values, labels, TreeConfig(max_depth=4))
    net = mlp.init_model(MlpConfig(hidden_layers=(3,), rng_seed=5), 2)
    net.normalizer = NormalizationStats(
        feature_mean=np.array([2.0, 5.0]),
        feature_std=np.array([1.5, 3.0]),
        label_mean=np.array([9.5, 3.5]),
        label_std=np.array([5.5, 2.25]),
    )
    return {
        MODEL_TREE: ModelBundle(fc, tree),
        MODEL_MLP: ModelBundle(fc, net),
    }


def test_bundle_model_type_follows_its_model():
    bundles = _pinned_bundles()
    for kind, bundle in bundles.items():
        assert bundle.model_type == kind
    bundle = bundles[MODEL_TREE]
    bundle.model = bundles[MODEL_MLP].model
    assert bundle.model_type == MODEL_MLP
    assert np.array_equal(bundle.predict(np.ones((2, 2))), bundles[MODEL_MLP].predict(np.ones((2, 2))))


@pytest.mark.parametrize("kind", [MODEL_TREE, MODEL_MLP])
def test_load_bundle_refuses_a_second_model(tmp_path, kind):
    # the other model's key was parsed and then ignored
    bundles = _pinned_bundles()
    other = MODEL_MLP if kind == MODEL_TREE else MODEL_TREE
    saved = tmp_path / "other.json"
    save_model_bundle(bundles[other], saved)
    second = json.loads(saved.read_text())[other]
    path = _rewrite(tmp_path, bundles[kind], lambda blob: blob.__setitem__(other, second))
    with pytest.raises(ConfigurationError, match=f"must have a null '{other}'"):
        load_model_bundle(path)


def test_bundle_bytes_are_pinned(tmp_path):
    want = {
        MODEL_TREE: "074ed0a5917232f7e4320f72f56c3ad4a513297f623f1d7de1a6abec092ca950",
        MODEL_MLP: "8e8181265fefa7d49205bde98886d3f4a2b359ccfe2f820de00da55d70ebe35d",
    }
    for kind, bundle in _pinned_bundles().items():
        path = tmp_path / f"{kind}.json"
        save_model_bundle(bundle, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want[kind], kind
        # and a loaded bundle saves back to the same bytes
        again = tmp_path / f"{kind}_again.json"
        save_model_bundle(load_model_bundle(path), again)
        assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# experiment specs


def _spec_dict(**overrides):
    d = {
        "scenario": scenario_config_to_dict(small_scenario_config()),
        "feature_configs": [{"serving_beams": 3, "neighbor_beams": 0}],
        "model_configs": [
            {"type": "mlp", "hidden_layers": [8], "max_epochs": 15, "rng_seed": 3},
            {"type": "tree", "max_depth": 8},
        ],
    }
    d.update(overrides)
    return d


def test_experiment_spec_defaults():
    spec = experiment_spec_from_dict(_spec_dict())
    assert spec.topology == TOPOLOGY_NETWORK
    assert spec.cells is None
    assert spec.train_fraction == 0.9
    assert spec.split_seed == 7
    assert spec.dataset_seed is None
    assert spec.min_cell_records == 50


def test_experiment_spec_cell_topology_strips_cell_id():
    d = _spec_dict(topology=TOPOLOGY_CELL)
    d["feature_configs"] = [{"serving_beams": 4, "cell_id_feature": True}]
    spec = experiment_spec_from_dict(d)
    fc = spec.feature_configs[0]
    assert fc.topology == TOPOLOGY_CELL
    assert fc.include_serving_cell_id is False
    assert fc.n_serving_beams == 4


def test_experiment_spec_validation():
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(_spec_dict(extra_key=1))
    d = _spec_dict()
    d.pop("scenario")
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(d)
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(_spec_dict(scenario=7))
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(_spec_dict(feature_configs=[]))
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(_spec_dict(model_configs=[]))
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(_spec_dict(topology="city-level"))
    with pytest.raises(ConfigurationError):
        experiment_spec_from_dict(_spec_dict(cells="cell-7"))
    # numpy's generators take no negative seed; the scenario's and the
    # dataset's seeds feed only the shadowing hash, which takes them
    with pytest.raises(ConfigurationError, match="split_seed"):
        experiment_spec_from_dict(_spec_dict(split_seed=-3))
    with pytest.raises(ConfigurationError, match="rng_seed"):
        experiment_spec_from_dict(_spec_dict(model_configs=[{"type": "mlp", "rng_seed": -2}]))
    assert experiment_spec_from_dict(_spec_dict(dataset_seed=-4)).dataset_seed == -4


def test_experiment_spec_dict_round_trip():
    d = _spec_dict(topology=TOPOLOGY_CELL, cells=[0, 2], train_fraction=0.8, split_seed=12)
    spec = experiment_spec_from_dict(d)
    again = experiment_spec_from_dict(experiment_spec_to_dict(spec))
    assert experiment_spec_to_dict(again) == experiment_spec_to_dict(spec)


@pytest.mark.parametrize("topology, cells", [(TOPOLOGY_NETWORK, [0]), (TOPOLOGY_CELL, [])])
def test_run_experiment_refuses_a_cells_list_it_cannot_follow(tmp_path, topology, cells):
    # a network-level spec with cells, made in code, once trained on every
    # cell and wrote a manifest that replay refused; replace checks again
    spec = experiment_spec_from_dict(_spec_dict(topology=topology))
    with pytest.raises(ConfigurationError, match="'cells'"):
        run_experiment(replace(spec, cells=cells), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def _code_spec(**overrides):
    """A small sweep made in code, not read from a file: one tree arm."""
    kwargs = {
        "scenario": small_scenario_config(),
        "feature_configs": [FeatureConfig()],
        "model_specs": [ModelSpec(MODEL_TREE, tree_config=TreeConfig(max_depth=4))],
    }
    return pipeline.ExperimentSpec(**{**kwargs, **overrides})


@pytest.mark.parametrize(
    "make, match",
    [
        # ran cell by cell and wrote no pooled reports, so replay refused its manifest
        (lambda: _code_spec(topology="cell"), "topology"),
        # ended in numpy's raw ValueError
        (lambda: _code_spec(split_seed=-1), "split_seed"),
        # was refused only after the sweep, with its out dir made
        (lambda: _code_spec(train_fraction=1.5), "train fraction"),
        (lambda: _code_spec(feature_configs=[]), "feature config"),
        (lambda: _code_spec(model_specs=[]), "model config"),
        (lambda: _code_spec(cells=(0,), topology=TOPOLOGY_CELL), "'cells'"),
        # its label raised AttributeError
        (lambda: ModelSpec("knn"), "knn"),
        (lambda: ModelSpec(MODEL_MLP), "mlp_config"),
        (lambda: ModelSpec(MODEL_TREE, mlp_config=MlpConfig()), "tree_config"),
        # its tree config was dropped, and its dict round trip was not equal
        (lambda: ModelSpec(MODEL_MLP, mlp_config=MlpConfig(), tree_config=TreeConfig()), "takes no tree_config"),
        # was refused only after the sweep had built its features
        (lambda: _code_spec(model_specs=[ModelSpec(MODEL_MLP, mlp_config=MlpConfig(hidden_layers=(0,)))]), "hidden"),
    ],
    ids=["topology", "split-seed", "train-fraction", "no-features", "no-models", "cells-tuple", "knn", "mlp-no-config",
         "tree-with-mlp-config", "mlp-with-tree-config", "hidden-0"],
)
def test_specs_made_in_code_check_themselves(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make()


@pytest.mark.parametrize(
    "edit, label",
    [
        ({"model_configs": [{"type": "tree", "max_depth": 4, "min_impurity_decrease": d} for d in (0.0, 0.5)]},
         "s3n0_id_tree_d4_l2"),
        ({"model_configs": [{"type": "mlp", "hidden_layers": [8], "learning_rate": r} for r in (1e-3, 1e-2)]},
         "s3n0_id_mlp_h8_s0"),
        ({"feature_configs": [{"neighbor_beams": 1}, {"neighbor_beams": 1, "one_hot_ids": True, "cell_id_vocab": 4,
                                                      "beam_id_vocab": 32}]},
         "s3n1_id_mlp_h8_s3"),
        # the cell-specific rule drops the id feature, so s3n0_id becomes s3n0
        ({"topology": TOPOLOGY_CELL, "feature_configs": [{"cell_id_feature": False}, {}]}, "s3n0_mlp_h8_s3"),
    ],
    ids=["tree-impurity", "mlp-learning-rate", "one-hot", "cell-specific-id"],
)
def test_experiment_spec_refuses_arms_that_share_a_label(edit, label):
    # both arms wrote the same report, CDF and model files, and the
    # comparison listed the label twice
    with pytest.raises(ConfigurationError, match=f"label '{label}'"):
        experiment_spec_from_dict(_spec_dict(**edit))


def test_cell_specific_spec_made_in_code_replays(tmp_path):
    # FeatureConfig() carries the serving cell id; the spec once ran it
    # as given, but its manifest read back without it, and replay diverged
    spec = _code_spec(topology=TOPOLOGY_CELL, min_cell_records=200)
    assert spec.feature_configs == [FeatureConfig(topology=TOPOLOGY_CELL, include_serving_cell_id=False)]
    assert experiment_spec_from_dict(experiment_spec_to_dict(spec)) == spec
    first = run_experiment(spec, tmp_path / "run")
    again = replay(first.manifest_path, tmp_path / "again")
    assert again.manifest["artifact_sha256"] == first.manifest["artifact_sha256"]


def test_load_experiment_spec_resolves_scenario_path(tmp_path):
    save_scenario_config(small_scenario_config(), tmp_path / "scn.json")
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(_spec_dict(scenario="scn.json")), encoding="ascii")
    spec = load_experiment_spec(spec_path)
    assert spec.scenario == small_scenario_config()
    inline = experiment_spec_from_dict(_spec_dict())
    assert experiment_spec_to_dict(spec) == experiment_spec_to_dict(inline)


# ---------------------------------------------------------------------------
# single runs


def feature_set_of(dataset, fc):
    """The FeatureSet of every record of a dataset, extracted in one block."""
    acc = FeatureAccumulator(fc)
    columns = (dataset.serving, dataset.meas_cells, dataset.meas_beams, dataset.meas_rsrp)
    acc.add(dataset.xs, dataset.ys, extract(*columns, fc))
    return acc.result()


def test_run_single_output(small_dataset, small_split_rows):
    train_rows, test_rows = small_split_rows
    fc = FeatureConfig()
    spec = experiment_spec_from_dict(_spec_dict())
    arm = Arm(None, fc, ModelSpec(MODEL_MLP, mlp_config=MlpConfig(hidden_layers=(4,), max_epochs=3)))
    run = run_single(feature_set_of(small_dataset, fc), train_rows, test_rows, arm, spec)
    assert run.label == arm.label == "net_s3n0_id_mlp_h4_s0"
    assert run.train_report.split == "train"
    assert run.test_report.split == "test"
    assert run.test_report.n_samples == len(test_rows)
    desc = run.test_report.config
    assert desc["label"] == arm.label
    assert desc["topology"] == TOPOLOGY_NETWORK
    assert desc["cell"] is None
    assert desc["serving_beams"] == 3
    assert desc["cell_id_feature"] is True
    assert desc["model"]["type"] == "mlp"
    assert desc["n_train"] == len(train_rows)
    assert desc["n_test"] == len(test_rows)
    assert desc["epochs_run"] == 3
    assert run.test_errors.shape == (len(test_rows),)
    assert run.duration_s > 0
    assert run.bundle.fit_stats == {"epochs_run": 3, "stop_reason": "max_epochs"}
    assert "stop_reason" not in desc


def test_run_single_records_a_patience_stop(small_dataset, small_split_rows):
    train_rows, test_rows = small_split_rows
    spec = experiment_spec_from_dict(_spec_dict())
    # no epoch beats the first by the largest finite delta (an infinite
    # one is refused)
    config = MlpConfig(hidden_layers=(4,), max_epochs=50, patience=1, min_delta=sys.float_info.max)
    arm = Arm(None, FeatureConfig(), ModelSpec(MODEL_MLP, mlp_config=config))
    run = run_single(feature_set_of(small_dataset, arm.feature_config), train_rows, test_rows, arm, spec)
    assert run.bundle.fit_stats == {"epochs_run": 2, "stop_reason": "patience"}


def test_run_single_tree_has_no_epoch_count(small_dataset, small_split_rows):
    train_rows, test_rows = small_split_rows
    fc = FeatureConfig()
    spec = experiment_spec_from_dict(_spec_dict())
    arm = Arm(None, fc, ModelSpec(MODEL_TREE, tree_config=TreeConfig(max_depth=6)))
    run = run_single(feature_set_of(small_dataset, fc), train_rows, test_rows, arm, spec)
    assert "epochs_run" not in run.test_report.config


# ---------------------------------------------------------------------------
# whole experiments, network topology


@pytest.fixture(scope="module")
def net_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("net_run")
    spec = experiment_spec_from_dict(_spec_dict())
    return run_experiment(spec, out)


def test_experiment_artifact_layout(net_run):
    out = net_run.output_dir
    labels = {"net_s3n0_id_mlp_h8_s3", "net_s3n0_id_tree_d8_l2"}
    assert {p.name for p in (out / "models").iterdir()} == {f"{l}.json" for l in labels}
    expect_reports = {f"{l}_{s}.json" for l in labels for s in ("train", "test")}
    assert {p.name for p in (out / "reports").iterdir()} == expect_reports
    expect_cdfs = {f"{l}_{s}.csv" for l in labels for s in ("train", "test")}
    assert {p.name for p in (out / "cdf").iterdir()} == expect_cdfs
    assert net_run.manifest_path == out / "manifest.json"
    assert net_run.manifest_path.exists()


def test_experiment_manifest_contents(net_run):
    m = net_run.manifest
    assert m["format"] == "beamprint-manifest"
    assert m["version"] == 1
    assert m["dataset"]["n_records"] == 2176
    assert m["dataset"]["n_los"] == 1140
    assert m["dataset"]["los_fraction"] == 1140 / 2176
    assert m["skipped_cells"] == {}
    assert sorted(r["label"] for r in m["runs"]) == [
        "net_s3n0_id_mlp_h8_s3",
        "net_s3n0_id_tree_d8_l2",
    ]
    # spec echoed verbatim so the manifest alone can replay the run
    spec = experiment_spec_from_dict(_spec_dict())
    assert m["spec"] == experiment_spec_to_dict(spec)
    # manifest on disk matches the in-memory copy
    assert json.loads(net_run.manifest_path.read_text(encoding="ascii")) == m


def test_experiment_manifest_records_fit_stats(net_run):
    out = net_run.output_dir
    runs = {r["label"]: r for r in net_run.manifest["runs"]}
    net = runs["net_s3n0_id_mlp_h8_s3"]
    # patience (20) outlasts max_epochs (15)
    assert (net["epochs_run"], net["stop_reason"]) == (15, "max_epochs")
    tree = runs["net_s3n0_id_tree_d8_l2"]
    model = load_model_bundle(out / tree["model"]).model
    assert tree["tree_depth"] == model.depth > 0
    assert tree["leaf_count"] == model.leaf_count > 1
    assert "tree_depth" not in net and "epochs_run" not in tree
    # the hashed reports carry none of it (epochs_run was always there)
    for rel in net_run.manifest["artifact_sha256"]:
        text = (out / rel).read_text(encoding="ascii")
        for key in ("stop_reason", "tree_depth", "leaf_count"):
            assert key not in text


def test_experiment_artifact_hashes(net_run):
    out = net_run.output_dir
    hashes = net_run.manifest["artifact_sha256"]
    on_disk = {
        str(p.relative_to(out))
        for sub in ("reports", "cdf")
        for p in (out / sub).iterdir()
    }
    assert set(hashes) == on_disk
    probe = sorted(hashes)[0]
    assert hashlib.sha256((out / probe).read_bytes()).hexdigest() == hashes[probe]


# SHA-256 of every report and CDF file of the net_run and cell_run
# sweeps, taken with numpy 2.4.6 on an x86-64 AVX-512 host. They share
# the caveat of the golden feature and save digests (ROADMAP item 10):
# np.arctan2 and np.log10 in the radio model give other last bits where
# numpy's AVX-512 kernels are off. The MLP arm also needs the float
# kernels its training digests were taken with.
GOLDEN_NET_RUN_TREE = {
    "cdf/net_s3n0_id_tree_d8_l2_test.csv": "73cc7b6274deffe477cfbc3f2f97e9ebc8f41a2eb24ef13b26f50d314b479961",
    "cdf/net_s3n0_id_tree_d8_l2_train.csv": "9b575ecc3a40405578de535e7754f00833a5073506e036a1ebad7fca1fda5edd",
    "reports/net_s3n0_id_tree_d8_l2_test.json": "9570701bf9c58e0ba52cf4f4b4c3e57667a0732a4ec2890bf3ad5e4cbdda5615",
    "reports/net_s3n0_id_tree_d8_l2_train.json": "c9c4539a7bd39a1d0aae0ce25fe0e330040842dfefe499e0b95813edb5208866",
}
GOLDEN_NET_RUN_MLP = {
    "cdf/net_s3n0_id_mlp_h8_s3_test.csv": "a93a3d5a4884921d7f533c14d311dedd36380cdca1ddce72340860562eff5b20",
    "cdf/net_s3n0_id_mlp_h8_s3_train.csv": "e33094d53ff8af18f7025e9e88a4cf7105993490705eabb32696ff6c1a95f0e5",
    "reports/net_s3n0_id_mlp_h8_s3_test.json": "255ddbc7aa7f62af665068274796743c3a065b6b0cd6c40ef3196c8472e27bb1",
    "reports/net_s3n0_id_mlp_h8_s3_train.json": "00186a7bc45c331de4ce45a8282705e8fa646ec791692541edfb9c465baaac8a",
}
GOLDEN_CELL_RUN = {
    "cdf/cell0_s3n0_tree_d8_l2_test.csv": "72383b755295b789bd45c0aba62fe50c038ad96836d30f2ff6e0f34541b07b95",
    "cdf/cell0_s3n0_tree_d8_l2_train.csv": "9b75db0065c6d90bd4c2bfb8891e915cfb9e678668ebdacfd40d33cf901c45ea",
    "cdf/cell2_s3n0_tree_d8_l2_test.csv": "1d3347955979e1da2c7103e4be7a05add8d7babc098ec72137411099773b4dca",
    "cdf/cell2_s3n0_tree_d8_l2_train.csv": "2c15fdb12c16a9c687c570685f533a348184f5f5471f54780f52d2be7c47406c",
    "cdf/cellpool_s3n0_tree_d8_l2_test.csv": "d978adb6a1e671eabc854600a4f59bda214dd518b4dfed2927dcf6164986fe7d",
    "cdf/cellpool_s3n0_tree_d8_l2_train.csv": "5d9c05d0873956b298e700a80568278dd704f1907d9eb527cf0ef2f2701bf15b",
    "reports/cell0_s3n0_tree_d8_l2_test.json": "81ca103220154b8885fe2691306c58c5da344718a7cdb9e31a060cf093b533c2",
    "reports/cell0_s3n0_tree_d8_l2_train.json": "333a6e1ba602ed1d415c26ecebb8cdb28f2ea9d395982f6731e0f733a82def28",
    "reports/cell2_s3n0_tree_d8_l2_test.json": "68676cb7a3c9cd193376d73e69cc1608c62951e46cb1ec80d8c98f69a706b004",
    "reports/cell2_s3n0_tree_d8_l2_train.json": "72bcb298c2edc915ce78ece2affc126d12b42e15a50bb0f0e064ce60717118f2",
    "reports/cellpool_s3n0_tree_d8_l2_test.json": "b31abf5da55cc7bf0aae497208736f1e8501ea8526544fb0c4b0097c760dfc7d",
    "reports/cellpool_s3n0_tree_d8_l2_train.json": "89f16a1c9156bf8d3cd3d72b5b861e5d88bdd8531e1caba9310bc546e9bb6018",
}


def test_net_run_tree_artifacts_match_golden_digests(net_run):
    hashes = net_run.manifest["artifact_sha256"]
    assert set(hashes) == set(GOLDEN_NET_RUN_TREE) | set(GOLDEN_NET_RUN_MLP)
    assert {k: hashes[k] for k in GOLDEN_NET_RUN_TREE} == GOLDEN_NET_RUN_TREE


@radio_kernels_as_pinned
@pytest.mark.skipif(
    float_kernels_digest() != GOLDEN_FLOAT_KERNELS,
    reason="numpy/BLAS float kernels differ from those the digests were taken with",
)
def test_net_run_mlp_artifacts_match_golden_digests(net_run):
    hashes = net_run.manifest["artifact_sha256"]
    assert {k: hashes[k] for k in GOLDEN_NET_RUN_MLP} == GOLDEN_NET_RUN_MLP


def test_experiment_reports_and_comparison(net_run):
    test_reports = [r for r in net_run.reports if r.split == "test"]
    train_reports = [r for r in net_run.reports if r.split == "train"]
    assert len(test_reports) == 2
    assert len(train_reports) == 2
    # 1026/114 split of the 1140 line-of-sight records, nothing skipped
    for r in net_run.reports:
        assert r.config["n_train"] == 1026
        assert r.config["n_test"] == 114
        assert r.config["skipped_train"] == {}
        assert r.n_samples == (1026 if r.split == "train" else 114)
    rows = net_run.comparison.rows
    assert len(rows) == 2
    assert sum(r.best for r in rows) == 1
    best_row = [r for r in rows if r.best][0]
    best_mean = min(r.mean_error_m for r in test_reports)
    assert best_row.mean_error_m == best_mean


def test_experiment_report_files_load(net_run):
    out = net_run.output_dir
    rep = load_report(out / "reports" / "net_s3n0_id_tree_d8_l2_test.json")
    assert rep.split == "test"
    assert rep.config["label"] == "net_s3n0_id_tree_d8_l2"
    assert rep.cdf[-1][1] == 1.0
    bundle = load_model_bundle(out / "models" / "net_s3n0_id_tree_d8_l2.json")
    assert bundle.model_type == MODEL_TREE
    assert bundle.model.n_features == 7


def test_replay_reproduces_artifacts(net_run, tmp_path):
    result = replay(net_run.manifest_path, tmp_path / "again")
    assert result.manifest["artifact_sha256"] == net_run.manifest["artifact_sha256"]


def test_replay_detects_divergence(net_run, tmp_path):
    manifest = json.loads(net_run.manifest_path.read_text(encoding="ascii"))
    key = sorted(manifest["artifact_sha256"])[0]
    manifest["artifact_sha256"][key] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(manifest), encoding="ascii")
    with pytest.raises(DataError):
        replay(tampered, tmp_path / "out")


def test_sweep_into_a_reused_out_dir_hashes_only_its_own_files(tmp_path):
    # the manifest hashed every file under reports/ and cdf/, the first
    # sweep's too, so its own replay into a fresh dir diverged
    out = tmp_path / "run"
    for depth in (8, 4):
        spec = experiment_spec_from_dict(_spec_dict(model_configs=[{"type": "tree", "max_depth": depth}]))
        result = run_experiment(spec, out)
    assert sorted(result.manifest["artifact_sha256"]) == [
        f"{sub}/net_s3n0_id_tree_d4_l2_{split}.{ext}"
        for sub, ext in (("cdf", "csv"), ("reports", "json"))
        for split in ("test", "train")
    ]
    again = replay(result.manifest_path, tmp_path / "again")
    assert again.manifest["artifact_sha256"] == result.manifest["artifact_sha256"]


def test_replay_rejects_non_manifest(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"format": "other"}), encoding="ascii")
    with pytest.raises(ConfigurationError):
        replay(path, tmp_path / "out")
    with pytest.raises(ConfigurationError):
        replay(tmp_path / "missing.json", tmp_path / "out")


# two feature configs, and a one-hot one with the small scenario's
# vocabularies (4 cells, 32 beams)
ORACLE_FEATURES = [
    {"serving_beams": 3, "neighbor_beams": 0},
    {"serving_beams": 2, "neighbor_beams": 1},
    {"serving_beams": 2, "neighbor_beams": 2, "one_hot_ids": True, "cell_id_vocab": 4, "beam_id_vocab": 32},
]


@pytest.mark.parametrize("topology", [TOPOLOGY_NETWORK, TOPOLOGY_CELL])
def test_run_experiment_arms_equal_extract_features_on_the_los_build(
    small_scenario, small_dataset, tmp_path, monkeypatch, topology
):
    # the sweep extracts each block for every feature config as it is
    # built, through pipeline.extract, and never builds a dataset; every
    # arm's features are those extract_features gives on the LOS-only
    # build for the arm's rows, bit for bit
    extract_calls, arms = [], []
    kernel, single = pipeline.extract, pipeline.run_single

    def counted_extract(*args):
        extract_calls.append(len(args[0]))
        return kernel(*args)

    def recorded_run(features, train_rows, test_rows, arm, spec):
        arms.append((arm.label, arm.cell, features.take(train_rows), features.take(test_rows), train_rows, test_rows))
        return single(features, train_rows, test_rows, arm, spec)

    def no_build(*args, **kwargs):
        raise AssertionError("run_experiment built a dataset")

    monkeypatch.setattr(pipeline, "extract", counted_extract)
    monkeypatch.setattr(pipeline, "run_single", recorded_run)
    monkeypatch.setattr(pipeline, "build_dataset", no_build)
    d = _spec_dict(topology=topology, feature_configs=ORACLE_FEATURES, model_configs=[{"type": "tree", "max_depth": 4}])
    if topology == TOPOLOGY_CELL:
        d["min_cell_records"] = 200
    spec = experiment_spec_from_dict(d)
    result = run_experiment(spec, tmp_path)
    monkeypatch.undo()

    los = los_only_build(small_scenario)
    # the small grid is three sweep blocks, each extracted once per config
    per_block = np.bincount(np.flatnonzero(small_dataset.los) // _BUILD_ROWS, minlength=3)
    assert extract_calls == [n for n in per_block.tolist() for _ in ORACLE_FEATURES]
    if topology == TOPOLOGY_NETWORK:
        parts = {None: np.arange(len(los))}
    else:
        parts = {c: rows for c, rows in cell_rows(los.serving).items() if len(rows) >= 200}
    want_labels = []
    for cell, rows in parts.items():
        train, test = pipeline._split_rows(len(rows), spec.train_fraction, spec.split_seed)
        for fc in spec.feature_configs:
            want_labels.append(Arm(cell, fc, spec.model_specs[0]).label)
            label, got_cell, train_set, test_set, train_rows, test_rows = arms[len(want_labels) - 1]
            assert (label, got_cell) == (want_labels[-1], cell)
            assert np.array_equal(train_rows, rows[train]) and np.array_equal(test_rows, rows[test])
            same_feature_sets(train_set, extract_features(los, fc, rows[train]))
            same_feature_sets(test_set, extract_features(los, fc, rows[test]))
            # every (cell, beam) is measured at every point, so no row is skipped
            assert len(train_set) == len(train) and train_set.skipped == {}
    assert [label for label, *_ in arms] == want_labels
    n, n_los = len(small_dataset), int(small_dataset.los.sum())
    assert result.manifest["dataset"] == {
        "seed": small_dataset.seed,
        "n_records": n,
        "n_los": n_los,
        "los_fraction": n_los / n,
    }


def test_run_experiment_memory_does_not_grow_with_the_los_columns(tmp_path):
    # the arms hold feature sets, not the LOS records' measurement
    # columns, so the traced peak of a sweep stays about the same from a
    # 4 m to a 2 m grid of the default scenario while those columns
    # would grow by about 28 MB (it grew by more than that while the
    # sweep held them)
    runs = []
    for res in (4.0, 2.0):
        config = replace(default_scenario_config(0), grid_resolution_m=res)
        d = _spec_dict(scenario=scenario_config_to_dict(config), model_configs=[{"type": "tree", "max_depth": 4}])
        _, peak = _traced_overhead(run_experiment, experiment_spec_from_dict(d), tmp_path / str(res), held=lambda r: 0)
        runs.append((los_only_build(build_scenario(config)), peak))
    assert _overhead_growth(runs) < 0.25


# ---------------------------------------------------------------------------
# whole experiments, cell-specific topology


@pytest.fixture(scope="module")
def cell_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cell_run")
    d = _spec_dict(topology=TOPOLOGY_CELL, min_cell_records=200)
    d["model_configs"] = [{"type": "tree", "max_depth": 8}]
    return run_experiment(experiment_spec_from_dict(d), out)


def test_cell_run_skips_small_cells(cell_run, los_small):
    parts = partition_by_cell(los_small)
    assert {c: len(p) for c, p in sorted(parts.items())} == {0: 430, 1: 141, 2: 428, 3: 141}
    assert cell_run.manifest["skipped_cells"] == {"1": 141, "3": 141}
    assert sorted(r["label"] for r in cell_run.manifest["runs"]) == [
        "cell0_s3n0_tree_d8_l2",
        "cell2_s3n0_tree_d8_l2",
    ]


def test_cell_run_reports(cell_run):
    by_label = {r.config["label"]: r for r in cell_run.reports if r.split == "test"}
    assert set(by_label) == {
        "cell0_s3n0_tree_d8_l2",
        "cell2_s3n0_tree_d8_l2",
        "cellpool_s3n0_tree_d8_l2",
    }
    cell0 = by_label["cell0_s3n0_tree_d8_l2"]
    assert cell0.config["cell"] == 0
    assert cell0.config["topology"] == TOPOLOGY_CELL
    assert cell0.config["cell_id_feature"] is False
    assert cell0.n_samples == 43  # 430 records, 0.9 split
    pooled = by_label["cellpool_s3n0_tree_d8_l2"]
    assert pooled.config["pooled_cells"] == [0, 2]
    assert pooled.n_samples == 43 + 43


def test_cell_run_artifacts_match_golden_digests(cell_run):
    assert cell_run.manifest["artifact_sha256"] == GOLDEN_CELL_RUN


def test_cell_run_models_drop_cell_id_feature(cell_run):
    bundle = load_model_bundle(cell_run.output_dir / "models" / "cell0_s3n0_tree_d8_l2.json")
    assert bundle.feature_config.include_serving_cell_id is False
    assert bundle.model.n_features == 6


def test_cell_run_rejects_unknown_or_thin_cells(tmp_path):
    d = _spec_dict(topology=TOPOLOGY_CELL, cells=[9])
    d["model_configs"] = [{"type": "tree"}]
    with pytest.raises(DataError):
        run_experiment(experiment_spec_from_dict(d), tmp_path / "a")
    d = _spec_dict(topology=TOPOLOGY_CELL, cells=[1], min_cell_records=200)
    d["model_configs"] = [{"type": "tree"}]
    with pytest.raises(DataError):
        run_experiment(experiment_spec_from_dict(d), tmp_path / "b")


def test_cell_run_lists_a_repeated_cell_once(tmp_path):
    # a cell named twice used to run twice into the same files
    d = _spec_dict(topology=TOPOLOGY_CELL, cells=[2, 0, 2], min_cell_records=200)
    d["model_configs"] = [{"type": "tree", "max_depth": 4}]
    result = run_experiment(experiment_spec_from_dict(d), tmp_path)
    assert [r["label"] for r in result.manifest["runs"]] == ["cell2_s3n0_tree_d4_l2", "cell0_s3n0_tree_d4_l2"]
    pooled = [r for r in result.reports if r.config["label"] == "cellpool_s3n0_tree_d4_l2"]
    assert [r.config["pooled_cells"] for r in pooled] == [[2, 0], [2, 0]]
    assert pooled[0].n_samples == 43 + 43


# ---------------------------------------------------------------------------
# sweep order: 2 feature configs x 2 tree depths in both topologies

# arms run cell-major (in spec.cells order), then feature config, then
# model; the cell-specific sweep skips cell 1 (141 records < 200)
SWEEP_ARMS = {
    TOPOLOGY_NETWORK: [
        f"net_{fc}_tree_d{depth}_l2" for fc in ("s3n0_id", "s2n1_id") for depth in (8, 4)
    ],
    TOPOLOGY_CELL: [
        f"cell{cell}_{fc}_tree_d{depth}_l2"
        for cell in (2, 0)
        for fc in ("s3n0", "s2n1")
        for depth in (8, 4)
    ],
}
SWEEP_POOLED = [f"cellpool_{fc}_tree_d{depth}_l2" for fc in ("s3n0", "s2n1") for depth in (8, 4)]
SWEEP_BEST = {TOPOLOGY_NETWORK: "net_s2n1_id_tree_d8_l2", TOPOLOGY_CELL: "cell2_s2n1_tree_d8_l2"}
# SHA-256 of the manifest (json.dumps with sort_keys) without durations.
# It holds every artifact digest, so it shares the AVX-512 caveat of
# GOLDEN_CELL_RUN (ROADMAP item 10).
GOLDEN_SWEEP_MANIFEST = {
    TOPOLOGY_NETWORK: "b00177c82b79061d0dd10db660dec45df193cfe96e7b38941cca3b63f362a433",
    TOPOLOGY_CELL: "b0d0c861e8dcfc6c9dd83d2ca424bfd28ed1286449b78fff15f8c01755fe159a",
}


@pytest.fixture(scope="module", params=[TOPOLOGY_NETWORK, TOPOLOGY_CELL])
def order_run(request, tmp_path_factory):
    d = _spec_dict(topology=request.param)
    d["feature_configs"] = [
        {"serving_beams": 3, "neighbor_beams": 0},
        {"serving_beams": 2, "neighbor_beams": 1},
    ]
    d["model_configs"] = [{"type": "tree", "max_depth": 8}, {"type": "tree", "max_depth": 4}]
    if request.param == TOPOLOGY_CELL:
        d.update(cells=[2, 1, 0], min_cell_records=200)
    return request.param, run_experiment(experiment_spec_from_dict(d), tmp_path_factory.mktemp("order"))


def test_sweep_order_is_pinned(order_run):
    topology, result = order_run
    arms = SWEEP_ARMS[topology]
    # each run reports train then test; pooled reports follow, test then train
    expect = [(label, split) for label in arms for split in ("train", "test")]
    if topology == TOPOLOGY_CELL:
        expect += [(label, split) for label in SWEEP_POOLED for split in ("test", "train")]
    assert [(r.config["label"], r.split) for r in result.reports] == expect
    assert [r["label"] for r in result.manifest["runs"]] == arms
    rows = result.comparison.rows
    assert [r.label for r in rows] == [label for label, split in expect if split == "test"]
    assert [r.label for r in rows if r.best] == [SWEEP_BEST[topology]]
    starred = [line for line in result.comparison.to_text().splitlines() if line.endswith("*")]
    assert [line.split()[0] for line in starred] == [SWEEP_BEST[topology]]


def test_sweep_manifest_matches_golden_digest(order_run):
    topology, result = order_run
    m = dict(result.manifest)
    del m["durations_s"]
    m["runs"] = [{k: v for k, v in run.items() if k != "duration_s"} for run in m["runs"]]
    digest = hashlib.sha256(json.dumps(m, sort_keys=True).encode("ascii")).hexdigest()
    assert digest == GOLDEN_SWEEP_MANIFEST[topology]


# ---------------------------------------------------------------------------
# measurement parsing


def test_parse_measurement_minimal():
    record = parse_measurement_line('{"meas": [[0, 1, -50.0], [1, 0, -48.0]]}', 1)
    x, y, serving, los = record[:4]
    assert serving == 1  # strongest wins
    assert triples(record) == ((1, 0, -48.0), (0, 1, -50.0))
    assert math.isnan(x) and math.isnan(y)
    assert los is True


def test_parse_measurement_full():
    raw = json.dumps(
        {"x": 3.5, "y": 4.0, "serving": 2, "los": False, "meas": [[2, 7, -40], [0, 1, -60]]}
    )
    x, y, serving, los = parse_measurement_line(raw, 1)[:4]
    assert (x, y) == (3.5, 4.0)
    assert serving == 2
    assert los is False


def test_parse_measurement_sorts_with_tie_break():
    raw = json.dumps({"meas": [[2, 1, -50.0], [1, 3, -50.0], [1, 2, -50.0]]})
    record = parse_measurement_line(raw, 1)
    assert triples(record) == ((1, 2, -50.0), (1, 3, -50.0), (2, 1, -50.0))
    assert record[2] == 1


def test_parse_measurement_reorders_shuffled_lines(small_dataset, rng):
    # dataset records hold many exact rsrp ties, so the (cell, beam)
    # tie-break decides much of the order
    for i in (0, 7, 42):
        want = triples(row_of(small_dataset, i))
        meas = [list(m) for m in want]
        assert triples(parse_measurement_line(json.dumps({"meas": meas}), 1)) == want
        shuffled = [meas[j] for j in rng.permutation(len(meas))]
        assert triples(parse_measurement_line(json.dumps({"meas": shuffled}), 1)) == want
        assert triples(parse_measurement_line(json.dumps({"meas": meas[::-1]}), 1)) == want


def test_parse_measurement_header_is_skipped():
    assert parse_measurement_line('{"format": "beamprint-dataset", "version": 1}', 1) is None


def test_parse_measurement_rejections():
    cases = [
        ("{not json", None),
        ("[1, 2]", None),
        ("{}", "meas"),
        ('{"meas": []}', "meas"),
        ('{"meas": [[1, 2]]}', "meas"),
        ('{"meas": [[1, 2, "x"]]}', "meas"),
        ('{"meas": [[1.5, 2, -50.0]]}', "meas"),
        ('{"meas": [[1, 2, true]]}', "meas"),
        ('{"meas": [[1, 2, -50.0]], "serving": true}', "serving"),
        ('{"meas": [[1, 2, -50.0], [0, 2, -40.0]], "serving": 1}', "serving"),
        ('{"meas": [[1, 2, NaN]]}', "meas"),
        ('{"meas": [[1, 2, -50.0], [1, 3, Infinity]]}', "meas"),
        ('{"meas": [[1, 2, -Infinity]]}', "meas"),
        ('{"meas": [[true, 2, -50.0]]}', "meas"),
        ('{"meas": [[1, false, -50.0]]}', "meas"),
        ('{"meas": [[1, 2, -50.0], 7]}', "meas"),
        ('{"meas": [[1, 2, -50.0, 0]]}', "meas"),
        ('{"meas": [[1, 2, 1%s]]}' % ("0" * 400), "meas"),
        ('{"meas": [[1, 2, -50.0], [%d, 2, -60.0]]}' % 2**70, "meas"),
        ('{"meas": [[1, %d, -50.0]]}' % -(2**70), "meas"),
        ('{"meas": [[1, 2, -50.0]], "x": "abc"}', "x"),
        ('{"meas": [[1, 2, -50.0]], "x": null}', "x"),
        ('{"meas": [[1, 2, -50.0]], "x": 1e400}', "x"),
        ('{"meas": [[1, 2, -50.0]], "x": NaN}', "x"),
        ('{"meas": [[1, 2, -50.0]], "y": true}', "y"),
        ('{"meas": [[1, 2, -50.0]], "y": 1%s}' % ("0" * 400), "y"),
        ('{"meas": [[1, 2, -50.0]], "los": 1}', "los"),
        ('{"meas": [[1, 2, -50.0]], "los": "yes"}', "los"),
    ]
    for raw, field in cases:
        with pytest.raises(DatasetParseError) as err:
            parse_measurement_line(raw, 12, path="probe.jsonl")
        assert err.value.line == 12
        if field is not None:
            assert err.value.field == field


# ---------------------------------------------------------------------------
# inference


def test_infer_record_matches_predict(tree_bundle, small_splits):
    _, test_ds = small_splits
    record = row_of(test_ds, 0)
    x_pred, y_pred = infer_record(tree_bundle, record[2], *record[4:])
    expect = tree_bundle.predict(oracle_record(record, tree_bundle.feature_config))
    assert (x_pred, y_pred) == (float(expect[0]), float(expect[1]))


def test_infer_record_refuses_a_prediction_that_overflows(mlp_bundle, small_splits):
    # finite weights and biases of 1e308 in the last layer: infer_record
    # returned (inf, inf), where infer_file refuses the line
    bundle = copy.deepcopy(mlp_bundle)
    bundle.model.weights[-1][...] = 1e308
    bundle.model.biases[-1][...] = 1e308
    record = row_of(small_splits[1], 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor does numpy warn of the overflow
        with pytest.raises(DataError, match="prediction is not finite"):
            infer_record(bundle, record[2], *record[4:])


def test_infer_file_round_trip(tree_bundle, small_splits, tmp_path):
    _, test_ds = small_splits
    lines = ['{"format": "header-line"}', ""]
    expected = []
    for i in range(3):
        record = row_of(test_ds, i)
        meas = [list(t) for t in triples(record)]
        lines.append(json.dumps({"meas": meas}))
        expected.append(infer_record(tree_bundle, record[2], *record[4:]))
    in_path = tmp_path / "meas.jsonl"
    in_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    out_path = tmp_path / "pred.jsonl"
    rows = infer_file(tree_bundle, in_path, out_path)
    assert [(r["x_pred"], r["y_pred"]) for r in rows] == expected
    written = [json.loads(l) for l in out_path.read_text(encoding="ascii").splitlines()]
    assert written == rows


def test_infer_file_equals_batch_predict(tree_bundle, mlp_bundle, small_splits, tmp_path):
    _, test_ds = small_splits
    in_path = tmp_path / "test.jsonl"
    save_dataset(test_ds, in_path)  # a dataset file is a valid measurement file
    for bundle in (tree_bundle, mlp_bundle):
        want = bundle.predict(extract_features(test_ds, bundle.feature_config).values)
        got = np.array([[r["x_pred"], r["y_pred"]] for r in infer_file(bundle, in_path)])
        assert got.shape == want.shape == (len(test_ds), 2)
        if bundle.model_type == MODEL_TREE:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-9


def test_infer_file_mixed_reports_equal_oracle(tree_bundle, mlp_bundle, small_splits, tmp_path):
    # a header, a blank line, a full dataset line, a short report and an
    # unsorted one: one kernel call over NaN-padded rows must give what
    # the per-record oracle gives line by line
    _, test_ds = small_splits
    full = [list(t) for t in triples(row_of(test_ds, 0))]
    short = [list(t) for t in triples(row_of(test_ds, 1))][:40]
    unsorted = [list(t) for t in triples(row_of(test_ds, 2))][::-1]
    lines = [
        '{"format": "beamprint-dataset", "version": 1}',
        "",
        json.dumps({"x": 1.0, "y": 2.0, "serving": full[0][0], "los": True, "meas": full}),
        json.dumps({"meas": short}),
        json.dumps({"meas": unsorted}),
    ]
    in_path = tmp_path / "mixed.jsonl"
    in_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    records = [parse_measurement_line(l, 1) for l in lines[2:]]
    assert len(records[1][6]) == 40
    for bundle in (tree_bundle, mlp_bundle):
        want = bundle.predict(np.vstack([oracle_record(r, bundle.feature_config) for r in records]))
        got = np.array([[r["x_pred"], r["y_pred"]] for r in infer_file(bundle, in_path)])
        if bundle.model_type == MODEL_TREE:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-9


def test_infer_file_without_records(tree_bundle, tmp_path):
    in_path = tmp_path / "empty.jsonl"
    in_path.write_text('{"format": "header-line"}\n\n', encoding="ascii")
    out_path = tmp_path / "pred.jsonl"
    assert infer_file(tree_bundle, in_path, out_path) == []
    assert out_path.read_text(encoding="ascii") == ""


def _chunked_file(path, test_ds):
    """A dataset file of test_ds's records, cycled past one infer_file
    chunk: the header, then _INFER_REPORTS + 100 record lines."""
    records = test_ds.subset(np.resize(np.arange(len(test_ds)), _INFER_REPORTS + 100))
    save_dataset(records, path)
    return records


def test_infer_file_across_chunks_equals_batch_predict(tree_bundle, mlp_bundle, small_splits, tmp_path):
    _, test_ds = small_splits
    in_path = tmp_path / "test.jsonl"
    records = _chunked_file(in_path, test_ds)
    for bundle in (tree_bundle, mlp_bundle):
        want = bundle.predict(extract_features(records, bundle.feature_config).values)
        got = np.array([[r["x_pred"], r["y_pred"]] for r in infer_file(bundle, in_path)])
        assert got.shape == want.shape == (len(records), 2)
        if bundle.model_type == MODEL_TREE:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("fault", ["bad-json", "too-few-beams"])
def test_infer_file_bad_line_in_a_later_chunk(tree_bundle, small_splits, tmp_path, fault):
    # the first chunk is predicted before the second is read, but nothing
    # is written until every line has passed
    _, test_ds = small_splits
    in_path = tmp_path / "meas.jsonl"
    _chunked_file(in_path, test_ds)
    lines = in_path.read_text(encoding="ascii").splitlines()
    bad = _INFER_REPORTS + 50
    if fault == "bad-json":
        lines[bad - 1] = lines[bad - 1][:-5]
    else:
        lines[bad - 1] = json.dumps({"meas": [list(triples(row_of(test_ds, 0))[0])]})
    in_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    out_path = tmp_path / "pred.jsonl"
    with pytest.raises(DatasetParseError) as e:
        infer_file(tree_bundle, in_path, out_path)
    assert e.value.line == bad
    assert not out_path.exists()


def test_infer_file_extracts_each_chunk_through_the_module_extract(tree_bundle, small_splits, tmp_path, monkeypatch):
    # one kernel call per chunk, looked up as pipeline.extract, so that a
    # wrapper there (the benchmark's traced run) sees the infer path
    _, test_ds = small_splits
    in_path = tmp_path / "reports.jsonl"
    save_dataset(test_ds.subset(np.resize(np.arange(len(test_ds)), 2100)), in_path)
    want = infer_file(tree_bundle, in_path)
    calls = []
    extract = pipeline.extract

    def counted(serving, *args):
        calls.append(len(serving))
        return extract(serving, *args)

    monkeypatch.setattr(pipeline, "extract", counted)
    assert infer_file(tree_bundle, in_path) == want
    assert calls == [_INFER_REPORTS, _INFER_REPORTS, 2100 - 2 * _INFER_REPORTS]


@pytest.fixture(scope="module")
def neighbor_bundle(small_splits):
    train_ds, _ = small_splits
    fc = FeatureConfig(n_serving_beams=3, n_neighbor_beams=2)
    spec = ModelSpec(MODEL_TREE, tree_config=TreeConfig(max_depth=4))
    return train_model(extract_features(train_ds, fc), spec, fc)


def _short_of(meas, shortfall):
    """A ranked report that keeps 2 of the serving cell's entries, or
    every serving entry but only 1 neighbor cell."""
    serving = meas[0][0]
    if shortfall == "serving":
        drop = [j for j, m in enumerate(meas) if m[0] == serving][2:]
        return [m for j, m in enumerate(meas) if j not in drop]
    neighbor = next(m[0] for m in meas if m[0] != serving)
    return [m for m in meas if m[0] in (serving, neighbor)]


@pytest.mark.parametrize(
    "shortfall, reason, message",
    [
        ("serving", SKIP_SERVING, "record has 2 serving-cell measurements, need 3"),
        ("neighbors", SKIP_NEIGHBORS, "record has 1 distinct neighbor cells, need 2"),
    ],
    ids=["serving", "neighbors"],
)
def test_infer_record_and_infer_file_word_a_short_report_alike(
    neighbor_bundle, small_splits, tmp_path, shortfall, reason, message
):
    _, test_ds = small_splits
    full = triples(row_of(test_ds, 0))
    short = _short_of(full, shortfall)
    record = record_of(short)
    with pytest.raises(FeatureExtractionError) as direct:
        infer_record(neighbor_bundle, record[2], *record[4:])
    assert (direct.value.reason, str(direct.value)) == (reason, message)

    in_path = tmp_path / "short.jsonl"
    lines = ['{"format": "beamprint-dataset", "version": 1}', json.dumps({"meas": full}), json.dumps({"meas": short})]
    in_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(DatasetParseError) as in_file:
        infer_file(neighbor_bundle, in_path)
    assert (in_file.value.line, in_file.value.field) == (3, None)
    assert str(in_file.value) == f"{message} ({in_path}, line 3)"


def test_infer_record_calls_an_id_outside_the_one_hot_vocabulary_a_data_error():
    # was a ConfigurationError; infer_file already calls it a data error
    config = FeatureConfig(n_serving_beams=2, one_hot_ids=True, cell_id_vocab=1, beam_id_vocab=32)
    rng = np.random.default_rng(3)
    tree = dtree.fit(rng.normal(size=(40, feature_length(config))), rng.normal(size=(40, 2)))
    bundle = ModelBundle(config, tree)
    with pytest.raises(FeatureExtractionError) as bad:
        infer_record(bundle, 0, [0, 0], [1, 40], [-60.0, -61.0])
    assert str(bad.value) == "beam id 40 outside one-hot vocabulary of size 32"
    assert bad.value.reason == OUTSIDE_VOCABULARY and OUTSIDE_VOCABULARY not in SKIP_REASONS
    # ids inside the vocabulary, as lists or as arrays, predict as extract's row does
    columns = np.array([[0, 0]]), np.array([[1, 31]]), np.array([[-60.0, -61.0]])
    values, _, _, _ = extract(np.array([0]), *columns, config)
    want = tuple(float(v) for v in bundle.predict(values[0]))
    assert infer_record(bundle, 0, [0, 0], [1, 31], [-60.0, -61.0]) == want
    assert infer_record(bundle, 0, np.array([0, 0]), np.array([1, 31]), np.array([-60.0, -61.0])) == want
