"""Property tests of the CLI over arbitrary dataset and measurement files:
`train`, `evaluate` and `infer` either succeed or exit 1-3, and never
raise."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamprint.cli import main

HEADER = {
    "format": "beamprint-dataset",
    "version": 1,
    "scenario_hash": "ab" * 32,
    "seed": 0,
    "cells": [0, 1],
    "beams_per_cell": 4,
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)

# near-valid measurement lists: small ids around the header's, any float
MEAS = st.lists(
    st.tuples(st.integers(-1, 2), st.integers(-1, 4), st.floats()).map(list)
    | st.lists(JSON_VALUES, max_size=4),
    max_size=5,
)

# objects with the record keys often enough to reach the record checks
RECORDS = st.dictionaries(
    st.sampled_from(["x", "y", "serving", "los", "meas", "format"]) | st.text(max_size=3),
    JSON_VALUES | MEAS | st.integers(-1, 2) | st.booleans(),
    max_size=6,
)


@st.composite
def valid_records(draw):
    """Records load_dataset accepts under HEADER, so that files of them
    reach feature extraction, training and prediction."""
    meas = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3), st.floats(-120.0, -40.0)),
            min_size=3,
            max_size=3,
            unique_by=lambda t: t[:2],
        )
    )
    meas = [list(t) for t in sorted(meas, key=lambda t: (-t[2], t[0], t[1]))]
    x, y = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    return {"x": x, "y": y, "serving": meas[0][0], "los": draw(st.booleans()), "meas": meas}


LINES = st.lists(
    (JSON_VALUES | RECORDS | valid_records()).map(json.dumps) | st.text(max_size=20),
    max_size=4,
) | st.lists(valid_records().map(json.dumps), min_size=1, max_size=6)

# no header, the valid one, or the valid one with one key changed
HEADERS = st.none() | st.just(HEADER) | st.builds(
    lambda key, value: {**HEADER, key: value},
    st.sampled_from(sorted(HEADER)),
    JSON_VALUES | st.lists(st.integers(-2, 2), max_size=3),
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A tree trained on a valid six-record file under HEADER."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    records = [
        {"x": float(i), "y": 2.0 * i, "serving": 0, "los": True, "meas": [[0, i % 4, -50.0 - i], [1, 0, -70.0]]}
        for i in range(6)
    ]
    dataset = root / "train.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in [HEADER, *records]) + "\n", encoding="ascii")
    features = root / "features.json"
    features.write_text(json.dumps({"serving_beams": 1, "neighbor_beams": 1}), encoding="ascii")
    model = root / "tree.json"
    argv = ["train", "--model", "tree", "--dataset", str(dataset), "--features", str(features), "--out", str(model)]
    assert main(argv) == 0
    return root, features, model


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    command=st.sampled_from(["train", "evaluate", "infer"]),
    header=HEADERS,
    lines=LINES,
)
def test_cli_exits_0_to_3_on_any_input_file(bundle, command, header, lines):
    root, features, model = bundle
    text = "\n".join([json.dumps(header)] * (header is not None) + lines) + "\n"
    path = root / "input.jsonl"
    path.write_bytes(text.encode("utf-8", errors="surrogatepass"))
    out = str(root / "out")
    argv = {
        "train": ["train", "--model", "tree", "--dataset", str(path), "--features", str(features), "--out", out],
        "evaluate": ["evaluate", "--model", str(model), "--dataset", str(path), "--out", out],
        "infer": ["infer", "--model", str(model), "--input", str(path), "--out", out],
    }[command]
    assert main(argv) in (0, 1, 2, 3)


# values a mutated tree bundle field may take: any JSON value, ids and
# counts near the real ones, integers past 64 bits, and node objects
BUNDLE_VALUES = (
    st.integers(-3, 8)
    | st.sampled_from([0.5, -0.0, 1e308, 2**31, 2**63 - 1, 2**63, 2**64, -(2**63) - 1, 10**30])
    | JSON_VALUES
    | st.builds(dict, n=st.integers(-1, 8), value=st.lists(st.floats(), max_size=3))
    | st.builds(
        dict, n=st.integers(-1, 8), feature=st.integers(-1, 3), threshold=st.floats(), left=st.none(), right=st.none()
    )
)

# the keys of each object of a tree bundle, and one it does not have
BUNDLE_KEYS = {
    "node": ["n", "value", "feature", "threshold", "left", "right", "extra"],
    "tree": ["version", "n_features", "root", "config", "extra"],
    "config": ["max_depth", "min_samples_leaf", "min_impurity_decrease", "extra"],
    "feature_config": [
        "serving_beams", "neighbor_beams", "cell_id_feature", "one_hot_ids", "cell_id_vocab", "beam_id_vocab",
        "topology", "extra",
    ],
}


@st.composite
def tree_bundle_edits(draw):
    """(where, path, key, delete, value) edits of a saved tree bundle: a
    node reached by a path from the root, the tree blob, its config, or
    the bundle's feature config; delete removes the key."""
    where = draw(st.sampled_from(sorted(BUNDLE_KEYS)))
    path = draw(st.lists(st.sampled_from(["left", "right"]), max_size=4))
    key = draw(st.sampled_from(BUNDLE_KEYS[where]))
    delete = draw(st.booleans())
    return where, path, key, delete, None if delete else draw(BUNDLE_VALUES)


# counts and ids past 64 bits, which numpy's node arrays cannot hold
@example(edits=[("node", ["left"], "n", False, 2**64)], command="infer")
@example(edits=[("tree", [], "n_features", False, 2**65), ("node", [], "feature", False, 2**64)], command="evaluate")
# a serving beam count whose feature layout cannot be built
@example(edits=[("feature_config", [], "serving_beams", False, 2**63)], command="evaluate")
@settings(derandomize=True, deadline=None, max_examples=300)
@given(edits=st.lists(tree_bundle_edits(), min_size=1, max_size=3), command=st.sampled_from(["evaluate", "infer"]))
def test_cli_exits_0_to_3_on_any_tree_bundle(bundle, edits, command):
    root, _, model = bundle
    blob = json.loads(model.read_text(encoding="ascii"))
    for where, path, key, delete, value in edits:
        tree = blob["tree"] if isinstance(blob.get("tree"), dict) else {}
        target = {
            "node": tree.get("root"),
            "tree": tree,
            "config": tree.get("config"),
            "feature_config": blob.get("feature_config"),
        }[where]
        if where == "node":
            for side in path:
                if not isinstance(target, dict) or not isinstance(target.get(side), dict):
                    break
                target = target[side]
        if not isinstance(target, dict):
            continue
        if delete:
            target.pop(key, None)
        else:
            target[key] = value
    assert_cli_exits_0_to_3_on_bundle(root, blob, command)


def assert_cli_exits_0_to_3_on_bundle(root, blob, command):
    """Run `evaluate` or `infer` with the bundle `blob` on the six
    training records: the exit code is 0-3 and nothing prints a traceback."""
    edited = root / "edited.json"
    edited.write_text(json.dumps(blob), encoding="ascii")
    dataset = str(root / "train.jsonl")
    out = str(root / "out")
    argv = {
        "evaluate": ["evaluate", "--model", str(edited), "--dataset", dataset, "--out", out],
        "infer": ["infer", "--model", str(edited), "--input", dataset, "--out", out],
    }[command]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        assert main(argv) in (0, 1, 2, 3)
    assert "Traceback" not in printed.getvalue()


@pytest.fixture(scope="module")
def mlp_bundle(bundle):
    """An MLP (6 -> 3 -> 2 -> 2, two epochs) on the same six records."""
    root, features, _ = bundle
    model = root / "mlp.json"
    argv = ["train", "--model", "mlp", "--dataset", str(root / "train.jsonl"), "--features", str(features)]
    assert main(argv + ["--out", str(model), "--hidden", "3,2", "--max-epochs", "2"]) == 0
    return root, model


# what a mutated MLP bundle field may take: the tree fuzz's values, NaN
# and the infinities, and flat and nested lists (layers, rows, arrays)
MLP_VALUES = (
    BUNDLE_VALUES
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), True, "1.0"])
    | st.lists(st.floats() | st.integers(-2, 2) | st.booleans(), max_size=4)
    | st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3), max_size=7)
)

# the keys of each object of an MLP bundle, and one it does not have; a
# layer is picked by its index, and an edit of a layer or a normalizer
# array may go on into its rows and entries
MLP_BUNDLE_KEYS = {
    "mlp": ["config", "weights", "biases", "normalizer", "loss_history", "extra"],
    "weights": [0, 1, 2, 3],
    "biases": [0, 1, 2, 3],
    "normalizer": ["feature_mean", "feature_std", "label_mean", "label_std", "fit_on_train", "extra"],
    "config": [
        "hidden_layers", "activation", "learning_rate", "beta1", "beta2", "epsilon", "batch_size", "max_epochs",
        "patience", "min_delta", "rng_seed", "extra",
    ],
    "feature_config": BUNDLE_KEYS["feature_config"],
}


@st.composite
def mlp_bundle_edits(draw):
    """(where, steps, delete, value) edits of a saved MLP bundle: steps
    lead from an object of the bundle to the entry set to value, or
    removed when delete is true."""
    where = draw(st.sampled_from(sorted(MLP_BUNDLE_KEYS)))
    steps = [draw(st.sampled_from(MLP_BUNDLE_KEYS[where]))]
    if where in ("weights", "biases", "normalizer", "mlp"):
        steps += draw(st.lists(st.integers(0, 6), max_size=2))
    delete = draw(st.booleans())
    return where, steps, delete, None if delete else draw(MLP_VALUES)


def _edit(target, steps, delete, value):
    """Set or remove the entry `steps` leads to; no change where a step
    does not lead into an object or a list."""
    *path, last = steps
    for step in path:
        if isinstance(target, dict) and isinstance(step, str):
            target = target.get(step)
        elif isinstance(target, list) and isinstance(step, int) and step < len(target):
            target = target[step]
        else:
            return
    if isinstance(target, dict) and isinstance(last, str):
        if delete:
            target.pop(last, None)
        else:
            target[last] = value
    elif isinstance(target, list) and isinstance(last, int) and last < len(target):
        if delete:
            del target[last]
        else:
            target[last] = value


# NaN and infinite entries, a layer of the wrong shape, a bias list too
# short, a feature std of 0 and a hidden layer count the layers do not have
@example(edits=[("weights", [0, 1, 2], False, float("nan"))], command="evaluate")
@example(edits=[("biases", [1, 0], False, float("inf"))], command="infer")
@example(edits=[("weights", [1], False, [[1.0, 2.0]])], command="infer")
@example(edits=[("biases", [2], True, None)], command="evaluate")
@example(edits=[("normalizer", ["feature_std", 0], False, 0)], command="evaluate")
@example(edits=[("config", ["hidden_layers"], False, [3])], command="infer")
@settings(derandomize=True, deadline=None, max_examples=300)
@given(edits=st.lists(mlp_bundle_edits(), min_size=1, max_size=3), command=st.sampled_from(["evaluate", "infer"]))
def test_cli_exits_0_to_3_on_any_mlp_bundle(mlp_bundle, edits, command):
    root, model = mlp_bundle
    blob = json.loads(model.read_text(encoding="ascii"))
    for where, steps, delete, value in edits:
        net = blob["mlp"] if isinstance(blob.get("mlp"), dict) else {}
        parent = {"mlp": blob, "feature_config": blob, "weights": net, "biases": net, "normalizer": net, "config": net}
        _edit(parent[where], [where, *steps], delete, value)
    assert_cli_exits_0_to_3_on_bundle(root, blob, command)
