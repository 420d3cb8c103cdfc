import json
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from beamprint.cli import main
from beamprint.dtree import TreeConfig
from beamprint.mlp import MlpConfig
from beamprint.evaluate import load_report
from beamprint.pipeline import load_model_bundle
from beamprint.scenario import (
    UE_HEIGHT_M,
    load_scenario_config,
    save_scenario_config,
    scenario_config_to_dict,
    single_site_config,
)

from conftest import no_child_left, small_scenario_config


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """generate-scenario -> build-dataset -> train, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    assert main(["generate-scenario", "--out", str(scenario), "--preset", "single-site"]) == 0
    dataset = root / "dataset.jsonl"
    assert main(["build-dataset", "--scenario", str(scenario), "--out", str(dataset)]) == 0
    features = root / "features.json"
    features.write_text(json.dumps({"serving_beams": 3, "neighbor_beams": 0}), encoding="ascii")
    tree = root / "tree.json"
    rc = main(
        [
            "train",
            "--model",
            "tree",
            "--dataset",
            str(dataset),
            "--features",
            str(features),
            "--out",
            str(tree),
            "--max-depth",
            "8",
        ]
    )
    assert rc == 0
    return SimpleNamespace(root=root, scenario=scenario, dataset=dataset, features=features, tree=tree)


# ---------------------------------------------------------------------------
# happy paths


def test_generate_scenario_writes_loadable_config(tmp_path, capsys):
    out = tmp_path / "scn.json"
    assert main(["generate-scenario", "--out", str(out), "--seed", "5"]) == 0
    config = load_scenario_config(out)
    assert config.rng_seed == 5
    assert len(config.sites) == 8
    assert str(out) in capsys.readouterr().out


def test_build_dataset_reports_counts(ws, capsys):
    # rebuild into a second file to inspect the console summary
    out = ws.root / "dataset2.jsonl"
    assert main(["build-dataset", "--scenario", str(ws.scenario), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "3111 records" in text
    assert out.read_bytes() == ws.dataset.read_bytes()  # same scenario, same seed


def test_build_dataset_seed_override_changes_bytes(ws):
    out = ws.root / "dataset_seed9.jsonl"
    assert main(
        ["build-dataset", "--scenario", str(ws.scenario), "--out", str(out), "--seed", "9"]
    ) == 0
    assert out.read_bytes() != ws.dataset.read_bytes()


def test_train_tree_model_loads(ws):
    bundle = load_model_bundle(ws.tree)
    assert bundle.model_type == "tree"
    assert bundle.model.config.max_depth == 8


def test_train_mlp(ws, capsys):
    out = ws.root / "mlp.json"
    rc = main(
        [
            "train",
            "--model",
            "mlp",
            "--dataset",
            str(ws.dataset),
            "--features",
            str(ws.features),
            "--out",
            str(out),
            "--hidden",
            "4",
            "--max-epochs",
            "3",
        ]
    )
    assert rc == 0
    assert "trained mlp for 3 epochs" in capsys.readouterr().out
    bundle = load_model_bundle(out)
    assert bundle.model_type == "mlp"
    assert bundle.model.config.hidden_layers == (4,)


def test_train_reads_the_flags_of_its_own_model_type(ws, tmp_path, capsys):
    args = ["--dataset", str(ws.dataset), "--features", str(ws.features)]
    # a tree ignores the MLP's flags, a bad hidden layer list too
    out = tmp_path / "tree.json"
    capsys.readouterr()
    assert main(["train", "--model", "tree", *args, "--out", str(out), "--hidden", "x", "--max-depth", "4"]) == 0
    assert re.fullmatch(rf"trained tree on \d+ records; model at {re.escape(str(out))}\n", capsys.readouterr().out)
    assert load_model_bundle(out).model.config == TreeConfig(max_depth=4)
    # an MLP reads them
    out = tmp_path / "mlp.json"
    assert main(["train", "--model", "mlp", *args, "--out", str(out), "--hidden", "x"]) == 1
    assert "configuration error: bad hidden layer list 'x'" in capsys.readouterr().err
    assert main(["train", "--model", "mlp", *args, "--out", str(out), "--hidden", "3", "--max-epochs", "2"]) == 0
    want = rf"trained mlp for 2 epochs, final loss \d+\.\d{{6}}; model at {re.escape(str(out))}\n"
    assert re.fullmatch(want, capsys.readouterr().out)
    assert load_model_bundle(out).model.config == MlpConfig(hidden_layers=(3,), max_epochs=2)
    # and an output path it cannot write is reported before a bad list
    assert main(["train", "--model", "mlp", *args, "--out", str(tmp_path), "--hidden", "x"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}")


def test_train_defaults_are_the_config_dataclasses(ws, tmp_path):
    # a few records keep the default 500-epoch MLP cheap
    lines = ws.dataset.read_text(encoding="ascii").splitlines(keepends=True)
    small = tmp_path / "small.jsonl"
    small.write_text("".join(lines[:61]), encoding="ascii")
    for model, want in (("mlp", MlpConfig()), ("tree", TreeConfig())):
        out = tmp_path / f"{model}.json"
        argv = ["train", "--model", model, "--dataset", str(small), "--features", str(ws.features)]
        assert main(argv + ["--out", str(out)]) == 0
        bundle = load_model_bundle(out)
        assert bundle.model.config == want


def test_evaluate(ws, capsys):
    report_path = ws.root / "report.json"
    cdf_path = ws.root / "cdf.csv"
    rc = main(
        [
            "evaluate",
            "--model",
            str(ws.tree),
            "--dataset",
            str(ws.dataset),
            "--out",
            str(report_path),
            "--cdf",
            str(cdf_path),
        ]
    )
    assert rc == 0
    report = load_report(report_path)
    assert report.n_samples == 3111
    assert report.split == "test"
    assert report.config["label"] == "tree"
    assert cdf_path.read_text(encoding="ascii").splitlines()[0] == "error_m,fraction"
    text = capsys.readouterr().out
    assert f"n={report.n_samples}" in text
    assert "mean=" in text


def test_infer_to_stdout(ws, capsys):
    # the dataset file itself is a valid measurement input: the header is
    # skipped and each record line carries a meas list
    head = ws.root / "head.jsonl"
    head.write_text(
        "".join(ws.dataset.read_text(encoding="ascii").splitlines(keepends=True)[:5]),
        encoding="ascii",
    )
    assert main(["infer", "--model", str(ws.tree), "--input", str(head)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"x_pred", "y_pred"}
        assert np.isfinite([row["x_pred"], row["y_pred"]]).all()


def test_infer_to_file(ws, capsys):
    out = ws.root / "pred.jsonl"
    assert main(["infer", "--model", str(ws.tree), "--input", str(ws.dataset), "--out", str(out)]) == 0
    assert "wrote 3111 predictions" in capsys.readouterr().out
    assert len(out.read_text(encoding="ascii").splitlines()) == 3111


def test_sweep(tmp_path, capsys):
    spec = {
        "scenario": scenario_config_to_dict(small_scenario_config()),
        "feature_configs": [{"serving_beams": 3}],
        "model_configs": [{"type": "tree", "max_depth": 8}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="ascii")
    out_dir = tmp_path / "run"
    assert main(["sweep", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    text = capsys.readouterr().out
    assert "model" in text and "mean_m" in text
    assert "manifest at" in text


# ---------------------------------------------------------------------------
# exit codes


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["transmogrify"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_hidden_list(ws, capsys):
    rc = main(
        [
            "train",
            "--model",
            "mlp",
            "--dataset",
            str(ws.dataset),
            "--features",
            str(ws.features),
            "--out",
            str(ws.root / "x.json"),
            "--hidden",
            "a,b",
        ]
    )
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, content",
    [
        # each ended in a raw TypeError or ValueError traceback at one time
        ("sweep", "--spec", {
            "scenario": scenario_config_to_dict(small_scenario_config()),
            "feature_configs": [{"serving_beams": 3}],
            "model_configs": [{"type": "mlp", "batch_size": [1]}],
        }),
        ("train", "--features", {"serving_beams": None}),
        ("build-dataset", "--scenario", {**scenario_config_to_dict(small_scenario_config()), "area_width_m": float("nan")}),
    ],
)
def test_malformed_config_file_exits_1(ws, tmp_path, capsys, command, flag, content):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content), encoding="ascii")
    argv = [command, flag, str(path)]
    if command == "sweep":
        argv += ["--out-dir", str(tmp_path / "run")]
    elif command == "train":
        argv += ["--model", "tree", "--dataset", str(ws.dataset), "--out", str(tmp_path / "m.json")]
    else:
        argv += ["--out", str(tmp_path / "d.jsonl")]
    assert main(argv) == 1  # an escaping exception fails the test here
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "model, flag, value, key",
    [
        # each trained (or stopped as diverged, exit 3) at one time
        ("tree", "--min-impurity-decrease", "nan", "min_impurity_decrease"),
        ("tree", "--min-impurity-decrease", "inf", "min_impurity_decrease"),
        ("mlp", "--min-delta", "nan", "min_delta"),
        ("mlp", "--learning-rate", "inf", "learning_rate"),
        # ended in numpy's raw ValueError traceback at one time
        ("mlp", "--seed", "-1", "rng_seed"),
    ],
)
def test_train_refuses_non_finite_or_negative_flags(ws, tmp_path, capsys, model, flag, value, key):
    out = tmp_path / "m.json"
    argv = ["train", "--model", model, "--dataset", str(ws.dataset), "--features", str(ws.features)]
    assert main(argv + ["--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        ({"split_seed": -3}, "split_seed"),
        ({"model_configs": [{"type": "mlp", "rng_seed": -2}]}, "rng_seed"),
    ],
)
def test_sweep_refuses_negative_seeds(tmp_path, capsys, edit, key):
    # each ended in numpy's raw ValueError traceback at one time
    spec = {
        "scenario": scenario_config_to_dict(small_scenario_config()),
        "feature_configs": [{"serving_beams": 3}],
        "model_configs": [{"type": "tree", "max_depth": 4}],
        **edit,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="ascii")
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        # exited 1 only once the sweep had made the out dir
        ({"train_fraction": 1.5}, "train fraction"),
        # both arms wrote the same report, CDF and model files
        (
            {"model_configs": [{"type": "tree", "max_depth": 4, "min_impurity_decrease": d} for d in (0.0, 0.5)]},
            "s3n0_id_tree_d4_l2",
        ),
        # exited 1 only at the sweep's first block
        (
            {"feature_configs": [{"serving_beams": 3, "one_hot_ids": True, "cell_id_vocab": 0, "beam_id_vocab": -2}]},
            "one-hot vocabulary sizes must be at least 1",
        ),
    ],
    ids=["train-fraction", "shared-label", "one-hot-vocabulary"],
)
def test_sweep_refuses_a_bad_spec_before_its_out_dir(tmp_path, capsys, edit, message):
    spec = {
        "scenario": scenario_config_to_dict(small_scenario_config()),
        "feature_configs": [{"serving_beams": 3}],
        "model_configs": [{"type": "tree", "max_depth": 4}],
        **edit,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="ascii")
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "edit",
    [
        # trained a network-level model on every cell at one time
        {"cells": [0]},
        # ended in the data error "no cell has enough records" (exit 2)
        {"cells": [], "topology": "cell-specific"},
        {"cells": []},
    ],
    ids=["network-level", "empty-cell-specific", "empty-network-level"],
)
def test_sweep_refuses_a_cells_list_it_cannot_follow(tmp_path, capsys, edit):
    spec = {
        "scenario": scenario_config_to_dict(small_scenario_config()),
        "feature_configs": [{"serving_beams": 3}],
        "model_configs": [{"type": "tree", "max_depth": 4}],
        **edit,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="ascii")
    assert main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "'cells'" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    rc = main(
        ["build-dataset", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")]
    )
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_missing_dataset_file_exits_2(ws, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--model",
            "tree",
            "--dataset",
            str(tmp_path / "nope.jsonl"),
            "--features",
            str(ws.features),
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_corrupt_dataset_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "something-else"}\n', encoding="ascii")
    rc = main(
        [
            "train",
            "--model",
            "tree",
            "--dataset",
            str(bad),
            "--features",
            str(ws.features),
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_garbage_model_file_exits_1(ws, tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{}", encoding="ascii")
    rc = main(
        [
            "evaluate",
            "--model",
            str(bad),
            "--dataset",
            str(ws.dataset),
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_infer_with_one_output_mlp_exits_1(ws, tmp_path, capsys):
    # a last layer of width 1 used to broadcast into both coordinates
    model = tmp_path / "mlp.json"
    args = ["--dataset", str(ws.dataset), "--features", str(ws.features), "--out", str(model)]
    assert main(["train", "--model", "mlp", *args, "--hidden", "4", "--max-epochs", "1"]) == 0
    blob = json.loads(model.read_text(encoding="ascii"))
    blob["mlp"]["weights"][-1] = [row[:1] for row in blob["mlp"]["weights"][-1]]
    blob["mlp"]["biases"][-1] = blob["mlp"]["biases"][-1][:1]
    model.write_text(json.dumps(blob), encoding="ascii")
    head = tmp_path / "head.jsonl"
    head.write_text("".join(ws.dataset.read_text(encoding="ascii").splitlines(keepends=True)[1:4]))
    capsys.readouterr()
    rc = main(["infer", "--model", str(model), "--input", str(head)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "weights[1]" in captured.err
    assert captured.out == ""


def test_infer_with_truncated_normalizer_exits_1(ws, tmp_path, capsys):
    # used to load, then fail at predict time as a data error (exit 2)
    model = tmp_path / "mlp.json"
    args = ["--dataset", str(ws.dataset), "--features", str(ws.features), "--out", str(model)]
    assert main(["train", "--model", "mlp", *args, "--hidden", "4", "--max-epochs", "1"]) == 0
    blob = json.loads(model.read_text(encoding="ascii"))
    blob["mlp"]["normalizer"]["feature_mean"] = blob["mlp"]["normalizer"]["feature_mean"][:2]
    model.write_text(json.dumps(blob), encoding="ascii")
    head = tmp_path / "head.jsonl"
    head.write_text("".join(ws.dataset.read_text(encoding="ascii").splitlines(keepends=True)[1:4]))
    capsys.readouterr()
    rc = main(["infer", "--model", str(model), "--input", str(head)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "feature_mean" in captured.err
    assert captured.out == ""


def test_infer_refuses_a_prediction_that_overflows(ws, tmp_path, capsys):
    # finite weights and biases of 1e308 load, but the last layer's sums
    # overflow: infer used to write {"x_pred":Infinity,...} and exit 0, and
    # infer and evaluate printed numpy's overflow warnings before the error
    model = tmp_path / "mlp.json"
    args = ["--dataset", str(ws.dataset), "--features", str(ws.features), "--out", str(model)]
    assert main(["train", "--model", "mlp", *args, "--hidden", "4", "--max-epochs", "1"]) == 0
    blob = json.loads(model.read_text(encoding="ascii"))
    blob["mlp"]["weights"][-1] = [[1e308] * len(row) for row in blob["mlp"]["weights"][-1]]
    blob["mlp"]["biases"][-1] = [1e308] * len(blob["mlp"]["biases"][-1])
    model.write_text(json.dumps(blob), encoding="ascii")
    head = tmp_path / "head.jsonl"
    head.write_text("".join(ws.dataset.read_text(encoding="ascii").splitlines(keepends=True)[:4]))
    out = tmp_path / "pred.jsonl"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["infer", "--model", str(model), "--input", str(head), "--out", str(out)])
        captured = capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--dataset", str(head), "--out", str(tmp_path / "r.json")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc == 2
    assert "data error: prediction is not finite" in captured.err
    assert f"({head}, line 2)" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["mlp"], {}, 1, None], ids=["list", "object", "number", "null"])
def test_a_model_type_that_is_no_name_exits_1(ws, tmp_path, capsys, kind):
    # a lookup in the model type table must not end in TypeError: unhashable type
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "scenario": str(ws.scenario), "feature_configs": [{"serving_beams": 3}], "model_configs": [{"type": kind}]
    }), encoding="ascii")
    model = tmp_path / "model.json"
    blob = json.loads(ws.tree.read_text(encoding="ascii"))
    blob["model_type"] = kind
    model.write_text(json.dumps(blob), encoding="ascii")
    for argv in (
        ["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "run")],
        ["infer", "--model", str(model), "--input", str(ws.dataset)],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "unknown model type" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_a_bundle_with_unknown_keys_exits_1(ws, tmp_path, capsys):
    model = tmp_path / "model.json"
    blob = json.loads(ws.tree.read_text(encoding="ascii"))
    blob.update(knn={"k": 3}, extra=1)
    model.write_text(json.dumps(blob), encoding="ascii")
    for argv in (
        ["evaluate", "--model", str(model), "--dataset", str(ws.dataset), "--out", str(tmp_path / "report.json")],
        ["infer", "--model", str(model), "--input", str(ws.dataset)],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "['extra', 'knn']" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_missing_infer_input_exits_2(ws, tmp_path, capsys):
    rc = main(["infer", "--model", str(ws.tree), "--input", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


_MALFORMED = [("x", "abc"), ("y", "abc"), ("los", "yes"), ("meas", [[0, 1, float("nan")]])]


@pytest.mark.parametrize("field, value", _MALFORMED)
def test_malformed_infer_line_exits_2(ws, tmp_path, capsys, field, value):
    record = json.loads(ws.dataset.read_text(encoding="ascii").splitlines()[1])
    record[field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n", encoding="ascii")
    rc = main(["infer", "--model", str(ws.tree), "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert f"field '{field}'" in err


@pytest.mark.parametrize("field", ["x", "y"])
def test_train_on_non_finite_label_exits_2(ws, tmp_path, capsys, field):
    lines = ws.dataset.read_text(encoding="ascii").splitlines()
    record = json.loads(lines[3])
    record[field] = float("nan")
    lines[3] = json.dumps(record)  # json writes a NaN literal
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc = main(
        [
            "train",
            "--model",
            "mlp",
            "--dataset",
            str(bad),
            "--features",
            str(ws.features),
            "--out",
            str(tmp_path / "x.json"),
            "--max-epochs",
            "2",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "line 4" in err and f"field '{field}'" in err
    assert not (tmp_path / "x.json").exists()


def test_infer_names_the_line_that_cannot_fill_the_features(ws, tmp_path, capsys):
    # header, two full reports, then one that keeps 2 serving beams
    # where the model needs 3
    lines = ws.dataset.read_text(encoding="ascii").splitlines()[:4]
    record = json.loads(lines[3])
    serving = record["meas"][0][0]
    record["meas"] = [m for m in record["meas"] if m[0] == serving][:2]
    lines[3] = json.dumps(record)
    bad = tmp_path / "short.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc = main(["infer", "--model", str(ws.tree), "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "record has 2 serving-cell measurements, need 3" in err
    assert str(bad) in err and "line 4" in err


@pytest.fixture(scope="module")
def one_hot_tree(ws):
    """A tree on one-hot ids of the single-site dataset: cell 0 and beams 0..31."""
    features = ws.root / "one_hot.json"
    fc = {"serving_beams": 2, "neighbor_beams": 0, "one_hot_ids": True, "cell_id_vocab": 1, "beam_id_vocab": 32}
    features.write_text(json.dumps(fc), encoding="ascii")
    tree = ws.root / "one_hot_tree.json"
    argv = ["train", "--model", "tree", "--dataset", str(ws.dataset), "--features", str(features)]
    assert main(argv + ["--out", str(tree), "--max-depth", "4"]) == 0
    return tree


_BAD_ID = '{"meas": [[0, 1, -60.0], [0, 40, -61.0]]}'
_SHORT = '{"meas": [[0, 1, -60.0]]}'


_AFTER_A_GOOD_LINE = pytest.mark.parametrize(
    "after, message",
    [
        ([_BAD_ID], "beam id 40 outside one-hot vocabulary of size 32"),
        ([_BAD_ID, _SHORT], "beam id 40 outside one-hot vocabulary of size 32"),
        ([_SHORT, _BAD_ID], "record has 1 serving-cell measurements, need 2"),
    ],
    ids=["bad-id", "bad-id-first", "short-first"],
)


@_AFTER_A_GOOD_LINE
def test_infer_names_the_first_line_with_an_id_outside_the_one_hot_vocabulary(
    ws, one_hot_tree, tmp_path, capsys, after, message
):
    # was a configuration error (exit 1) that named no line
    good = ws.dataset.read_text(encoding="ascii").splitlines()[1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([good, *after]) + "\n", encoding="ascii")
    rc = main(["infer", "--model", str(one_hot_tree), "--input", str(bad), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and message in err
    assert str(bad) in err and "line 2" in err
    assert ("field 'meas'" in err) == ("beam id" in message)
    assert not (tmp_path / "p.jsonl").exists()


_FIRST_BAD_LINE = [
    pytest.mark.parametrize(
        "first, second", [(_SHORT, _BAD_ID), (_BAD_ID, _SHORT)], ids=["short-first", "bad-id-first"]
    ),
    pytest.mark.parametrize("at", [0, 1, 511, 700, 1022, 1023]),
]


@_FIRST_BAD_LINE[0]
@_FIRST_BAD_LINE[1]
def test_infer_names_the_first_bad_line_anywhere_in_a_full_chunk(ws, one_hot_tree, tmp_path, capsys, first, second, at):
    # a chunk of 1,024 reports whose first bad one is found among the
    # prefixes of the chunk: the later bad line, of the other kind, is
    # not the one named, nor is one in the next chunk
    good = ws.dataset.read_text(encoding="ascii").splitlines()[1]
    lines = [good] * 1100
    lines[at] = first
    for later in {(at + 1024) // 2, 1050} - {at}:
        lines[later] = second
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc = main(["infer", "--model", str(one_hot_tree), "--input", str(bad), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    message = "beam id 40 outside one-hot vocabulary" if first == _BAD_ID else "record has 1 serving-cell measurements"
    assert message in err and re.search(rf"line {at + 1}\b", err)
    assert not (tmp_path / "p.jsonl").exists()


# ---------------------------------------------------------------------------
# the infer error tests above with every file in two parts: a worker
# reads and extracts the lines after the cut (the last line of a 4-line
# file, from about line 550 of the 1,100-line one), and a fault in either
# part sends the file back to one process, which names the same line,
# field and message. A file of one line stays one part


def test_in_two_parts_infer_refuses_a_prediction_that_overflows(ws, tmp_path, capsys, forced_parts):
    forced_parts(2)
    test_infer_refuses_a_prediction_that_overflows(ws, tmp_path, capsys)
    no_child_left()


@pytest.mark.parametrize("field, value", _MALFORMED)
def test_in_two_parts_malformed_infer_line_exits_2(ws, tmp_path, capsys, forced_parts, field, value):
    forced_parts(2)
    test_malformed_infer_line_exits_2(ws, tmp_path, capsys, field, value)
    no_child_left()


def test_in_two_parts_infer_names_the_line_that_cannot_fill_the_features(ws, tmp_path, capsys, forced_parts):
    workers = forced_parts(2)
    test_infer_names_the_line_that_cannot_fill_the_features(ws, tmp_path, capsys)
    assert workers == [True]
    no_child_left()


@_AFTER_A_GOOD_LINE
def test_in_two_parts_infer_names_the_first_line_with_an_id_outside_the_one_hot_vocabulary(
    ws, one_hot_tree, tmp_path, capsys, forced_parts, after, message
):
    workers = forced_parts(2)
    test_infer_names_the_first_line_with_an_id_outside_the_one_hot_vocabulary(
        ws, one_hot_tree, tmp_path, capsys, after, message
    )
    assert workers == [True]
    no_child_left()


@_FIRST_BAD_LINE[0]
@_FIRST_BAD_LINE[1]
def test_in_two_parts_infer_names_the_first_bad_line_anywhere_in_a_full_chunk(
    ws, one_hot_tree, tmp_path, capsys, forced_parts, first, second, at
):
    workers = forced_parts(2)
    test_infer_names_the_first_bad_line_anywhere_in_a_full_chunk(ws, one_hot_tree, tmp_path, capsys, first, second, at)
    assert workers == [True]
    no_child_left()


def test_train_with_a_one_hot_vocabulary_too_small_exits_1(ws, tmp_path, capsys):
    features = tmp_path / "one_hot.json"
    fc = {"serving_beams": 2, "one_hot_ids": True, "cell_id_vocab": 1, "beam_id_vocab": 8}
    features.write_text(json.dumps(fc), encoding="ascii")
    out = tmp_path / "tree.json"
    argv = ["train", "--model", "tree", "--dataset", str(ws.dataset), "--features", str(features)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "outside one-hot vocabulary of size 8" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "infer"])
def test_a_bundle_with_a_huge_one_hot_vocabulary_exits_1(ws, tmp_path, capsys, command):
    # feature_length 2**40 + 33, matched by the tree's n_features: loading
    # passed, and extracting one report ended in a raw MemoryError
    blob = json.loads(ws.tree.read_text(encoding="ascii"))
    blob["feature_config"] = {"serving_beams": 1, "one_hot_ids": True, "cell_id_vocab": 2**40, "beam_id_vocab": 32}
    blob["tree"]["n_features"] = 2**40 + 33
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(blob), encoding="ascii")
    out = tmp_path / "out"
    flag = {"evaluate": "--dataset", "infer": "--input"}[command]
    assert main([command, "--model", str(model), flag, str(ws.dataset), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "cell_id_vocab must be at most 1008" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_site_on_a_grid_point_exits_1_before_the_sweep(tmp_path, capsys):
    # the single-site preset's site, at (0, 25), moved down to UE height
    # onto a grid point: build-dataset ended in a raw ValueError
    config = single_site_config()
    scenario = tmp_path / "scenario.json"
    save_scenario_config(replace(config, sites=(replace(config.sites[0], z=UE_HEIGHT_M),)), scenario)
    out = tmp_path / "dataset.jsonl"
    assert main(["build-dataset", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "site at (0.0, 25.0, 1.5)" in err and "Traceback" not in err
    assert not out.exists()
    spec = tmp_path / "spec.json"
    model = [{"type": "tree", "max_depth": 4}]
    spec.write_text(json.dumps({"scenario": "scenario.json", "feature_configs": [{}], "model_configs": model}))
    assert main(["sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "run")]) == 1
    assert "site at (0.0, 25.0, 1.5)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_divergent_training_exits_3(ws, tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = main(
            [
                "train",
                "--model",
                "mlp",
                "--dataset",
                str(ws.dataset),
                "--features",
                str(ws.features),
                "--out",
                str(tmp_path / "x.json"),
                "--hidden",
                "4",
                "--max-epochs",
                "2",
                "--learning-rate",
                "1e160",
            ]
        )
    assert rc == 3
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["train", "infer"])
def test_json_nested_past_the_parser_stack_exits_2(ws, tmp_path, capsys, command):
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "\n", encoding="ascii")
    if command == "train":
        argv = ["train", "--model", "tree", "--dataset", str(deep), "--features", str(ws.features)]
        argv += ["--out", str(tmp_path / "x.json")]
    else:
        argv = ["infer", "--model", str(ws.tree), "--input", str(deep)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "line 1" in err


def _writer_commands(ws, out):
    """Every command that writes a file, with `out` as its output path."""
    spec = ws.root / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "scenario": scenario_config_to_dict(small_scenario_config()),
                "feature_configs": [{"serving_beams": 3}],
                "model_configs": [{"type": "tree", "max_depth": 4}],
            }
        ),
        encoding="ascii",
    )
    model, data = str(ws.tree), str(ws.dataset)
    return {
        "generate-scenario": ["generate-scenario", "--out", out],
        "build-dataset": ["build-dataset", "--scenario", str(ws.scenario), "--out", out],
        "train": ["train", "--model", "tree", "--dataset", data, "--features", str(ws.features), "--out", out],
        "evaluate": ["evaluate", "--model", model, "--dataset", data, "--out", out],
        "evaluate --cdf": ["evaluate", "--model", model, "--dataset", data, "--out", str(ws.root / "r.json")]
        + ["--cdf", out],
        "infer": ["infer", "--model", model, "--input", data, "--out", out],
        "sweep": ["sweep", "--spec", str(spec), "--out-dir", out],
    }


@pytest.mark.parametrize(
    "command, target",
    [
        ("generate-scenario", "missing-dir"),
        ("build-dataset", "missing-dir"),
        ("train", "directory"),  # the bundle writer makes missing parents
        ("evaluate", "missing-dir"),
        ("evaluate --cdf", "missing-dir"),
        ("infer", "missing-dir"),
        ("sweep", "file"),
    ],
)
def test_unwritable_output_exits_1(ws, tmp_path, capsys, command, target):
    # a file under a missing directory, a directory where a file goes, or
    # a file where the sweep's output directory goes
    paths = {"missing-dir": tmp_path / "nonexistent" / "out", "directory": tmp_path, "file": tmp_path / "a-file"}
    out = paths[target]
    if target == "file":
        out.write_text("", encoding="ascii")
    argv = _writer_commands(ws, str(out))[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(out) in err


def test_evaluate_with_unwritable_cdf_writes_no_report(ws, tmp_path, capsys):
    report, cdf = tmp_path / "r.json", tmp_path / "nonexistent" / "c.csv"
    argv = ["evaluate", "--model", str(ws.tree), "--dataset", str(ws.dataset), "--out", str(report)]
    assert main(argv + ["--cdf", str(cdf)]) == 1
    assert str(cdf) in capsys.readouterr().err
    assert not report.exists()


def test_build_dataset_checks_out_before_the_sweep(ws, tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("build_dataset ran before --out was checked")

    monkeypatch.setattr("beamprint.cli.build_dataset", no_sweep)
    out = tmp_path / "nonexistent" / "d.jsonl"
    assert main(["build-dataset", "--scenario", str(ws.scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(out) in err
