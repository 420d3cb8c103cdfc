"""Property tests of the CLI over arbitrary dataset and measurement files:
`train`, `evaluate` and `infer` either succeed or exit 1-3, and never
raise."""

import json

import pytest
from hypothesis import given, settings
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
