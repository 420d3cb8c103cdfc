"""The config codec: the bytes it writes and the inputs it refuses."""

import copy
import hashlib
import json
import re

import pytest

from beamprint.configfile import from_dict, load_object, to_dict
from beamprint.errors import ConfigurationError
from beamprint.features import feature_config_from_dict
from beamprint.pipeline import experiment_spec_from_dict, experiment_spec_to_dict, model_spec_from_dict
from beamprint.scenario import ScenarioConfig, build_scenario, default_scenario_config, single_site_config

from conftest import small_scenario_config


# ---------------------------------------------------------------------------
# pins taken before the hand-written to/from-dict pairs were replaced by
# the codec; they depend on the codec and json only, not on numpy kernels


@pytest.mark.parametrize(
    "make, digest",
    [
        (default_scenario_config, "2c6e09b350344ef8bd794afeae64f6781f6b04f86fcd7c6e0a36956c6804cc12"),
        (single_site_config, "ca8a928116d7663e13212aea0b610e8541802ce230fee84695221ce88922219f"),
        (small_scenario_config, "c3f261c5926232e2469a21c8af554f4926af0fa91cc222827d44a3d57092e136"),
    ],
)
def test_fingerprint_hash_pinned(make, digest):
    assert build_scenario(make()).fingerprint_hash == digest
    # and again after a trip through the file format
    back = from_dict(ScenarioConfig, json.loads(json.dumps(to_dict(make()))), "scenario config")
    assert build_scenario(back).fingerprint_hash == digest


# every key set, and set to a value other than its default; some float
# fields are given as JSON integers, which decode to floats
FULL_SPEC = {
    "scenario": {
        "area_width_m": 80,
        "area_height_m": 50.5,
        "grid_resolution_m": 2.5,
        "carrier_frequency_hz": 3.5e9,
        "rng_seed": 4,
        "sites": [
            {
                "x": 0,
                "y": 20.0,
                "z": 12.5,
                "sectors": [
                    {"boresight_azimuth_deg": 10.0, "cell_id": 5, "mechanical_downtilt_deg": 7.5, "tx_power_dbm": 27},
                    {"boresight_azimuth_deg": 130.0, "cell_id": 9, "mechanical_downtilt_deg": 3.0, "tx_power_dbm": 33.5},
                ],
            },
            {
                "x": 80.0,
                "y": 20.0,
                "z": 8.0,
                "sectors": [
                    {"boresight_azimuth_deg": 190.0, "cell_id": 2, "mechanical_downtilt_deg": 6.0, "tx_power_dbm": 31.0}
                ],
            },
        ],
        "buildings": [{"min_x": 30.0, "min_y": 10.0, "max_x": 40, "max_y": 30.0, "height_m": 12.0}],
        "radio": {
            "element": {
                "max_gain_dbi": 6.5,
                "azimuth_3db_beamwidth_deg": 70.0,
                "elevation_3db_beamwidth_deg": 60.0,
                "front_to_back_db": 25.0,
            },
            "codebook": {
                "n_azimuth_beams": 8,
                "n_elevation_beams": 3,
                "azimuth_span_deg": 100.0,
                "elevation_span_deg": 20.0,
                "beam_azimuth_bw_deg": 12.0,
                "beam_elevation_bw_deg": 15.0,
                "array_gain_db": 21.0,
                "sidelobe_floor_db": 20.0,
            },
            "shadowing_sigma_db": 2.0,
        },
    },
    "feature_configs": [
        {
            "serving_beams": 2,
            "neighbor_beams": 1,
            "cell_id_feature": False,
            "topology": "cell-specific",
            "one_hot_ids": True,
            "cell_id_vocab": 10,
            "beam_id_vocab": 24,
        }
    ],
    "model_configs": [
        {
            "type": "mlp",
            "hidden_layers": [16, 8],
            "activation": "relu",
            "learning_rate": 0.01,
            "beta1": 0.8,
            "beta2": 0.99,
            "epsilon": 1e-7,
            "batch_size": 16,
            "max_epochs": 40,
            "patience": 5,
            "min_delta": 0.001,
            "rng_seed": 3,
        },
        {"type": "tree", "max_depth": 9, "min_samples_leaf": 4, "min_impurity_decrease": 0.25},
    ],
    "topology": "cell-specific",
    "cells": [2, 5],
    "train_fraction": 0.75,
    "split_seed": 11,
    "dataset_seed": 13,
    "min_cell_records": 20,
}


def test_experiment_spec_digest_pinned():
    spec = experiment_spec_from_dict(copy.deepcopy(FULL_SPEC))
    blob = json.dumps(experiment_spec_to_dict(spec), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "7f5199618935222be15dc03e5a4ec9259425ca50805d8ba39a7c7cc0ccd221f3"
    )
    assert experiment_spec_from_dict(json.loads(blob)) == spec


# ---------------------------------------------------------------------------
# refused inputs: each names the key path of the fault


def _scenario():
    return to_dict(small_scenario_config())


def _decode_scenario(d):
    return from_dict(ScenarioConfig, d, "scenario config")


def _spec(**edits):
    d = {
        "scenario": _scenario(),
        "feature_configs": [{"serving_beams": 3}],
        "model_configs": [{"type": "tree"}],
    }
    d.update(edits)
    return d


def _edit(d, path, value):
    """d with d[path[0]]...[path[-1]] set to value (deleted when value is
    the _DELETE marker)."""
    d = copy.deepcopy(d)
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d


_DELETE = object()
_NAN = float("nan")

# name -> (decoder, malformed input, key path the message must name)
REFUSED = {
    "scenario NaN width": (
        _decode_scenario, _edit(_scenario(), ["area_width_m"], _NAN), "scenario config.area_width_m"
    ),
    "scenario infinite height": (
        _decode_scenario, _edit(_scenario(), ["area_height_m"], float("inf")), "scenario config.area_height_m"
    ),
    "scenario true rng_seed": (
        _decode_scenario, _edit(_scenario(), ["rng_seed"], True), "scenario config.rng_seed"
    ),
    "scenario fractional rng_seed": (
        _decode_scenario, _edit(_scenario(), ["rng_seed"], 2.9), "scenario config.rng_seed"
    ),
    "scenario string tx power": (
        _decode_scenario,
        _edit(_scenario(), ["sites", 0, "sectors", 1, "tx_power_dbm"], "30"),
        "scenario config.sites[0].sectors[1].tx_power_dbm",
    ),
    "scenario string cell id": (
        _decode_scenario,
        _edit(_scenario(), ["sites", 1, "sectors", 0, "cell_id"], "2"),
        "scenario config.sites[1].sectors[0].cell_id",
    ),
    "unknown key in a site": (
        _decode_scenario, _edit(_scenario(), ["sites", 0, "height"], 12.0), "scenario config.sites[0] has unknown"
    ),
    "unknown key in a sector": (
        _decode_scenario,
        _edit(_scenario(), ["sites", 0, "sectors", 1, "power"], 30.0),
        "scenario config.sites[0].sectors[1] has unknown",
    ),
    "unknown key in a building": (
        _decode_scenario,
        _edit(_scenario(), ["buildings", 0, "floors"], 4),
        "scenario config.buildings[0] has unknown",
    ),
    "unknown key in the codebook": (
        _decode_scenario,
        _edit(_scenario(), ["radio", "codebook", "bogus"], 1),
        "scenario config.radio.codebook has unknown",
    ),
    "missing area width": (
        _decode_scenario, _edit(_scenario(), ["area_width_m"], _DELETE), "scenario config is missing"
    ),
    "missing site x": (
        _decode_scenario, _edit(_scenario(), ["sites", 0, "x"], _DELETE), "scenario config.sites[0] is missing"
    ),
    "missing sector azimuth": (
        _decode_scenario,
        _edit(_scenario(), ["sites", 1, "sectors", 0, "boresight_azimuth_deg"], _DELETE),
        "scenario config.sites[1].sectors[0] is missing",
    ),
    "missing building height": (
        _decode_scenario,
        _edit(_scenario(), ["buildings", 0, "height_m"], _DELETE),
        "scenario config.buildings[0] is missing",
    ),
    "sites not a list": (_decode_scenario, _edit(_scenario(), ["sites"], {}), "scenario config.sites"),
    "site not an object": (_decode_scenario, _edit(_scenario(), ["sites", 0], 5), "scenario config.sites[0]"),
    "null serving beams": (feature_config_from_dict, {"serving_beams": None}, "feature config.serving_beams"),
    "string cell id feature": (
        feature_config_from_dict, {"cell_id_feature": "false"}, "feature config.cell_id_feature"
    ),
    "numeric topology": (feature_config_from_dict, {"topology": 1}, "feature config.topology"),
    "list batch size": (
        model_spec_from_dict, {"type": "mlp", "batch_size": [1]}, "model config.batch_size"
    ),
    "string hidden layers": (
        model_spec_from_dict, {"type": "mlp", "hidden_layers": "64"}, "model config.hidden_layers"
    ),
    "float hidden width": (
        model_spec_from_dict, {"type": "mlp", "hidden_layers": [64.0]}, "model config.hidden_layers[0]"
    ),
    "NaN learning rate": (
        model_spec_from_dict, {"type": "mlp", "learning_rate": _NAN}, "model config.learning_rate"
    ),
    "true mlp seed": (model_spec_from_dict, {"type": "mlp", "rng_seed": True}, "model config.rng_seed"),
    "fractional max depth": (
        model_spec_from_dict, {"type": "tree", "max_depth": 2.9}, "model config.max_depth"
    ),
    "spec batch size list": (
        experiment_spec_from_dict,
        _spec(model_configs=[{"type": "tree"}, {"type": "mlp", "batch_size": [1]}]),
        "experiment spec.model_configs[1].batch_size",
    ),
    "spec string train fraction": (
        experiment_spec_from_dict, _spec(train_fraction="0.9"), "experiment spec.train_fraction"
    ),
    "spec float split seed": (experiment_spec_from_dict, _spec(split_seed=7.0), "experiment spec.split_seed"),
    "spec true dataset seed": (
        experiment_spec_from_dict, _spec(dataset_seed=True), "experiment spec.dataset_seed"
    ),
    "spec feature configs not a list": (
        experiment_spec_from_dict, _spec(feature_configs={"serving_beams": 3}), "experiment spec.feature_configs"
    ),
    "spec feature config not an object": (
        experiment_spec_from_dict, _spec(feature_configs=[3]), "experiment spec.feature_configs[0]"
    ),
    "spec string serving beams": (
        experiment_spec_from_dict,
        _spec(feature_configs=[{"serving_beams": "3"}]),
        "experiment spec.feature_configs[0].serving_beams",
    ),
    "spec inline scenario NaN": (
        experiment_spec_from_dict,
        _spec(scenario=_edit(_scenario(), ["sites", 0, "y"], _NAN)),
        "experiment spec.scenario.sites[0].y",
    ),
    "spec true cell id": (experiment_spec_from_dict, _spec(cells=[True]), "'cells'"),
    "spec not an object": (experiment_spec_from_dict, None, "experiment spec must be"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_malformed_config_refused(case):
    decoder, d, where = REFUSED[case]
    with pytest.raises(ConfigurationError, match=re.escape(where)):
        decoder(d)


def test_missing_keys_take_the_dataclass_defaults():
    d = _scenario()
    for key in ("grid_resolution_m", "carrier_frequency_hz", "rng_seed", "radio"):
        del d[key]
    del d["sites"][0]["sectors"][0]["tx_power_dbm"]
    assert _decode_scenario(d) == small_scenario_config()


def test_float_fields_store_floats():
    d = _edit(_scenario(), ["area_width_m"], 60)
    got = _decode_scenario(d)
    assert type(got.area_width_m) is float and got == small_scenario_config()


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", "{bad json", '{"topology": "r\u00e9seau"}', "[" * 100_000 + "]" * 100_000],
    ids=["not an object", "bad JSON", "non-ASCII", "nested past the parser's stack"],
)
def test_load_object_refuses_unreadable_files(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match="feature config"):
        load_object(path, "feature config")
