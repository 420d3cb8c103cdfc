"""Property tests of the config codec over every config dataclass."""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamprint.configfile import from_dict, to_dict
from beamprint.dtree import TreeConfig
from beamprint.errors import ConfigurationError
from beamprint.features import (
    MAX_BEAM_ID_VOCAB,
    MAX_CELL_ID_VOCAB,
    MAX_SERVING_BEAMS,
    TOPOLOGY_CELL,
    TOPOLOGY_NETWORK,
    FeatureConfig,
)
from beamprint.mlp import _ACTIVATIONS, MlpConfig
from beamprint.radio import AntennaElementParams, CodebookConfig, RadioConfig
from beamprint.scenario import BuildingFootprint, ScenarioConfig, Sector, Site

CONFIG_CLASSES = [
    ScenarioConfig,
    Site,
    Sector,
    BuildingFootprint,
    RadioConfig,
    AntennaElementParams,
    CodebookConfig,
    FeatureConfig,
    MlpConfig,
    TreeConfig,
]

deterministic = settings(derandomize=True, deadline=None, max_examples=60)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _keyed_fields(cls):
    hints = typing.get_type_hints(cls)
    return [(f.metadata.get("key", f.name), f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def _inner(tp):
    """X of Optional[X], or None when tp is not Optional."""
    args = typing.get_args(tp)
    if type(None) in args:
        return next(a for a in args if a is not type(None))
    return None


def fuzz(tp):
    """Arbitrary JSON, shaped like tp often enough to reach nested keys."""
    if _inner(tp) is not None:
        return fuzz(_inner(tp))
    if typing.get_origin(tp) is tuple:
        return JSON_VALUES | st.lists(fuzz(typing.get_args(tp)[0]), max_size=3)
    if dataclasses.is_dataclass(tp):
        keyed = {key: fuzz(hint) for key, _, hint in _keyed_fields(tp)}
        shaped = st.fixed_dictionaries({}, optional={**keyed, "bogus": JSON_VALUES})
        return JSON_VALUES | shaped
    return JSON_VALUES


@st.composite
def _feature_configs(draw):
    topology = draw(st.sampled_from((TOPOLOGY_NETWORK, TOPOLOGY_CELL)))
    one_hot = draw(st.booleans())
    unused = st.none() | st.integers()
    cell_vocab = st.integers(1, MAX_CELL_ID_VOCAB) if one_hot else unused
    beam_vocab = st.integers(1, MAX_BEAM_ID_VOCAB) if one_hot else unused
    return FeatureConfig(
        n_serving_beams=draw(st.integers(1, MAX_SERVING_BEAMS)),
        n_neighbor_beams=draw(st.integers(0, 3)),
        # a cell-specific config never carries the serving cell id
        include_serving_cell_id=topology == TOPOLOGY_NETWORK and draw(st.booleans()),
        topology=topology,
        one_hot_ids=one_hot,
        cell_id_vocab=draw(cell_vocab),
        beam_id_vocab=draw(beam_vocab),
    )


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_BETA = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)

# the configs that check their fields when made: drawn inside their
# rules, edge values (0 neighbors, a beta or min_delta of 0) included
RULED = {
    FeatureConfig: _feature_configs(),
    MlpConfig: st.builds(
        MlpConfig,
        hidden_layers=st.lists(st.integers(min_value=1), min_size=1, max_size=3).map(tuple),
        activation=st.sampled_from(_ACTIVATIONS),
        learning_rate=_POSITIVE,
        beta1=_BETA,
        beta2=_BETA,
        epsilon=_POSITIVE,
        batch_size=st.integers(min_value=1),
        max_epochs=st.integers(min_value=1),
        patience=st.integers(min_value=1),
        min_delta=_NON_NEGATIVE,
        rng_seed=st.integers(min_value=0),
    ),
    TreeConfig: st.builds(
        TreeConfig,
        max_depth=st.integers(min_value=1),
        min_samples_leaf=st.integers(min_value=1),
        min_impurity_decrease=_NON_NEGATIVE,
    ),
}


def valid(tp):
    """Configs the codec must carry through JSON text unchanged."""
    if tp in RULED:
        return RULED[tp]
    if _inner(tp) is not None:
        return st.none() | valid(_inner(tp))
    if typing.get_origin(tp) is tuple:
        return st.lists(valid(typing.get_args(tp)[0]), max_size=3).map(tuple)
    if dataclasses.is_dataclass(tp):
        return st.builds(tp, **{name: valid(hint) for _, name, hint in _keyed_fields(tp)})
    return {
        int: st.integers(),
        float: st.floats(allow_nan=False, allow_infinity=False),
        bool: st.booleans(),
        str: st.text(max_size=8),
    }[tp]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
@deterministic
@given(data=st.data())
def test_arbitrary_json_decodes_or_is_a_configuration_error(cls, data):
    d = data.draw(fuzz(cls))
    try:
        config = from_dict(cls, d, "config")
    except ConfigurationError:
        return
    assert isinstance(config, cls)
    # what decodes re-encodes to a document that decodes to the same config
    assert from_dict(cls, to_dict(config), "config") == config


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
@deterministic
@given(data=st.data())
def test_round_trip_through_json_text(cls, data):
    config = data.draw(valid(cls))
    assert from_dict(cls, json.loads(json.dumps(to_dict(config))), "config") == config
