"""beamprint: beam-RSRP fingerprint positioning laboratory.

Builds synthetic urban mmWave scenarios, sweeps beam-level RSRP
fingerprints over a UE grid, trains neural-network and regression-tree
position estimators on them, and evaluates Euclidean error statistics.
"""

from .errors import (
    BeamprintError,
    ConfigurationError,
    DataError,
    DatasetParseError,
    FeatureExtractionError,
    TrainingDivergenceError,
)
from .scenario import (
    BuildingFootprint,
    Scenario,
    ScenarioConfig,
    Sector,
    Site,
    build_scenario,
    default_scenario_config,
    load_scenario_config,
    save_scenario_config,
    single_site_config,
)
from .radio import (
    AntennaElementParams,
    Beam,
    BeamCodebook,
    CodebookConfig,
    RadioConfig,
    beam_gain_db,
    element_gain_db,
    path_loss_db,
    rsrp_cube,
)
from .fingerprint import (
    Dataset,
    build_dataset,
    cell_rows,
    load_dataset,
    los_filter,
    los_rows,
    partition_by_cell,
    save_dataset,
    sweep_blocks,
)
from .features import (
    FeatureAccumulator,
    FeatureConfig,
    FeatureSet,
    FeatureTable,
    NormalizationStats,
    extract,
    extract_features,
    feature_length,
    fit_normalizer,
)
from .mlp import MlpConfig, MlpModel, TrainReport, forward, init_model, predict, train
from .dtree import TreeConfig, TreeModel, fit, predict_tree
from .evaluate import EvalReport, compare, euclidean_errors, summarize
from .pipeline import (
    ExperimentSpec,
    ModelBundle,
    ModelSpec,
    infer_record,
    load_model_bundle,
    replay,
    run_experiment,
    save_model_bundle,
    split_dataset,
    train_model,
)

__version__ = "0.1.0"
