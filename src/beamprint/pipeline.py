"""Experiment orchestration: dataset splits, sweeps over feature and
model configs, report emission, run manifests, and inference.

A sweep is driven by an experiment spec (JSON). Every source of
randomness is a named seed in the spec, so rerunning a spec (or the
manifest written next to its outputs) reproduces every report byte for
byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union, get_type_hints

import numpy as np

from . import dtree, mlp
from .configfile import decode, from_dict, load_object, to_dict
from .errors import ConfigurationError, DataError, DatasetParseError, FeatureExtractionError
from .evaluate import Comparison, EvalReport, compare, euclidean_errors, summarize, write_cdf_csv, write_report
# extract_features, build_dataset, los_filter, partition_by_cell and
# parse_measurement_line stay importable from here: perfbench's layer
# table wraps them in this module
from .features import (
    OUTSIDE_VOCABULARY,
    TOPOLOGY_CELL,
    TOPOLOGY_NETWORK,
    FeatureAccumulator,
    FeatureConfig,
    FeatureSet,
    extract,
    extract_features,  # noqa: F401
    feature_config_from_dict,
    feature_length,
    fit_normalizer,
    shortfall,
)
from .fingerprint import (
    Block,
    Dataset,
    _block_lines,
    _servable,
    build_dataset,  # noqa: F401
    cell_rows,
    los_filter,  # noqa: F401
    parse_measurement_line,
    partition_by_cell,  # noqa: F401
    sweep_blocks,
)
from .scenario import ScenarioConfig, build_scenario, grid_xy, load_scenario_config

logger = logging.getLogger(__name__)

_MANIFEST_NAME = "manifest.json"
_MODEL_FORMAT = "beamprint-model"
_MODEL_VERSION = 1
_MANIFEST_FORMAT = "beamprint-manifest"
_MANIFEST_VERSION = 1

MODEL_MLP = "mlp"
MODEL_TREE = "tree"


# ---------------------------------------------------------------------------
# Dataset split


def _split_rows(n: int, fraction: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle of range(n), then prefix split into
    (train, test) positions."""
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError("train fraction must lie strictly between 0 and 1")
    n_train = int(round(fraction * n))
    if n_train < 1 or n - n_train < 1:
        raise DataError(f"split of {n} records at fraction {fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def split_dataset(dataset: Dataset, fraction: float, seed: int) -> Tuple[Dataset, Dataset]:
    """Seeded uniform shuffle, then prefix split into (train, test)."""
    train, test = _split_rows(len(dataset), fraction, seed)
    return dataset.subset(train), dataset.subset(test)


# ---------------------------------------------------------------------------
# Model specs and bundles


def _fit_mlp(train_set: FeatureSet, config: mlp.MlpConfig, feature_config: FeatureConfig):
    model = mlp.init_model(config, feature_length(feature_config))
    model.normalizer = fit_normalizer(train_set)
    report = mlp.train(model, train_set)
    return model, {"epochs_run": report.epochs_run, "stop_reason": report.stop_reason}


def _fit_tree(train_set: FeatureSet, config: dtree.TreeConfig, feature_config: FeatureConfig):
    model = dtree.fit(train_set.values, train_set.labels, config)
    return model, {"tree_depth": model.depth, "leaf_count": model.leaf_count}


def _mlp_label(c: mlp.MlpConfig) -> str:
    name = f"mlp_h{'x'.join(str(w) for w in c.hidden_layers)}"
    if c.activation != "tanh":
        name += f"_{c.activation}"
    return f"{name}_s{c.rng_seed}"


class ModelType(NamedTuple):
    """A row of MODEL_TYPES: all the pipeline knows of a model type."""

    model_class: type
    config_class: type  # a spec holds it in its field `<type>_config`
    fit: Callable  # (train set, config, feature config) -> (model, fit stats)
    predict: Callable  # (model, values) -> positions in metres
    encode: Callable  # model -> the JSON object a bundle file holds under `<type>`
    decode: Callable  # that JSON object -> model
    width: str  # the model's input-width attribute
    label: Callable  # config -> the model part of an arm label


# the rows look up the functions perfbench's tracer wraps when called
MODEL_TYPES = {
    MODEL_MLP: ModelType(
        mlp.MlpModel, mlp.MlpConfig, _fit_mlp, lambda model, values: mlp.predict(model, values),
        mlp.mlp_to_dict, mlp.mlp_from_dict, "input_width", _mlp_label,
    ),
    MODEL_TREE: ModelType(
        dtree.TreeModel, dtree.TreeConfig, _fit_tree, lambda model, values: dtree.predict_tree(model, values),
        dtree.tree_to_dict, dtree.tree_from_dict, "n_features", lambda c: f"tree_d{c.max_depth}_l{c.min_samples_leaf}",
    ),
}
_TYPE_OF_MODEL = {row.model_class: kind for kind, row in MODEL_TYPES.items()}


def _model_type(kind, fault: str) -> ModelType:
    """The row of model type `kind`; anything else, a JSON list or object too, raises `fault`."""
    if isinstance(kind, str) and kind in MODEL_TYPES:
        return MODEL_TYPES[kind]
    raise ConfigurationError(fault)


@dataclass(frozen=True)
class ModelSpec:
    model_type: str
    mlp_config: Optional[mlp.MlpConfig] = None
    tree_config: Optional[dtree.TreeConfig] = None

    def __post_init__(self) -> None:
        kind = self.model_type
        if not isinstance(self.config, _model_type(kind, f"unknown model type {kind!r}").config_class):
            raise ConfigurationError(f"a {kind} model spec needs its {kind}_config")
        for other in MODEL_TYPES.keys() - {kind}:
            if getattr(self, f"{other}_config") is not None:
                raise ConfigurationError(f"a {kind} model spec takes no {other}_config")

    @property
    def config(self):
        return getattr(self, f"{self.model_type}_config", None)

    @property
    def label(self) -> str:
        return MODEL_TYPES[self.model_type].label(self.config)


def model_spec_from_dict(d, where: str = "model config") -> ModelSpec:
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigurationError(f"{where} needs a 'type' of {' or '.join(MODEL_TYPES)}")
    kind = d["type"]
    row = _model_type(kind, f"{where} has unknown model type {kind!r}")
    config = from_dict(row.config_class, {k: v for k, v in d.items() if k != "type"}, where)
    return ModelSpec(kind, **{f"{kind}_config": config})


def model_spec_to_dict(spec: ModelSpec) -> dict:
    return {"type": spec.model_type, **to_dict(spec.config)}


@dataclass
class ModelBundle:
    """A trained model plus the feature recipe it expects."""

    feature_config: FeatureConfig
    model: Union[mlp.MlpModel, dtree.TreeModel]
    # how the fit went (MLP epochs and stop reason, tree depth and leaf
    # count); set by train_model for the manifest, never saved
    fit_stats: dict = field(default_factory=dict, compare=False)

    @property
    def model_type(self) -> str:
        return _TYPE_OF_MODEL[type(self.model)]

    def predict(self, values: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # callers refuse a prediction that overflows
            return MODEL_TYPES[self.model_type].predict(self.model, values)


def save_model_bundle(bundle: ModelBundle, path) -> None:
    kind = bundle.model_type
    blob = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "model_type": kind,
        "feature_config": to_dict(bundle.feature_config),
        **dict.fromkeys(MODEL_TYPES),
        kind: MODEL_TYPES[kind].encode(bundle.model),
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        # json.dumps, not json.dump: only dumps takes the C encoder
        fh.write(json.dumps(blob, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_model_bundle(path) -> ModelBundle:
    blob = load_object(path, "model file")
    if blob.get("format") != _MODEL_FORMAT:
        raise ConfigurationError(f"{path} is not a model file")
    if blob.get("version") != _MODEL_VERSION:
        raise ConfigurationError(f"unsupported model file version {blob.get('version')}")
    unknown = blob.keys() - {"format", "version", "model_type", "feature_config", *MODEL_TYPES}
    if unknown:
        raise ConfigurationError(f"unknown model file keys in {path}: {sorted(unknown)}")
    kind = blob.get("model_type")
    row = _model_type(kind, f"unknown model type {kind!r} in {path}")
    if not isinstance(blob.get("feature_config"), dict):
        raise ConfigurationError(f"{path} has no feature_config object")
    if not isinstance(blob.get(kind), dict):
        raise ConfigurationError(f"{path} has no {kind} model")
    fc = feature_config_from_dict(blob["feature_config"], f"{path}: feature_config")
    for other in MODEL_TYPES.keys() - {kind}:
        if blob.get(other) is not None:
            raise ConfigurationError(f"{path}: a {kind} model file must have a null {other!r}")
    model = row.decode(blob[kind])
    # a width mismatch would otherwise surface only at predict time
    width = feature_length(fc)
    got = getattr(model, row.width)
    if got != width:
        raise ConfigurationError(f"{path}: the {kind} model takes {got} features, its feature config gives {width}")
    return ModelBundle(fc, model)


# ---------------------------------------------------------------------------
# Experiment spec


@dataclass(frozen=True)
class Arm:
    """One run of a sweep: its part (a cell; None at network level, and
    for a cell-specific sweep's pool over its cells), feature config and
    model spec."""

    cell: Optional[int]
    feature_config: FeatureConfig
    model_spec: ModelSpec

    @property
    def name(self) -> str:
        """The label without its part, which the arms of every part share."""
        fc = self.feature_config
        tag = f"s{fc.n_serving_beams}n{fc.n_neighbor_beams}{'_id' if fc.include_serving_cell_id else ''}"
        return f"{tag}_{self.model_spec.label}"

    @property
    def label(self) -> str:
        pool = {TOPOLOGY_NETWORK: "net", TOPOLOGY_CELL: "cellpool"}[self.feature_config.topology]
        return f"{pool if self.cell is None else f'cell{self.cell}'}_{self.name}"


@dataclass
class ExperimentSpec:
    """A sweep. Made from a file or in code, it checks itself, and the
    experiment topology governs its feature configs' topology."""

    scenario: ScenarioConfig
    feature_configs: List[FeatureConfig]
    model_specs: List[ModelSpec]
    topology: str = TOPOLOGY_NETWORK
    cells: Optional[List[int]] = None  # None means every eligible cell
    train_fraction: float = 0.9
    split_seed: int = 7
    dataset_seed: Optional[int] = None
    min_cell_records: int = 50

    def __post_init__(self) -> None:
        if self.topology not in (TOPOLOGY_NETWORK, TOPOLOGY_CELL):
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        # the split permutation's generator takes no negative seed
        if self.split_seed < 0:
            raise ConfigurationError(f"experiment spec.split_seed must be non-negative, got {self.split_seed}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train fraction must lie strictly between 0 and 1")
        if self.cells is not None and not (isinstance(self.cells, list) and all(type(c) is int for c in self.cells)):
            raise ConfigurationError("'cells' must be \"all\" or a list of cell ids")
        # a sweep that ignored its cells would write a manifest replay refuses
        if self.cells == []:
            raise ConfigurationError("'cells' lists no cell; give at least one cell id, or \"all\"")
        if self.cells is not None and self.topology == TOPOLOGY_NETWORK:
            raise ConfigurationError(
                "'cells' picks the cells of a cell-specific sweep; a network-level sweep trains on every cell"
            )
        if not self.feature_configs:
            raise ConfigurationError("experiment spec needs at least one feature config")
        if not self.model_specs:
            raise ConfigurationError("experiment spec needs at least one model config")
        rule = {"topology": self.topology}
        if self.topology == TOPOLOGY_CELL:
            rule["include_serving_cell_id"] = False  # cell-specific models never see the serving cell id
        self.feature_configs = [replace(fc, **rule) for fc in self.feature_configs]
        # arms that share a label would write over each other's files
        names = [arm.name for arm in self.arms()]
        for name in names:
            if names.count(name) > 1:
                raise ConfigurationError(f"two arms of the sweep share the label {name!r}")

    def arms(self, cells: Sequence[Optional[int]] = (None,)) -> List[Arm]:
        """The arms over the parts `cells`: part-major, then by feature
        config, then by model spec."""
        return [Arm(cell, fc, ms) for cell in cells for fc in self.feature_configs for ms in self.model_specs]


# spec fields that the codec decodes as they are; the others have
# their own file shapes
_SPEC_SCALARS = ("topology", "train_fraction", "split_seed", "dataset_seed", "min_cell_records")


def _object_list(d: dict, key: str) -> list:
    items = d.get(key, [])
    if not isinstance(items, list):
        raise ConfigurationError(f"experiment spec.{key} must be a list")
    return items


def experiment_spec_from_dict(d: dict, base_dir: Optional[Path] = None) -> ExperimentSpec:
    if not isinstance(d, dict):
        raise ConfigurationError("experiment spec must be a JSON object")
    unknown = set(d) - {"scenario", "feature_configs", "model_configs", "cells", *_SPEC_SCALARS}
    if unknown:
        raise ConfigurationError(f"unknown experiment spec keys: {sorted(unknown)}")
    if "scenario" not in d:
        raise ConfigurationError("experiment spec needs a 'scenario' (path or inline object)")
    raw_scenario = d["scenario"]
    if isinstance(raw_scenario, str):
        path = Path(raw_scenario)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        scenario = load_scenario_config(path)
    elif isinstance(raw_scenario, dict):
        scenario = from_dict(ScenarioConfig, raw_scenario, "experiment spec.scenario")
    else:
        raise ConfigurationError("'scenario' must be a path or an inline object")

    hints = get_type_hints(ExperimentSpec)
    scalars = {k: decode(hints[k], d[k], f"experiment spec.{k}") for k in _SPEC_SCALARS if k in d}
    fcs = []
    for i, raw in enumerate(_object_list(d, "feature_configs")):
        if not isinstance(raw, dict):
            raise ConfigurationError(f"experiment spec.feature_configs[{i}] must be a JSON object")
        raw = {k: v for k, v in raw.items() if k != "topology"}  # the experiment topology governs
        fcs.append(feature_config_from_dict(raw, f"experiment spec.feature_configs[{i}]"))
    specs = [
        model_spec_from_dict(m, f"experiment spec.model_configs[{i}]")
        for i, m in enumerate(_object_list(d, "model_configs"))
    ]
    cells = d.get("cells")
    return ExperimentSpec(
        scenario=scenario, feature_configs=fcs, model_specs=specs, cells=None if cells == "all" else cells, **scalars
    )


def experiment_spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "scenario": to_dict(spec.scenario),
        "feature_configs": [to_dict(fc) for fc in spec.feature_configs],
        "model_configs": [model_spec_to_dict(m) for m in spec.model_specs],
        "cells": "all" if spec.cells is None else list(spec.cells),
        **{k: getattr(spec, k) for k in _SPEC_SCALARS},
    }


def load_experiment_spec(path) -> ExperimentSpec:
    d = load_object(path, "experiment spec")
    return experiment_spec_from_dict(d, base_dir=Path(path).resolve().parent)


# ---------------------------------------------------------------------------
# Single training run


def train_model(
    train_set: FeatureSet, model_spec: ModelSpec, feature_config: FeatureConfig
) -> ModelBundle:
    """Fit one model on extracted training features."""
    if len(train_set) == 0:
        raise DataError("no trainable records after feature extraction")
    model, fit_stats = MODEL_TYPES[model_spec.model_type].fit(train_set, model_spec.config, feature_config)
    return ModelBundle(feature_config, model, fit_stats)


@dataclass
class RunOutput:
    label: str
    bundle: ModelBundle
    train_report: EvalReport
    test_report: EvalReport
    test_errors: np.ndarray
    train_errors: np.ndarray
    duration_s: float


def _descriptor(arm: Arm, spec: ExperimentSpec, extras: dict) -> dict:
    fc = arm.feature_config
    return {
        "label": arm.label,
        "topology": fc.topology,
        "cell": arm.cell,
        "serving_beams": fc.n_serving_beams,
        "neighbor_beams": fc.n_neighbor_beams,
        "cell_id_feature": fc.include_serving_cell_id,
        "model": model_spec_to_dict(arm.model_spec),
        "train_fraction": spec.train_fraction,
        "split_seed": spec.split_seed,
        **extras,
    }


def run_single(
    features: FeatureSet, train_rows: np.ndarray, test_rows: np.ndarray, arm: Arm, spec: ExperimentSpec
) -> RunOutput:
    """Train an arm on the records `train_rows` of its feature set and
    score on `test_rows`; their features are gathered from the set."""
    t0 = time.perf_counter()
    train_set = features.take(train_rows)
    test_set = features.take(test_rows)
    if len(train_set) == 0 or len(test_set) == 0:
        raise DataError(f"run {arm.label}: feature extraction left an empty split")
    bundle = train_model(train_set, arm.model_spec, features.config)
    train_err = euclidean_errors(bundle.predict(train_set.values), train_set.labels)
    test_err = euclidean_errors(bundle.predict(test_set.values), test_set.labels)
    extras = {
        "n_train": len(train_set),
        "n_test": len(test_set),
        "skipped_train": dict(sorted(train_set.skipped.items())),
        "skipped_test": dict(sorted(test_set.skipped.items())),
    }
    if "epochs_run" in bundle.fit_stats:  # an MLP's epoch count goes into its reports
        extras["epochs_run"] = bundle.fit_stats["epochs_run"]
    desc = _descriptor(arm, spec, extras)
    return RunOutput(
        label=arm.label,
        bundle=bundle,
        train_report=summarize(train_err, split="train", config=desc),
        test_report=summarize(test_err, split="test", config=desc),
        test_errors=test_err,
        train_errors=train_err,
        duration_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Full experiment


@dataclass
class RunResult:
    reports: List[EvalReport]
    comparison: Comparison
    manifest: dict
    manifest_path: Path
    output_dir: Path


def _arm_rows(spec: ExperimentSpec, serving: np.ndarray) -> Tuple[Dict[Optional[int], tuple], Dict[int, int]]:
    """Each part's (train rows, test rows), by cell in run order, given
    the records' serving column, and the skipped cells. At network level
    the one part is None, over every row."""
    parts, skipped = {None: np.arange(len(serving))}, {}
    if spec.topology == TOPOLOGY_CELL:
        by_cell, parts = cell_rows(serving), {}
        for cell in sorted(by_cell) if spec.cells is None else spec.cells:
            if cell not in by_cell:
                raise DataError(f"cell {cell} serves no line-of-sight records")
            n = len(by_cell[cell])
            if n < spec.min_cell_records:
                logger.warning("skipping cell %d: only %d records, need %d", cell, n, spec.min_cell_records)
                skipped[cell] = n
            else:
                parts[cell] = by_cell[cell]
        if not parts:
            raise DataError("no cell has enough records for cell-specific training")
    split = {cell: _split_rows(len(rows), spec.train_fraction, spec.split_seed) for cell, rows in parts.items()}
    return {cell: (rows[split[cell][0]], rows[split[cell][1]]) for cell, rows in parts.items()}, skipped


def _emit(rep: EvalReport, out: Path, reports: List[EvalReport], hashes: Dict[str, str]) -> dict:
    """Write a report and its CDF table, append it to `reports`, add the
    files' SHA-256 to `hashes`, return their paths."""
    name = f"{rep.config['label']}_{rep.split}"
    paths = {"report": str(Path("reports", f"{name}.json")), "cdf": str(Path("cdf", f"{name}.csv"))}
    write_report(rep, out / paths["report"])
    write_cdf_csv(rep, out / paths["cdf"])
    reports.append(rep)
    hashes.update({p: hashlib.sha256((out / p).read_bytes()).hexdigest() for p in paths.values()})
    return paths


def run_experiment(spec: ExperimentSpec, output_dir) -> RunResult:
    """Run every arm of `spec.arms` and write reports, CDF tables,
    models, and the replayable manifest; the manifest hashes the report
    and CDF files this run wrote."""
    t_start = time.perf_counter()
    scenario = build_scenario(spec.scenario)  # a scenario it refuses leaves no out dir
    out = Path(output_dir)
    for sub in ("reports", "cdf", "models"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    seed = scenario.config.rng_seed if spec.dataset_seed is None else spec.dataset_seed
    # the arms read only the LOS records' serving cells and features:
    # each block of the sweep is extracted for every feature config as it
    # is made, and its measurement columns are dropped
    accumulators = [FeatureAccumulator(fc) for fc in spec.feature_configs]
    serving_blocks = []
    for xs, ys, serving, _, cells, beams, rsrp in sweep_blocks(scenario, seed, los_only=True):
        serving_blocks.append(serving)
        for acc in accumulators:
            acc.add(xs, ys, extract(serving, cells, beams, rsrp, acc.config))
        del cells, beams, rsrp  # or they would live on while the next block is made
    serving = np.concatenate(serving_blocks)
    feature_sets = {acc.config: acc.result() for acc in accumulators}
    n_records = len(grid_xy(scenario))
    dataset_stats = {
        "seed": seed,
        "n_records": n_records,
        "n_los": len(serving),
        "los_fraction": len(serving) / n_records,
    }
    t_data = time.perf_counter() - t_start

    parts, skipped_cells = _arm_rows(spec, serving)
    arms = spec.arms(list(parts))
    outputs = [run_single(feature_sets[arm.feature_config], *parts[arm.cell], arm, spec) for arm in arms]

    reports: List[EvalReport] = []
    hashes: Dict[str, str] = {}
    run_entries = []
    pools: Dict[Arm, List[RunOutput]] = {}  # a cell-specific sweep pools each arm's runs over its cells
    for arm, run in zip(arms, outputs):
        model_path = out / "models" / f"{run.label}.json"
        save_model_bundle(run.bundle, model_path)
        paths = {rep.split: _emit(rep, out, reports, hashes) for rep in (run.train_report, run.test_report)}
        run_entries.append(
            {
                "label": run.label,
                "model": str(model_path.relative_to(out)),
                "artifacts": paths,
                "duration_s": run.duration_s,
                **run.bundle.fit_stats,
            }
        )
        if arm.cell is not None:
            pools.setdefault(replace(arm, cell=None), []).append(run)
    for pool, runs in pools.items():
        desc = _descriptor(pool, spec, {"pooled_cells": list(parts)})
        for split in ("test", "train"):
            errors = np.concatenate([getattr(run, f"{split}_errors") for run in runs])
            _emit(summarize(errors, split=split, config=desc), out, reports, hashes)

    comparison = compare([r for r in reports if r.split == "test"])

    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "spec": experiment_spec_to_dict(spec),
        "scenario_hash": scenario.fingerprint_hash,
        "dataset": dataset_stats,
        "skipped_cells": {str(c): n for c, n in sorted(skipped_cells.items())},
        "runs": run_entries,
        "artifact_sha256": dict(sorted(hashes.items())),
        "durations_s": {
            "dataset": t_data,
            "total": time.perf_counter() - t_start,
        },
    }
    manifest_path = out / _MANIFEST_NAME
    with open(manifest_path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(
        reports=reports,
        comparison=comparison,
        manifest=manifest,
        manifest_path=manifest_path,
        output_dir=out,
    )


def replay(manifest_path, output_dir) -> RunResult:
    """Re-run the experiment recorded in a manifest and verify that every
    report and CDF file comes out byte-identical."""
    manifest = load_object(manifest_path, "manifest")
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise ConfigurationError(f"{manifest_path} is not a run manifest")
    spec = experiment_spec_from_dict(manifest.get("spec"))
    result = run_experiment(spec, output_dir)
    want = manifest.get("artifact_sha256", {})
    got = result.manifest["artifact_sha256"]
    if want != got:
        diff = sorted(set(want.items()) ^ set(got.items()))
        raise DataError(f"replay diverged from the recorded run: {diff[:4]}")
    return result


# ---------------------------------------------------------------------------
# Inference

# measurement reports infer_file parses, extracts and predicts at a time
_INFER_REPORTS = 1024


def infer_record(
    bundle: ModelBundle, serving: int, cells: np.ndarray, beams: np.ndarray, rsrp: np.ndarray
) -> Tuple[float, float]:
    """Position estimate in metres for one measurement report, given as
    1-d columns in ranking order. Raises FeatureExtractionError when the
    report cannot fill the bundle's feature config or has an id outside
    its one-hot vocabulary."""
    config = bundle.feature_config
    cells, beams, rsrp = (np.asarray(column)[None] for column in (cells, beams, rsrp))
    try:
        values, kept, n_serving, n_neighbors = extract(np.array([serving]), cells, beams, rsrp, config)
    except ConfigurationError as e:  # an id outside the one-hot vocabulary
        raise FeatureExtractionError(OUTSIDE_VOCABULARY, str(e)) from None
    if not len(kept):
        raise shortfall(config, n_serving[0], n_neighbors[0])
    pred = bundle.predict(values[0])
    if not np.isfinite(pred).all():
        raise DataError("prediction is not finite")
    return float(pred[0]), float(pred[1])


def _predict_reports(bundle: ModelBundle, chunk: Block, in_path) -> np.ndarray:
    """Positions for a chunk of reports stacked by _stack, extracted in
    one kernel call and predicted in one batch. The first report, in
    line order, that cannot fill the feature config or has an id outside
    its one-hot vocabulary, else the first whose prediction is not
    finite, is a DatasetParseError naming its line."""
    columns = chunk.serving, chunk.cells, chunk.beams, chunk.rsrp
    config = bundle.feature_config
    try:
        values, kept, _, _ = extract(*columns, config)
    except ConfigurationError:
        kept = ()  # an id outside the one-hot vocabulary
    if len(kept) < len(chunk.rows):  # rare: the first bad report ends the longest prefix that extracts

        def fails(i: int) -> bool:
            try:
                return len(extract(*(column[: i + 1] for column in columns), config)[1]) <= i
            except ConfigurationError:
                return True

        i = bisect_left(range(len(chunk.rows)), True, key=fails)
        line = int(chunk.rows[i])
        try:
            _, _, n_serving, n_neighbors = extract(*(column[i : i + 1] for column in columns), config)
        except ConfigurationError as e:
            raise DatasetParseError(str(e), path=in_path, line=line, field="meas") from None
        raise DatasetParseError(str(shortfall(config, n_serving[0], n_neighbors[0])), path=in_path, line=line)
    pred = bundle.predict(values)
    overflow = ~np.isfinite(pred).all(axis=1)
    if overflow.any():
        raise DatasetParseError("prediction is not finite", path=in_path, line=int(chunk.rows[np.argmax(overflow)]))
    return pred


def _stack(parts: List[Block]) -> Block:
    """The reports of `parts` as one Block, measurement columns padded
    to the widest with cell and beam 0 and a NaN rsrp, which extract
    reads as not measured."""
    n, width = sum(len(part.rows) for part in parts), max(part.rsrp.shape[1] for part in parts)
    # int32, as parsed reports and dataset columns hold ids
    meas = np.zeros((n, width), dtype=np.int32), np.zeros((n, width), dtype=np.int32), np.full((n, width), np.nan)
    start = 0
    for part in parts:
        for column, values in zip(meas, part[5:]):
            column[start : start + len(values), : values.shape[1]] = values
        start += len(part.rows)
    return Block(*(np.concatenate(column) for column in list(zip(*parts))[:5]), *meas)


def _reports(fh, path) -> Iterator[Block]:
    """The measurement reports of an open file, as Blocks of line
    numbers and columns: a block the block reader parses is kept when it
    is servable, the other lines go to parse_measurement_line, looked up
    here at each call; both give the same columns."""
    return _block_lines(fh, 1, lambda raw, lineno: parse_measurement_line(raw, lineno, path), _servable)


def infer_file(bundle: ModelBundle, in_path, out_path=None) -> List[dict]:
    """Predict for every record in a line-delimited measurement file.

    The Blocks of _reports are stacked into chunks of _INFER_REPORTS
    reports (a block that straddles a chunk's end is sliced there), each
    predicted by _predict_reports before the lines after it are parsed,
    so memory holds one chunk of reports besides the predictions. A bad
    line anywhere fails the file before any output is written. Within a
    chunk, a line that does not parse is reported before one that
    cannot fill the feature config or has an id outside its one-hot
    vocabulary, and that before one whose prediction is not finite.
    """
    pred: List[List[float]] = []
    try:
        fh = open(in_path, "r", encoding="ascii", errors="surrogateescape")
    except OSError as e:
        raise DataError(f"cannot read measurement file {in_path}: {e}") from e
    with fh:
        parts, n = [], 0
        for block in _reports(fh, in_path):
            while n + len(block.rows) >= _INFER_REPORTS:  # the block fills the chunk
                cut = _INFER_REPORTS - n
                pred.extend(_predict_reports(bundle, _stack([*parts, block.take(np.s_[:cut])]), in_path).tolist())
                parts, n, block = [], 0, block.take(np.s_[cut:])
            if len(block.rows):
                parts.append(block)
                n += len(block.rows)
        if parts:
            pred.extend(_predict_reports(bundle, _stack(parts), in_path).tolist())
    results = [{"x_pred": x, "y_pred": y} for x, y in pred]
    if out_path is not None:
        with open(out_path, "w", encoding="ascii") as fh:
            for row in results:
                fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    return results
