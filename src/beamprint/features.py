"""Feature extraction and normalization for position regression.

A feature vector is assembled from one fingerprint record as:

    [beam_id_1, rsrp_1, ..., beam_id_K, rsrp_K,      K strongest serving beams
     serving_cell_id,                                 optional
     cell_id, beam_id, rsrp, ...]                     strongest beam of each of
                                                      the N strongest neighbors

Neighbor cells are ranked by their strongest beam, strongest first.
Identifiers ride along as raw numerics and get z-scored with everything
else; a one-hot encoding can be switched on for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError, DataError, FeatureExtractionError
from .fingerprint import Dataset, FingerprintRecord

TOPOLOGY_NETWORK = "network-level"
TOPOLOGY_CELL = "cell-specific"

# skip reasons counted by extract_features
SKIP_SERVING = "insufficient_serving_beams"
SKIP_NEIGHBORS = "insufficient_neighbor_cells"


@dataclass(frozen=True)
class FeatureConfig:
    n_serving_beams: int = 3
    n_neighbor_beams: int = 0
    include_serving_cell_id: bool = True
    topology: str = TOPOLOGY_NETWORK
    one_hot_ids: bool = False
    cell_id_vocab: Optional[int] = None  # required when one_hot_ids
    beam_id_vocab: Optional[int] = None


def validate_feature_config(config: FeatureConfig) -> None:
    if config.n_serving_beams < 1:
        raise ConfigurationError("need at least one serving beam feature")
    if not 0 <= config.n_neighbor_beams <= 3:
        raise ConfigurationError("neighbor beam count must lie in 0..3")
    if config.topology not in (TOPOLOGY_NETWORK, TOPOLOGY_CELL):
        raise ConfigurationError(f"unknown topology {config.topology!r}")
    if config.topology == TOPOLOGY_CELL and config.include_serving_cell_id:
        raise ConfigurationError("cell-specific features must not include the serving cell id")
    if config.one_hot_ids and (config.cell_id_vocab is None or config.beam_id_vocab is None):
        raise ConfigurationError("one-hot encoding needs cell_id_vocab and beam_id_vocab")


def feature_length(config: FeatureConfig) -> int:
    validate_feature_config(config)
    if not config.one_hot_ids:
        return (
            2 * config.n_serving_beams
            + (1 if config.include_serving_cell_id else 0)
            + 3 * config.n_neighbor_beams
        )
    vb = config.beam_id_vocab
    vc = config.cell_id_vocab
    return (
        config.n_serving_beams * (vb + 1)
        + (vc if config.include_serving_cell_id else 0)
        + config.n_neighbor_beams * (vc + vb + 1)
    )


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    label: Optional[Tuple[float, float]]


@dataclass
class FeatureSet:
    """Stacked feature vectors plus labels and skip bookkeeping."""

    values: np.ndarray  # (k, d)
    labels: np.ndarray  # (k, 2)
    config: FeatureConfig
    skipped: Dict[str, int]
    indices: np.ndarray  # (k,) row index into the source dataset

    def __len__(self) -> int:
        return self.values.shape[0]


def _one_hot(index: int, size: int, what: str) -> List[float]:
    if not 0 <= index < size:
        raise ConfigurationError(f"{what} {index} outside one-hot vocabulary of size {size}")
    out = [0.0] * size
    out[index] = 1.0
    return out


def extract(record: FingerprintRecord, config: FeatureConfig) -> FeatureVector:
    """Build one feature vector; raises FeatureExtractionError when the
    record cannot satisfy the configured beam counts."""
    validate_feature_config(config)
    k = config.n_serving_beams
    n = config.n_neighbor_beams

    serving_beams: List[Tuple[int, float]] = []
    neighbor_best: List[Tuple[int, int, float]] = []
    seen_neighbors = set()
    for cell, beam, rsrp in record.measurements:
        if cell == record.serving_cell_id:
            if len(serving_beams) < k:
                serving_beams.append((beam, rsrp))
        elif cell not in seen_neighbors:
            seen_neighbors.add(cell)
            if len(neighbor_best) < n:
                neighbor_best.append((cell, beam, rsrp))
        if len(serving_beams) == k and len(neighbor_best) == n:
            break  # the rest of the sweep cannot change the vector

    if len(serving_beams) < k:
        raise FeatureExtractionError(
            SKIP_SERVING,
            f"record has {len(serving_beams)} serving-cell measurements, need {k}",
        )
    if len(neighbor_best) < n:
        raise FeatureExtractionError(
            SKIP_NEIGHBORS,
            f"record has {len(neighbor_best)} distinct neighbor cells, need {n}",
        )

    values: List[float] = []
    if config.one_hot_ids:
        for beam, rsrp in serving_beams:
            values.extend(_one_hot(beam, config.beam_id_vocab, "beam id"))
            values.append(rsrp)
        if config.include_serving_cell_id:
            values.extend(_one_hot(record.serving_cell_id, config.cell_id_vocab, "cell id"))
        for cell, beam, rsrp in neighbor_best:
            values.extend(_one_hot(cell, config.cell_id_vocab, "cell id"))
            values.extend(_one_hot(beam, config.beam_id_vocab, "beam id"))
            values.append(rsrp)
    else:
        for beam, rsrp in serving_beams:
            values.append(float(beam))
            values.append(rsrp)
        if config.include_serving_cell_id:
            values.append(float(record.serving_cell_id))
        for cell, beam, rsrp in neighbor_best:
            values.append(float(cell))
            values.append(float(beam))
            values.append(rsrp)

    return FeatureVector(values=np.asarray(values, dtype=np.float64), label=(record.x, record.y))


# ---------------------------------------------------------------------------
# Batch extraction


def _regular_structure(dataset: Dataset) -> bool:
    # fast path requires every row to hold each cell exactly n_beams times
    n_cells = len(dataset.cells)
    m = dataset.meas_cells.shape[1] if len(dataset) else 0
    if m != n_cells * dataset.n_beams:
        return False
    order = np.argsort(dataset.meas_cells, axis=1, kind="stable")
    sorted_cells = np.take_along_axis(dataset.meas_cells, order, axis=1)
    expected = np.repeat(np.asarray(dataset.cells, dtype=dataset.meas_cells.dtype), dataset.n_beams)
    return bool(np.all(sorted_cells == expected))


def extract_features(dataset: Dataset, config: FeatureConfig) -> FeatureSet:
    """Vectorised extract() over a whole dataset.

    Records that cannot satisfy the config are skipped and counted by
    reason, never padded. Falls back to the per-record path when the
    measurement matrix is not the regular full sweep.
    """
    validate_feature_config(config)
    if len(dataset) == 0:
        return FeatureSet(
            values=np.empty((0, feature_length(config))),
            labels=np.empty((0, 2)),
            config=config,
            skipped={},
            indices=np.empty(0, dtype=np.int64),
        )
    if config.one_hot_ids or not _regular_structure(dataset):
        return _extract_features_slow(dataset, config)

    k = config.n_serving_beams
    nb = config.n_neighbor_beams
    n = len(dataset)
    n_cells = len(dataset.cells)
    skipped: Dict[str, int] = {}

    if dataset.n_beams < k:
        skipped[SKIP_SERVING] = n
        return FeatureSet(
            values=np.empty((0, feature_length(config))),
            labels=np.empty((0, 2)),
            config=config,
            skipped=skipped,
            indices=np.empty(0, dtype=np.int64),
        )
    if n_cells - 1 < nb:
        skipped[SKIP_NEIGHBORS] = n
        return FeatureSet(
            values=np.empty((0, feature_length(config))),
            labels=np.empty((0, 2)),
            config=config,
            skipped=skipped,
            indices=np.empty(0, dtype=np.int64),
        )

    cells = dataset.meas_cells
    beams = dataset.meas_beams
    rsrp = dataset.meas_rsrp

    # serving beams: first k row positions whose cell matches the serving
    # cell; row order is already strongest-first
    serving_mask = cells == dataset.serving[:, None]
    serv_pos = np.argsort(~serving_mask, axis=1, kind="stable")[:, :k]
    serv_beams = np.take_along_axis(beams, serv_pos, axis=1).astype(np.float64)
    serv_rsrp = np.take_along_axis(rsrp, serv_pos, axis=1)

    parts = [np.empty((n, 2 * k))]
    parts[0][:, 0::2] = serv_beams
    parts[0][:, 1::2] = serv_rsrp
    if config.include_serving_cell_id:
        parts.append(dataset.serving.astype(np.float64)[:, None])

    if nb:
        # strongest entry of each cell group: group rows by cell (stable,
        # so strongest-first order survives inside each group) and take
        # the group heads
        order = np.argsort(cells, axis=1, kind="stable")
        best_pos = order[:, :: dataset.n_beams]
        universe = np.asarray(dataset.cells, dtype=np.float64)
        best_rsrp = np.take_along_axis(rsrp, best_pos, axis=1)
        best_beam = np.take_along_axis(beams, best_pos, axis=1).astype(np.float64)

        serving_col = np.searchsorted(np.asarray(dataset.cells), dataset.serving)
        rank_key = best_rsrp.copy()
        rank_key[np.arange(n), serving_col] = -np.inf
        cell_key = np.broadcast_to(universe, (n, n_cells))
        neighbor_order = np.lexsort((cell_key, -rank_key))[:, :nb]

        nb_cells = np.take_along_axis(cell_key, neighbor_order, axis=1)
        nb_beams = np.take_along_axis(best_beam, neighbor_order, axis=1)
        nb_rsrp = np.take_along_axis(best_rsrp, neighbor_order, axis=1)
        nb_part = np.empty((n, 3 * nb))
        nb_part[:, 0::3] = nb_cells
        nb_part[:, 1::3] = nb_beams
        nb_part[:, 2::3] = nb_rsrp
        parts.append(nb_part)

    values = np.concatenate(parts, axis=1)
    labels = np.column_stack([dataset.xs, dataset.ys])
    return FeatureSet(
        values=values,
        labels=labels,
        config=config,
        skipped=skipped,
        indices=np.arange(n, dtype=np.int64),
    )


def _extract_features_slow(dataset: Dataset, config: FeatureConfig) -> FeatureSet:
    rows: List[np.ndarray] = []
    labels: List[Tuple[float, float]] = []
    indices: List[int] = []
    skipped: Dict[str, int] = {}
    for i in range(len(dataset)):
        try:
            fv = extract(dataset.record(i), config)
        except FeatureExtractionError as e:
            skipped[e.reason] = skipped.get(e.reason, 0) + 1
            continue
        rows.append(fv.values)
        labels.append(fv.label)
        indices.append(i)
    if rows:
        values = np.vstack(rows)
        label_arr = np.asarray(labels, dtype=np.float64)
    else:
        values = np.empty((0, feature_length(config)))
        label_arr = np.empty((0, 2))
    return FeatureSet(
        values=values,
        labels=label_arr,
        config=config,
        skipped=skipped,
        indices=np.asarray(indices, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Normalization


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature and per-label mean/std (population convention).

    Constant features keep std 1 so applying the stats is always safe.
    fit_on_train records that the stats came from training data only.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_mean: np.ndarray
    label_std: np.ndarray
    fit_on_train: bool = True


def fit_normalizer(
    values: Union[FeatureSet, np.ndarray], labels: Optional[np.ndarray] = None
) -> NormalizationStats:
    """Compute normalization stats from training vectors (at least two)."""
    if isinstance(values, FeatureSet):
        labels = values.labels
        values = values.values
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError("feature values must be a 2-d array")
    if values.shape[0] < 2:
        raise DataError("normalization needs at least two vectors")
    if labels is None:
        raise DataError("normalization needs labels alongside the features")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (values.shape[0], 2):
        raise DataError("labels must be (n, 2) matching the feature rows")

    f_std = values.std(axis=0)
    f_std = np.where(f_std == 0.0, 1.0, f_std)
    l_std = labels.std(axis=0)
    l_std = np.where(l_std == 0.0, 1.0, l_std)
    return NormalizationStats(
        feature_mean=values.mean(axis=0),
        feature_std=f_std,
        label_mean=labels.mean(axis=0),
        label_std=l_std,
    )


def apply(stats: NormalizationStats, values: np.ndarray) -> np.ndarray:
    """Z-score feature values; accepts a single vector or a batch."""
    values = np.asarray(values, dtype=np.float64)
    width = values.shape[-1] if values.ndim else 0
    if values.ndim not in (1, 2) or width != stats.feature_mean.shape[0]:
        raise DataError(
            f"feature width {width} does not match normalizer width {stats.feature_mean.shape[0]}"
        )
    return (values - stats.feature_mean) / stats.feature_std


def apply_labels(stats: NormalizationStats, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape[-1] != 2:
        raise DataError("labels must have width 2")
    return (labels - stats.label_mean) / stats.label_std


def invert_labels(stats: NormalizationStats, normalized: np.ndarray) -> np.ndarray:
    """Map normalized model outputs back to metres."""
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.shape[-1] != 2:
        raise DataError("normalized labels must have width 2")
    return normalized * stats.label_std + stats.label_mean


def normalizer_to_dict(stats: NormalizationStats) -> dict:
    return {
        "feature_mean": stats.feature_mean.tolist(),
        "feature_std": stats.feature_std.tolist(),
        "label_mean": stats.label_mean.tolist(),
        "label_std": stats.label_std.tolist(),
        "fit_on_train": stats.fit_on_train,
    }


def normalizer_from_dict(d: dict) -> NormalizationStats:
    return NormalizationStats(
        feature_mean=np.asarray(d["feature_mean"], dtype=np.float64),
        feature_std=np.asarray(d["feature_std"], dtype=np.float64),
        label_mean=np.asarray(d["label_mean"], dtype=np.float64),
        label_std=np.asarray(d["label_std"], dtype=np.float64),
        fit_on_train=bool(d.get("fit_on_train", True)),
    )


# ---------------------------------------------------------------------------
# Config round trip (file keys are the short external names)


def feature_config_to_dict(config: FeatureConfig) -> dict:
    return {
        "serving_beams": config.n_serving_beams,
        "neighbor_beams": config.n_neighbor_beams,
        "cell_id_feature": config.include_serving_cell_id,
        "topology": config.topology,
        "one_hot_ids": config.one_hot_ids,
        "cell_id_vocab": config.cell_id_vocab,
        "beam_id_vocab": config.beam_id_vocab,
    }


def feature_config_from_dict(d: dict) -> FeatureConfig:
    allowed = {
        "serving_beams",
        "neighbor_beams",
        "cell_id_feature",
        "topology",
        "one_hot_ids",
        "cell_id_vocab",
        "beam_id_vocab",
    }
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown feature config keys: {sorted(unknown)}")
    config = FeatureConfig(
        n_serving_beams=int(d.get("serving_beams", 3)),
        n_neighbor_beams=int(d.get("neighbor_beams", 0)),
        include_serving_cell_id=bool(d.get("cell_id_feature", True)),
        topology=str(d.get("topology", TOPOLOGY_NETWORK)),
        one_hot_ids=bool(d.get("one_hot_ids", False)),
        cell_id_vocab=None if d.get("cell_id_vocab") is None else int(d["cell_id_vocab"]),
        beam_id_vocab=None if d.get("beam_id_vocab") is None else int(d["beam_id_vocab"]),
    )
    validate_feature_config(config)
    return config
