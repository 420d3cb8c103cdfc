"""Feature extraction and normalization for position regression.

A feature vector is assembled from one measurement report as:

    [beam_id_1, rsrp_1, ..., beam_id_K, rsrp_K,      K strongest serving beams
     serving_cell_id,                                 optional
     cell_id, beam_id, rsrp, ...]                     strongest beam of each of
                                                      the N strongest neighbors

One ranking rule picks the entries: the order of the measurement row,
which is descending RSRP with ties broken by ascending cell id, then
ascending beam id. The serving beams are the first K entries of the
serving cell; the neighbors are the first N cells other than the
serving cell, each at its first (strongest) entry. Whole datasets,
single reports and `infer` files all go through one kernel, `extract`,
over the sorted measurement columns.

The kernel reads the ranked prefix first: it scans the first 64 columns
of every row, and scans again over the full row only the rows that
cannot fill the config within them. A row that fills within the prefix
gets the same entries as over its full row, because both take the first
entries in ranking order. A row of at most 64 columns takes one pass.

Identifiers ride along as raw numerics and get z-scored with everything
else. A one-hot encoding can be switched on for experiments; it is an
expansion of the same vector, each id becoming an indicator block the
size of its vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .configfile import from_dict
from .errors import ConfigurationError, DataError, FeatureExtractionError
from .fingerprint import Dataset

TOPOLOGY_NETWORK = "network-level"
TOPOLOGY_CELL = "cell-specific"

# skip reasons counted by extract_features
SKIP_SERVING = "insufficient_serving_beams"
SKIP_NEIGHBORS = "insufficient_neighbor_cells"
SKIP_REASONS = (SKIP_SERVING, SKIP_NEIGHBORS)
# why infer_record refuses a report with an id outside the one-hot
# vocabulary; a data error, never a counted skip
OUTSIDE_VOCABULARY = "id_outside_one_hot_vocabulary"

# the most serving-cell beams a feature vector takes: a 5G NR cell sweeps
# at most 64 SSB beams (3GPP TS 38.213, 4.1), and the cap keeps the
# feature layout a size that can be built
MAX_SERVING_BEAMS = 64
# the largest one-hot vocabularies: the 1008 physical cell identities of
# 5G NR (3GPP TS 38.211, 7.4.2.1) and its 64 SSB beam indices; the caps
# keep a one-hot feature vector a size that can be built
MAX_CELL_ID_VOCAB = 1008
MAX_BEAM_ID_VOCAB = MAX_SERVING_BEAMS

# records extract_features runs through the kernel at a time
_EXTRACT_ROWS = 1024
# the ranked columns extract scans first
_PREFIX_COLUMNS = 64


@dataclass(frozen=True)
class FeatureConfig:
    n_serving_beams: int = field(default=3, metadata={"key": "serving_beams"})
    n_neighbor_beams: int = field(default=0, metadata={"key": "neighbor_beams"})
    include_serving_cell_id: bool = field(default=True, metadata={"key": "cell_id_feature"})
    topology: str = TOPOLOGY_NETWORK
    one_hot_ids: bool = False
    cell_id_vocab: Optional[int] = None  # required when one_hot_ids
    beam_id_vocab: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_serving_beams < 1:
            raise ConfigurationError("need at least one serving beam feature")
        if self.n_serving_beams > MAX_SERVING_BEAMS:
            raise ConfigurationError(
                f"serving beam count must be at most {MAX_SERVING_BEAMS}, got {self.n_serving_beams}"
            )
        if not 0 <= self.n_neighbor_beams <= 3:
            raise ConfigurationError("neighbor beam count must lie in 0..3")
        if self.topology not in (TOPOLOGY_NETWORK, TOPOLOGY_CELL):
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if self.topology == TOPOLOGY_CELL and self.include_serving_cell_id:
            raise ConfigurationError("cell-specific features must not include the serving cell id")
        if self.one_hot_ids and (self.cell_id_vocab is None or self.beam_id_vocab is None):
            raise ConfigurationError("one-hot encoding needs cell_id_vocab and beam_id_vocab")
        if self.one_hot_ids and min(self.cell_id_vocab, self.beam_id_vocab) < 1:
            raise ConfigurationError(
                f"one-hot vocabulary sizes must be at least 1, got cell_id_vocab={self.cell_id_vocab}"
                f" and beam_id_vocab={self.beam_id_vocab}"
            )
        for name, cap in (("cell_id_vocab", MAX_CELL_ID_VOCAB), ("beam_id_vocab", MAX_BEAM_ID_VOCAB)):
            if self.one_hot_ids and getattr(self, name) > cap:
                raise ConfigurationError(f"one-hot {name} must be at most {cap}, got {getattr(self, name)}")


def _layout(config: FeatureConfig) -> Tuple[str, ...]:
    """What each entry of the numeric vector holds: 'beam', 'cell' or 'rsrp'."""
    return (
        ("beam", "rsrp") * config.n_serving_beams
        + ("cell",) * int(config.include_serving_cell_id)
        + ("cell", "beam", "rsrp") * config.n_neighbor_beams
    )


def _widths(config: FeatureConfig) -> List[int]:
    """Output width of each numeric entry: its vocabulary size for a
    one-hot id, else 1."""
    vocab = {"beam": config.beam_id_vocab, "cell": config.cell_id_vocab} if config.one_hot_ids else {}
    return [vocab.get(kind, 1) for kind in _layout(config)]


def feature_length(config: FeatureConfig) -> int:
    return sum(_widths(config))


@dataclass
class FeatureSet:
    """The feature vectors and labels of the kept records of a stream,
    with every record's skip reason: 0 for a kept record, else 1 + the
    reason's position in SKIP_REASONS."""

    values: np.ndarray  # (k, d)
    labels: np.ndarray  # (k, 2)
    config: FeatureConfig
    reasons: np.ndarray  # (n,) int8

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def indices(self) -> np.ndarray:
        """The kept records' positions in the stream, (k,) int64."""
        return np.flatnonzero(self.reasons == 0).astype(np.int64, copy=False)

    @property
    def skipped(self) -> Dict[str, int]:
        """How many records were skipped, by reason."""
        counts = np.bincount(self.reasons, minlength=1 + len(SKIP_REASONS))[1:]
        return {reason: int(c) for reason, c in zip(SKIP_REASONS, counts) if c}

    def take(self, rows: np.ndarray) -> FeatureSet:
        """The FeatureSet of the records `rows` of the stream, in the order
        given: what extract_features gives on those records, gathered
        from this set."""
        reasons = self.reasons[rows]
        at = np.searchsorted(self.indices, rows[reasons == 0])
        return FeatureSet(self.values[at], self.labels[at], self.config, reasons)


def _expand_one_hot(values: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Replace each id entry of numeric vectors by its indicator block."""
    layout = _layout(config)
    widths = _widths(config)
    is_id = np.array([kind != "rsrp" for kind in layout])
    ids = values[:, is_id]
    sizes = np.array(widths)[is_id]
    bad = (ids < 0) | (ids >= sizes)
    if bad.any():
        row, col = np.unravel_index(np.argmax(bad), bad.shape)  # the first in row order
        kind = [k for k in layout if k != "rsrp"][col]
        raise ConfigurationError(
            f"{kind} id {int(ids[row, col])} outside one-hot vocabulary of size {sizes[col]}"
        )
    out = np.zeros((len(values), sum(widths)))
    rows = np.arange(len(values))
    start = 0
    for j, (kind, width) in enumerate(zip(layout, widths)):
        if kind == "rsrp":
            out[:, start] = values[:, j]
        else:
            out[rows, start + values[:, j].astype(np.intp)] = 1.0
        start += width
    return out


def _scan(
    serving: np.ndarray, cells: np.ndarray, beams: np.ndarray, rsrp: np.ndarray, config: FeatureConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass of extract over every given column, before one-hot expansion."""
    k = config.n_serving_beams
    nb = config.n_neighbor_beams
    n = len(serving)
    rows = np.arange(n)
    measured = ~np.isnan(rsrp)
    other_cell = cells != serving[:, None]
    is_serving = measured & ~other_cell
    n_serving = np.minimum(np.count_nonzero(is_serving, axis=1), k)

    # one pass per neighbor slot: the first entry of a cell not yet taken
    candidates = measured & other_cell
    nb_pos = np.zeros((n, nb), dtype=np.intp)
    n_neighbors = np.zeros(n, dtype=np.intp)
    for j in range(nb if rsrp.size else 0):  # argmax needs non-empty rows
        pos = np.argmax(candidates, axis=1)
        n_neighbors += candidates[rows, pos]
        nb_pos[:, j] = pos
        candidates &= cells != cells[rows, pos][:, None]

    kept = np.flatnonzero((n_serving == k) & (n_neighbors == nb))
    take = is_serving[kept]
    take &= np.cumsum(take, axis=1, dtype=np.int32) <= k
    serv_pos = np.nonzero(take)[1].reshape(len(kept), k)
    nb_pos = nb_pos[kept]
    r = kept[:, None]

    values = np.empty((len(kept), len(_layout(config))))
    values[:, 0 : 2 * k : 2] = beams[r, serv_pos]
    values[:, 1 : 2 * k : 2] = rsrp[r, serv_pos]
    col = 2 * k
    if config.include_serving_cell_id:
        values[:, col] = serving[kept]
        col += 1
    values[:, col::3] = cells[r, nb_pos]
    values[:, col + 1 :: 3] = beams[r, nb_pos]
    values[:, col + 2 :: 3] = rsrp[r, nb_pos]
    return values, kept, n_serving, n_neighbors


def extract(
    serving: np.ndarray,
    cells: np.ndarray,
    beams: np.ndarray,
    rsrp: np.ndarray,
    config: FeatureConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The feature kernel over sorted measurement columns.

    serving is (n,); cells, beams and rsrp are (n, m) rows in ranking
    order. A NaN rsrp marks padding (not measured), so reports of
    different lengths can share one call. Returns the feature vectors of
    the rows that fill the config, those rows' indices, and per row the
    serving beams and neighbor cells found, capped at the configured
    counts.

    Only the rows that cannot fill the config within their first
    _PREFIX_COLUMNS columns are scanned over their full width.
    """
    prefix = np.s_[:, :_PREFIX_COLUMNS]
    values, kept, n_serving, n_neighbors = _scan(serving, cells[prefix], beams[prefix], rsrp[prefix], config)
    if rsrp.shape[1] > _PREFIX_COLUMNS:
        redo = np.flatnonzero((n_serving < config.n_serving_beams) | (n_neighbors < config.n_neighbor_beams))
        if len(redo):
            more, more_kept, n_serving[redo], n_neighbors[redo] = _scan(
                serving[redo], cells[redo], beams[redo], rsrp[redo], config
            )
            # the rows kept by either scan, in row order
            kept = np.concatenate((kept, redo[more_kept]))
            order = np.argsort(kept)
            kept, values = kept[order], np.concatenate((values, more))[order]
    if config.one_hot_ids:
        values = _expand_one_hot(values, config)
    return values, kept, n_serving, n_neighbors


def shortfall(config: FeatureConfig, n_serving: int, n_neighbors: int) -> FeatureExtractionError:
    """Why a report cannot fill the config, from the serving beams and
    neighbor cells extract found in it (a missing serving beam before a
    missing neighbor)."""
    k = config.n_serving_beams
    if n_serving < k:
        return FeatureExtractionError(SKIP_SERVING, f"record has {n_serving} serving-cell measurements, need {k}")
    return FeatureExtractionError(
        SKIP_NEIGHBORS, f"record has {n_neighbors} distinct neighbor cells, need {config.n_neighbor_beams}"
    )


class FeatureAccumulator:
    """Feature vectors of a stream of record blocks, collected as extract
    gives them, so that the blocks' measurement columns need not outlive
    their extraction."""

    def __init__(self, config: FeatureConfig) -> None:
        self.config = config
        self._blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, xs: np.ndarray, ys: np.ndarray, extracted: tuple) -> None:
        """One block's coordinates and what extract returned on its
        records. A record is skipped for a missing serving beam before a
        missing neighbor."""
        values, kept, n_serving, n_neighbors = extracted
        short = n_serving < self.config.n_serving_beams
        reasons = np.where(short, 1, np.where(n_neighbors < self.config.n_neighbor_beams, 2, 0))
        labels = np.column_stack([xs, ys])[kept]
        self._blocks.append((values, labels, reasons.astype(np.int8)))

    def result(self) -> FeatureSet:
        """The FeatureSet of every record added, after at least one block."""
        values, labels, reasons = map(np.concatenate, zip(*self._blocks))
        return FeatureSet(values, labels, self.config, reasons)


def extract_features(dataset: Dataset, config: FeatureConfig, rows: Optional[np.ndarray] = None) -> FeatureSet:
    """extract over the records `rows` of a dataset (default: every
    record), in the order given; the result equals extract_features on
    dataset.subset(rows), with `indices` into `rows`.

    Records that cannot satisfy the config are skipped and counted by
    reason (a missing serving beam before a missing neighbor), never
    padded. The kernel runs on _EXTRACT_ROWS records at a time, gathered
    from the dataset's columns, so its temporaries stay the size of a
    block and no copy of the selected records is made.
    """
    accumulator = FeatureAccumulator(config)
    n = len(dataset) if rows is None else len(rows)
    # one pass even when there is nothing to extract, for the empty shapes
    for start in range(0, max(n, 1), _EXTRACT_ROWS):
        block = slice(start, start + _EXTRACT_ROWS)
        if rows is not None:
            block = rows[block]
        extracted = extract(
            dataset.serving[block],
            dataset.meas_cells[block],
            dataset.meas_beams[block],
            dataset.meas_rsrp[block],
            config,
        )
        accumulator.add(dataset.xs[block], dataset.ys[block], extracted)
    return accumulator.result()


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalizationStats):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


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


# ---------------------------------------------------------------------------
# Config file (the file keys are the short external names)


def feature_config_from_dict(d, where: str = "feature config") -> FeatureConfig:
    return from_dict(FeatureConfig, d, where)
