"""Fingerprint dataset generation and persistence.

One record per grid location: the full (cell, beam) RSRP sweep in
ranking order, the serving cell (network-wide argmax), and whether the
serving site is line of sight. Ranking order is descending RSRP, ties by
ascending cell id, then ascending beam id. Records are kept in column
form (numpy arrays) so the full default scenario stays cheap to slice; a
record is one row of those columns.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, DatasetParseError
# beam_gain_db, path_loss_db, sector_frame_offsets and shadowing_db stay
# importable from here: perfbench's layer table wraps them in this module
from .radio import beam_gain_db, path_loss_db, rsrp_cube, sector_frame_offsets, shadowing_db  # noqa: F401
from .scenario import Scenario, UE_HEIGHT_M, grid_xy, los_mask

_FORMAT_NAME = "beamprint-dataset"
_FORMAT_VERSION = 1
_MAX_FLOAT = sys.float_info.max
_INT32 = np.iinfo(np.int32)
_CHECK_ROWS = 16  # rows per vectorised record check
# rows per build_dataset block. A multiple of 64, so that a SIMD kernel
# that treats an array's last few elements apart meets them on the same
# rows as in a whole-grid call, and the block build keeps the whole-grid
# bits.
_BUILD_ROWS = 1024


@dataclass(frozen=True, eq=False)
class FingerprintRecord:
    """Measurement snapshot at one location: one row of a Dataset.

    cells, beams and rsrp are the measurement columns (cell id, beam id,
    RSRP in dBm) in ranking order.
    """

    x: float
    y: float
    serving_cell_id: int
    los_to_serving: bool
    cells: np.ndarray
    beams: np.ndarray
    rsrp: np.ndarray


@dataclass(eq=False)
class Dataset:
    """Column-oriented container of fingerprint records."""

    xs: np.ndarray
    ys: np.ndarray
    serving: np.ndarray
    los: np.ndarray
    meas_cells: np.ndarray
    meas_beams: np.ndarray
    meas_rsrp: np.ndarray
    cells: Sequence[int]
    n_beams: int
    scenario_hash: str
    seed: int

    def __post_init__(self):
        n = len(self.xs)
        if not (len(self.ys) == len(self.serving) == len(self.los) == n):
            raise DataError("dataset columns disagree on record count")
        if self.meas_rsrp.shape != self.meas_cells.shape or self.meas_rsrp.shape != self.meas_beams.shape:
            raise DataError("measurement columns disagree on shape")
        if n and self.meas_rsrp.shape[0] != n:
            raise DataError("measurement rows disagree with record count")
        self.cells = tuple(int(c) for c in self.cells)
        self.n_beams = int(self.n_beams)
        self.seed = int(self.seed)

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def n_measurements(self) -> int:
        return self.meas_rsrp.shape[1] if len(self) else len(self.cells) * self.n_beams

    def record(self, i: int) -> FingerprintRecord:
        return FingerprintRecord(
            x=float(self.xs[i]),
            y=float(self.ys[i]),
            serving_cell_id=int(self.serving[i]),
            los_to_serving=bool(self.los[i]),
            cells=self.meas_cells[i],
            beams=self.meas_beams[i],
            rsrp=self.meas_rsrp[i],
        )

    def subset(self, index: np.ndarray) -> "Dataset":
        return replace(self, **{column: getattr(self, column)[index] for column in _RECORD_COLUMNS})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


# the per-record columns, one entry per record; the other fields are header
_RECORD_COLUMNS = ("xs", "ys", "serving", "los", "meas_cells", "meas_beams", "meas_rsrp")


def build_dataset(scenario: Scenario, seed: Optional[int] = None) -> Dataset:
    """Sweep every grid location and assemble the fingerprint dataset.

    Deterministic given (scenario, seed); the seed only feeds the
    optional shadowing term and defaults to the scenario rng_seed.
    """
    if seed is None:
        seed = scenario.config.rng_seed
    xy = grid_xy(scenario)
    n = xy.shape[0]
    if n == 0:
        raise DataError("scenario grid is empty, nothing to measure")

    cells = scenario.cell_ids
    n_cells = len(cells)
    n_beams = len(scenario.codebook.beams)
    m = n_cells * n_beams
    px = xy[:, 0]
    py = xy[:, 1]
    pts3 = np.column_stack([px, py, np.full(n, UE_HEIGHT_M)])
    cell_col = np.asarray(cells, dtype=np.int32)
    col_cells = np.repeat(cell_col, n_beams)
    col_beams = np.tile(np.arange(n_beams, dtype=np.int32), n_cells)

    # the sweep, argmax, sort and gather run a block of rows at a time,
    # written into the output columns, so that the cube, the sort order
    # and the gathered copies never exist for the whole grid at once
    serving = np.empty(n, dtype=np.int32)
    meas_cells = np.empty((n, m), dtype=np.int32)
    meas_beams = np.empty((n, m), dtype=np.int32)
    meas_rsrp = np.empty((n, m))
    for start in range(0, n, _BUILD_ROWS):
        rows = slice(start, start + _BUILD_ROWS)
        flat = rsrp_cube(scenario, pts3[rows], seed).reshape(-1, m)
        # argmax returns the first maximum, which in cell-major column
        # order means ties resolve to the lowest cell id (then beam id)
        serving[rows] = cell_col[np.argmax(flat, axis=1) // n_beams]
        order = np.argsort(-flat, axis=1, kind="stable")
        meas_cells[rows] = col_cells[order]
        meas_beams[rows] = col_beams[order]
        meas_rsrp[rows] = np.take_along_axis(flat, order, axis=1)
        del flat, order  # or they would live on while the next block is made

    los = np.zeros(n, dtype=bool)
    site_index = {id(site): idx for idx, site in enumerate(scenario.sites)}
    serving_site = np.empty(n, dtype=np.int32)
    for cell_id in cells:
        site, _ = scenario.cell_map[cell_id]
        serving_site[serving == cell_id] = site_index[id(site)]
    for idx, site in enumerate(scenario.sites):
        sel = np.nonzero(serving_site == idx)[0]
        if sel.size:
            los[sel] = los_mask(scenario, site.position, pts3[sel])

    return Dataset(
        xs=px.copy(),
        ys=py.copy(),
        serving=serving,
        los=los,
        meas_cells=meas_cells,
        meas_beams=meas_beams,
        meas_rsrp=meas_rsrp,
        cells=cells,
        n_beams=n_beams,
        scenario_hash=scenario.fingerprint_hash,
        seed=seed,
    )


def los_filter(dataset: Dataset) -> Dataset:
    """Keep only records whose serving site is line of sight."""
    keep = np.nonzero(dataset.los)[0]
    if keep.size == 0:
        raise DataError("line-of-sight filter removed every record")
    return dataset.subset(keep)


def partition_by_cell(dataset: Dataset) -> Dict[int, Dataset]:
    """Split by serving cell; only cells that actually serve appear."""
    out: Dict[int, Dataset] = {}
    for cell_id in sorted(set(int(c) for c in dataset.serving)):
        out[cell_id] = dataset.subset(np.nonzero(dataset.serving == cell_id)[0])
    return out


# ---------------------------------------------------------------------------
# Persistence: line-delimited JSON, header first


def _first_bad_record(dataset: Dataset, cell_ids: np.ndarray) -> Optional[Tuple[int, str, str]]:
    """The first record that breaks a record rule, as (row, field,
    message), or None. The rules, in the order a record is checked: x,
    y and every rsrp finite; every measurement cell in `cell_ids` (the
    header's); every beam id in [0, n_beams); measurements in
    ranking order; a serving cell that is in `cell_ids` and is the
    first measurement's. save_dataset and load_dataset both refuse what
    it names.

    Works through a few rows at a time: a temporary the size of the
    measurement matrix raises malloc's mmap threshold, and the heap that
    later temporaries grow then stays with the process."""
    n_beams = dataset.n_beams
    for start in range(0, len(dataset), _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS)
        cells, beams, rsrp = dataset.meas_cells[rows], dataset.meas_beams[rows], dataset.meas_rsrp[rows]
        serving = dataset.serving[rows]
        unknown = ~np.isin(cells, cell_ids)
        outside = (beams < 0) | (beams >= n_beams)
        faults = np.column_stack(
            (
                ~np.isfinite(dataset.xs[rows]),
                ~np.isfinite(dataset.ys[rows]),
                ~np.isfinite(rsrp).all(axis=1),
                unknown.any(axis=1),
                outside.any(axis=1),
                ~_ranked(cells, beams, rsrp),
                ~np.isin(serving, cell_ids),
                serving != cells[:, 0],
            )
        )
        if faults.any():
            i, k = np.argwhere(faults)[0]  # first bad row, then its first fault
            if k < 3:
                what = f"field {('x', 'y', 'rsrp')[k]!r} is not finite"
            elif k == 3:
                what = f"measurement references cell {cells[i][unknown[i]][0]}, not in the dataset's cells"
            elif k == 4:
                what = f"measurement references beam {beams[i][outside[i]][0]}, outside [0, {n_beams})"
            elif k == 5:
                what = (
                    "measurements are not in ranking order "
                    "(sorted by descending rsrp, then ascending cell and beam)"
                )
            elif k == 6:
                what = f"serving cell {serving[i]} is not in the dataset's cells"
            else:
                what = f"serving cell {serving[i]} is not the strongest measurement's cell {cells[i][0]}"
            return start + int(i), ("x", "y", "meas", "meas", "meas", "meas", "serving", "serving")[k], what
    return None


def save_dataset(dataset: Dataset, path) -> None:
    """Write `dataset` as JSONL: the header line, then one record per
    line with keys in sorted order and floats as their shortest repr
    (the bytes json.dumps(..., sort_keys=True, separators=(",", ":"))
    gives). A dataset load_dataset would refuse raises DataError before
    the file is opened.

    Beams tie exactly, so a row of hundreds of measurements holds only
    about a hundred distinct rsrp values: each is formatted once per row
    and the "[cell,beam," prefixes come from a table built once.
    """
    cell_ids = np.array(sorted(set(dataset.cells)), dtype=np.int64)
    if cell_ids.size and not (_INT32.min <= cell_ids[0] and cell_ids[-1] <= _INT32.max):
        raise DataError("header: cell ids must fit in 32 bits; load_dataset would refuse the file")
    if not 1 <= dataset.n_beams <= _INT32.max:
        raise DataError("header: beams per cell must be a positive 32-bit int; load_dataset would refuse the file")
    if len(dataset) and dataset.meas_rsrp.shape[1] == 0:
        raise DataError("record 0: it has no measurements; load_dataset would refuse the file")
    bad = _first_bad_record(dataset, cell_ids)
    if bad is not None:
        row, _, what = bad
        raise DataError(f"record {row}: {what}; load_dataset would refuse the file")
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "scenario_hash": dataset.scenario_hash,
        "seed": dataset.seed,
        "cells": list(dataset.cells),
        "beams_per_cell": dataset.n_beams,
    }
    width = int(dataset.meas_beams.max()) + 1 if dataset.meas_beams.size else 0
    # "[cell,beam," at position index(cell in cell_ids) * width + beam
    prefixes = np.array([f"[{c},{b}," for c in cell_ids.tolist() for b in range(width)], dtype=object)
    pieces = np.empty(2 * dataset.meas_rsrp.shape[1], dtype=object)
    # float64 (no copy when it is already): the formatting below reads
    # float64 bit patterns and Python floats
    rows = zip(
        np.asarray(dataset.xs, dtype=np.float64).tolist(),
        np.asarray(dataset.ys, dtype=np.float64).tolist(),
        dataset.serving.tolist(),
        dataset.los.tolist(),
        dataset.meas_cells,
        dataset.meas_beams,
        np.asarray(dataset.meas_rsrp, dtype=np.float64),
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        for x, y, serving, los, row_cells, row_beams, row_rsrp in rows:
            # bit patterns, so that -0.0 and 0.0 stay apart
            distinct, inverse = np.unique(row_rsrp.view(np.uint64), return_inverse=True)
            values = np.array([repr(v) + "]," for v in distinct.view(np.float64).tolist()], dtype=object)
            pieces[0::2] = prefixes[np.searchsorted(cell_ids, row_cells) * width + row_beams]
            pieces[1::2] = values[inverse]
            meas = "".join(pieces.tolist())[:-1]  # no comma after the last item
            fh.write(
                f'{{"los":{"true" if los else "false"},"meas":[{meas}],'
                f'"serving":{serving},"x":{x!r},"y":{y!r}}}\n'
            )


def _decode_line(raw: str, path, line: int) -> dict:
    """The JSON object on one line of a dataset or measurement file.

    Files are opened with errors="surrogateescape", so a non-ASCII byte
    reaches here as a lone surrogate. Non-ASCII text, bad JSON, JSON
    nested deeper than the parser's stack and any value but an object
    are a DatasetParseError naming the line.
    """
    if not raw.isascii():
        raise DatasetParseError("line is not ASCII text", path=path, line=line)
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise DatasetParseError(f"bad JSON: {e.msg}", path=path, line=line) from e
    except RecursionError:
        raise DatasetParseError("JSON nested too deeply", path=path, line=line) from None
    if not isinstance(obj, dict):
        raise DatasetParseError("line is not a JSON object", path=path, line=line)
    return obj


def parse_measurements(meas, path, line: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check one decoded JSON measurement list and return its columns.

    Returns (cell ids, beam ids, rsrp) in input order as int32, int32
    and float64 arrays. Each item must be a [cell, beam, rsrp] list with
    integer ids that fit in 32 bits, as datasets store them (true/false
    are not ids), and a finite rsrp. Any violation is a
    DatasetParseError on field 'meas'.
    """

    def fail(message: str) -> DatasetParseError:
        return DatasetParseError(message, path=path, line=line, field="meas")

    if not isinstance(meas, list) or not meas:
        raise fail("meas must be a non-empty list")
    # type() rather than isinstance: bool is a subclass of int
    if set(map(type, meas)) != {list} or set(map(len, meas)) != {3}:
        raise fail("each measurement must be [cell, beam, rsrp]")
    # slicing one flat list is far cheaper than zip(*meas), which holds
    # an iterator per item
    flat = list(chain.from_iterable(meas))
    cell_ids, beam_ids, rsrp_col = flat[0::3], flat[1::3], flat[2::3]
    if set(map(type, cell_ids)) != {int} or set(map(type, beam_ids)) != {int}:
        raise fail("cell and beam ids must be integers")
    if not set(map(type, rsrp_col)) <= {int, float}:
        raise fail("rsrp must be a number")
    try:
        rsrp = np.array(rsrp_col, dtype=np.float64)
    except OverflowError:  # an int past the float range
        raise fail("rsrp must be finite") from None
    if not np.isfinite(rsrp).all():
        raise fail("rsrp must be finite")
    try:
        ids = np.array((cell_ids, beam_ids), dtype=np.int64)
    except OverflowError:  # an id past 64 bits
        ids = None
    if ids is None or ids.min() < _INT32.min or ids.max() > _INT32.max:
        raise fail("cell and beam ids must fit in 32 bits")
    ids = ids.astype(np.int32)
    return ids[0], ids[1], rsrp


def _ranked(cells: np.ndarray, beams: np.ndarray, rsrp: np.ndarray) -> np.ndarray:
    """Per row (along the last axis), whether measurement columns are in
    ranking order: descending rsrp, ties by ascending cell id, then
    ascending beam id."""
    r0, r1 = rsrp[..., :-1], rsrp[..., 1:]
    c0, c1 = cells[..., :-1], cells[..., 1:]
    tie_ok = (c0 < c1) | (c0 == c1) & (beams[..., :-1] < beams[..., 1:])
    return ((r0 > r1) | (r0 == r1) & tie_ok).all(axis=-1)


def parse_coordinate(value, key: str, path, line: int) -> float:
    """A finite JSON number (true/false are not numbers) as a float;
    otherwise a DatasetParseError on field `key`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not abs(value) <= _MAX_FLOAT:
        raise DatasetParseError(f"{key} must be a finite number", path=path, line=line, field=key)
    return float(value)


def _require(obj: dict, key: str, path, line: int):
    if key not in obj:
        raise DatasetParseError("missing required field", path=path, line=line, field=key)
    return obj[key]


def _lines_at_most(fh) -> int:
    """At least the number of lines in a file opened for reading in text
    mode: one more than its line-end bytes (text mode ends a line at
    "\n", "\r" or "\r\n"). The position in the file is kept."""
    here = fh.tell()
    fh.buffer.seek(0)
    ends = 0
    for chunk in iter(lambda: fh.buffer.read(1 << 20), b""):
        ends += chunk.count(b"\n")
        if b"\r" in chunk:  # rare, and the test costs far less than a count
            ends += chunk.count(b"\r")
    fh.seek(here)
    return ends + 1


def load_dataset(path, expected_scenario_hash: Optional[str] = None) -> Dataset:
    """Read a dataset file back; the round trip is exact.

    Raises DatasetParseError naming the line and field of the first
    fault: first a line whose JSON, fields or types are bad, in line
    order; then the first record that breaks a record rule, by the
    check save_dataset makes. Raises DataError on a scenario hash
    mismatch when expected_scenario_hash is given; the hash is compared
    right after the header, before any record line is read.
    """
    try:
        fh = open(path, "r", encoding="ascii", errors="surrogateescape")
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    with fh:
        header_line = fh.readline()
        if not header_line:
            raise DatasetParseError("empty dataset file", path=path, line=1)
        header = _decode_line(header_line, path, 1)
        if header.get("format") != _FORMAT_NAME:
            raise DatasetParseError("not a fingerprint dataset file", path=path, line=1)
        if header.get("version") != _FORMAT_VERSION:
            raise DatasetParseError(
                f"unsupported dataset version {header.get('version')}", path=path, line=1
            )
        cells = _require(header, "cells", path, 1)
        n_beams = _require(header, "beams_per_cell", path, 1)
        scenario_hash_value = _require(header, "scenario_hash", path, 1)
        seed = _require(header, "seed", path, 1)
        # ids are stored as int32
        if not isinstance(cells, list) or set(map(type, cells)) - {int} or not all(
            _INT32.min <= c <= _INT32.max for c in cells
        ):
            raise DatasetParseError("cells must be a list of 32-bit ints", path=path, line=1, field="cells")
        if type(n_beams) is not int or not 1 <= n_beams <= _INT32.max:
            raise DatasetParseError(
                "beams_per_cell must be a positive 32-bit int", path=path, line=1, field="beams_per_cell"
            )
        if type(scenario_hash_value) is not str:
            raise DatasetParseError("scenario_hash must be a string", path=path, line=1, field="scenario_hash")
        if type(seed) is not int:
            raise DatasetParseError("seed must be an int", path=path, line=1, field="seed")
        # before any record is parsed: refusing a file costs one line
        if expected_scenario_hash is not None and scenario_hash_value != expected_scenario_hash:
            raise DataError(
                f"dataset was generated from scenario {scenario_hash_value[:12]}, "
                f"expected {expected_scenario_hash[:12]}"
            )

        # each record's measurements are written into columns made at the
        # first record, so they are held once; the line count that sizes
        # them is taken only now, so refusing a file costs one line
        try:
            capacity = _lines_at_most(fh)
        except OSError as e:  # a pipe cannot be read twice
            raise DataError(f"cannot count the lines of dataset {path}: {e}") from e
        xs: List[float] = []
        ys: List[float] = []
        serving: List[int] = []
        los: List[bool] = []
        meas_cells = np.empty((0, 0), dtype=np.int32)
        meas_beams = np.empty((0, 0), dtype=np.int32)
        meas_rsrp = np.empty((0, 0))
        linenos: List[int] = []

        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            row = _decode_line(raw, path, lineno)
            x = _require(row, "x", path, lineno)
            y = _require(row, "y", path, lineno)
            sv = _require(row, "serving", path, lineno)
            lo = _require(row, "los", path, lineno)
            meas = _require(row, "meas", path, lineno)
            x = parse_coordinate(x, "x", path, lineno)
            y = parse_coordinate(y, "y", path, lineno)
            if type(sv) is not int or not _INT32.min <= sv <= _INT32.max:
                raise DatasetParseError("serving must be a 32-bit int", path=path, line=lineno, field="serving")
            if not isinstance(lo, bool):
                raise DatasetParseError("los must be a bool", path=path, line=lineno, field="los")
            mc, mb, mr = parse_measurements(meas, path, lineno)
            i = len(xs)
            if i == 0:
                meas_cells = np.empty((capacity, len(mr)), dtype=np.int32)
                meas_beams = np.empty((capacity, len(mr)), dtype=np.int32)
                meas_rsrp = np.empty((capacity, len(mr)))
            elif len(mr) != meas_rsrp.shape[1]:
                raise DatasetParseError(
                    "records disagree on measurement count", path=path, line=lineno, field="meas"
                )
            if i == capacity:
                raise DataError(f"dataset {path} grew while it was read")
            xs.append(x)
            ys.append(y)
            serving.append(sv)
            los.append(lo)
            meas_cells[i] = mc
            meas_beams[i] = mb
            meas_rsrp[i] = mr
            linenos.append(lineno)

    n = len(xs)
    dataset = Dataset(
        xs=np.asarray(xs, dtype=np.float64),
        ys=np.asarray(ys, dtype=np.float64),
        serving=np.asarray(serving, dtype=np.int32),
        los=np.asarray(los, dtype=bool),
        # views of the first n rows: the rows past them were never written,
        # so their pages were never touched
        meas_cells=meas_cells[:n],
        meas_beams=meas_beams[:n],
        meas_rsrp=meas_rsrp[:n],
        cells=cells,
        n_beams=n_beams,
        scenario_hash=scenario_hash_value,
        seed=seed,
    )
    bad = _first_bad_record(dataset, np.array(sorted(set(cells)), dtype=np.int64))
    if bad is not None:
        row, field, what = bad
        raise DatasetParseError(what, path=path, line=linenos[row], field=field)
    return dataset
