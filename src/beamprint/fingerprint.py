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
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain, islice
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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

    def subset(self, index: np.ndarray) -> "Dataset":
        return replace(self, **{column: getattr(self, column)[index] for column in _RECORD_COLUMNS})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


# the per-record columns, one entry per record; the other fields are header
_RECORD_COLUMNS = ("xs", "ys", "serving", "los", "meas_cells", "meas_beams", "meas_rsrp")
# los_filter's refusal, also raised by a line-of-sight-only sweep
_NO_LOS = "line-of-sight filter removed every record"


def sweep_blocks(scenario: Scenario, seed: int, *, los_only: bool = False) -> Iterator[tuple]:
    """Sweep the grid _BUILD_ROWS locations at a time, yielding each
    block's records as the columns (x, y, serving, los, cells, beams,
    rsrp), the measurements in ranking order.

    `seed` feeds only the optional shadowing term. With `los_only` a
    block keeps only the records whose serving site is line of sight,
    possibly none; a sweep that keeps none raises los_filter's
    DataError after its last block. build_dataset collects the blocks;
    a consumer that needs less than the measurement columns can drop
    each block once it has read it, so that the columns never exist
    for the whole grid.
    """
    xy = grid_xy(scenario)
    n = xy.shape[0]
    if n == 0:
        raise DataError("scenario grid is empty, nothing to measure")

    cells = scenario.cell_ids
    n_beams = len(scenario.codebook.beams)
    m = len(cells) * n_beams
    pts3 = np.column_stack([xy, np.full(n, UE_HEIGHT_M)])
    cell_col = np.asarray(cells, dtype=np.int32)
    col_cells = np.repeat(cell_col, n_beams)
    col_beams = np.tile(np.arange(n_beams, dtype=np.int32), len(cells))
    # each cell's site position: the line of sight is tested toward the
    # serving cell's site
    cell_tx = np.array([scenario.cell_map[c][0].position for c in cells], dtype=np.float64)

    # the sweep, argmax, LOS test, sort and gather run a block of rows at
    # a time, so that the cube, the sort order and the gathered copies
    # never exist for the whole grid at once
    kept = 0
    for start in range(0, n, _BUILD_ROWS):
        pts = pts3[start : start + _BUILD_ROWS]
        flat = rsrp_cube(scenario, pts, seed).reshape(-1, m)
        # argmax returns the first maximum, which in cell-major column
        # order means ties resolve to the lowest cell id (then beam id)
        top = np.argmax(flat, axis=1) // n_beams
        block_los = los_mask(scenario, cell_tx[top], pts)
        if los_only:
            rows = np.flatnonzero(block_los)
            flat = flat[rows]
        else:
            rows = np.arange(len(pts))
        order = np.argsort(-flat, axis=1, kind="stable")
        meas_rsrp = np.take_along_axis(flat, order, axis=1)
        del flat  # each temporary goes as soon as it is read for the last time
        meas_cells, meas_beams = col_cells[order], col_beams[order]
        del order
        kept += len(rows)
        yield pts[rows, 0], pts[rows, 1], cell_col[top[rows]], block_los[rows], meas_cells, meas_beams, meas_rsrp
        del meas_cells, meas_beams, meas_rsrp  # or they would live on while the next block is made
    if kept == 0:
        raise DataError(_NO_LOS)


def build_dataset(scenario: Scenario, seed: Optional[int] = None) -> Dataset:
    """Sweep every grid location and assemble the fingerprint dataset.

    Deterministic given (scenario, seed); the seed only feeds the
    optional shadowing term and defaults to the scenario rng_seed.

    The blocks of sweep_blocks are written one after another into the
    preallocated output columns, so that beyond them the build holds
    one block's temporaries.
    """
    if seed is None:
        seed = scenario.config.rng_seed
    n = len(grid_xy(scenario))
    m = len(scenario.cell_ids) * len(scenario.codebook.beams)
    columns = (
        np.empty(n),
        np.empty(n),
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=bool),
        np.empty((n, m), dtype=np.int32),
        np.empty((n, m), dtype=np.int32),
        np.empty((n, m)),
    )
    k = 0
    for block in sweep_blocks(scenario, seed):
        rows = slice(k, k + len(block[0]))
        for column, values in zip(columns, block):
            column[rows] = values
        k = rows.stop
        del block, values  # or they would live on while the next block is made
    return Dataset(
        *columns,
        cells=scenario.cell_ids,
        n_beams=len(scenario.codebook.beams),
        scenario_hash=scenario.fingerprint_hash,
        seed=seed,
    )


def los_rows(dataset: Dataset) -> np.ndarray:
    """Indices of the records whose serving site is line of sight."""
    keep = np.flatnonzero(dataset.los)
    if keep.size == 0:
        raise DataError(_NO_LOS)
    return keep


def los_filter(dataset: Dataset) -> Dataset:
    """Keep only records whose serving site is line of sight."""
    return dataset.subset(los_rows(dataset))


def cell_rows(serving: np.ndarray) -> Dict[int, np.ndarray]:
    """Indices of each serving cell's records, given the records' serving
    column, by ascending cell id; only cells that actually serve appear."""
    return {int(c): np.flatnonzero(serving == c) for c in np.unique(serving)}


def partition_by_cell(dataset: Dataset) -> Dict[int, Dataset]:
    """Split by serving cell; only cells that actually serve appear."""
    return {cell: dataset.subset(rows) for cell, rows in cell_rows(dataset.serving).items()}


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
    about a hundred distinct rsrp values: each run of equal values is
    formatted once and the "[cell,beam," prefixes come from a table
    built once.
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
    new = np.ones(dataset.meas_rsrp.shape[1], dtype=bool)  # where a run of equal rsrp starts
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
            # rows are in ranking order, so equal values are neighbours: each
            # run of one bit pattern (-0.0 and 0.0 stay apart) is formatted once
            bits = row_rsrp.view(np.uint64)
            new[1:] = bits[1:] != bits[:-1]
            starts = np.flatnonzero(new)
            values = np.array([repr(v) + "]," for v in row_rsrp[starts].tolist()], dtype=object)
            pieces[0::2] = prefixes[np.searchsorted(cell_ids, row_cells) * width + row_beams]
            pieces[1::2] = np.repeat(values, np.diff(starts, append=len(bits)))
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


def _servable(block: Block) -> bool:
    """Whether parse_measurement_line would keep every row of a block as
    it is, as a report: in ranking order, serving its strongest cell."""
    return bool((block.serving == block.cells[:, 0]).all() and _ranked(block.cells, block.beams, block.rsrp).all())


# ---------------------------------------------------------------------------
# The block reader: save_dataset's record lines, parsed with numpy over a
# block's bytes. Any other line, and any line whose values the per-line
# path would refuse or read differently, takes the per-line path
# (_decode_line and the field checks), which alone raises errors.

# lines load_dataset and infer_file read and hand to read_block at a time
BLOCK_LINES = 32
_HEADS = {True: '{"los":true,"meas":[', False: '{"los":false,"meas":['}
_TAIL_START = '],"serving":'
# a JSON number with a fraction or an exponent: json decodes it, and
# float() reads it, as the same float ("-0" would be the int 0 in JSON)
_JSON_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_TAIL = re.compile(
    r'\],"serving":(-?(?:0|[1-9][0-9]{0,9})),"x":(' + _JSON_FLOAT + r'),"y":(' + _JSON_FLOAT + r")\}\n?"
)
_RSRP_TEXT = re.compile(r"(?:" + _JSON_FLOAT + r"\])*")
# longer rsrp tokens take the per-line path; repr of a float has at most 24
_MAX_FLOAT_CHARS = 32
_PADDING = _MAX_FLOAT_CHARS + 8  # bytes
# the id of each 2-byte word that starts a JSON int token of one or two
# characters ("7," or "42" or "-3"); _NOT_ID for every other word ("05",
# "-0", "-,", ...), which _json_ints then reads or refuses
_NOT_ID = _INT32.min
_ID_TABLE = np.full(1 << 16, _NOT_ID, dtype=np.int32)
_ID_TABLE[[int.from_bytes(f"{i},".encode("ascii")[:2], "little") for i in range(-9, 100)]] = range(-9, 100)


class Block(NamedTuple):
    """The lines of a block that read_block parsed, as columns: `rows`
    are their positions in the block, the others one entry (or row of
    measurements) per line, typed as the per-line path types them."""

    rows: List[int]
    xs: np.ndarray
    ys: np.ndarray
    serving: np.ndarray
    los: np.ndarray
    cells: np.ndarray
    beams: np.ndarray
    rsrp: np.ndarray


def _json_ints(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> Optional[np.ndarray]:
    """The tokens buf[start:end] as int32, or None unless every one is a
    JSON integer (-?(0|[1-9][0-9]*)) of at most 10 digits in int32's
    range. Built a digit column at a time, right-aligned, so ids of one
    or two digits cost one or two gathers."""
    neg = buf[start] == ord("-")
    start = start + neg
    n = end - start
    if n.min() < 1 or n.max() > 10:
        return None
    if ((buf[start] == ord("0")) & (n > 1)).any():  # a leading zero
        return None
    values = np.zeros(len(start), dtype=np.int64)
    width = int(n.max())
    for k in range(width, 0, -1):  # the k-th digit from the end
        digit = buf[end - k] - np.uint8(ord("0"))  # below "0" wraps past 9
        inside = n >= k
        if (inside & (digit > 9)).any():
            return None
        values *= 10
        values += np.where(inside, digit, 0)
    values[neg] *= -1
    if values.min() < _INT32.min or values.max() > _INT32.max:
        return None
    return values.astype(np.int32)


def _json_floats(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> Optional[np.ndarray]:
    """The tokens buf[start:end] as float64, or None unless every one is
    a JSON number with a fraction or an exponent and a finite value.

    In a ranked row equal values are neighbours, so only the first token
    of each run of equal text is checked (by regex) and read (by
    float(), the conversion json makes). Neighbours of one length are
    compared as the 8-byte words at start, start + 8, ... (the last one
    ending at the token's end), which cover the token; a token shorter
    than 8 bytes is compared with the bytes after it, which only splits
    a run."""
    length = end - start
    if length.max() > _MAX_FLOAT_CHARS:
        return None
    # the little-endian 8-byte word at every byte offset
    words = np.ndarray(shape=(len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    same = np.zeros(len(start), dtype=bool)
    same[1:] = length[1:] == length[:-1]
    for k in range(0, int(length.max()), 8):
        w = words[np.maximum(np.minimum(start + k, end - 8), start)]
        same[1:] &= w[1:] == w[:-1]
    firsts = np.flatnonzero(~same)
    # each run's text with the "]" after it, end to end
    spans = length[firsts] + 1
    offsets = np.cumsum(spans) - spans
    text = buf[np.arange(int(spans.sum())) + np.repeat(start[firsts] - offsets, spans)].tobytes().decode("ascii")
    if not _RSRP_TEXT.fullmatch(text):
        return None
    values = np.fromiter(map(float, text.split("]")[:-1]), dtype=np.float64, count=len(firsts))
    if not np.isfinite(values).all():
        return None
    return np.repeat(values, np.diff(firsts, append=len(start)))


def _json_ids(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> Optional[np.ndarray]:
    """_json_ints of tokens that each end at a comma. When every token is
    one or two characters long, each is looked up in _ID_TABLE by the two
    bytes at its start (a one-character token's second byte is its
    comma), and _json_ints reads them only if the table lacks one."""
    if (end - start).max() <= 2:
        # the little-endian 2-byte word at every byte offset
        pairs = np.ndarray(shape=(len(buf) - 1,), dtype="<u2", buffer=buf, strides=(1,))
        ids = _ID_TABLE[pairs[start]]
        if not (ids == _NOT_ID).any():
            return ids
    return _json_ints(buf, start, end)


def _measurement_columns(bodies: List[str]) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (cells, beams, rsrp) matrices of `meas` list bodies, one row
    per body, or None unless each is exactly "[c,b,r],...,[c,b,r]" with
    _json_ints ids and _json_floats rsrp, and every body holds as many
    measurements."""
    # the bodies end to end, each with a comma after it, in one buffer;
    # zero padding keeps the words _json_floats reads inside it
    buf = np.frombuffer(",".join([*bodies, "\0" * _PADDING]).encode("ascii"), dtype=np.uint8)
    # one separator pass, over the commas alone: a measurement has three,
    # its "[" is the byte after the previous measurement's third comma (or
    # the buffer start) and its "]" the byte before its own third comma.
    # With those bytes checked, and each body's first "[" at its start,
    # every other byte lies inside a token, which the token checks read
    commas = np.flatnonzero(buf == ord(","))
    per_row, rest = divmod(len(commas), 3 * len(bodies))
    if per_row == 0 or rest:
        return None
    first, second, third = commas.reshape(-1, 3).T
    opens, closes = np.concatenate(([0], third[:-1] + 1)), third - 1
    body_starts = np.cumsum([0] + [len(body) + 1 for body in bodies[:-1]])
    if not (
        (opens[::per_row] == body_starts).all()
        and (buf[opens] == ord("[")).all()
        and (buf[closes] == ord("]")).all()
    ):
        return None
    ids = _json_ids(buf, np.concatenate((opens, first)) + 1, np.concatenate((first, second)))
    rsrp = None if ids is None else _json_floats(buf, second + 1, closes)
    if rsrp is None:
        return None
    shape = (len(bodies), per_row)
    return ids[: len(third)].reshape(shape), ids[len(third) :].reshape(shape), rsrp.reshape(shape)


def read_block(lines: Sequence[str]) -> Optional[Block]:
    """The lines of `lines` that have save_dataset's exact record form
    ({"los":…,"meas":[[c,b,r],…],"serving":S,"x":X,"y":Y}, no spaces),
    parsed together; None when there are none, or when any of them needs
    the per-line path: a value that path refuses or reads differently
    (an rsrp or coordinate without a fraction or exponent, a token past
    JSON's grammar or int32, a non-finite value), an rsrp of more than
    _MAX_FLOAT_CHARS characters or rows of different lengths. The other
    lines always take the per-line path, and on None so do these, so
    that results and errors never depend on it."""
    rows, bodies, tails = [], [], []
    for i, raw in enumerate(lines):
        los = raw.startswith(_HEADS[True])
        head = _HEADS[los]
        if not (raw.isascii() and raw.startswith(head)):
            continue
        cut = raw.rfind(_TAIL_START)
        tail = _TAIL.fullmatch(raw, cut) if cut >= len(head) else None
        if tail is not None:
            rows.append(i)
            bodies.append(raw[len(head) : cut])
            tails.append((los, *tail.groups()))
    if not rows:
        return None
    meas = _measurement_columns(bodies)
    if meas is None:
        return None
    los, serving, xs, ys = zip(*tails)
    xs = np.fromiter(map(float, xs), dtype=np.float64, count=len(rows))
    ys = np.fromiter(map(float, ys), dtype=np.float64, count=len(rows))
    serving = np.fromiter(map(int, serving), dtype=np.int64, count=len(rows))
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return None
    if serving.min() < _INT32.min or serving.max() > _INT32.max:
        return None
    return Block(rows, xs, ys, serving.astype(np.int32), np.array(los), *meas)


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


def _block_lines(
    fh, lineno: int, parse: Callable[[str, int], Optional[tuple]], accept: Optional[Callable[[Block], bool]] = None
) -> Iterator[Tuple[int, tuple]]:
    """(line number, columns) for each line of an open file from
    `lineno` on, read BLOCK_LINES at a time, blank lines skipped. The
    columns are (x, y, serving, los, cells, beams, rsrp): read_block's
    where it parsed the line and its block passes `accept`, else
    `parse(line, line number)`'s; a line it gives None for is skipped."""
    while block := list(islice(fh, BLOCK_LINES)):
        parsed = read_block(block)
        if parsed is None or accept is not None and not accept(parsed):
            rows = {}
        else:
            scalars = (parsed.xs.tolist(), parsed.ys.tolist(), parsed.serving.tolist(), parsed.los.tolist())
            rows = dict(zip(parsed.rows, zip(*scalars, parsed.cells, parsed.beams, parsed.rsrp)))
        for offset, raw in enumerate(block):
            columns = rows.get(offset)
            if columns is None and raw.strip():
                columns = parse(raw, lineno + offset)
            if columns is not None:
                yield lineno + offset, columns
        lineno += len(block)


def parse_measurement_line(raw: str, lineno: int, path=None, *, record: bool = False) -> Optional[tuple]:
    """One line of a dataset or measurement file, by the per-line path,
    as the columns _block_lines gives. A DatasetParseError names its
    first fault; fields are checked in the order x, y, serving, los,
    meas, and a field that is present is always checked.

    With `record` the line is a dataset record: every field is required,
    and the ranking is left to load_dataset's check over the whole file.
    Otherwise it is a measurement report: x and y default to NaN,
    serving to the strongest cell, which a given serving must be, and
    los to true; the measurements are put in ranking order, so callers
    may pass unsorted reports; and a dataset header line gives None.
    """
    d = _decode_line(raw, path, lineno)
    if record:
        for key in ("x", "y", "serving", "los", "meas"):
            _require(d, key, path, lineno)
    elif d.get("format") == _FORMAT_NAME:
        return None  # the header of a dataset, as concatenated datasets hold
    x = parse_coordinate(d["x"], "x", path, lineno) if "x" in d else float("nan")
    y = parse_coordinate(d["y"], "y", path, lineno) if "y" in d else float("nan")
    serving = d.get("serving")
    if "serving" in d and (type(serving) is not int or not _INT32.min <= serving <= _INT32.max):
        raise DatasetParseError("serving must be a 32-bit int", path=path, line=lineno, field="serving")
    los = d.get("los", True)
    if not isinstance(los, bool):
        raise DatasetParseError("los must be a bool", path=path, line=lineno, field="los")
    cells, beams, rsrp = parse_measurements(d.get("meas"), path, lineno)
    if not record:
        # dataset lines already come in ranking order (with many ties), so
        # sort only otherwise
        if not _ranked(cells, beams, rsrp):
            order = np.lexsort((beams, cells, -rsrp))
            cells, beams, rsrp = cells[order], beams[order], rsrp[order]
        if serving is None:
            serving = int(cells[0])
        elif serving != cells[0]:
            raise DatasetParseError(
                "serving cell is not the strongest measurement", path=path, line=lineno, field="serving"
            )
    return x, y, serving, los, cells, beams, rsrp


def load_dataset(path, expected_scenario_hash: Optional[str] = None) -> Dataset:
    """Read a dataset file back; the round trip is exact. Lines in
    save_dataset's form are parsed BLOCK_LINES at a time by read_block,
    the others by the per-line path, with the same columns and errors.

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
        # a file without records keeps the header's measurement count
        width = len(cells) * n_beams
        meas_cells = np.empty((0, width), dtype=np.int32)
        meas_beams = np.empty((0, width), dtype=np.int32)
        meas_rsrp = np.empty((0, width))
        linenos: List[int] = []

        parse = partial(parse_measurement_line, path=path, record=True)
        for lineno, (x, y, sv, lo, mc, mb, mr) in _block_lines(fh, 2, parse):
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
