"""Fingerprint dataset generation and persistence.

One record per grid location: the full (cell, beam) RSRP sweep in
ranking order, the serving cell (network-wide argmax), and whether the
serving site is line of sight. Ranking order is descending RSRP, ties by
ascending cell id, then ascending beam id. Records are kept in column
form (numpy arrays) so the full default scenario stays cheap to slice; a
record is one row of those columns.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import threading
from bisect import bisect_left
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
_CHECK_ROWS = 16  # rows per vectorised pass of the record check and of save_dataset
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


def _empty_columns(rows: int, width: int) -> List[np.ndarray]:
    """Unfilled record columns, in _RECORD_COLUMNS' order and types, for
    `rows` records of `width` measurements each."""
    scalars = [np.empty(rows, dtype=t) for t in (np.float64, np.float64, np.int32, bool)]
    return scalars + [np.empty((rows, width), dtype=t) for t in (np.int32, np.int32, np.float64)]


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
    columns = _empty_columns(len(grid_xy(scenario)), len(scenario.cell_ids) * len(scenario.codebook.beams))
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


# a part of a file (load) or of a dataset's record columns (save) is
# never smaller than this. Timed on 2 CPUs of a shared host, one part
# against two, best of 7 per size in several runs: a worker's fixed
# costs (fork, pipe or append, exit) are about 5 ms. Loads of 1.5 to
# 4.6 MB files were slower in two parts in 13 of 14 timings, up to twice
# as long; from 6 to 25 MB two parts ranged from 50 % slower to 35 %
# faster run to run, and from 49 MB on they were 15-37 % faster in every
# run. Saves were faster in two parts in every timing from 3.8 MB of
# columns on. So two parts start at 6 MiB, and more CPUs add parts only
# while each stays as large: no count above 2 was timed
_PART_BYTES = 3 << 20

# the cgroup v2 CPU quota, "<quota> <period>" in microseconds or "max
# <period>": the CPUs' worth of time this process may use, which can be
# fewer than the CPUs it may run on
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.sched_getaffinity, else
    os.cpu_count()), capped by a cgroup v2 CPU quota rounded up."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this host
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        return max(1, min(cpus, -(-int(quota) // int(period))))
    except (OSError, ValueError):  # no quota ("max"), no cgroup v2, or not Linux
        return cpus


def _part_count(size: int) -> int:
    """How many contiguous parts save_dataset and load_dataset split a
    dataset of `size` bytes into, each part but the first done by a
    forked worker: one per usable CPU, but no more than leaves each part
    _PART_BYTES, and 1 (this process alone) when this host cannot fork
    or another thread is alive (a forked child of a threaded process
    can deadlock on a lock that thread held)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), size // _PART_BYTES))


def _fork(work: Callable[[], None]) -> Optional[int]:
    """The pid of a forked worker that runs `work`, or None when the host
    refuses another process. The worker ends with os._exit, status 0 if
    `work` returned and 1 if it raised: it never returns into its
    caller's stack, runs atexit handlers or flushes inherited stdio."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            work()
            status = 0
        finally:
            os._exit(status)
    return pid


def _reap(pid: Optional[int], kill: bool = False) -> bool:
    """Wait for a worker of _fork (with `kill`, ended first), and whether
    it exited with status 0; False for None, a worker never started, and
    for a worker whose status is lost."""
    if pid is None:
        return False
    try:
        if kill:
            os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1] == 0
    except (ProcessLookupError, ChildProcessError):  # reaped unseen: the caller ignores SIGCHLD
        return False


def _append(out, part) -> None:
    """Copy the whole of the binary file `part` to the end of the binary
    file `out`: in the kernel where it can, else through this process."""
    done = 0
    if hasattr(os, "copy_file_range"):
        try:
            while copied := os.copy_file_range(part.fileno(), out.fileno(), 1 << 30, done):
                done += copied
            return
        except OSError:  # not between these files, e.g. across file systems
            pass
    part.seek(done)
    shutil.copyfileobj(part, out)
    out.flush()


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

    Rows go _CHECK_ROWS at a time, so that every temporary stays under
    malloc's mmap threshold. Beams tie exactly, so a row of hundreds of
    measurements holds only about a hundred distinct rsrp values: one
    pass marks where each run of equal values starts in the block and
    formats each run once, and one searchsorted gives the block's
    "],[cell,beam," prefixes. The prefix table holds one entry per key
    cell index * (largest beam id + 1) + beam id when those keys number
    no more than a row's measurements (a full sweep's), and otherwise
    only the (cell, beam) pairs present.

    The blocks are split into contiguous parts, one per _part_count of
    the record columns' bytes. Forked workers format every part but the
    first into unnamed temporary files beside `path`, which this process
    appends in order after writing the header and the first part; it
    formats a part itself when its worker fails or cannot start. A line
    depends on its row alone, so the bytes do not depend on the parts.
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
    m = dataset.meas_rsrp.shape[1]
    blocks = [slice(start, start + _CHECK_ROWS) for start in range(0, len(dataset), _CHECK_ROWS)]
    width = int(dataset.meas_beams.max()) + 1 if dataset.meas_beams.size else 0

    def keys(rows: slice) -> np.ndarray:
        return np.searchsorted(cell_ids, dataset.meas_cells[rows]) * width + dataset.meas_beams[rows]

    # a table no longer than a row (a full sweep's) is indexed by the key
    # itself: looking every key up in the pairs present made the save of
    # 5,414 full-sweep rows about 40 % slower
    dense = cell_ids.size * width <= m
    if dense:
        present = np.arange(cell_ids.size * width)
    else:  # one large beam id must not cost cells x (beam id + 1) strings
        present = np.unique(np.concatenate([np.unique(keys(rows)) for rows in blocks]))
    cell_list = cell_ids.tolist()
    # the value strings carry no "],": each prefix starts with the one that
    # closes the item before it, and the row's first two characters go
    prefixes = np.array(
        [f"],[{cell_list[c]},{b}," for c, b in (divmod(k, width) for k in present.tolist())], dtype=object
    )
    pieces = np.empty(2 * m, dtype=object)
    # float64 (no copy when it is already): the formatting below reads
    # float64 bit patterns and Python floats
    xs = np.asarray(dataset.xs, dtype=np.float64)
    ys = np.asarray(dataset.ys, dtype=np.float64)

    def write(fh, part: Sequence[slice]) -> None:
        for rows in part:
            rsrp = np.asarray(dataset.meas_rsrp[rows], dtype=np.float64)
            # rows are in ranking order, so equal values are neighbours: each
            # run of one bit pattern (-0.0 and 0.0 stay apart) is formatted once
            bits = rsrp.ravel().view(np.uint64)
            new = np.ones(bits.size, dtype=bool)
            np.not_equal(bits[1:], bits[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            values = np.array(list(map(float.__repr__, rsrp.take(starts).tolist())), dtype=object)
            runs = np.repeat(values, np.diff(starts, append=bits.size))
            at = keys(rows) if dense else np.searchsorted(present, keys(rows))
            records = zip(xs[rows].tolist(), ys[rows].tolist(), dataset.serving[rows].tolist(), dataset.los[rows].tolist())
            for i, (x, y, serving, los) in enumerate(records):
                pieces[0::2] = prefixes[at[i]]
                pieces[1::2] = runs[i * m : (i + 1) * m]
                fh.write(
                    f'{{"los":{"true" if los else "false"},"meas":[{"".join(pieces.tolist())[2:]}]],'
                    f'"serving":{serving},"x":{x!r},"y":{y!r}}}\n'
                )

    def write_temporary(temporary, part: Sequence[slice]) -> None:
        with open(temporary.fileno(), "w", encoding="ascii", closefd=False) as fh:
            write(fh, part)

    # contiguous runs of blocks; a line is a function of its row alone, so
    # the bytes do not depend on how many there are
    n = max(1, min(_part_count(sum(getattr(dataset, c).nbytes for c in _RECORD_COLUMNS)), len(blocks)))
    parts = [blocks[len(blocks) * k // n : len(blocks) * (k + 1) // n] for k in range(n)]
    workers = []  # (pid, temporary file) of each part but the first
    try:
        with open(path, "w", encoding="ascii") as fh:
            for part in parts[1:]:
                try:  # unnamed, and beside the output so that it appends in the kernel
                    temporary = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
                except OSError:  # no room there: this process formats the part
                    workers.append((None, None))
                else:
                    workers.append((_fork(partial(write_temporary, temporary, part)), temporary))
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
            write(fh, parts[0])
            for k, ((pid, temporary), part) in enumerate(zip(workers, parts[1:])):
                ok = _reap(pid)
                workers[k] = (None, temporary)
                if ok:
                    fh.flush()
                    _append(fh.buffer, temporary)
                    temporary.close()
                else:  # a worker that failed or never started: its rows are formatted here
                    write(fh, part)
    finally:
        for pid, temporary in workers:
            _reap(pid, kill=True)
            if temporary is not None:
                temporary.close()


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
_FRONT = "\0" * 16  # bytes before a block's bodies, as _decimals reads 16 before a token's end
# the id of each 2-byte word that starts a JSON int token of one or two
# characters ("7," or "42" or "-3"); _NOT_ID for every other word ("05",
# "-0", "-,", ...), which _json_ints then reads or refuses
_NOT_ID = _INT32.min
_ID_TABLE = np.full(1 << 16, _NOT_ID, dtype=np.int32)
_ID_TABLE[[int.from_bytes(f"{i},".encode("ascii")[:2], "little") for i in range(-9, 100)]] = range(-9, 100)
# _decimals computes in uint64 alone (numpy 1.24 casts uint64 with int64
# to float64). _KEEP[n] keeps the last n bytes of a little-endian 8-byte
# word, and _FILL[n] puts "0" bytes in the place of the others
_ZEROS, _SIXES, _HIGH_NIBBLES = (np.uint64(b * 0x0101010101010101) for b in (0x30, 0x06, 0xF0))
_KEEP = np.array([~0 << 8 * (8 - n) & (1 << 64) - 1 for n in range(9)], dtype=np.uint64)
_FILL = _ZEROS & ~_KEEP
# (multiplier, shift, mask) of each SWAR step: 8 digits to 4 pairs, to 2 quads, to one value
_SWAR = [
    (np.uint64(10**k), np.uint64(8 * k), np.uint64(mask))
    for k, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))
]
_POW10 = np.array([10**k for k in range(17)], dtype=np.uint64)
_DECIMAL_LIMIT = np.uint64(1 << 53)


class Block(NamedTuple):
    """Parsed lines as columns: `rows` are their positions in the block
    (read_block's) or their line numbers (_block_lines'), the others one
    entry (or row of measurements) per line, typed as the per-line path
    types them."""

    rows: Sequence[int]
    xs: np.ndarray
    ys: np.ndarray
    serving: np.ndarray
    los: np.ndarray
    cells: np.ndarray
    beams: np.ndarray
    rsrp: np.ndarray

    def take(self, rows: slice) -> "Block":
        """The lines `rows` of every column."""
        return self._make(column[rows] for column in self)


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


def _digits(words: np.ndarray, n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The last n[i] (0 to 8) bytes of each little-endian 8-byte word read
    as decimal digits, and whether they all are digits (SWAR: each step
    folds neighbouring lanes of the word, most significant first)."""
    w = words & _KEEP[n] | _FILL[n]
    ok = (w & _HIGH_NIBBLES == _ZEROS) & (w + _SIXES & _HIGH_NIBBLES == _ZEROS)
    w -= _ZEROS
    for times, shift, mask in _SWAR:
        w = w * times + (w >> shift) & mask
    return w, ok


def _decimals(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    r"""Which tokens buf[start:end] the decimal kernel reads, and their
    float64 values (meaningless where it reads none): the tokens
    -?(0|[1-9][0-9]{0,2})\.[0-9]{1,16} whose digits, without the dot, are
    an integer M below 2**53. M and 10**k (k fraction digits) are exact
    doubles, so M / 10**k, one IEEE division, is correctly rounded: the
    bits float() gives (Clinger's fast path). The digits come from the
    8-byte words that end at the dot, at the token's end and 8 bytes
    before it, so buf needs 16 bytes before each token."""
    words = np.ndarray(shape=(len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    neg = buf[start] == ord("-")
    first = start + neg
    # the dot after one, two or three integer digits
    dot = np.where(buf[first + 1] == ord("."), first + 1, np.where(buf[first + 2] == ord("."), first + 2, first + 3))
    n_frac = end - dot - 1
    read = (buf[dot] == ord(".")) & (n_frac >= 1) & (n_frac <= 16)
    read &= (buf[first] != ord("0")) | (dot == first + 1)  # no leading zero
    n_frac = np.clip(n_frac, 0, 16)
    whole, whole_ok = _digits(words[dot - 8], dot - first)
    high, high_ok = _digits(words[end - 16], np.maximum(n_frac - 8, 0))
    low, low_ok = _digits(words[end - 8], np.minimum(n_frac, 8))
    scale = _POW10[n_frac]
    mantissa = whole * scale + high * _POW10[8] + low
    read &= whole_ok & high_ok & low_ok & (mantissa < _DECIMAL_LIMIT)
    values = mantissa.astype(np.float64) / scale.astype(np.float64)
    np.negative(values, out=values, where=neg)
    return read, values


def _json_floats(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> Optional[np.ndarray]:
    """The tokens buf[start:end] as float64, or None unless every one is
    a JSON number with a fraction or an exponent and a finite value.

    In a ranked row equal values are neighbours, so only the first token
    of each run of equal text is read: by _decimals where it can, else
    checked by regex and read by float(), the conversion json makes;
    both give the same bits. Neighbours of one length are compared as
    the 8-byte words at start, start + 8, ... (the last one ending at the
    token's end), which cover the token; a token shorter than 8 bytes is
    compared with the bytes after it, which only splits a run."""
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
    read, values = _decimals(buf, start[firsts], end[firsts])
    rest = firsts[~read]
    # each other run's text with the "]" after it, end to end
    spans = length[rest] + 1
    offsets = np.cumsum(spans) - spans
    text = buf[np.arange(int(spans.sum())) + np.repeat(start[rest] - offsets, spans)].tobytes().decode("ascii")
    if not _RSRP_TEXT.fullmatch(text):
        return None
    values[~read] = np.fromiter(map(float, text.split("]")[:-1]), dtype=np.float64, count=len(rest))
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


def _id_ends(buf: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The comma that ends each id at `start`: one or two bytes on, else
    the first at or after it (one follows each measurement's "]", and
    `start` lies before it). The id checks refuse an id that is empty or holds a comma."""
    end = start + 1
    end += buf[end] != ord(",")
    far = np.flatnonzero(buf[end] != ord(","))
    if len(far):
        commas = np.flatnonzero(buf == ord(","))
        end[far] = commas[np.searchsorted(commas, start[far])]
    return end


def _measurement_columns(bodies: List[str]) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (cells, beams, rsrp) matrices of `meas` list bodies, one row
    per body, or None unless each is exactly "[c,b,r],...,[c,b,r]" with
    _json_ints ids and _json_floats rsrp, and every body holds as many
    measurements. One pass finds each measurement's "]"; its "[" is at
    its body's start or two bytes after the previous "]", past a comma,
    and its commas are the first two after its "[" (_id_ends). With
    those bytes checked, and each body's last "]" at its end, every
    other byte lies inside a token, which the token checks read."""
    # the bodies end to end after _FRONT, each with a comma after it, in
    # one buffer; zero padding keeps the words _json_floats reads inside it
    buf = np.frombuffer(",".join([_FRONT, *bodies, "\0" * _PADDING]).encode("ascii"), dtype=np.uint8)
    closes = np.flatnonzero(buf == ord("]"))
    per_row, rest = divmod(len(closes), len(bodies))
    if per_row == 0 or rest:
        return None
    edges = np.cumsum([len(_FRONT) + 1] + [len(body) + 1 for body in bodies])
    opens = np.concatenate((edges[:1], closes[:-1] + 2))
    if not (
        (closes[per_row - 1 :: per_row] == edges[1:] - 2).all()
        and (buf[opens] == ord("[")).all()
        and (buf[closes + 1] == ord(",")).all()
    ):
        return None
    cell_ends = _id_ends(buf, opens + 1)
    cells = _json_ids(buf, opens + 1, cell_ends)
    beam_ends = None if cells is None else _id_ends(buf, cell_ends + 1)
    beams = None if beam_ends is None else _json_ids(buf, cell_ends + 1, beam_ends)
    rsrp = None if beams is None else _json_floats(buf, beam_ends + 1, closes)
    if rsrp is None:
        return None
    shape = (len(bodies), per_row)
    return cells.reshape(shape), beams.reshape(shape), rsrp.reshape(shape)


def read_block(lines: Sequence[str]) -> Optional[Block]:
    """The lines of `lines` that have save_dataset's exact record form
    ({"los":…,"meas":[[c,b,r],…],"serving":S,"x":X,"y":Y}, no spaces),
    parsed together: a regex per line checks its head and tail, and
    _measurement_columns reads all their `meas` bodies in one buffer.
    None when there are none, or when any of them needs the per-line
    path: a value that path refuses or reads differently (an rsrp or
    coordinate without a fraction or exponent, a token past JSON's
    grammar or int32, a non-finite value), an rsrp of more than
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


def _lines_at_most(fh) -> Tuple[int, bool]:
    """At least the number of lines in a file opened for reading in text
    mode, one more than its line-end bytes (text mode ends a line at
    "\n", "\r" or "\r\n"), and whether it holds a "\r". The position in
    the file is kept."""
    here = fh.tell()
    fh.buffer.seek(0)
    ends = 0
    has_cr = False
    for chunk in iter(lambda: fh.buffer.read(1 << 20), b""):
        ends += chunk.count(b"\n")
        if b"\r" in chunk:  # rare, and the test costs far less than a count
            ends += chunk.count(b"\r")
            has_cr = True
    fh.seek(here)
    return ends + 1, has_cr


def _block_lines(
    fh, lineno: int, parse: Callable[[str, int], Optional[tuple]], accept: Optional[Callable[[Block], bool]] = None
) -> Iterator[Block]:
    """The lines of an open file from line number `lineno` on, read
    BLOCK_LINES at a time, as Blocks in line order whose `rows` are line
    numbers; blank lines are skipped. A block read_block parsed and
    `accept` passes comes out whole, or in runs split at the lines it did
    not parse. Each of those is parsed once, by `parse(line, line
    number)`, after the rows before it have come out, and its columns
    (x, y, serving, los, cells, beams, rsrp), unless None, come out as a
    one-row Block typed as read_block's."""
    while lines := list(islice(fh, BLOCK_LINES)):
        block = read_block(lines)
        rows = block.rows if block is not None and (accept is None or accept(block)) else []
        if rows:
            block = block._replace(rows=np.add(rows, lineno))
        done = 0  # the block's rows that have come out
        for offset, raw in enumerate(lines):
            stop = bisect_left(rows, offset)  # the block's rows before this line
            if stop < len(rows) and rows[stop] == offset or not raw.strip():
                continue
            if stop > done:
                yield block.take(np.s_[done:stop])
                done = stop
            columns = parse(raw, lineno + offset)
            if columns is not None:
                x, y, serving, los, *meas = columns
                scalars = (np.array([x]), np.array([y]), np.array([serving], dtype=np.int32), np.array([los]))
                yield Block(np.array([lineno + offset]), *scalars, *(column[None] for column in meas))
        if done < len(rows):
            yield block.take(np.s_[done:])
        lineno += len(lines)


def parse_measurement_line(raw: str, lineno: int, path=None, *, record: bool = False) -> Optional[tuple]:
    """One line of a dataset or measurement file, by the per-line path,
    as the columns (x, y, serving, los, cells, beams, rsrp) of one row of
    a Block of _block_lines. A DatasetParseError names its
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


class _Span(io.RawIOBase):
    """Bytes `start` to `stop` of an open file, to its end when `stop` is
    None, read with pread: the file's own position is left alone."""

    def __init__(self, fd: int, start: int, stop: Optional[int]):
        self.fd, self.at, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = len(buffer) if self.stop is None else min(len(buffer), self.stop - self.at)
        data = os.pread(self.fd, n, self.at)
        buffer[: len(data)] = data
        self.at += len(data)
        return len(data)


def _span_lines(fd: int, start: int, stop: Optional[int]):
    """The lines of a _Span, in the text mode load_dataset opens files in."""
    return io.TextIOWrapper(io.BufferedReader(_Span(fd, start, stop)), encoding="ascii", errors="surrogateescape")


def _line_end(fd: int, at: int) -> int:
    """The byte just past the first "\n" at or after byte `at` of an open
    file, or -1 when there is none."""
    while chunk := os.pread(fd, 1 << 16, at):
        if (i := chunk.find(b"\n")) >= 0:
            return at + i + 1
        at += len(chunk)
    return -1


def _cuts(fh, start: int) -> List[int]:
    """Where the parts of a dataset file whose records begin at byte
    `start` begin: one part per _part_count of the file's size, each cut
    just past the first "\n" from an equal byte share on, for a file
    without "\r" (text mode ends a line there too, which would move the
    cuts). Read with pread, not mmap: mapped pages would count in the
    caller's peak RSS."""
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    n = _part_count(size)
    if n == 1 or size <= start:
        return [start]
    shares = (start + (size - start) * k // n for k in range(1, n))
    return sorted({start, *(end for end in map(partial(_line_end, fd), shares) if 0 < end < size)})


def _read_records(lines, lineno: int, parse, path, capacity: int, width: int) -> Tuple[List[np.ndarray], np.ndarray]:
    """The records of `lines` from line number `lineno` on, as the
    columns of _RECORD_COLUMNS, and their line numbers. The columns are
    made at the first record with `capacity` rows (with none, and width
    `width`, when there is no record), and each block of _block_lines is
    written into the next of their rows. Only the first len(line
    numbers) rows are filled: the pages past them are never touched."""
    columns = _empty_columns(0, width)
    linenos = np.empty(capacity, dtype=np.int64)
    n = 0
    for block in _block_lines(lines, lineno, parse):
        if n == 0:
            columns = _empty_columns(capacity, block.rsrp.shape[1])
        elif block.rsrp.shape[1] != columns[6].shape[1]:
            line = int(block.rows[0])
            raise DatasetParseError("records disagree on measurement count", path=path, line=line, field="meas")
        rows = slice(n, n + len(block.rows))
        if rows.stop > capacity:
            raise DataError(f"dataset {path} grew while it was read")
        for column, values in zip([linenos, *columns], block):
            column[rows] = values
        n = rows.stop
    return columns, linenos[:n]


def _send_part(pipe: int, fd: int, start: int, stop: Optional[int], read, fixed: dict, cell_ids) -> None:
    """A worker's part of load_dataset: read the lines from byte `start`
    to `stop` and send down `pipe` its (records, measurement width) as
    two int64, then the raw bytes of the seven record columns, in
    _RECORD_COLUMNS' order; nothing when a record breaks a record rule.
    Its line numbers are not the file's: a fault in the part sends the
    load back to one process, which names the file's line."""
    with _span_lines(fd, start, stop) as lines:
        columns, linenos = read(lines)
    part = Dataset(*(column[: len(linenos)] for column in columns), **fixed)
    with open(pipe, "wb") as out:
        if _first_bad_record(part, cell_ids) is None:
            out.write(np.array(part.meas_rsrp.shape, dtype=np.int64).data)
            for name in _RECORD_COLUMNS:
                out.write(getattr(part, name).data)


def _read_parts(fd: int, cuts: List[int], read, fixed: dict, cell_ids, capacity: int) -> Optional[List[np.ndarray]]:
    """The columns of every record of a file cut at `cuts` (see _cuts),
    read by this process (the first part) and forked workers (the
    others), whose parts are read from their pipes into the rows after
    the parts before. A fault in the first part raises. None, for the
    caller to read the whole file by one process, when a worker fails or
    finds a fault, the parts disagree on the measurement count, the
    records outgrow `capacity`, or any record breaks a record rule."""
    workers = []
    try:
        for start, stop in zip(cuts[1:], [*cuts[2:], None]):
            r, w = os.pipe()
            pid = _fork(partial(_send_part, w, fd, start, stop, read, fixed, cell_ids))
            os.close(w)
            # buffered, so that a readinto waits for all it asks for
            workers.append((pid, open(r, "rb")))
        with _span_lines(fd, cuts[0], cuts[1]) as lines:
            columns, linenos = read(lines)
        n = len(linenos)
        if _first_bad_record(Dataset(*(column[:n] for column in columns), **fixed), cell_ids) is not None:
            return None
        head = np.empty(2, dtype=np.int64)  # a part's records and measurement width
        for k, (pid, pipe) in enumerate(workers):
            if pipe.readinto(head) < head.nbytes:  # the worker sent nothing, or died
                return None
            rows, width = head.tolist()
            if rows and n == 0:
                columns = _empty_columns(capacity, width)
            if rows and width != columns[6].shape[1] or n + rows > capacity:
                return None
            if any(pipe.readinto(part) < part.nbytes for part in (column[n : n + rows] for column in columns)):
                return None
            n += rows
            ok = _reap(pid)
            workers[k] = (None, pipe)
            if not ok:
                return None
        return [column[:n] for column in columns]
    finally:
        for pid, pipe in workers:
            pipe.close()
            _reap(pid, kill=True)


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

    The records are read in contiguous parts of the file (_cuts), the
    first by this process and the others by forked workers, which send
    a (records, width) head and their seven raw columns down pipes into
    this process's columns (_read_parts).
    A fault in the first part raises there; after any other, the file is
    read again by one process, which names the first fault in line
    order. So columns and errors do not depend on the parts.
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
            capacity, has_cr = _lines_at_most(fh)
        except OSError as e:  # a pipe cannot be read twice
            raise DataError(f"cannot count the lines of dataset {path}: {e}") from e
        parse = partial(parse_measurement_line, path=path, record=True)
        # a file without records keeps the header's measurement count
        width = len(cells) * n_beams
        read = partial(_read_records, lineno=2, parse=parse, path=path, capacity=capacity, width=width)
        fixed = dict(cells=cells, n_beams=n_beams, scenario_hash=scenario_hash_value, seed=seed)
        cell_ids = np.array(sorted(set(cells)), dtype=np.int64)
        # one part for a file with a "\r": _cuts counts bytes, text mode
        # lines, which also end at a "\r" and read "\r\n" as one "\n"
        cuts = [len(header_line)] if has_cr else _cuts(fh, len(header_line))
        columns = _read_parts(fh.fileno(), cuts, read, fixed, cell_ids, capacity) if len(cuts) > 1 else None
        if columns is not None:
            return Dataset(*columns, **fixed)
        # one process, also after the parts found a fault: it names the
        # first one in line order
        columns, linenos = read(fh)

    dataset = Dataset(*(column[: len(linenos)] for column in columns), **fixed)
    bad = _first_bad_record(dataset, cell_ids)
    if bad is not None:
        row, field, what = bad
        raise DatasetParseError(what, path=path, line=int(linenos[row]), field=field)
    return dataset
