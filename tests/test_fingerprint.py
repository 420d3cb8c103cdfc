import hashlib
import json
import os
import signal
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from beamprint import fingerprint, procs
from beamprint.errors import DataError, DatasetParseError
from beamprint.fingerprint import (
    _BUILD_ROWS,
    _RECORD_COLUMNS,
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
from beamprint.radio import rsrp_cube
from beamprint.scenario import (
    UE_HEIGHT_M,
    build_scenario,
    default_scenario_config,
    grid_xy,
    los_mask,
    single_site_config,
)

from conftest import no_child_left, row_of, small_scenario_config, triples
from test_mlp import radio_kernels_as_pinned
from test_scenario import segment_clear


def test_record_count_matches_grid(small_scenario, small_dataset):
    assert len(small_dataset) == grid_xy(small_scenario).shape[0]


def test_full_sweep_per_record(small_scenario, small_dataset):
    m = small_scenario.n_cells * small_scenario.n_beams
    assert small_dataset.meas_rsrp.shape == (len(small_dataset), m)
    # every cell appears exactly n_beams times in every row
    for i in (0, len(small_dataset) // 2, len(small_dataset) - 1):
        cells, counts = np.unique(small_dataset.meas_cells[i], return_counts=True)
        assert sorted(cells.tolist()) == list(small_scenario.cell_ids)
        assert set(counts.tolist()) == {small_scenario.n_beams}
        beams = np.sort(
            small_dataset.meas_beams[i][small_dataset.meas_cells[i] == cells[0]]
        )
        assert beams.tolist() == list(range(small_scenario.n_beams))


def test_measurements_sorted_descending(small_dataset):
    diffs = np.diff(small_dataset.meas_rsrp, axis=1)
    assert np.all(diffs <= 1e-12)


def test_serving_is_global_argmax(small_scenario, small_dataset):
    # spot-check against direct per-beam evaluation
    rng = np.random.default_rng(3)
    for i in rng.integers(0, len(small_dataset), size=12):
        rec = row_of(small_dataset, int(i))
        x, y, serving = rec[:3]
        cube = rsrp_cube(small_scenario, [(x, y, UE_HEIGHT_M)])[0]
        best = max(
            (
                (cube[ci, b], -c, -b)
                for ci, c in enumerate(small_scenario.cell_ids)
                for b in range(small_scenario.n_beams)
            ),
        )
        assert serving == -best[1]
        top = triples(rec)[0]
        assert top[0] == -best[1] and top[1] == -best[2]
        assert top[2] == pytest.approx(best[0], abs=1e-9)


def test_shadowed_build_matches_rsrp_dbm(shadowed_small_dataset):
    sc = build_scenario(small_scenario_config(shadowing_sigma_db=4.0))
    rng = np.random.default_rng(3)
    for i in rng.integers(0, len(shadowed_small_dataset), size=12):
        rec = row_of(shadowed_small_dataset, int(i))
        x, y, serving = rec[:3]
        cube = rsrp_cube(sc, [(x, y, UE_HEIGHT_M)], seed=3)[0]
        for c, b, r in triples(rec)[:: 37]:
            assert r == pytest.approx(cube[sc.cell_ids.index(c), b], abs=1e-9)
        best = max(
            (cube[ci, b], -c, -b) for ci, c in enumerate(sc.cell_ids) for b in range(sc.n_beams)
        )
        assert serving == -best[1]
        assert triples(rec)[0][:2] == (-best[1], -best[2])


def test_serving_tie_breaks_to_lower_cell():
    # mirror-symmetric sites: the midpoint sees identical power from the
    # east-facing cell 0 and the west-facing cell 1, lower id must win
    from beamprint.scenario import ScenarioConfig, Sector, Site

    cfg = ScenarioConfig(
        area_width_m=60.0,
        area_height_m=40.0,
        sites=(
            Site(x=0.0, y=20.0, sectors=(Sector(boresight_azimuth_deg=0.0, cell_id=0),)),
            Site(x=60.0, y=20.0, sectors=(Sector(boresight_azimuth_deg=180.0, cell_id=1),)),
        ),
        buildings=(),
    )
    ds = build_dataset(build_scenario(cfg))
    i = int(np.nonzero((ds.xs == 30.0) & (ds.ys == 20.0))[0][0])
    by_cell = {}
    for c, b, r in triples(row_of(ds, i)):
        by_cell.setdefault(c, r)  # strongest beam per cell comes first
    assert by_cell[0] == pytest.approx(by_cell[1], abs=1e-9)
    assert ds.serving[i] == 0


def test_los_flag_matches_geometry(small_scenario, small_dataset):
    rng = np.random.default_rng(4)
    for i in rng.integers(0, len(small_dataset), size=20):
        x, y, serving, los = row_of(small_dataset, int(i))[:4]
        site, _ = small_scenario.cell_map[serving]
        expect = segment_clear(small_scenario, site.position, (x, y, UE_HEIGHT_M))
        assert los == expect


def test_build_deterministic(small_scenario):
    a = build_dataset(small_scenario)
    b = build_dataset(small_scenario)
    assert a == b


def test_shadowing_seed_changes_rsrp():
    cfg = small_scenario_config(shadowing_sigma_db=4.0)
    sc = build_scenario(cfg)
    a = build_dataset(sc, seed=1)
    b = build_dataset(sc, seed=2)
    assert a.seed == 1 and b.seed == 2
    assert not np.array_equal(a.meas_rsrp, b.meas_rsrp)
    assert build_dataset(sc, seed=1) == a


def test_zero_sigma_ignores_seed(small_scenario):
    a = build_dataset(small_scenario, seed=1)
    b = build_dataset(small_scenario, seed=2)
    assert np.array_equal(a.meas_rsrp, b.meas_rsrp)


def test_los_filter(small_dataset):
    filtered = los_filter(small_dataset)
    assert len(filtered) == int(small_dataset.los.sum())
    assert filtered.los.all()


def test_los_filter_empty_raises(small_dataset):
    empty = small_dataset.subset(np.zeros(0, dtype=np.int64))
    with pytest.raises(DataError):
        los_filter(empty)


def same_datasets(got, want):
    """Two datasets equal in every field, the float columns bit for bit."""
    for name in ("xs", "ys", "meas_rsrp"):
        assert np.array_equal(getattr(got, name).view(np.uint64), getattr(want, name).view(np.uint64)), name
    for name in _RECORD_COLUMNS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert got == want


def los_only_build(scenario, seed=None):
    """The line-of-sight-only sweep run_experiment streams, its blocks
    stacked into a Dataset."""
    seed = scenario.config.rng_seed if seed is None else seed
    blocks = list(sweep_blocks(scenario, seed, los_only=True))
    return Dataset(
        *(np.concatenate(column) for column in zip(*blocks)),
        cells=scenario.cell_ids,
        n_beams=len(scenario.codebook.beams),
        scenario_hash=scenario.fingerprint_hash,
        seed=seed,
    )


# (scenario config, seed) of each sweep the LOS-only build is checked on
LOS_ONLY_CASES = {
    "small": (small_scenario_config(), None),
    "single_site": (single_site_config(), None),
    "shadowed": (small_scenario_config(shadowing_sigma_db=4.0), 3),
}


@pytest.mark.parametrize("case", sorted(LOS_ONLY_CASES))
def test_los_only_build_matches_los_filter(case):
    config, seed = LOS_ONLY_CASES[case]
    sc = build_scenario(config)
    full = build_dataset(sc, seed)
    assert np.array_equal(np.column_stack([full.xs, full.ys]), grid_xy(sc))
    # the flags, tested a block at a time toward each record's serving
    # site, equal one whole-grid test per serving cell
    pts = np.column_stack([full.xs, full.ys, np.full(len(full), UE_HEIGHT_M)])
    los = np.zeros(len(full), dtype=bool)
    for cell in sc.cell_ids:
        served = full.serving == cell
        los[served] = los_mask(sc, sc.cell_map[cell][0].position, pts[served])
    assert np.array_equal(full.los, los)
    # line-of-sight records in several build blocks
    assert np.unique(np.flatnonzero(full.los) // _BUILD_ROWS).size > 1
    same_datasets(los_only_build(sc, seed), los_filter(full))


def test_los_only_build_past_a_block_without_los_records(small_scenario, small_dataset, monkeypatch):
    # every record of the first block blocked, so the kept rows start in
    # the second block
    los_mask = fingerprint.los_mask
    last_y = small_dataset.ys[_BUILD_ROWS - 1]
    monkeypatch.setattr(fingerprint, "los_mask", lambda sc, tx, pts: los_mask(sc, tx, pts) & (pts[:, 1] > last_y))
    full = build_dataset(small_scenario)
    assert not full.los[:_BUILD_ROWS].any() and full.los.any()
    same_datasets(los_only_build(small_scenario), los_filter(full))


def test_los_only_build_without_los_records_raises(small_scenario, monkeypatch):
    monkeypatch.setattr(fingerprint, "los_mask", lambda sc, tx, pts: np.zeros(len(pts), dtype=bool))
    with pytest.raises(DataError, match="line-of-sight filter removed every record"):
        los_only_build(small_scenario)


def test_los_and_cell_rows_select_what_the_filters_keep(small_dataset):
    rows = los_rows(small_dataset)
    assert small_dataset.subset(rows) == los_filter(small_dataset)
    parts = partition_by_cell(small_dataset)
    by_cell = cell_rows(small_dataset.serving)
    assert list(by_cell) == list(parts)
    assert all(small_dataset.subset(by_cell[c]) == parts[c] for c in parts)


# every Dataset field: the seven per-record columns, then the header
DATASET_COLUMNS = ("xs", "ys", "serving", "los", "meas_cells", "meas_beams", "meas_rsrp")
DATASET_HEADER = ("cells", "n_beams", "scenario_hash", "seed")


def _changed(value):
    if isinstance(value, np.ndarray):
        out = value.copy()
        out[0] = ~out[0] if out.dtype == bool else out[0] + 1
        return out
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + 1,)
    if isinstance(value, str):
        return value[1:] + value[0]
    return value + 1


@pytest.mark.parametrize("name", DATASET_COLUMNS + DATASET_HEADER)
def test_dataset_field_is_compared_and_kept_by_subset(small_dataset, name):
    assert tuple(f.name for f in fields(Dataset)) == DATASET_COLUMNS + DATASET_HEADER
    base = small_dataset.subset(np.arange(5))
    changed = replace(base, **{name: _changed(getattr(base, name))})
    assert changed != base and base != changed
    index = np.array([3, 1])
    picked = changed.subset(index)
    for column in DATASET_COLUMNS:
        assert np.array_equal(getattr(picked, column), getattr(changed, column)[index])
    for header in DATASET_HEADER:
        assert getattr(picked, header) == getattr(changed, header)


def test_partition_by_cell(small_dataset):
    parts = partition_by_cell(small_dataset)
    assert sum(len(d) for d in parts.values()) == len(small_dataset)
    for cell, sub in parts.items():
        assert (sub.serving == cell).all()
    assert list(parts) == sorted(parts)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    back = load_dataset(path)
    assert back == small_dataset


def test_save_load_round_trip_without_records(tmp_path, small_dataset):
    # the header alone sizes the measurement columns: (0, cells x beams)
    empty = small_dataset.subset([])
    path = tmp_path / "empty.jsonl"
    save_dataset(empty, path)
    back = load_dataset(path)
    assert back.meas_rsrp.shape == back.meas_cells.shape == back.meas_beams.shape == (0, 128)
    assert back == empty


def test_save_is_deterministic(tmp_path, small_dataset):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_dataset(small_dataset, p1)
    save_dataset(small_dataset, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_checks_scenario_hash(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    load_dataset(path, expected_scenario_hash=small_dataset.scenario_hash)
    with pytest.raises(DataError):
        load_dataset(path, expected_scenario_hash="0" * 64)


def test_load_checks_scenario_hash_before_records(tmp_path, small_dataset):
    # the hash is compared right after the header, so a corrupt record
    # line further down does not hide the mismatch
    path, lines = _lines(tmp_path, small_dataset)
    lines[2] = lines[2][:-5]
    with pytest.raises(DataError) as e:
        load_dataset(_write(path, lines), expected_scenario_hash="0" * 64)
    assert not isinstance(e.value, DatasetParseError)
    assert "expected 000000000000" in str(e.value)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path, expected_scenario_hash=small_dataset.scenario_hash)
    assert e.value.line == 3


def test_load_refuses_on_the_header_before_counting_lines(tmp_path, small_dataset, monkeypatch):
    # the line count reads the whole file, so it comes after the checks
    # that refuse a file on its first line
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)

    def no_count(fh):
        raise AssertionError("counted the lines of a refused file")

    monkeypatch.setattr(fingerprint, "_lines_at_most", no_count)
    with pytest.raises(DataError, match="expected 000000000000"):
        load_dataset(path, expected_scenario_hash="0" * 64)


def test_load_refuses_a_file_that_grew_past_its_line_count(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset.subset(np.arange(3)), path)
    monkeypatch.setattr(fingerprint, "_lines_at_most", lambda fh: (2, False))
    with pytest.raises(DataError, match="grew while it was read"):
        load_dataset(path)


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_load_sizes_its_columns_for_any_line_end(tmp_path, small_dataset, end):
    # text mode ends a line at "\n", "\r" or "\r\n"; the line count that
    # sizes the columns must cover each
    ds = small_dataset.subset(np.arange(5))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    assert load_dataset(path) == ds


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_refuses_a_pipe(tmp_path, small_dataset):
    # the columns are sized by a first pass over the file, which a pipe
    # cannot give
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset.subset(np.arange(3)), path)
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as w:
            w.write(path.read_bytes())  # well under a pipe's buffer
        with pytest.raises(DataError, match="cannot count the lines"):
            load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def _column_bytes(ds):
    return sum(getattr(ds, c).nbytes for c in _RECORD_COLUMNS)


def _traced_overhead(fn, *args, held=_column_bytes):
    """fn(*args), and the bytes of tracemalloc's peak during the call
    beyond held(fn(*args)): by default the record columns of the Dataset
    fn returns."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - held(out)


def _overhead_growth(runs):
    """How much the overhead grew from the smaller dataset to the larger,
    as a share of how much the record columns grew."""
    (small, over_small), (large, over_large) = runs
    return (over_large - over_small) / (_column_bytes(large) - _column_bytes(small))


def test_build_holds_one_copy_of_the_columns():
    # beyond its output, build_dataset holds one block's temporaries, so
    # the traced peak less the output does not grow with the grid (it
    # grew by the output's size when the whole grid was sorted at once)
    runs = []
    for res in (4.0, 2.0):
        sc = build_scenario(replace(default_scenario_config(0), grid_resolution_m=res))
        runs.append(_traced_overhead(build_dataset, sc))
        assert len(runs[-1][0]) > _BUILD_ROWS
    assert _overhead_growth(runs) < 0.25


def _load_overhead_growth(tmp_path):
    runs = []
    for res in (2.0, 1.0):
        path = tmp_path / f"grid{res}.jsonl"
        save_dataset(build_dataset(build_scenario(replace(small_scenario_config(), grid_resolution_m=res))), path)
        runs.append(_traced_overhead(load_dataset, path))
    return _overhead_growth(runs)


def _save_overhead_growth(tmp_path):
    runs = []
    for res in (2.0, 1.0):
        ds = build_dataset(build_scenario(replace(small_scenario_config(), grid_resolution_m=res)))
        _, peak = _traced_overhead(save_dataset, ds, tmp_path / f"grid{res}.jsonl", held=lambda _: 0)
        runs.append((ds, peak))
    return _overhead_growth(runs)


def test_load_holds_one_copy_of_the_columns(tmp_path):
    # each record is written into preallocated columns, so the traced
    # peak less the output does not grow with the file (it grew by more
    # than the output's size with a list of rows stacked at the end)
    assert _load_overhead_growth(tmp_path) < 0.25


def test_save_holds_no_copy_of_the_columns(tmp_path):
    # save_dataset formats a block of rows at a time, so its traced peak
    # does not grow with the dataset it writes
    assert _save_overhead_growth(tmp_path) < 0.25


def test_load_in_two_parts_holds_one_copy_of_the_columns(tmp_path, forced_parts):
    # a worker's measurement rows are read from its pipe straight into
    # the rows of the columns, so they too are held once
    workers = forced_parts(2)
    assert _load_overhead_growth(tmp_path) < 0.25
    assert workers == [True] * 4  # two saves and two loads, one worker each


def test_save_in_two_parts_holds_no_copy_of_the_columns(tmp_path, forced_parts):
    workers = forced_parts(2)
    assert _save_overhead_growth(tmp_path) < 0.25
    assert workers == [True] * 2


def _lines(tmp_path, small_dataset):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    return path, path.read_text().splitlines()


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_rejects_bad_json(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    lines[3] = lines[3][:-5]
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.line == 4


def test_load_rejects_missing_field(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[1])
    del row["serving"]
    lines[1] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.field == "serving"
    assert e.value.line == 2


def test_load_rejects_wrong_types(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[1])
    row["los"] = 1  # json ints are not bools
    lines[1] = json.dumps(row)
    with pytest.raises(DatasetParseError):
        load_dataset(_write(path, lines))


def test_load_rejects_unsorted_measurements(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[1])
    row["meas"][0], row["meas"][1] = row["meas"][1], row["meas"][0]
    lines[1] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert "sorted" in str(e.value) or "serving" in str(e.value)


def test_load_rejects_ties_out_of_cell_beam_order(tmp_path, small_dataset):
    # record 60's two strongest serving beams tie exactly; swapped, they
    # are still sorted by rsrp but not in (cell, beam) tie order
    i = 60
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[1 + i])
    first, second = row["meas"][0], row["meas"][1]
    assert first[0] == second[0] and first[1] < second[1] and first[2] == second[2]
    row["meas"][0], row["meas"][1] = second, first
    lines[1 + i] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.line == 2 + i
    assert e.value.field == "meas"
    assert "sorted" in str(e.value)


@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "1.0"])
def test_load_rejects_bad_position(tmp_path, small_dataset, field, value):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[2])
    row[field] = value
    lines[2] = json.dumps(row)  # json writes NaN / Infinity literals
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.line == 3
    assert e.value.field == field


def test_load_rejects_unknown_cell(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[1])
    row["meas"][2][0] = 999
    lines[1] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert "999" in str(e.value)


def test_load_rejects_serving_mismatch(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[1])
    other = [c for c in small_dataset.cells if c != row["meas"][0][0]][0]
    row["serving"] = other
    lines[1] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.field == "serving"


def test_load_rejects_ragged_measurements(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[2])
    row["meas"] = row["meas"][:-1]
    lines[2] = json.dumps(row)
    with pytest.raises(DatasetParseError):
        load_dataset(_write(path, lines))


def test_load_rejects_non_dataset_file(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(DatasetParseError):
        load_dataset(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetParseError):
        load_dataset(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda meas: meas[5].__setitem__(2, float("nan")),
        lambda meas: meas[0].__setitem__(2, float("inf")),
        lambda meas: meas[-1].__setitem__(2, float("-inf")),
        lambda meas: meas[3].__setitem__(0, True),
        lambda meas: meas[3].__setitem__(1, False),
        lambda meas: meas[3].__setitem__(1, 999),
        lambda meas: meas[3].__setitem__(1, -1),
    ],
    ids=["nan", "inf", "-inf", "bool-cell", "bool-beam", "beam-999", "beam-negative"],
)
def test_load_rejects_bad_measurement_values(tmp_path, small_dataset, edit):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[2])
    edit(row["meas"])
    lines[2] = json.dumps(row)  # json writes NaN / Infinity literals
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.line == 3
    assert e.value.field == "meas"


def test_load_rejects_bad_beams_per_cell(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    header = json.loads(lines[0])
    header["beams_per_cell"] = "32"
    lines[0] = json.dumps(header)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.field == "beams_per_cell"


@pytest.mark.parametrize(
    "field, value", [("cells", [0, 1, 2, 2**40]), ("beams_per_cell", 2**31)], ids=["cell", "beams"]
)
def test_load_rejects_header_ids_past_32_bits(tmp_path, small_dataset, field, value):
    # ids are stored as int32; a wider one must not wrap silently
    path, lines = _lines(tmp_path, small_dataset)
    header = json.loads(lines[0])
    header[field] = value
    lines[0] = json.dumps(header)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert e.value.field == field


@pytest.mark.parametrize(
    "field, value",
    [("scenario_hash", 5), ("seed", "x"), ("seed", True), ("seed", 1.5)],
    ids=["hash-int", "seed-str", "seed-bool", "seed-float"],
)
def test_load_rejects_bad_header_types(tmp_path, small_dataset, field, value):
    # these used to end in a raw TypeError (the hash check slices the
    # hash) or ValueError (int("x")), or to load a float seed truncated
    path, lines = _lines(tmp_path, small_dataset)
    header = json.loads(lines[0])
    header[field] = value
    lines[0] = json.dumps(header)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines), expected_scenario_hash=small_dataset.scenario_hash)
    assert e.value.field == field


def test_load_reports_syntax_faults_before_record_rules(tmp_path, small_dataset):
    # every line is parsed before the record rules run, so bad JSON on
    # line 9 wins over an out-of-order record on line 3
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[2])
    row["meas"][0], row["meas"][1] = row["meas"][1], row["meas"][0]
    lines[2] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert (e.value.line, e.value.field) == (3, "meas")
    lines[8] = lines[8][:-5]
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert (e.value.line, e.value.field) == (9, None)


def test_load_names_the_record_line_past_blank_lines(tmp_path, small_dataset):
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[4])
    row["serving"] = 99
    lines[4] = json.dumps(row)
    lines[2:2] = ["", "   "]
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert (e.value.line, e.value.field) == (7, "serving")
    assert "serving cell 99 is not in" in str(e.value)


@pytest.mark.parametrize(
    "fault, needle",
    [
        ("out-of-order", "not in ranking order"),
        ("serving-not-strongest", "not the strongest"),
        ("unknown-cell", "cell 99"),
        ("beam-past-header", "beam 32"),
    ],
    ids=["out-of-order", "serving-not-strongest", "unknown-cell", "beam-past-header"],
)
def test_save_and_load_refuse_a_record_with_one_message(tmp_path, small_dataset, fault, needle):
    ds = small_dataset.subset(np.arange(10))
    if fault == "out-of-order":
        ds.meas_rsrp[4, 100] = ds.meas_rsrp[4, 0] + 1.0
    elif fault == "serving-not-strongest":
        ds.serving[4] = next(c for c in ds.cells if c != ds.meas_cells[4, 0])
    elif fault == "unknown-cell":
        ds.meas_cells[4, 100] = 99
    else:
        ds.meas_beams[4, 100] = 32
    with pytest.raises(DataError) as saved:
        save_dataset(ds, tmp_path / "ds.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    with pytest.raises(DatasetParseError) as loaded:
        load_dataset(tmp_path / "oracle.jsonl")
    assert loaded.value.line == 6
    message = str(loaded.value).rsplit(" (", 1)[0]  # less the (path, line, field) suffix
    assert needle in message
    assert str(saved.value) == f"record 4: {message}; load_dataset would refuse the file"


def test_save_and_load_refuse_records_under_a_header_without_cells(tmp_path, small_dataset):
    ds = small_dataset.subset(np.arange(3))
    ds.cells = ()
    with pytest.raises(DataError, match="record 0: measurement references cell"):
        save_dataset(ds, tmp_path / "ds.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(tmp_path / "oracle.jsonl")
    assert (e.value.line, e.value.field) == (2, "meas")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda row: row["meas"][3].__setitem__(0, 2**40), "meas"),
        (lambda row: row["meas"][3].__setitem__(1, -(2**31) - 1), "meas"),
        (lambda row: row["meas"][3].__setitem__(1, 2**64), "meas"),
        (lambda row: row.__setitem__("serving", 2**32), "serving"),
    ],
    ids=["cell-past-int32", "beam-below-int32", "beam-past-int64", "serving-past-int32"],
)
def test_load_rejects_ids_past_32_bits(tmp_path, small_dataset, edit, field):
    # records store ids as int32; a wider one must not wrap into a known id
    path, lines = _lines(tmp_path, small_dataset)
    row = json.loads(lines[2])
    edit(row)
    lines[2] = json.dumps(row)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(_write(path, lines))
    assert (e.value.line, e.value.field) == (3, field)


@pytest.mark.parametrize(
    "line, edit",
    [
        (0, lambda text: "[" * 100_000),
        (3, lambda text: "[" * 100_000),
        # valid JSON and a valid record, but the file format is ASCII
        (3, lambda text: text[:-1] + ',"note":"caf\u00e9"}'),
    ],
    ids=["deep-header", "deep-record", "non-ascii-record"],
)
def test_load_names_the_line_json_cannot_decode(tmp_path, small_dataset, line, edit):
    path, lines = _lines(tmp_path, small_dataset)
    lines[line] = edit(lines[line])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert e.value.line == line + 1


# ---------------------------------------------------------------------------
# save_dataset bytes: pinned by hash and checked against the json.dumps writer


def oracle_save_dataset(dataset, path) -> None:
    """The per-record json.dumps writer save_dataset replaced, kept as
    the reference for its bytes."""
    header = {
        "format": "beamprint-dataset",
        "version": 1,
        "scenario_hash": dataset.scenario_hash,
        "seed": dataset.seed,
        "cells": list(dataset.cells),
        "beams_per_cell": dataset.n_beams,
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        for i in range(len(dataset)):
            row = {
                "x": float(dataset.xs[i]),
                "y": float(dataset.ys[i]),
                "serving": int(dataset.serving[i]),
                "los": bool(dataset.los[i]),
                "meas": [
                    [int(c), int(b), float(r)]
                    for c, b, r in zip(
                        dataset.meas_cells[i], dataset.meas_beams[i], dataset.meas_rsrp[i]
                    )
                ],
            }
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def shadowed_small_dataset():
    return build_dataset(build_scenario(small_scenario_config(shadowing_sigma_db=4.0)), seed=3)


# Digests of files written by the json.dumps writer above. The whole-sweep
# cases moved with numpy's AVX-512 arctan2/log10 kernels off (numpy 2.4.6),
# so they are checked only where those kernels give the pinned bits.
GOLDEN_SAVE_SHA256 = {
    "small": ("small_dataset", None, "7a9b78a9cbef1ce9ae41a99f7ccc27e32868146affe8beada6e64b55dad23fa4"),
    "single_site": ("single_site_dataset", None, "76135ddd7b96b1bcf7fe5c96c6fbff5d76509ee8aa8e22cca50c7a1f81a8a746"),
    "shadowed": ("shadowed_small_dataset", None, "8687fb87eabfd26014df35720483531559f19006e52156af1bd15ef725c3820b"),
    "subset7": ("small_dataset", (0, 1, 60, 123, 250, 401, -1), "806a191f31351a0ef2cc8f8944abc41839b2df42baf6f313ccd6f5cc359b57ca"),
    "empty": ("small_dataset", (), "a7a7cc38a3171df67e7275069403df758f37249ea93718ea323e5ce6b296ae42"),
}


RADIO_KERNEL_BITS = {"small", "single_site", "shadowed"}


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, marks=radio_kernels_as_pinned) if c in RADIO_KERNEL_BITS else c for c in sorted(GOLDEN_SAVE_SHA256)],
)
def test_save_dataset_golden_bytes(tmp_path, request, case):
    fixture, rows, digest = GOLDEN_SAVE_SHA256[case]
    ds = request.getfixturevalue(fixture)
    if rows is not None:
        ds = ds.subset(np.array(rows, dtype=np.int64) % len(ds))
    save_dataset(ds, tmp_path / "new.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    assert _sha256(tmp_path / "new.jsonl") == digest
    assert _sha256(tmp_path / "oracle.jsonl") == digest


# RSRP values whose shortest repr is unusual, integer-valued or signed zero
_AWKWARD_RSRP = (-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e22, -1e22, -80.0, -80.5, -1e16, 123.456, -97.12345678901234)


def _hand_built(rng, cells, n_beams, n, pool):
    """A full-sweep dataset in ranking order whose rsrp values are drawn
    from `pool`, so rows hold many exact ties."""
    cells = np.asarray(cells, dtype=np.int32)
    m = len(cells) * n_beams
    col_cells = np.repeat(cells, n_beams)
    col_beams = np.tile(np.arange(n_beams, dtype=np.int32), len(cells))
    rsrp = rng.choice(np.asarray(pool, dtype=np.float64), size=(n, m))
    # ranking order: descending rsrp (-0.0 ties 0.0), then cell, then beam
    order = np.array([np.lexsort((col_beams, col_cells, -row)) for row in rsrp], dtype=np.intp).reshape(n, m)
    meas_cells = col_cells[order]
    return Dataset(
        xs=rng.choice(np.asarray(pool), size=n),
        ys=rng.uniform(-1e3, 1e3, size=n),
        serving=meas_cells[:, 0].copy(),
        los=rng.random(n) < 0.5,
        meas_cells=meas_cells,
        meas_beams=col_beams[order],
        meas_rsrp=np.take_along_axis(rsrp, order, axis=1),
        cells=cells.tolist(),
        n_beams=n_beams,
        scenario_hash="ab" * 32,
        seed=11,
    )


_WRITER_CASES = {
    "extreme-ids": ((0, 2**31 - 1), 3, _AWKWARD_RSRP),
    "unsorted-header": ((2**31 - 1, 5, 0), 4, (-80.0, -0.0, 0.0)),  # header cells out of order
    "one-measurement": ((0,), 1, _AWKWARD_RSRP),  # one measurement per row
    "many-ties": (tuple(range(24)), 32, (-80.0, -80.25, -81.0)),  # 768 measurements, 3 distinct values
    "mostly-distinct": ((3, 9), 8, tuple(np.random.default_rng(5).uniform(-140.0, -40.0, 200))),
    "one-value": ((1, 2), 4, (-80.5,)),  # every rsrp the same bits: one run spans each block's rows
}


# every case at 40 rows, and at the row counts around save_dataset's
# blocks of _CHECK_ROWS (16): none, part of one, one, one and a row
# more, two and a row more
@pytest.mark.parametrize(
    "cells, n_beams, pool, n",
    [pytest.param(*case, 40, id=name) for name, case in _WRITER_CASES.items()]
    + [
        pytest.param(*case, n, id=f"{name}-{n}-rows")
        for name, case in _WRITER_CASES.items()
        for n in (0, 1, 15, 16, 17, 33)
    ],
)
def test_save_dataset_matches_json_writer(tmp_path, cells, n_beams, pool, n):
    ds = _hand_built(np.random.default_rng(len(cells) * 100 + n_beams), cells, n_beams, n, pool)
    save_dataset(ds, tmp_path / "new.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    back = load_dataset(tmp_path / "new.jsonl")
    assert back == ds
    # bit for bit: -0.0 and 0.0 compare equal but must stay apart
    assert back.meas_rsrp.view(np.uint64).tolist() == ds.meas_rsrp.view(np.uint64).tolist()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["x", "y", "rsrp"])
def test_save_rejects_non_finite_values(tmp_path, small_dataset, field, value):
    ds = small_dataset.subset(np.arange(10))
    column = {"x": ds.xs, "y": ds.ys, "rsrp": ds.meas_rsrp[:, 7]}[field]
    column[6] = value
    column[8] = value  # the first bad record is the one named
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DataError) as e:
        save_dataset(ds, path)
    assert "record 6" in str(e.value) and repr(field) in str(e.value)
    assert not path.exists()


@pytest.mark.parametrize(
    "column, value, needle",
    [("meas_cells", 99, "cell 99"), ("meas_beams", -1, "beam -1"), ("meas_beams", 32, "beam 32")],
    ids=["unknown-cell", "negative-beam", "beam-past-header"],
)
def test_save_rejects_what_load_refuses(tmp_path, small_dataset, column, value, needle):
    ds = small_dataset.subset(np.arange(10))
    getattr(ds, column)[4, 100] = value
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DataError) as e:
        save_dataset(ds, path)
    assert "record 4" in str(e.value) and needle in str(e.value)
    assert not path.exists()


def _out_of_order(ds):
    ds.meas_rsrp[4, 100] = ds.meas_rsrp[4, 0] + 1.0


def _serving_not_strongest(ds):
    ds.serving[4] = next(c for c in ds.cells if c != ds.meas_cells[4, 0])


def _serving_unknown(ds):
    ds.serving[4] = 99


@pytest.mark.parametrize(
    "fault, needle",
    [
        (_out_of_order, "not in ranking order"),
        (_serving_not_strongest, "not the strongest"),
        (_serving_unknown, "serving cell 99 is not in"),
    ],
    ids=["out-of-order", "serving-not-strongest", "serving-unknown"],
)
def test_save_rejects_bad_record_structure(tmp_path, small_dataset, fault, needle):
    ds = small_dataset.subset(np.arange(10))
    fault(ds)
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(tmp_path / "oracle.jsonl")
    assert e.value.line == 6  # record 4
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DataError) as e:
        save_dataset(ds, path)
    assert "record 4" in str(e.value) and needle in str(e.value)
    assert not path.exists()


def test_save_rejects_records_without_measurements(tmp_path, small_dataset):
    ds = small_dataset.subset(np.arange(1))
    ds = Dataset(
        xs=ds.xs,
        ys=ds.ys,
        serving=ds.serving,
        los=ds.los,
        meas_cells=ds.meas_cells[:, :0],
        meas_beams=ds.meas_beams[:, :0],
        meas_rsrp=ds.meas_rsrp[:, :0],
        cells=ds.cells,
        n_beams=ds.n_beams,
        scenario_hash=ds.scenario_hash,
        seed=ds.seed,
    )
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    with pytest.raises(DatasetParseError):
        load_dataset(tmp_path / "oracle.jsonl")
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DataError) as e:
        save_dataset(ds, path)
    assert "record 0" in str(e.value) and "no measurements" in str(e.value)
    assert not path.exists()


@pytest.mark.parametrize(
    "cells, n_beams, needle",
    [((0, 2, 2**31), 32, "cell ids"), ((-(2**31) - 1, 0), 32, "cell ids"), ((0, 1, 2, 3), 0, "beams per cell")],
    ids=["cell-past-int32", "cell-below-int32", "no-beams"],
)
def test_save_rejects_header_load_refuses(tmp_path, small_dataset, cells, n_beams, needle):
    ds = small_dataset.subset(np.arange(3))
    ds.cells, ds.n_beams = cells, n_beams
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(tmp_path / "oracle.jsonl")
    assert e.value.line == 1
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DataError, match=needle):
        save_dataset(ds, path)
    assert not path.exists()


def test_save_dataset_prefix_table_holds_only_the_pairs_present(tmp_path):
    # one beam id of 3,000,000 under a header that allows it: the prefix
    # table was sized cells x (largest beam id + 1), 6,000,002 strings
    ds = Dataset(
        xs=np.array([0.0, 1.5, -2.0]),
        ys=np.array([3.0, 4.0, 5.25]),
        serving=np.array([0, 1, 0], dtype=np.int32),
        los=np.array([True, False, True]),
        meas_cells=np.array([[0, 1], [1, 0], [0, 0]], dtype=np.int32),
        meas_beams=np.array([[3_000_000, 0], [2, 7], [1, 5]], dtype=np.int32),
        meas_rsrp=np.array([[-80.0, -81.5], [-70.0, -71.0], [-90.25, -90.25]]),
        cells=(0, 1),
        n_beams=4_000_000,
        scenario_hash="cd" * 32,
        seed=2,
    )
    save_dataset(ds, tmp_path / "new.jsonl")  # numpy imports modules on a first np.unique
    _, peak = _traced_overhead(save_dataset, ds, tmp_path / "new.jsonl", held=lambda _: 0)
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    assert peak < 1 << 20
    assert load_dataset(tmp_path / "new.jsonl") == ds


def test_save_dataset_with_spread_beam_ids_matches_json_writer(tmp_path, shadowed_small_dataset):
    # beam ids 0, 1000, ... keep every row in ranking order; the table of
    # the pairs present serves every block of the file
    ds = replace(shadowed_small_dataset, meas_beams=shadowed_small_dataset.meas_beams * 1000, n_beams=2**31 - 1)
    save_dataset(ds, tmp_path / "new.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


def test_save_dataset_coerces_columns_like_json_writer(tmp_path):
    # float32 rsrp and integer positions print as the float64 values the
    # json writer's float() gave
    ds = _hand_built(np.random.default_rng(1), (0, 4), 2, 10, (-80.0, -80.1, 1e-30))
    ds.meas_rsrp = ds.meas_rsrp.astype(np.float32)
    ds.xs = np.arange(10)
    save_dataset(ds, tmp_path / "new.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# save_dataset and load_dataset in parts: forked workers format or parse
# every contiguous part of the rows or lines but the first


@pytest.fixture
def parent_reads(monkeypatch):
    """The number of times this process ran the record loop: once for a
    load in parts that needed no second read."""
    calls = []
    read = fingerprint._read_records

    def counted(*args, **kwargs):
        calls.append(os.getpid())
        return read(*args, **kwargs)

    monkeypatch.setattr(fingerprint, "_read_records", counted)
    me = os.getpid()
    return lambda: calls.count(me)


def _one_process_error(path, monkeypatch):
    """load_dataset's error on `path` by one process, as (line, field, message)."""
    with monkeypatch.context() as m:
        m.setattr(procs, "_PART_BYTES", 1 << 62)
        with pytest.raises(DatasetParseError) as e:
            load_dataset(path)
    return e.value.line, e.value.field, str(e.value)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "case",
    [pytest.param(c, marks=radio_kernels_as_pinned) if c in RADIO_KERNEL_BITS else c for c in sorted(GOLDEN_SAVE_SHA256)],
)
def test_golden_bytes_and_load_do_not_depend_on_the_part_count(tmp_path, request, forced_parts, parent_reads, case, k):
    fixture, rows, digest = GOLDEN_SAVE_SHA256[case]
    ds = request.getfixturevalue(fixture)
    if rows is not None:
        ds = ds.subset(np.array(rows, dtype=np.int64) % len(ds))
    workers = forced_parts(k)
    save_dataset(ds, tmp_path / "new.jsonl")
    assert _sha256(tmp_path / "new.jsonl") == digest
    back = load_dataset(tmp_path / "new.jsonl")
    assert back == ds
    assert back.meas_rsrp.view(np.uint64).tolist() == ds.meas_rsrp.view(np.uint64).tolist()
    assert parent_reads() == 1
    # a part per CPU, but no more than the rows' blocks of 16 (save) or
    # the records (load)
    saved = min(k, -(-len(ds) // fingerprint._CHECK_ROWS)) - 1
    assert workers == [True] * (max(saved, 0) + min(k, max(len(ds), 1)) - 1)
    no_child_left()
    assert os.listdir(tmp_path) == ["new.jsonl"]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
@pytest.mark.parametrize("name", ["extreme-ids", "many-ties"])
def test_saves_in_parts_match_json_writer(tmp_path, forced_parts, parent_reads, name, n, k):
    cells, n_beams, pool = _WRITER_CASES[name]
    ds = _hand_built(np.random.default_rng(len(cells) * 100 + n_beams), cells, n_beams, n, pool)
    forced_parts(k)
    save_dataset(ds, tmp_path / "new.jsonl")
    oracle_save_dataset(ds, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    back = load_dataset(tmp_path / "new.jsonl")
    assert back == ds
    assert back.meas_rsrp.view(np.uint64).tolist() == ds.meas_rsrp.view(np.uint64).tolist()
    assert parent_reads() == 1
    no_child_left()


def _in_parts(tmp_path, small_dataset):
    """A dataset file of small_dataset, with its lines and the byte where
    each of its parts begins."""
    path, lines = _lines(tmp_path, small_dataset)
    with open(path) as fh:
        fh.readline()
        return path, lines, fingerprint._cuts(fh, len(lines[0]) + 1)


def test_load_with_a_blank_line_at_a_cut(tmp_path, small_dataset, forced_parts, parent_reads, monkeypatch):
    forced_parts(2)
    path, lines, cuts = _in_parts(tmp_path, small_dataset)
    text = path.read_bytes()
    cut = cuts[1]
    path.write_bytes(text[:cut] + b"\n" + text[cut:])
    with open(path) as fh:
        fh.readline()
        assert fingerprint._cuts(fh, len(lines[0]) + 1)[1] == cut  # the second part starts with the blank line
    assert load_dataset(path) == small_dataset
    assert parent_reads() == 1
    # a record fault past the blank line names its line, as one process does
    i = text[:cut].count(b"\n") + 1  # the index in `lines` of the record after the cut
    lines.insert(i, "")
    row = json.loads(lines[i + 1])
    row["serving"] = 99
    lines[i + 1] = json.dumps(row, separators=(",", ":"), sort_keys=True)
    _write(path, lines)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert (e.value.line, e.value.field, str(e.value)) == _one_process_error(path, monkeypatch)
    assert e.value.line == i + 2
    no_child_left()


def test_load_in_parts_of_a_last_line_without_a_line_end(tmp_path, small_dataset, forced_parts, parent_reads):
    forced_parts(3)
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    path.write_bytes(path.read_bytes()[:-1])
    assert load_dataset(path) == small_dataset
    assert parent_reads() == 1


@pytest.mark.parametrize("end", ["crlf", "cr", "last-crlf"])
def test_load_of_a_file_with_carriage_returns_takes_one_process(tmp_path, small_dataset, forced_parts, monkeypatch, end):
    # text mode ends a line at "\r" too and reads "\r\n" as one "\n",
    # which would move the cuts and the line numbers. The line count
    # finds a "\r" anywhere, here also on the last line only, past its
    # first chunk
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    text = path.read_bytes()
    if end == "last-crlf":
        path.write_bytes(text[:-1] + b"\r\n")
    else:
        path.write_bytes(text.replace(b"\n", b"\r\n" if end == "crlf" else b"\r"))
    forced_parts(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert load_dataset(path) == small_dataset


def _no_fork():
    raise AssertionError("forked")


def _bad_json(lines, i):
    lines[i] = lines[i][:-5]


def _bad_field(lines, i):
    row = json.loads(lines[i])
    row["los"] = 1
    lines[i] = json.dumps(row)


def _record_rule(lines, i):
    row = json.loads(lines[i])
    row["meas"][0], row["meas"][1] = row["meas"][1], row["meas"][0]
    lines[i] = json.dumps(row, separators=(",", ":"), sort_keys=True)


def _count_differs(lines, i):
    row = json.loads(lines[i])
    row["meas"] = row["meas"][:-1]
    lines[i] = json.dumps(row, separators=(",", ":"), sort_keys=True)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("where", ["first-part", "last-part", "last-line"])
@pytest.mark.parametrize("fault", [_bad_json, _bad_field, _record_rule, _count_differs])
def test_load_in_parts_refuses_with_the_error_of_one_process(
    tmp_path, small_dataset, forced_parts, monkeypatch, fault, where, k
):
    # a fault in this process's part raises there; one in a worker's part
    # sends the load back to one process, which names the first fault in
    # line order. A measurement count that differs in the last part
    # differs across a cut.
    forced_parts(k)
    path, lines, cuts = _in_parts(tmp_path, small_dataset)
    assert len(cuts) == k
    i = {"first-part": 3, "last-part": len(lines) - 20, "last-line": len(lines) - 1}[where]
    start = sum(len(line) + 1 for line in lines[:i])  # the byte where line i + 1 begins
    assert (start < cuts[1]) == (where == "first-part") and (start >= cuts[-1]) == (where != "first-part")
    fault(lines, i)
    _write(path, lines)
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert (e.value.line, e.value.field, str(e.value)) == _one_process_error(path, monkeypatch)
    assert e.value.line == i + 1
    no_child_left()


def test_parts_leave_no_process_or_file_behind(tmp_path, small_dataset, forced_parts, monkeypatch):
    workers = forced_parts(2)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "ds.jsonl"
    save_dataset(small_dataset, path)
    assert workers == [True] and os.listdir(out) == ["ds.jsonl"]
    no_child_left()
    assert load_dataset(path) == small_dataset
    no_child_left()
    # a refused save leaves the file as it was, and starts no worker
    bad = small_dataset.subset(np.arange(40))
    bad.meas_cells[30, 5] = 99
    before = path.read_bytes()
    with pytest.raises(DataError, match="record 30"):
        save_dataset(bad, path)
    assert path.read_bytes() == before and os.listdir(out) == ["ds.jsonl"]
    no_child_left()
    # refusals in this process's part and in a worker's
    for i in (2, len(before.splitlines()) - 2):
        lines = before.decode().splitlines()
        _bad_json(lines, i)
        _write(tmp_path / "bad.jsonl", lines)
        with pytest.raises(DatasetParseError):
            load_dataset(tmp_path / "bad.jsonl")
        no_child_left()


@pytest.mark.parametrize("exception", [KeyboardInterrupt, MemoryError])
def test_an_exception_in_this_process_reaps_the_workers(tmp_path, small_dataset, forced_parts, monkeypatch, exception):
    forced_parts(3)
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    me = os.getpid()
    read_block = fingerprint.read_block

    def interrupted(lines):
        if os.getpid() == me:
            raise exception()
        return read_block(lines)

    monkeypatch.setattr(fingerprint, "read_block", interrupted)
    with pytest.raises(exception):
        load_dataset(path)
    no_child_left()

    def append(out, part):
        raise exception()

    monkeypatch.setattr(fingerprint, "_append", append)
    with pytest.raises(exception):
        save_dataset(small_dataset, tmp_path / "again.jsonl")
    no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["again.jsonl", "ds.jsonl"]


@pytest.mark.parametrize("dying", [[True, True], [False, True]], ids=["every", "last"])
def test_a_worker_that_dies_leaves_the_work_to_this_process(tmp_path, small_dataset, forced_parts, monkeypatch, dying):
    # with only the last one dead, this process formats its part after
    # appending the first worker's file
    workers = forced_parts(3)
    fork = procs._fork
    started = []

    def forked(work):
        dies = dying[len(started) % 2]
        started.append(dies)
        return fork(lambda: os._exit(1)) if dies else fork(work)

    monkeypatch.setattr(procs, "_fork", forked)
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    assert workers == [not dies for dies in dying]
    oracle_save_dataset(small_dataset, tmp_path / "oracle.jsonl")
    assert path.read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    no_child_left()
    assert load_dataset(path) == small_dataset
    no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["ds.jsonl", "oracle.jsonl"]


# a worker sends its part's (records, measurement width) as two int64,
# then the raw bytes of the record columns, the float64 xs first and the
# float64 meas_rsrp last
_HEAD_BYTES = 2 * np.dtype(np.int64).itemsize


@pytest.mark.parametrize(
    "cut",
    [
        lambda rows, width, size: _HEAD_BYTES // 2,
        lambda rows, width, size: _HEAD_BYTES + rows * 8 // 2,
        lambda rows, width, size: size - rows * width * 8 // 2,
    ],
    ids=["in-the-head", "in-the-first-column", "in-the-last-column"],
)
def test_a_worker_that_dies_while_it_sends_leaves_the_load_to_this_process(
    tmp_path, small_dataset, forced_parts, parent_reads, monkeypatch, cut
):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    workers = forced_parts(2)
    send = fingerprint._send_part

    def dies(pipe, *args):  # sends its first bytes only, then dies
        r, w = os.pipe()
        with open(r, "rb") as whole:
            if not os.fork():
                send(w, *args)
                os._exit(0)
            os.close(w)
            data = whole.read()
        os.wait()
        rows, width = np.frombuffer(data[:_HEAD_BYTES], dtype=np.int64).tolist()
        assert rows > 0 and len(data) == _HEAD_BYTES + rows * (8 + 8 + 4 + 1) + rows * width * (4 + 4 + 8)
        os.write(pipe, data[: cut(rows, width, len(data))])
        os._exit(1)

    monkeypatch.setattr(fingerprint, "_send_part", dies)
    assert load_dataset(path) == small_dataset
    assert parent_reads() == 2  # its part, then the whole file
    assert workers == []  # the parent stopped reading before it waited for the worker
    no_child_left()


def test_load_in_parts_whose_first_part_holds_no_record(tmp_path, small_dataset, forced_parts, parent_reads):
    # blank lines past the first cut: this process reads no record, and
    # makes its columns at the worker's measurement width
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    header, records = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + b"\n" * (len(records) + 100) + records)
    workers = forced_parts(2)
    with open(path) as fh:
        fh.readline()
        cuts = fingerprint._cuts(fh, len(header) + 1)
    assert len(cuts) == 2 and path.read_bytes()[cuts[0] : cuts[1]].strip() == b""
    back = load_dataset(path)
    assert back == small_dataset
    assert back.meas_rsrp.view(np.uint64).tolist() == small_dataset.meas_rsrp.view(np.uint64).tolist()
    assert parent_reads() == 1
    assert workers == [True]
    no_child_left()


def _thread_alive():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    return lambda: (stop.set(), thread.join())


@pytest.mark.parametrize("condition", ["no-fork", "one-cpu", "thread-alive", "small"])
def test_one_process_conditions(tmp_path, small_dataset, forced_parts, monkeypatch, condition):
    forced_parts(2)
    stop = None
    if condition == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _no_fork)
    if condition == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif condition == "thread-alive":
        stop = _thread_alive()
    elif condition == "small":  # just short of two parts: the dataset's columns, then the file
        monkeypatch.setattr(procs, "_PART_BYTES", _column_bytes(small_dataset) // 2 + 1)
    try:
        save_dataset(small_dataset, tmp_path / "new.jsonl")
        if condition == "small":
            monkeypatch.setattr(procs, "_PART_BYTES", (tmp_path / "new.jsonl").stat().st_size // 2 + 1)
        assert load_dataset(tmp_path / "new.jsonl") == small_dataset
    finally:
        if stop is not None:
            stop()
    oracle_save_dataset(small_dataset, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


def test_parts_without_sched_getaffinity_count_the_cpus(forced_parts, monkeypatch):
    forced_parts(1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert procs._part_count(1 << 20) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert procs._part_count(1 << 20) == 1


def test_parts_stay_at_least_a_part_floor_large(forced_parts, monkeypatch):
    # the floor holds for each part: more CPUs add parts only while
    # every part stays _PART_BYTES or more
    forced_parts(4)
    monkeypatch.setattr(procs, "_PART_BYTES", 10)
    assert [procs._part_count(size) for size in (0, 19, 20, 29, 30, 39, 40, 10**9)] == [1, 1, 2, 2, 3, 3, 4, 4]


@pytest.mark.parametrize(
    "cpu_max, parts", [("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1), ("800000 100000\n", 4)]
)
def test_parts_keep_to_a_cgroup_cpu_quota(tmp_path, forced_parts, monkeypatch, cpu_max, parts):
    # affinity counts the CPUs a process may run on, a quota the CPUs'
    # worth of time it may use; a part is made per CPU of the smaller
    forced_parts(4)
    (tmp_path / "cpu.max").write_text(cpu_max)
    monkeypatch.setattr(procs, "_CPU_MAX", str(tmp_path / "cpu.max"))
    assert procs._part_count(1 << 20) == parts


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_in_parts_refuses_a_pipe(tmp_path, small_dataset, forced_parts, monkeypatch):
    forced_parts(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset.subset(np.arange(3)), path)
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as w:
            w.write(path.read_bytes())  # well under a pipe's buffer
        with pytest.raises(DataError, match="cannot count the lines"):
            load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_parts_where_the_caller_ignores_sigchld(tmp_path, small_dataset, forced_parts, monkeypatch):
    # the kernel then reaps the workers itself and their status is lost:
    # this process formats every part, and reads the file again
    forced_parts(2)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        save_dataset(small_dataset, tmp_path / "new.jsonl")
        assert load_dataset(tmp_path / "new.jsonl") == small_dataset
    finally:
        signal.signal(signal.SIGCHLD, previous)
    oracle_save_dataset(small_dataset, tmp_path / "oracle.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    no_child_left()
