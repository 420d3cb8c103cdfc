import hashlib
import json
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from beamprint import fingerprint
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

from conftest import row_of, small_scenario_config, triples
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
    monkeypatch.setattr(fingerprint, "_lines_at_most", lambda fh: 2)
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


def test_load_holds_one_copy_of_the_columns(tmp_path):
    # each record is written into preallocated columns, so the traced
    # peak less the output does not grow with the file (it grew by more
    # than the output's size with a list of rows stacked at the end)
    runs = []
    for res in (2.0, 1.0):
        path = tmp_path / f"grid{res}.jsonl"
        save_dataset(build_dataset(build_scenario(replace(small_scenario_config(), grid_resolution_m=res))), path)
        runs.append(_traced_overhead(load_dataset, path))
    assert _overhead_growth(runs) < 0.25


def test_save_holds_no_copy_of_the_columns(tmp_path):
    # save_dataset formats a block of rows at a time, so its traced peak
    # does not grow with the dataset it writes
    runs = []
    for res in (2.0, 1.0):
        ds = build_dataset(build_scenario(replace(small_scenario_config(), grid_resolution_m=res)))
        _, peak = _traced_overhead(save_dataset, ds, tmp_path / f"grid{res}.jsonl", held=lambda _: 0)
        runs.append((ds, peak))
    assert _overhead_growth(runs) < 0.25


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
