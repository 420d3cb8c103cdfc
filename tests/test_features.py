import hashlib

import numpy as np
import pytest

from beamprint import features
from beamprint.errors import ConfigurationError, DataError, FeatureExtractionError
from beamprint.features import (
    _EXTRACT_ROWS,
    SKIP_NEIGHBORS,
    SKIP_SERVING,
    TOPOLOGY_CELL,
    TOPOLOGY_NETWORK,
    FeatureAccumulator,
    FeatureConfig,
    apply,
    apply_labels,
    extract,
    extract_features,
    feature_config_from_dict,
    feature_length,
    fit_normalizer,
    invert_labels,
    shortfall,
)
from beamprint.configfile import to_dict
from beamprint.mlp import normalizer_from_dict, normalizer_to_dict
from beamprint.fingerprint import Dataset

from conftest import record_of, row_of, triples
from test_mlp import radio_kernels_as_pinned


def make_record(serving=5, x=1.0, y=2.0, los=True, measurements=None):
    if measurements is None:
        measurements = (
            (5, 2, -50.0),
            (3, 4, -52.0),
            (5, 7, -55.0),
            (9, 0, -58.0),
            (5, 1, -60.0),
            (3, 6, -61.0),
            (9, 8, -70.0),
        )
    return record_of(measurements, serving=serving, x=x, y=y, los=los)


def dataset_of(records):
    """A Dataset whose rows are the given records (record_of columns),
    NaN-padded to the longest."""
    n, m = len(records), max(len(r[6]) for r in records)
    cells = np.zeros((n, m), dtype=np.int32)
    beams = np.zeros((n, m), dtype=np.int32)
    rsrp = np.full((n, m), np.nan)
    for i, (_, _, _, _, c, b, r) in enumerate(records):
        cells[i, : len(r)] = c
        beams[i, : len(r)] = b
        rsrp[i, : len(r)] = r
    xs, ys, serving, los = zip(*(r[:4] for r in records))
    return Dataset(
        xs=np.array(xs),
        ys=np.array(ys),
        serving=np.array(serving, dtype=np.int32),
        los=np.array(los),
        meas_cells=cells,
        meas_beams=beams,
        meas_rsrp=rsrp,
        cells=sorted(set(cells.ravel().tolist())),
        n_beams=int(beams.max()) + 1,
        scenario_hash="r" * 64,
        seed=0,
    )


# ---------------------------------------------------------------------------
# oracle: the per-record extractor the column kernel replaced


def _oracle_one_hot(index, size, what):
    if not 0 <= index < size:
        raise ConfigurationError(f"{what} {index} outside one-hot vocabulary of size {size}")
    out = [0.0] * size
    out[index] = 1.0
    return out


def oracle_extract(serving, measurements, config):
    """Walk (cell, beam, rsrp) triples in ranking order and build one
    feature vector; FeatureExtractionError when the config is not met."""
    k = config.n_serving_beams
    n = config.n_neighbor_beams

    serving_beams = []
    neighbor_best = []
    seen_neighbors = set()
    for cell, beam, rsrp in measurements:
        if cell == serving:
            if len(serving_beams) < k:
                serving_beams.append((beam, rsrp))
        elif cell not in seen_neighbors:
            seen_neighbors.add(cell)
            if len(neighbor_best) < n:
                neighbor_best.append((cell, beam, rsrp))
        if len(serving_beams) == k and len(neighbor_best) == n:
            break

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

    values = []
    if config.one_hot_ids:
        for beam, rsrp in serving_beams:
            values.extend(_oracle_one_hot(beam, config.beam_id_vocab, "beam id"))
            values.append(rsrp)
        if config.include_serving_cell_id:
            values.extend(_oracle_one_hot(serving, config.cell_id_vocab, "cell id"))
        for cell, beam, rsrp in neighbor_best:
            values.extend(_oracle_one_hot(cell, config.cell_id_vocab, "cell id"))
            values.extend(_oracle_one_hot(beam, config.beam_id_vocab, "beam id"))
            values.append(rsrp)
    else:
        for beam, rsrp in serving_beams:
            values.append(float(beam))
            values.append(rsrp)
        if config.include_serving_cell_id:
            values.append(float(serving))
        for cell, beam, rsrp in neighbor_best:
            values.append(float(cell))
            values.append(float(beam))
            values.append(rsrp)
    return np.asarray(values, dtype=np.float64)


def oracle_record(record, config):
    return oracle_extract(record[2], triples(record), config)


def extract_one(record, config):
    """One record's feature vector by the kernel; when it cannot fill
    the config, the shortfall error infer_record raises for it."""
    _, _, serving, _, cells, beams, rsrp = record
    values, kept, n_serving, n_neighbors = extract(np.array([serving]), cells[None], beams[None], rsrp[None], config)
    if not len(kept):
        raise shortfall(config, n_serving[0], n_neighbors[0])
    return values[0]


# ---------------------------------------------------------------------------
# vector layout


def test_feature_length_oracles():
    # 2 per serving beam + 1 cell id + 3 per neighbor
    assert feature_length(FeatureConfig(n_serving_beams=3, n_neighbor_beams=0)) == 7
    assert feature_length(FeatureConfig(n_serving_beams=4, n_neighbor_beams=0)) == 9
    assert feature_length(FeatureConfig(n_serving_beams=3, n_neighbor_beams=2)) == 13
    assert (
        feature_length(
            FeatureConfig(
                n_serving_beams=3,
                n_neighbor_beams=2,
                include_serving_cell_id=False,
                topology=TOPOLOGY_CELL,
            )
        )
        == 12
    )


def test_feature_length_one_hot():
    cfg = FeatureConfig(
        n_serving_beams=2,
        n_neighbor_beams=1,
        one_hot_ids=True,
        cell_id_vocab=24,
        beam_id_vocab=32,
    )
    # serving: 2*(32+1), cell id: 24, neighbor: 24+32+1
    assert feature_length(cfg) == 2 * 33 + 24 + 57


def test_extract_layout():
    cfg = FeatureConfig(n_serving_beams=2, n_neighbor_beams=2)
    values = extract_one(make_record(), cfg)
    expect = [2.0, -50.0, 7.0, -55.0, 5.0, 3.0, 4.0, -52.0, 9.0, 0.0, -58.0]
    assert values.tolist() == expect
    fs = extract_features(dataset_of([make_record()]), cfg)
    assert fs.values.tolist() == [expect]
    assert tuple(fs.labels[0]) == (1.0, 2.0)


def test_extract_without_cell_id():
    cfg = FeatureConfig(
        n_serving_beams=2,
        n_neighbor_beams=1,
        include_serving_cell_id=False,
        topology=TOPOLOGY_CELL,
    )
    values = extract_one(make_record(), cfg)
    assert values.tolist() == [2.0, -50.0, 7.0, -55.0, 3.0, 4.0, -52.0]


def test_extract_neighbor_order_is_strongest_first():
    # neighbors ranked by their best beam, strongest first
    cfg = FeatureConfig(n_serving_beams=1, n_neighbor_beams=2)
    values = extract_one(make_record(), cfg)
    # cell 3 best -52 comes before cell 9 best -58
    assert values.tolist()[3:] == [3.0, 4.0, -52.0, 9.0, 0.0, -58.0]


def test_extract_one_neighbor_entry_per_cell():
    # second-best beam of a strong neighbor must not displace another cell
    cfg = FeatureConfig(n_serving_beams=1, n_neighbor_beams=2)
    measurements = (
        (5, 2, -50.0),
        (3, 4, -52.0),
        (3, 6, -53.0),
        (9, 0, -58.0),
    )
    values = extract_one(make_record(measurements=measurements), cfg)
    assert values.tolist()[3:] == [3.0, 4.0, -52.0, 9.0, 0.0, -58.0]


def test_extract_skip_reasons():
    cfg = FeatureConfig(n_serving_beams=4, n_neighbor_beams=0)
    with pytest.raises(FeatureExtractionError) as e:
        extract_one(make_record(), cfg)
    assert e.value.reason == SKIP_SERVING

    cfg = FeatureConfig(n_serving_beams=1, n_neighbor_beams=3)
    with pytest.raises(FeatureExtractionError) as e:
        extract_one(make_record(), cfg)
    assert e.value.reason == SKIP_NEIGHBORS


def test_extract_one_hot():
    cfg = FeatureConfig(
        n_serving_beams=1,
        n_neighbor_beams=1,
        one_hot_ids=True,
        cell_id_vocab=10,
        beam_id_vocab=8,
    )
    values = extract_one(make_record(), cfg)
    assert values.shape == (feature_length(cfg),)
    # serving beam 2 one-hot, then rsrp
    assert values[2] == 1.0
    assert values[:8].sum() == 1.0
    assert values[8] == -50.0
    # serving cell 5 one-hot
    assert values[9 + 5] == 1.0
    assert np.array_equal(values, oracle_record(make_record(), cfg))


def test_extract_one_hot_rejects_out_of_vocab():
    cfg = FeatureConfig(
        n_serving_beams=1,
        n_neighbor_beams=0,
        one_hot_ids=True,
        cell_id_vocab=4,  # serving cell is 5
        beam_id_vocab=8,
    )
    with pytest.raises(ConfigurationError):
        extract_one(make_record(), cfg)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        feature_length(FeatureConfig(n_serving_beams=0))
    # a count past 64 used to build its layout tuple: MemoryError or
    # OverflowError for a bundle's serving_beams near 2**31 or 2**63
    assert feature_length(FeatureConfig(n_serving_beams=64)) == 129
    for count in (65, 2**31, 2**63):
        with pytest.raises(ConfigurationError, match=f"serving beam count must be at most 64, got {count}"):
            FeatureConfig(n_serving_beams=count)
    with pytest.raises(ConfigurationError):
        feature_length(FeatureConfig(n_neighbor_beams=4))
    with pytest.raises(ConfigurationError):
        feature_length(FeatureConfig(topology="urban"))
    with pytest.raises(ConfigurationError):
        feature_length(FeatureConfig(topology=TOPOLOGY_CELL, include_serving_cell_id=True))
    with pytest.raises(ConfigurationError):
        feature_length(FeatureConfig(one_hot_ids=True))


@pytest.mark.parametrize("cell_vocab, beam_vocab", [(0, -2), (0, 32), (24, 0), (1, -1)])
def test_one_hot_vocabulary_below_one_is_refused(cell_vocab, beam_vocab):
    # was accepted; a sweep then failed at its first block
    with pytest.raises(ConfigurationError, match="one-hot vocabulary sizes must be at least 1"):
        FeatureConfig(one_hot_ids=True, cell_id_vocab=cell_vocab, beam_id_vocab=beam_vocab)
    # without one-hot ids the sizes are unused
    FeatureConfig(cell_id_vocab=cell_vocab, beam_id_vocab=beam_vocab)
    assert feature_length(FeatureConfig(one_hot_ids=True, cell_id_vocab=1, beam_id_vocab=1)) == 7


def test_one_hot_vocabulary_past_its_cap_is_refused():
    # a bundle with cell_id_vocab 2**40 passed, and extracting one report
    # then asked for an 8 TiB array: a raw MemoryError
    largest = FeatureConfig(n_serving_beams=1, one_hot_ids=True, cell_id_vocab=1008, beam_id_vocab=64)
    assert feature_length(largest) == 64 + 1 + 1008
    for field, value in (("cell_id_vocab", 1009), ("cell_id_vocab", 2**40), ("beam_id_vocab", 65)):
        with pytest.raises(ConfigurationError, match=f"one-hot {field} must be at most .*, got {value}"):
            FeatureConfig(**{"n_serving_beams": 1, "one_hot_ids": True, "cell_id_vocab": 24, "beam_id_vocab": 32,
                             field: value})
    # without one-hot ids the sizes are unused
    FeatureConfig(cell_id_vocab=2**40, beam_id_vocab=2**40)


# ---------------------------------------------------------------------------
# batch extraction


def test_extract_features_matches_per_record(small_dataset):
    for cfg in (
        FeatureConfig(n_serving_beams=3, n_neighbor_beams=0),
        FeatureConfig(n_serving_beams=3, n_neighbor_beams=2),
        FeatureConfig(n_serving_beams=1, n_neighbor_beams=3),
        FeatureConfig(
            n_serving_beams=2,
            n_neighbor_beams=1,
            include_serving_cell_id=False,
            topology=TOPOLOGY_CELL,
        ),
    ):
        fs = extract_features(small_dataset, cfg)
        kept = 0
        for i in range(len(small_dataset)):
            record = row_of(small_dataset, i)
            try:
                want = oracle_record(record, cfg)
            except FeatureExtractionError:
                with pytest.raises(FeatureExtractionError):
                    extract_one(record, cfg)
                continue
            row = np.searchsorted(fs.indices, i)
            assert fs.indices[row] == i
            assert np.array_equal(fs.values[row], want)
            assert np.array_equal(extract_one(record, cfg), want)
            assert tuple(fs.labels[row]) == record[:2]
            kept += 1
        assert kept == len(fs)
        assert len(fs) + sum(fs.skipped.values()) == len(small_dataset)


def irregular_dataset():
    # hand-rolled rows without the full per-cell sweep
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 0.0, 0.0])
    serving = np.array([0, 1, 0], dtype=np.int32)
    los = np.array([True, True, False])
    meas_cells = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 1]], dtype=np.int32)
    meas_beams = np.array([[3, 1, 2], [0, 5, 4], [2, 3, 0]], dtype=np.int32)
    meas_rsrp = np.array(
        [[-50.0, -55.0, -60.0], [-40.0, -48.0, -52.0], [-45.0, -50.0, -58.0]]
    )
    return Dataset(
        xs=xs,
        ys=ys,
        serving=serving,
        los=los,
        meas_cells=meas_cells,
        meas_beams=meas_beams,
        meas_rsrp=meas_rsrp,
        cells=(0, 1),
        n_beams=8,
        scenario_hash="x" * 64,
        seed=0,
    )


def test_extract_features_irregular_rows():
    ds = irregular_dataset()
    cfg = FeatureConfig(n_serving_beams=2, n_neighbor_beams=1)
    fs = extract_features(ds, cfg)
    assert len(fs) == 3
    assert fs.values[0].tolist() == [3.0, -50.0, 2.0, -60.0, 0.0, 1.0, 1.0, -55.0]
    cfg3 = FeatureConfig(n_serving_beams=3, n_neighbor_beams=0)
    fs3 = extract_features(ds, cfg3)
    assert len(fs3) == 0
    assert fs3.skipped == {SKIP_SERVING: 3}


# Golden digests of extract_features output, taken before the feature
# kernel was rewritten: the same rows, values, labels and skip counts,
# byte for byte.
GOLDEN_CONFIGS = {
    "s3n0": FeatureConfig(n_serving_beams=3, n_neighbor_beams=0),
    "s3n2": FeatureConfig(n_serving_beams=3, n_neighbor_beams=2),
    "s1n3": FeatureConfig(n_serving_beams=1, n_neighbor_beams=3),
    "cell_s2n1": FeatureConfig(
        n_serving_beams=2, n_neighbor_beams=1, include_serving_cell_id=False, topology=TOPOLOGY_CELL
    ),
    "onehot_s3n2": FeatureConfig(
        n_serving_beams=3, n_neighbor_beams=2, one_hot_ids=True, cell_id_vocab=24, beam_id_vocab=32
    ),
    "onehot_cell_s2n1": FeatureConfig(
        n_serving_beams=2,
        n_neighbor_beams=1,
        include_serving_cell_id=False,
        topology=TOPOLOGY_CELL,
        one_hot_ids=True,
        cell_id_vocab=4,
        beam_id_vocab=32,
    ),
}

GOLDEN_FEATURE_SHA256 = {
    "small/s3n0": "8cf16b9ed41ae88a5a09e31d700ddd050262367fb7b79e1226f151d4ea4faf94",
    "small/s3n2": "6a1769320235b40d9ee95595385af373aef684816e228d2c3bd8db7c9f879463",
    "small/s1n3": "300105214df9a063411a4dd7cd4691e44635eb6e3d95ad254b3f71a99cb2284f",
    "small/cell_s2n1": "c6eb7c255cf40d895fc727a1de202bb9ab640003bd9f4411338625a117b68695",
    "small/onehot_s3n2": "bb13a810152645fe9e46f77defd0b0dec12ebf0065ae8e89d055753a8d749080",
    "small/onehot_cell_s2n1": "2b4e72770d9eafb167dd7dd0b336615f766ee3fad7482fa8c96f07d38ee90189",
    "single_site/s3n0": "7d615befcd4598e02eabb6e72fa14cceec5122f3e9edb15fbc9055ff5642c84a",
    "single_site/s3n2": "2bed299a9831f96b5992e8c329aaf9316b3c7d0c225da4821083a9ef33038c74",
    "single_site/s1n3": "e1e0192b6fdcc1a4776ec3899a4c58e52877d982a629c8cc1ca8cec24f31c6a1",
    "single_site/cell_s2n1": "bd0448c9f89288470e3a87f28ff75aa092a7fae8ca76619d5d17392f00e3cc13",
    "single_site/onehot_s3n2": "5f58bd4089f71a083aeb8906f65d6e966130f8d1a577eeb84f92feaf772c040e",
    "single_site/onehot_cell_s2n1": "d41c0f9d657bbabef6850524eb0b10e425689e49179fdecaee6d25e8d0e212e1",
    "irregular/s3n0": "d0d8c98c0493d1828cffb3273c48224593e5c34a3de7dbe2f17570c56a26682c",
    "irregular/s3n2": "09e192d7a4d5d41dcae975c320a6855ceb32ffef84c63462ed09e6ef0d556972",
    "irregular/s1n3": "9c29561024069ea558f638acafcac25adf362ffbe61cd3899fc982217c94b42b",
    "irregular/cell_s2n1": "215d868067d00aa436419fa7a226254f2f14845595aa579db3a771edc0497728",
    "irregular/onehot_s3n2": "54ca4b3a8f6a8cd3405404f474de6e4ff28bd352020a4330c22944f5b49bfd42",
    "irregular/onehot_cell_s2n1": "cc7a53f17c292c609f0c57d72ab855f87b053c50c56c8df236465dba641f2483",
    "default_los/s3n2": "c1b758fa113444eb7b660a0fef74b51d490b4c9e9cf30fbdeb8568068abf88f9",
}


def feature_digest(fs) -> str:
    h = hashlib.sha256()
    for arr in (fs.values, fs.labels, fs.indices):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(sorted(fs.skipped.items())).encode())
    return h.hexdigest()


# the cases whose digests moved with numpy's AVX-512 arctan2/log10 kernels
# off (numpy 2.4.6); the other radio-derived cases kept their bits there
RADIO_KERNEL_BITS = {
    "default_los/s3n2",
    "single_site/s3n0",
    "small/cell_s2n1",
    "small/onehot_cell_s2n1",
    "small/onehot_s3n2",
    "small/s1n3",
    "small/s3n0",
    "small/s3n2",
}


@pytest.mark.parametrize(
    "key",
    [pytest.param(k, marks=radio_kernels_as_pinned) if k in RADIO_KERNEL_BITS else k for k in sorted(GOLDEN_FEATURE_SHA256)],
)
def test_extract_features_golden_digest(key, request):
    ds_name, cfg_name = key.split("/")
    ds = irregular_dataset() if ds_name == "irregular" else request.getfixturevalue(f"{ds_name}_dataset")
    assert feature_digest(extract_features(ds, GOLDEN_CONFIGS[cfg_name])) == GOLDEN_FEATURE_SHA256[key]


def random_records(rng, n):
    """Ragged reports in ranking order: a random subset of a random
    (cell, beam) sweep, RSRP on a coarse 0.5 dB grid so exact ties are
    common, shuffled and then re-sorted. The serving cell is usually
    the strongest cell, sometimes any measured cell."""
    records = []
    for _ in range(n):
        cell_ids = rng.choice(12, size=rng.integers(1, 6), replace=False)
        beam_ids = rng.choice(16, size=rng.integers(1, 6), replace=False)
        pairs = [(int(c), int(b)) for c in cell_ids for b in beam_ids]
        keep = rng.random(len(pairs)) < rng.uniform(0.3, 1.0)
        keep[rng.integers(len(pairs))] = True
        meas = [(c, b, -50.0 - 0.5 * int(rng.integers(0, 8))) for (c, b), k in zip(pairs, keep) if k]
        meas = [meas[j] for j in rng.permutation(len(meas))]
        meas.sort(key=lambda t: (-t[2], t[0], t[1]))
        serving = meas[0][0] if rng.random() < 0.8 else meas[rng.integers(len(meas))][0]
        records.append(record_of(meas, serving=serving, x=float(rng.normal()), y=float(rng.normal())))
    return records


RANDOM_CONFIGS = [
    FeatureConfig(n_serving_beams=3, n_neighbor_beams=0),
    FeatureConfig(n_serving_beams=3, n_neighbor_beams=2),
    FeatureConfig(n_serving_beams=1, n_neighbor_beams=3),
    FeatureConfig(n_serving_beams=2, n_neighbor_beams=1, include_serving_cell_id=False, topology=TOPOLOGY_CELL),
    FeatureConfig(n_serving_beams=2, n_neighbor_beams=2, one_hot_ids=True, cell_id_vocab=12, beam_id_vocab=16),
    FeatureConfig(
        n_serving_beams=1,
        n_neighbor_beams=1,
        include_serving_cell_id=False,
        topology=TOPOLOGY_CELL,
        one_hot_ids=True,
        cell_id_vocab=12,
        beam_id_vocab=16,
    ),
]


@pytest.mark.parametrize("cfg", RANDOM_CONFIGS, ids=lambda c: f"s{c.n_serving_beams}n{c.n_neighbor_beams}")
def test_kernel_matches_oracle_on_ragged_rows(cfg):
    records = random_records(np.random.default_rng(99), 400)
    fs = extract_features(dataset_of(records), cfg)
    want_rows, want_index, want_skipped = [], [], {}
    for i, record in enumerate(records):
        try:
            want = oracle_record(record, cfg)
        except FeatureExtractionError as e:
            want_skipped[e.reason] = want_skipped.get(e.reason, 0) + 1
            with pytest.raises(FeatureExtractionError) as got:
                extract_one(record, cfg)
            assert (got.value.reason, str(got.value)) == (e.reason, str(e))
            continue
        assert np.array_equal(extract_one(record, cfg), want)
        want_rows.append(want)
        want_index.append(i)
    assert fs.indices.tolist() == want_index
    assert np.array_equal(fs.values, np.array(want_rows).reshape(len(want_index), feature_length(cfg)))
    assert np.array_equal(fs.labels, np.array([records[i][:2] for i in want_index]).reshape(-1, 2))
    assert fs.skipped == want_skipped
    assert want_index  # the sample exercises kept rows ...
    if cfg.n_serving_beams > 1:
        assert want_skipped.get(SKIP_SERVING)  # ... and both skip reasons
    if cfg.n_neighbor_beams > 1:
        assert want_skipped.get(SKIP_NEIGHBORS)


def test_kernel_one_hot_vocabulary_error_matches_oracle():
    records = random_records(np.random.default_rng(5), 200)
    cfg = FeatureConfig(n_serving_beams=1, n_neighbor_beams=1, one_hot_ids=True, cell_id_vocab=8, beam_id_vocab=16)
    with pytest.raises(ConfigurationError) as want:
        for record in records:
            try:
                oracle_record(record, cfg)
            except FeatureExtractionError:
                pass
    with pytest.raises(ConfigurationError) as got:
        extract_features(dataset_of(records), cfg)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# wide rows: the kernel scans a ranked prefix first, then the full width of
# the rows that cannot fill the config within it


def one_pass_extract(serving, cells, beams, rsrp, config):
    """Oracle: the kernel as it was before the prefix scan, one pass over
    every column of every row."""
    k = config.n_serving_beams
    nb = config.n_neighbor_beams
    n = len(serving)
    rows = np.arange(n)
    measured = ~np.isnan(rsrp)
    other_cell = cells != serving[:, None]
    is_serving = measured & ~other_cell
    n_serving = np.minimum(np.count_nonzero(is_serving, axis=1), k)
    candidates = measured & other_cell
    nb_pos = np.zeros((n, nb), dtype=np.intp)
    n_neighbors = np.zeros(n, dtype=np.intp)
    for j in range(nb if rsrp.size else 0):
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
    values = np.empty((len(kept), len(features._layout(config))))
    values[:, 0 : 2 * k : 2] = beams[r, serv_pos]
    values[:, 1 : 2 * k : 2] = rsrp[r, serv_pos]
    col = 2 * k
    if config.include_serving_cell_id:
        values[:, col] = serving[kept]
        col += 1
    values[:, col::3] = cells[r, nb_pos]
    values[:, col + 1 :: 3] = beams[r, nb_pos]
    values[:, col + 2 :: 3] = rsrp[r, nb_pos]
    if config.one_hot_ids:
        values = features._expand_one_hot(values, config)
    return values, kept, n_serving, n_neighbors


def same_extraction(got, want):
    """Two extract results equal in shape, dtype and bits."""
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


WIDE_CELLS, WIDE_BEAMS = 12, 64  # 768 ranked columns, as the default scenario


def ranked(meas, serving):
    """A report of (cell, beam, rsrp) triples put in ranking order."""
    return record_of(sorted(meas, key=lambda t: (-t[2], t[0], t[1])), serving=serving, x=0.5, y=1.5)


def wide_records(rng, n):
    """Reports of up to 12 cells x 64 beams in ranking order, RSRP on a
    0.5 dB grid so that ties are common. A cell's beams sit within a
    band whose offset from the other cells' varies, so the serving
    cell's beams and the neighbors often lie past column 64. Some
    reports are cut short (NaN padding once stacked), and some are
    served by a cell they do not measure."""
    records = []
    for _ in range(n):
        offset = rng.uniform(0, rng.choice([1.0, 10.0, 40.0]), size=WIDE_CELLS)
        meas = [
            (c, b, -50.0 - 0.5 * round(2 * offset[c] + int(rng.integers(0, 16))))
            for c in range(WIDE_CELLS)
            for b in range(WIDE_BEAMS)
        ]
        meas.sort(key=lambda t: (-t[2], t[0], t[1]))
        if rng.random() < 0.3:
            meas = meas[: rng.integers(1, len(meas))]
        pick = rng.random()
        serving = meas[0][0] if pick < 0.4 else 99 if pick < 0.45 else meas[rng.integers(len(meas))][0]
        records.append(record_of(meas, serving=serving, x=float(rng.normal()), y=float(rng.normal())))
    return records


WIDE_CONFIGS = [
    FeatureConfig(n_serving_beams=3, n_neighbor_beams=0),
    FeatureConfig(n_serving_beams=3, n_neighbor_beams=2),
    FeatureConfig(n_serving_beams=1, n_neighbor_beams=3),
    FeatureConfig(n_serving_beams=2, n_neighbor_beams=1, include_serving_cell_id=False, topology=TOPOLOGY_CELL),
    FeatureConfig(n_serving_beams=2, n_neighbor_beams=2, one_hot_ids=True, cell_id_vocab=12, beam_id_vocab=64),
    FeatureConfig(n_serving_beams=64, n_neighbor_beams=0),
    FeatureConfig(n_serving_beams=64, n_neighbor_beams=3, include_serving_cell_id=False, topology=TOPOLOGY_CELL),
]


@pytest.mark.parametrize("cfg", WIDE_CONFIGS, ids=lambda c: f"s{c.n_serving_beams}n{c.n_neighbor_beams}")
def test_prefix_scan_matches_the_one_pass_kernel_and_the_oracle_on_wide_rows(cfg):
    records = wide_records(np.random.default_rng(23), 240)
    ds = dataset_of(records)
    assert ds.meas_rsrp.shape[1] == WIDE_CELLS * WIDE_BEAMS
    columns = (ds.serving, ds.meas_cells, ds.meas_beams, ds.meas_rsrp)
    got = extract(*columns, cfg)
    same_extraction(got, one_pass_extract(*columns, cfg))
    values, kept, _, _ = got
    for i, record in enumerate(records):
        try:
            want = oracle_record(record, cfg)
        except FeatureExtractionError:
            assert i not in kept
            continue
        assert np.array_equal(values[np.searchsorted(kept, i)].view(np.uint64), want.view(np.uint64))
    # the sample meets rows kept within the prefix, rows kept only over
    # their full width, and rows that cannot fill the config at all
    width = features._PREFIX_COLUMNS
    in_prefix = one_pass_extract(*(c[:, :width] if c.ndim == 2 else c for c in columns), cfg)[1]
    assert len(np.setdiff1d(kept, in_prefix)) and len(kept) < len(records)
    if cfg.n_serving_beams < WIDE_BEAMS:
        assert len(in_prefix)


def test_prefix_scan_of_rows_within_the_prefix_is_one_pass(monkeypatch):
    # rows of at most 64 columns take one scan; wider ones take a second
    # scan only for the rows that do not fill within the prefix
    scans = []
    scan = features._scan
    monkeypatch.setattr(features, "_scan", lambda *a: scans.append(len(a[0])) or scan(*a))
    cfg = FeatureConfig(n_serving_beams=3, n_neighbor_beams=2)
    narrow = dataset_of(random_records(np.random.default_rng(99), 100))
    assert narrow.meas_rsrp.shape[1] <= features._PREFIX_COLUMNS
    extract(narrow.serving, narrow.meas_cells, narrow.meas_beams, narrow.meas_rsrp, cfg)
    assert scans == [100]
    scans.clear()
    wide = dataset_of(wide_records(np.random.default_rng(23), 100))
    extract(wide.serving, wide.meas_cells, wide.meas_beams, wide.meas_rsrp, cfg)
    assert len(scans) == 2 and scans[0] == 100 and 0 < scans[1] < 100


def test_prefix_scan_names_the_first_out_of_vocabulary_id_in_row_order():
    # row 0 fills only past column 64, where its neighbor is cell 10; row 1
    # fills within the prefix, its neighbor cell 9: both outside a cell
    # vocabulary of 8, and the error names row 0's
    far = [(0, b, -50.0 - 0.01 * b) for b in range(WIDE_BEAMS)] + [(10, b, -70.0 - 0.01 * b) for b in range(WIDE_BEAMS)]
    near = [(0, 0, -50.0), (9, 0, -51.0)] + [(c, b, -80.0) for c in (1, 2) for b in range(WIDE_BEAMS)]
    records = [ranked(far, 0), ranked(near, 0)]
    ds = dataset_of(records)
    columns = (ds.serving, ds.meas_cells, ds.meas_beams, ds.meas_rsrp)
    cfg = FeatureConfig(n_serving_beams=1, n_neighbor_beams=1, one_hot_ids=True, cell_id_vocab=8, beam_id_vocab=64)
    with pytest.raises(ConfigurationError) as want:
        oracle_record(records[0], cfg)
    with pytest.raises(ConfigurationError) as one_pass:
        one_pass_extract(*columns, cfg)
    with pytest.raises(ConfigurationError) as got:
        extract(*columns, cfg)
    assert str(got.value) == str(one_pass.value) == str(want.value) == "cell id 10 outside one-hot vocabulary of size 8"


# ---------------------------------------------------------------------------
# extraction over selected rows: the same result as over a copy of them


def same_feature_sets(got, want):
    """Two FeatureSets equal in every field, the floats bit for bit."""
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
    assert np.array_equal(got.labels.view(np.uint64), want.labels.view(np.uint64))
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indices, want.indices)
    assert got.skipped == want.skipped
    assert got.reasons.dtype == want.reasons.dtype == np.int8
    assert np.array_equal(got.reasons, want.reasons)
    assert got.config == want.config


# rows of an n-record dataset, for a dataset past one kernel block
ROW_CASES = {
    "shuffled": lambda rng, n: rng.permutation(n)[: 3 * n // 4],
    "repeated": lambda rng, n: rng.integers(0, n, size=n + 300),
    "one_past_a_block": lambda rng, n: np.arange(n - _EXTRACT_ROWS - 1, n),
    "one_block": lambda rng, n: np.arange(_EXTRACT_ROWS)[::-1],
    "empty": lambda rng, n: np.zeros(0, dtype=np.intp),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@pytest.mark.parametrize("cfg_name", ["s3n2", "cell_s2n1", "onehot_s3n2"])
def test_extract_features_on_rows_equals_on_their_subset(small_dataset, case, cfg_name):
    assert len(small_dataset) > _EXTRACT_ROWS
    rows = ROW_CASES[case](np.random.default_rng(17), len(small_dataset))
    cfg = GOLDEN_CONFIGS[cfg_name]
    same_feature_sets(extract_features(small_dataset, cfg, rows), extract_features(small_dataset.subset(rows), cfg))


@pytest.mark.parametrize("cfg", RANDOM_CONFIGS, ids=lambda c: f"s{c.n_serving_beams}n{c.n_neighbor_beams}")
def test_extract_features_on_rows_in_small_blocks(cfg, monkeypatch):
    # many blocks, each with kept rows and both skip reasons
    monkeypatch.setattr(features, "_EXTRACT_ROWS", 64)
    ds = dataset_of(random_records(np.random.default_rng(99), 400))
    rows = np.random.default_rng(3).integers(0, len(ds), size=500)
    fs = extract_features(ds, cfg, rows)
    same_feature_sets(fs, extract_features(ds.subset(rows), cfg))
    same_feature_sets(extract_features(ds, cfg), extract_features(ds, cfg, np.arange(len(ds))))
    assert len(fs) and fs.indices.max() >= 64


def test_extract_features_on_rows_names_the_first_out_of_vocabulary_id(monkeypatch):
    # the first record in row order with an id past the vocabulary sits in
    # a later block than the first one in dataset order
    monkeypatch.setattr(features, "_EXTRACT_ROWS", 64)
    records = random_records(np.random.default_rng(5), 200)
    ds = dataset_of(records)
    cfg = FeatureConfig(n_serving_beams=1, n_neighbor_beams=1, one_hot_ids=True, cell_id_vocab=8, beam_id_vocab=16)

    def oracle_error(i):
        try:
            oracle_record(records[i], cfg)
        except FeatureExtractionError:
            return None  # skipped, so never looked up in the vocabulary
        except ConfigurationError as e:
            return str(e)
        return None

    errors = [oracle_error(i) for i in range(len(records))]
    bad = [i for i, e in enumerate(errors) if e]
    good = [i for i, e in enumerate(errors) if not e]
    rows = np.array(good[:100] + bad[::-1])
    assert errors[bad[-1]] != errors[bad[0]]
    with pytest.raises(ConfigurationError) as got:
        extract_features(ds, cfg, rows)
    with pytest.raises(ConfigurationError) as on_subset:
        extract_features(ds.subset(rows), cfg)
    assert str(got.value) == str(on_subset.value) == errors[bad[-1]]


@pytest.mark.parametrize("cfg", RANDOM_CONFIGS, ids=lambda c: f"s{c.n_serving_beams}n{c.n_neighbor_beams}")
def test_accumulated_table_gives_what_extract_features_gives_on_its_rows(cfg):
    # NaN-padded reports, as infer reads them, fed in blocks of uneven
    # size (an empty one among them): the set taken at any rows is
    # extract_features on those rows, skip counts included
    records = random_records(np.random.default_rng(99), 400)
    ds = dataset_of(records)
    acc = FeatureAccumulator(cfg)
    for start, stop in zip([0, 7, 7, 150, 300], [7, 7, 150, 300, len(ds)]):
        block = slice(start, stop)
        columns = (ds.serving[block], ds.meas_cells[block], ds.meas_beams[block], ds.meas_rsrp[block])
        acc.add(ds.xs[block], ds.ys[block], extract(*columns, cfg))
    accumulated = acc.result()
    whole = extract_features(ds, cfg)
    same_feature_sets(accumulated, whole)
    assert whole.skipped  # RANDOM_CONFIGS all meet short reports here
    rng = np.random.default_rng(4)
    for rows in (np.arange(len(ds)), rng.permutation(len(ds))[:250], rng.integers(0, len(ds), 500), np.arange(0)):
        same_feature_sets(accumulated.take(rows), extract_features(ds, cfg, rows))
    reasons = {SKIP_SERVING: 1, SKIP_NEIGHBORS: 2}
    for i, record in enumerate(records):
        try:
            oracle_record(record, cfg)
            want = 0
        except FeatureExtractionError as e:
            want = reasons[e.reason]
        assert accumulated.reasons[i] == want, i


@pytest.mark.parametrize("cfg", RANDOM_CONFIGS, ids=lambda c: f"s{c.n_serving_beams}n{c.n_neighbor_beams}")
def test_take_of_a_taken_set_is_one_take_of_the_composed_rows(cfg):
    ds = dataset_of(random_records(np.random.default_rng(17), 300))
    whole = extract_features(ds, cfg)
    rng = np.random.default_rng(8)
    for outer in (rng.permutation(len(ds))[:200], rng.integers(0, len(ds), 400), np.arange(len(ds))):
        taken = whole.take(outer)
        assert taken.skipped  # RANDOM_CONFIGS all meet short reports here
        for inner in (rng.permutation(len(outer))[:120], rng.integers(0, len(outer), 90), np.arange(0)):
            again = taken.take(inner)
            same_feature_sets(again, whole.take(outer[inner]))
            same_feature_sets(again, extract_features(ds, cfg, outer[inner]))


def test_extract_features_counts_skips(single_site_dataset):
    # one cell in the scenario: neighbor features are unobtainable
    cfg = FeatureConfig(n_serving_beams=2, n_neighbor_beams=1)
    fs = extract_features(single_site_dataset, cfg)
    assert len(fs) == 0
    assert fs.skipped[SKIP_NEIGHBORS] == len(single_site_dataset)


# ---------------------------------------------------------------------------
# normalization


def test_normalizer_oracle():
    # hand-computed: column (0, 2) has mean 1 and population std 1
    values = np.array([[0.0, 5.0], [2.0, 5.0]])
    labels = np.array([[0.0, 10.0], [4.0, 10.0]])
    stats = fit_normalizer(values, labels)
    assert stats.feature_mean.tolist() == [1.0, 5.0]
    assert stats.feature_std.tolist() == [1.0, 1.0]  # constant column keeps std 1
    assert stats.label_mean.tolist() == [2.0, 10.0]
    assert stats.label_std.tolist() == [2.0, 1.0]
    assert stats.fit_on_train


def test_normalizer_population_std():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    labels = np.zeros((4, 2))
    stats = fit_normalizer(values, labels)
    # population (1/N) convention, not the n-1 sample one
    assert stats.feature_std[0] == pytest.approx(np.sqrt(1.25))


def test_apply_and_invert():
    values = np.array([[0.0, 5.0], [2.0, 7.0]])
    labels = np.array([[0.0, 10.0], [4.0, 30.0]])
    stats = fit_normalizer(values, labels)
    z = apply(stats, values)
    assert np.allclose(z.mean(axis=0), 0.0)
    assert np.allclose(z.std(axis=0), 1.0)
    zl = apply_labels(stats, labels)
    assert np.allclose(invert_labels(stats, zl), labels)
    # single-vector path
    assert np.allclose(apply(stats, values[0]), z[0])


def test_apply_rejects_width_mismatch():
    stats = fit_normalizer(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(DataError):
        apply(stats, np.zeros((4, 5)))


def test_fit_normalizer_validation():
    with pytest.raises(DataError):
        fit_normalizer(np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(DataError):
        fit_normalizer(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(DataError):
        fit_normalizer(np.zeros((4, 3)))


def test_normalizer_dict_round_trip():
    stats = fit_normalizer(np.arange(12.0).reshape(4, 3), np.arange(8.0).reshape(4, 2))
    back = normalizer_from_dict(normalizer_to_dict(stats), 3)
    assert np.array_equal(back.feature_mean, stats.feature_mean)
    assert np.array_equal(back.label_std, stats.label_std)
    assert back.fit_on_train == stats.fit_on_train


# ---------------------------------------------------------------------------
# config round trip


def test_feature_config_round_trip():
    cfg = FeatureConfig(
        n_serving_beams=2,
        n_neighbor_beams=3,
        include_serving_cell_id=False,
        topology=TOPOLOGY_CELL,
    )
    assert feature_config_from_dict(to_dict(cfg)) == cfg


def test_feature_config_unknown_key():
    d = to_dict(FeatureConfig())
    d["extras"] = True
    with pytest.raises(ConfigurationError):
        feature_config_from_dict(d)
