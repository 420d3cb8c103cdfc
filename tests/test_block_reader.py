"""Differential tests of the dataset block reader (`fingerprint.read_block`)
against the per-line path (`_decode_line`, the field checks and
`parse_measurements`): whichever path a line takes, a file loads to the
same bits, and a measurement file infers to the same records, or both
fail with the same error, line and field."""

import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamprint import fingerprint, pipeline
from beamprint.dtree import TreeConfig
from beamprint.errors import DataError
from beamprint.features import FeatureConfig, extract_features
from beamprint.fingerprint import load_dataset, los_filter, parse_measurement_line, read_block, save_dataset
from beamprint.pipeline import MODEL_TREE, ModelSpec, infer_file, train_model

from test_fingerprint import GOLDEN_SAVE_SHA256, _hand_built, shadowed_small_dataset  # noqa: F401 (a fixture)

DIFFERENTIAL = settings(derandomize=True, deadline=None, max_examples=60)

# values whose text or reading is unusual: signed zero, subnormal, the
# largest float, integral values printed with an exponent or ".0"
AWKWARD_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, -1e16, 1e22, -80.0, -97.0, 123.456, -97.12345678901234, 2.5e-7,
)
FLOATS = st.sampled_from(AWKWARD_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
# tokens json and float() disagree on, or json refuses
BAD_TOKENS = (
    "-0", "01", "1.", ".5", "+1", "1e400", "NaN", "Infinity", "true", " 1", "2147483648", "1_0",
    "-2147483649", "-01", "1e", "0.0", "-0.0", "1E+5", "7",
    "00.5", "-00.5", "1..5", "9007199254740993.0", "1234.5", "0.10000000000000001",
)
TOKEN = re.compile(r"-?[0-9][0-9.eE+-]*|true|false")
# id texts of one, two and more characters, negative ones, ones past int32,
# and ones that are not JSON ints ("05", "00", "-05") or read as 0 ("-0")
ID_TEXTS = (
    "0", "7", "-1", "-9", "42", "99", "05", "00", "-0", "100", "-42", "-05", "123", "4096",
    "2147483647", "-2147483648", "2147483648",
)
NOT_INT32 = {"05", "00", "-05", "2147483648"}
ID = re.compile(r"\[(-?[0-9]+),(-?[0-9]+),")  # a measurement's cell and beam


@st.composite
def datasets(draw):
    """Valid ranked datasets whose rows hold long runs of tied rsrp values
    drawn from a small pool, with ids anywhere in int32."""
    cells = draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _hand_built(rng, cells, draw(st.integers(1, 4)), draw(st.integers(1, 5)), pool)


def _bits(value):
    """A column or scalar as comparable bits, with its type."""
    array = np.asarray(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


def _error(e: DataError):
    return type(e), str(e), getattr(e, "line", None), getattr(e, "field", None)


def _load(path):
    try:
        ds = load_dataset(path)
    except DataError as e:
        return _error(e)
    header = (ds.cells, ds.n_beams, ds.scenario_hash, ds.seed)
    return header, [_bits(getattr(ds, c)) for c in fingerprint._RECORD_COLUMNS]


def _reports(path):
    """infer's reports, a row of its Blocks at a time: where the blocks
    split does not matter, only the rows they give."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            reports = []
            for block in pipeline._reports(fh, path):
                for j, scalars in enumerate(zip(*(column.tolist() for column in block[:5]))):
                    reports.append((*scalars, *(_bits(column[j]) for column in block[5:])))
            return reports
    except DataError as e:
        return _error(e)


def _per_line_only(read, path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fingerprint, "read_block", lambda lines: None)
        return read(path)


def assert_both_paths_agree(path):
    """load_dataset and infer's report parser give the same bits, or the
    same error, with and without the block reader."""
    assert _load(path) == _per_line_only(_load, path)
    # x and y NaN when a report has none: NaN != NaN, so compare reprs
    assert repr(_reports(path)) == repr(_per_line_only(_reports, path))


def assert_rows_match_per_line(lines):
    """Every line read_block parses parses to the same bits by the
    per-line path."""
    block = read_block(lines)
    if block is None:
        return
    for j, i in enumerate(block.rows):
        want = parse_measurement_line(lines[i], i + 1, None, record=True)
        got = (
            block.xs.tolist()[j], block.ys.tolist()[j], block.serving.tolist()[j], block.los.tolist()[j],
            block.cells[j], block.beams[j], block.rsrp[j],
        )
        assert list(map(_bits, got)) == list(map(_bits, want))


def _write(path, lines, end="\n"):
    path.write_bytes((end.join(lines) + end).encode("ascii", errors="surrogateescape"))
    return path


def assert_edited_line_reads_the_same(path, lines, i, text):
    """Line i of a file replaced by `text`, then both checks above."""
    edited = lines[:i] + [text] + lines[i + 1 :]
    assert_rows_match_per_line([line + "\n" for line in edited[1:]])
    assert_both_paths_agree(_write(path, edited))


def _golden_file(tmp_path, request, case):
    fixture, rows, _ = GOLDEN_SAVE_SHA256[case]
    ds = request.getfixturevalue(fixture)
    if rows is not None:
        ds = ds.subset(np.array(rows, dtype=np.int64) % len(ds))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    return path


@pytest.mark.parametrize("case", sorted(GOLDEN_SAVE_SHA256))
def test_golden_datasets_read_the_same_by_both_paths(tmp_path, request, case):
    assert_both_paths_agree(_golden_file(tmp_path, request, case))


@pytest.mark.parametrize("case", sorted(GOLDEN_SAVE_SHA256))
def test_golden_record_lines_parse_to_the_same_bits_as_records_and_as_reports(tmp_path, request, case):
    lines = _golden_file(tmp_path, request, case).read_text().splitlines()
    for lineno, raw in enumerate(lines[1:], 2):
        record = parse_measurement_line(raw, lineno, record=True)
        assert list(map(_bits, parse_measurement_line(raw, lineno))) == list(map(_bits, record))


# one fault each in a full record line (the first has its serving cell and
# its only measurement's cell past int32): both modes name the same field
# with the same message
ONE_FAULT = {
    "serving-and-cell-past-int32": ({"serving": 2**40, "meas": [[2**40, 0, -50.0]]}, "serving"),
    "serving-bool": ({"serving": True}, "serving"),
    "x-text": ({"x": "abc"}, "x"),
    "los-int": ({"los": 1}, "los"),
    "rsrp-text": ({"meas": [[4, 0, "-50.0"]]}, "meas"),
}


@pytest.mark.parametrize("case", sorted(ONE_FAULT))
def test_a_line_with_one_fault_is_refused_alike_as_a_record_and_as_a_report(case):
    edit, field = ONE_FAULT[case]
    raw = json.dumps({"x": 1.5, "y": 2.5, "serving": 4, "los": True, "meas": [[4, 0, -50.0]], **edit})
    errors = []
    for record in (True, False):
        with pytest.raises(DataError) as err:
            parse_measurement_line(raw, 7, "probe.jsonl", record=record)
        errors.append(_error(err.value))
    assert errors[0] == errors[1]
    assert errors[0][2:] == (7, field)


@DIFFERENTIAL
@given(ds=datasets())
def test_saved_datasets_take_the_block_path_and_read_the_same(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "saved.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines(keepends=True)
    block = read_block(lines[1:])
    assert block is not None and block.rows == list(range(len(ds)))
    assert_rows_match_per_line(lines[1:])
    assert_both_paths_agree(path)
    back = load_dataset(path)
    assert back == ds and back.meas_rsrp.view(np.uint64).tolist() == ds.meas_rsrp.view(np.uint64).tolist()


def _small_file(tmp_path):
    """Three ranked records of 2 cells x 2 beams with tied rsrp values."""
    ds = _hand_built(np.random.default_rng(3), (4, 9), 2, 3, (-80.0, -81.5, -97.12345678901234))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("bad", BAD_TOKENS)
def test_every_token_of_a_line_replaced_reads_the_same_by_both_paths(tmp_path, bad):
    # each id, rsrp, serving, x and y of the middle record in turn
    path, lines = _small_file(tmp_path)
    for token in TOKEN.finditer(lines[2]):
        assert_edited_line_reads_the_same(path, lines, 2, lines[2][: token.start()] + bad + lines[2][token.end() :])


def test_every_bracket_or_comma_of_a_line_removed_reads_the_same_by_both_paths(tmp_path):
    path, lines = _small_file(tmp_path)
    for at in [k for k, c in enumerate(lines[2]) if c in "[],"]:
        assert_edited_line_reads_the_same(path, lines, 2, lines[2][:at] + lines[2][at + 1 :])


@pytest.mark.parametrize("char", ["5", "-", "[", "]", ","])
def test_every_bracket_or_comma_of_a_line_replaced_reads_the_same_by_both_paths(tmp_path, char):
    # a "]" read as part of the rsrp before it, or a "[" as part of the
    # cell after it, would pass the token checks
    path, lines = _small_file(tmp_path)
    for at in [k for k, c in enumerate(lines[2]) if c in "[],"]:
        assert_edited_line_reads_the_same(path, lines, 2, lines[2][:at] + char + lines[2][at + 1 :])


@pytest.mark.parametrize(
    "char", [" ", "7", "x", ",", "[", "]", "."], ids=["space", "digit", "letter", "comma", "open", "close", "dot"]
)
def test_a_character_inserted_anywhere_in_a_line_reads_the_same_by_both_paths(tmp_path, char):
    path, lines = _small_file(tmp_path)
    for at in range(len(lines[2]) + 1):
        assert_edited_line_reads_the_same(path, lines, 2, lines[2][:at] + char + lines[2][at:])


@pytest.mark.parametrize("text", ID_TEXTS)
def test_every_id_replaced_by_any_id_text_reads_the_same_by_both_paths(tmp_path, text):
    # each cell and beam id of the first record and of the block's last,
    # whose last measurement ends the block's buffer
    path, lines = _small_file(tmp_path)
    for i in (1, len(lines) - 1):
        for m in ID.finditer(lines[i]):
            for group in (1, 2):
                edited = lines[i][: m.start(group)] + text + lines[i][m.end(group) :]
                assert_edited_line_reads_the_same(path, lines, i, edited)


def test_ids_of_every_length_in_int32_take_the_block_path():
    # each id's comma is found one or two bytes on, or by a search of the
    # block's commas, up to "-2147483648" (11 characters)
    texts = [text for text in ID_TEXTS if text not in NOT_INT32]
    body = ",".join(f"[{c},{b},-{80 + j}.5]" for j, (c, b) in enumerate(zip(texts, texts[::-1])))
    lines = [f'{{"los":true,"meas":[{body}],"serving":{texts[0]},"x":1.5,"y":2.5}}\n'] * 2
    assert read_block(lines).rows == [0, 1]
    assert_rows_match_per_line(lines)


@DIFFERENTIAL
@given(data=st.data())
def test_a_block_mixing_id_texts_of_every_length_reads_the_same_by_both_paths(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "ids.jsonl"
    texts = st.sampled_from(ID_TEXTS)
    per_row = data.draw(st.integers(1, 4))
    lines, drawn = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        ids = [data.draw(texts) for _ in range(2 * per_row)]
        # descending rsrp, so that infer's reader keeps a block it parses
        body = ",".join(f"[{c},{b},-{80 + j}.5]" for j, (c, b) in enumerate(zip(ids[::2], ids[1::2])))
        lines.append(f'{{"los":true,"meas":[{body}],"serving":{ids[0]},"x":1.5,"y":2.5}}\n')
        drawn += ids
    assert_rows_match_per_line(lines)
    if not NOT_INT32 & set(drawn):  # the block reader takes every line
        assert read_block(lines).rows == list(range(len(lines)))
    header = _small_file(tmp_path_factory.getbasetemp())[1][0]
    assert_both_paths_agree(_write(path, [header] + [line.rstrip("\n") for line in lines]))


@DIFFERENTIAL
@given(ds=datasets(), data=st.data())
def test_a_replaced_token_reads_the_same_by_both_paths(tmp_path_factory, ds, data):
    path = tmp_path_factory.getbasetemp() / "token.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    i = data.draw(st.integers(1, len(lines) - 1))
    token = data.draw(st.sampled_from(list(TOKEN.finditer(lines[i]))))
    bad = data.draw(st.sampled_from(BAD_TOKENS))
    assert_edited_line_reads_the_same(path, lines, i, lines[i][: token.start()] + bad + lines[i][token.end() :])


@DIFFERENTIAL
@given(ds=datasets(), data=st.data())
def test_a_removed_bracket_or_comma_reads_the_same_by_both_paths(tmp_path_factory, ds, data):
    path = tmp_path_factory.getbasetemp() / "separator.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    i = data.draw(st.integers(1, len(lines) - 1))
    at = data.draw(st.sampled_from([k for k, c in enumerate(lines[i]) if c in "[],"]))
    assert_edited_line_reads_the_same(path, lines, i, lines[i][:at] + lines[i][at + 1 :])


@DIFFERENTIAL
@given(ds=datasets(), data=st.data())
def test_line_ends_blank_lines_and_non_ascii_bytes_read_the_same_by_both_paths(tmp_path_factory, ds, data):
    path = tmp_path_factory.getbasetemp() / "layout.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    blanks = data.draw(st.lists(st.integers(1, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, data.draw(st.sampled_from(["", "  ", "\t"])))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(1, len(lines) - 1))
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + "\udce9" + lines[i][at:]  # the byte 0xe9 as text mode reads it
    assert_both_paths_agree(_write(path, lines, data.draw(st.sampled_from(["\n", "\r\n", "\r"]))))


@DIFFERENTIAL
@given(
    ids=st.lists(st.integers(-(2**31), 2**31 - 1) | st.integers(-(10**11), 10**11), min_size=2, max_size=8),
    rsrp=st.lists(FLOATS | st.integers(-200, 200), min_size=1, max_size=4),
)
def test_json_dumps_lines_read_the_same_by_both_paths(ids, rsrp):
    # json.dumps' compact lines are the block reader's form, with any int
    # ids and any rsrp, not only ranked rows
    meas = [[ids[k % len(ids)], ids[(k + 1) % len(ids)], rsrp[k % len(rsrp)]] for k in range(5)]
    lines = [_compact(k % 2 == 0, meas[k:], ids[0], rsrp[0]) + "\n" for k in range(3)]
    assert_rows_match_per_line(lines)
    assert_rows_match_per_line(lines[:1])


def _compact(los, meas, serving, x, y=1.5):
    """A record line as save_dataset writes it."""
    row = {"los": los, "meas": meas, "serving": serving, "x": x, "y": y}
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def test_rows_of_different_lengths_take_the_per_line_path():
    lines = [_compact(True, [[0, 0, -50.5]] * k, 0, 2.5) for k in (1, 2)]
    assert read_block(lines) is None
    assert read_block(lines[:1]).rows == [0]


def test_canonical_file_decodes_only_its_header(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    assert len(small_dataset) > 2 * fingerprint.BLOCK_LINES
    decoded = []
    decode = fingerprint._decode_line
    monkeypatch.setattr(fingerprint, "_decode_line", lambda raw, p, line: decoded.append(line) or decode(raw, p, line))
    assert load_dataset(path) == small_dataset
    assert decoded == [1]


def test_infer_on_a_saved_dataset_parses_only_the_header_line_alone(tmp_path, small_dataset, monkeypatch):
    fc = FeatureConfig()
    bundle = train_model(
        extract_features(los_filter(small_dataset), fc), ModelSpec(MODEL_TREE, tree_config=TreeConfig(max_depth=6)), fc
    )
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    per_line = _per_line_only(lambda p: infer_file(bundle, p), path)
    parsed = []
    parse = pipeline.parse_measurement_line

    def counted(raw, lineno, path=None):
        parsed.append(lineno)
        return parse(raw, lineno, path)

    monkeypatch.setattr(pipeline, "parse_measurement_line", counted)
    assert infer_file(bundle, path) == per_line
    assert len(per_line) == len(small_dataset)
    assert parsed == [1]


def test_a_block_mixing_both_paths_parses_each_line_once(tmp_path, small_dataset, monkeypatch):
    # every 5th line re-dumped with json's default separators (spaces):
    # each block of both readers' alignments (load from line 2, infer from
    # line 1) holds lines of both paths, and only the spaced ones and the
    # header are decoded, once each. The decoded lines' digests are
    # appended to a file, so that a load in parts counts its workers' too
    # (whose line numbers start at their part)
    fc = FeatureConfig()
    bundle = train_model(
        extract_features(los_filter(small_dataset), fc), ModelSpec(MODEL_TREE, tree_config=TreeConfig(max_depth=6)), fc
    )
    path = tmp_path / "ds.jsonl"
    save_dataset(small_dataset, path)
    want = infer_file(bundle, path)
    lines = path.read_text().splitlines()
    spaced = list(range(5, len(lines) + 1, 5))
    for lineno in spaced:
        lines[lineno - 1] = json.dumps(json.loads(lines[lineno - 1]))
    _write(path, lines)
    assert_both_paths_agree(path)
    log = tmp_path / "decoded"
    decode = fingerprint._decode_line

    def digest(raw):
        return hashlib.sha256(raw.rstrip("\n").encode("ascii", errors="surrogateescape")).hexdigest()

    def logged(raw, p, line):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{digest(raw)}\n".encode())
        os.close(fd)
        return decode(raw, p, line)

    def decoded():
        digests = sorted(log.read_text().split())
        log.unlink()
        return digests

    monkeypatch.setattr(fingerprint, "_decode_line", logged)
    want_decoded = sorted(digest(lines[lineno - 1]) for lineno in [1, *spaced])
    assert load_dataset(path) == small_dataset
    assert decoded() == want_decoded
    assert infer_file(bundle, path) == want
    assert decoded() == want_decoded


@pytest.mark.parametrize(
    "edit",
    [
        # serving is not the strongest cell
        lambda row: row.update(serving=next(c for c, _, _ in row["meas"] if c != row["meas"][0][0])),
        lambda row: row["meas"].reverse(),  # out of ranking order: infer sorts it
    ],
    ids=["serving-not-strongest", "unranked"],
)
def test_infer_sends_a_block_it_would_change_to_the_per_line_path(tmp_path, small_dataset, edit):
    ds = small_dataset.subset(np.arange(20))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[5])
    edit(row)
    lines[5] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    assert read_block(lines[1:]) is not None  # the loader's reader takes it
    assert_both_paths_agree(_write(path, lines))


# The decimal kernel (fingerprint._decimals) against float(): it reads a
# token exactly when the token has its form and its digits, without the
# dot, are below 2**53, and then gives float()'s bits.
KERNEL_FORM = re.compile(r"-?(?:0|[1-9][0-9]{0,2})\.[0-9]{1,16}")
KERNEL_BOUNDARY = (
    "900.7199254740991", "900.7199254740992", "-900.7199254740991",  # mantissas 2**53 - 1 and 2**53
    "0.1234567890123456", "0.12345678901234567", "-97.12345678901234", "-97.123456789012345",  # 16, 17 digits
    "-0.0", "0.0", "0.5", "-1.5", "12.25", "-123.125", "1234.5", "-999.9999999999999", "5e-324",
    "00.5", "-01.5", "1.", ".5", "1.2.3", "--5.5", "+5.5", "-.5", "1..5", "-", "",
    "1e5", "-1.5e-7", "2.5E+10", "1.0e400", "0.1e5", "1.5e",
)
KERNEL_TOKENS = st.lists(
    FLOATS.map(repr) | st.from_regex(r"-?(0|[1-9][0-9]{0,3})\.[0-9]{1,18}", fullmatch=True), min_size=1, max_size=20
)


def _kernel(tokens):
    """_decimals over tokens laid end to end, each followed by "]", in a
    buffer laid out as _measurement_columns lays out a block's: the first
    token at the very start of its text, after _FRONT. The offsets are
    int64, as read_block's are: numpy 1.24's value-based casting makes
    uint64 combined with int64 a float64, which the kernel must not do."""
    text = "".join(token + "]" for token in tokens)
    buf = np.frombuffer((fingerprint._FRONT + text + "\0" * fingerprint._PADDING).encode("ascii"), dtype=np.uint8)
    lengths = np.array([len(token) for token in tokens], dtype=np.int64)
    end = len(fingerprint._FRONT) + np.cumsum(lengths + 1) - 1
    return fingerprint._decimals(buf, end - lengths, end)


def assert_kernel_reads_its_form_as_float_does(tokens):
    read, values = _kernel(tokens)
    assert read.dtype == bool and values.dtype == np.float64
    for token, got in zip(tokens, read.tolist()):
        in_form = KERNEL_FORM.fullmatch(token) is not None and int(token.lstrip("-").replace(".", "")) < 2**53
        assert got == in_form, token
        assert not got or re.fullmatch(fingerprint._JSON_FLOAT, token), token
    want = np.array([float(token) for token, got in zip(tokens, read.tolist()) if got], dtype=np.float64)
    assert values[read].view(np.uint64).tolist() == want.view(np.uint64).tolist()
    return read


@pytest.mark.parametrize("token", KERNEL_BOUNDARY)
def test_decimal_kernel_on_a_boundary_token_at_the_start_of_a_buffer(token):
    assert_kernel_reads_its_form_as_float_does([token])


def test_decimal_kernel_on_the_boundary_tokens_end_to_end():
    assert_kernel_reads_its_form_as_float_does(KERNEL_BOUNDARY)
    assert_kernel_reads_its_form_as_float_does(KERNEL_BOUNDARY[::-1])
    read = assert_kernel_reads_its_form_as_float_does([repr(-x / 7) for x in range(600, 1400)])  # 2 to 17 digits
    assert read.any() and not read.all()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tokens=KERNEL_TOKENS)
def test_decimal_kernel_on_float_reprs_and_near_form_decimals(tokens):
    assert_kernel_reads_its_form_as_float_does(tokens)
