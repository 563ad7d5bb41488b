"""Ingest: loaders, validation report, round-trip, conservation."""

import codecs
import hashlib
import json
import marshal
import math
import os
import pickle
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from functools import partial
from operator import attrgetter, itemgetter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import dataset_of, rec
from prefaudit import records as records_module
from prefaudit import stats
from prefaudit.cli import run
from prefaudit.errors import DataFormatError
from prefaudit.records import (
    AnnotationRecord,
    Dataset,
    EmbeddingTable,
    ItemMetadata,
    common_scale_score,
    default_tau,
    load_embeddings,
    load_metadata,
    load_records,
    save_records,
    to_json,
    to_row,
    validate,
)
from prefaudit import cli
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.pairing import InconsistencyFlag, PromptPair
from prefaudit.ratio import PopulationReport, RatioRecord
from prefaudit.themes import EndpointConfig
from test_builders import CLEAN, ROW_TYPES


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def _row(i, **over):
    row = {
        "record_id": f"r{i}",
        "annotator_id": "a1",
        "item_id": f"i{i}",
        "prompt_text": "hello",
        "score": 50.0,
        "scale_kind": "continuous_0_100",
    }
    row.update(over)
    return row


def test_load_three_valid_rows(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(i) for i in range(3)])
    dataset = load_records(path)
    assert len(dataset.records) == 3
    assert dataset.rejected == []
    assert dataset.scale_kind == "continuous_0_100"


def test_out_of_bound_score_rejected_with_line_and_bound(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(0), _row(1, score=150.0)])
    dataset = load_records(path)
    assert len(dataset.records) == 1
    assert len(dataset.rejected) == 1
    reject = dataset.rejected[0]
    assert reject.line_no == 2
    assert "150" in reject.reason and "100" in reject.reason


def test_strict_mode_aborts_on_malformed_row(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(0), _row(1, score=150.0)])
    with pytest.raises(DataFormatError, match="line 2"):
        load_records(path, strict=True)


_DROP = object()  # an ``over`` value that removes the field from the row


@pytest.mark.parametrize(
    "over, reason",
    [
        ({"timestamp": "abc"}, "timestamp must be an integer"),
        ({"timestamp": 3.7}, "timestamp must be an integer"),
        ({"position_index": True}, "position_index must be an integer"),
        ({"score": True}, "non-numeric score"),
        ({"wieght": 0.5}, "unknown fields: ['wieght']"),
        ({"annotator_id": None}, "missing required field 'annotator_id'"),
        ({"scale_kind": _DROP}, "no scale_kind and no dataset-level default"),
        ({"score": float("nan")}, "score must be finite, got nan"),
        ({"score": float("inf")}, "score must be finite, got inf"),
        ({"position_index": -1}, "position_index must be >= 0, got -1"),
        ({"annotator_id": 7}, "annotator_id must be a string, got 7"),
        ({"session_id": ["s1"]}, "session_id must be a string, got ['s1']"),
        ({"weight": -0.5}, "weight must be finite and >= 0, got -0.5"),
        ({"weight": "0.5"}, "non-numeric weight '0.5'"),
        ({"weight": float("inf")}, "weight must be finite and >= 0, got inf"),
    ],
)
def test_mistyped_field_rejects_the_row(tmp_path, over, reason):
    path = tmp_path / "d.jsonl"
    good = _row(0, timestamp=3.0)
    bad = {k: v for k, v in _row(1, **over).items() if v is not _DROP}
    # a row without scale_kind takes the dataset's from an earlier valid row,
    # so it can only fail ahead of one
    rows, line_no = ([good, bad], 2) if "scale_kind" in bad else ([bad, good], 1)
    _write_jsonl(path, rows)
    dataset = load_records(path)
    assert [r.timestamp for r in dataset.records] == [3]
    assert [(r.line_no, reason in r.reason) for r in dataset.rejected] == [(line_no, True)]
    assert dataset.rejected[0].raw == json.dumps(bad, sort_keys=True)  # the row as given
    with pytest.raises(DataFormatError, match=f"line {line_no}") as excinfo:
        load_records(path, strict=True)
    assert reason in str(excinfo.value)
    assert run(["validate", "--input", str(path), "--output", str(tmp_path / "v.json")]) == 0
    assert run(["validate", "--input", str(path), "--strict", "--output", str(tmp_path / "v.json")]) == 2


def test_zero_valid_rows_is_an_error(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(0, score=-3.0)])
    with pytest.raises(DataFormatError, match="zero valid rows"):
        load_records(path)


def test_zero_valid_rows_names_the_most_common_reason(tmp_path, capsys):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(0, wieght=0.5), _row(1, annotator_id=7), _row(2, wieght=0.5)])
    path.write_text(path.read_text() + "not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as excinfo:
        load_records(path)
    reason = "zero valid rows; 2 of 4 rejected rows: unknown fields: ['wieght']"
    assert str(excinfo.value) == reason
    assert run(["validate", "--input", str(path), "--output", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr().err == f"data error: {reason}\n"


def test_conservation_rows_in_equals_records_plus_rejects(tmp_path):
    rows = [_row(i) for i in range(6)]
    rows[2]["score"] = 101.0
    rows[4]["score"] = "oops"
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, rows)
    dataset = load_records(path)
    assert len(dataset.records) + len(dataset.rejected) == len(rows)


def test_csv_round_trip_value_identical(tmp_path):
    records = [
        rec("a1", "i1", 80.0, session="s1", framing="f1"),
        rec("a2", "i2", 3.0, scale="likert_5"),
    ]
    # mixed scales are not allowed in one dataset; keep them separate
    for record in records:
        dataset = dataset_of([record], scale=record.scale_kind)
        for fmt in ("jsonl", "csv"):
            out = tmp_path / f"d.{fmt}"
            save_records(dataset, out, fmt)
            loaded = load_records(out, fmt=fmt)
            assert loaded.records == dataset.records
            # round-trip again: serialize(load(x)) == load(x)
            out2 = tmp_path / f"d2.{fmt}"
            save_records(loaded, out2, fmt)
            assert load_records(out2, fmt=fmt).records == loaded.records


def test_csv_row_with_surplus_cells_rejected(tmp_path):
    path = tmp_path / "d.csv"
    header = "record_id,annotator_id,item_id,prompt_text,score,scale_kind"
    path.write_text(f"{header}\nr1,a1,i1,p,50,continuous_0_100\nr2,a1,i2,p,50,continuous_0_100,x\n")
    dataset = load_records(path, fmt="csv")
    assert [r.record_id for r in dataset.records] == ["r1"]
    assert [(r.line_no, r.reason) for r in dataset.rejected] == [(3, "row has 1 more cells than the header")]
    with pytest.raises(DataFormatError, match="line 3: row has 1 more cells"):
        load_records(path, fmt="csv", strict=True)


def test_binary_and_likert_score_validation():
    with pytest.raises(DataFormatError):
        rec("a", "i", "C", scale="binary_pair")
    with pytest.raises(DataFormatError):
        rec("a", "i", 6.0, scale="likert_5")
    with pytest.raises(DataFormatError):
        rec("a", "i", 50.0, scale="nonsense")
    assert rec("a", "i", "A", scale="binary_pair").score == "A"


def test_mixed_scale_rows_rejected(tmp_path):
    rows = [_row(0), _row(1, scale_kind="likert_5", score=3)]
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, rows)
    dataset = load_records(path)
    assert len(dataset.records) == 1
    assert "scale" in dataset.rejected[0].reason


def test_annotation_record_is_a_slotted_frozen_value():
    record = rec("a1", "i1", 50.0, session="s1", timestamp=4)
    with pytest.raises(FrozenInstanceError):
        record.score = 60.0
    twin = AnnotationRecord(**{f.name: getattr(record, f.name) for f in fields(record)})
    assert twin == record and hash(twin) == hash(record) and len({record, twin}) == 1
    assert pickle.loads(pickle.dumps(record)) == record
    moved = replace(record, score=60.0)
    assert (moved.score, record.score, moved.session_id) == (60.0, 50.0, "s1")
    with pytest.raises(DataFormatError):
        replace(record, score=500.0)
    # a per-instance __dict__ adds about 100 bytes to every loaded record (CPython 3.11)
    assert not hasattr(record, "__dict__")


def test_common_scale_and_default_tau():
    likert = rec("a", "i", 3.0, scale="likert_5")
    assert common_scale_score(likert) == 50.0
    assert common_scale_score(rec("a", "i", 80.0)) == 80.0
    assert default_tau("continuous_0_100") == 15.0
    assert default_tau("likert_5") == 1.0
    assert default_tau("binary_pair") == 0.0
    with pytest.raises(DataFormatError):
        common_scale_score(rec("a", "i", "A", scale="binary_pair"))


def test_load_embeddings_uniform_dimension(tmp_path):
    path = tmp_path / "e.jsonl"
    _write_jsonl(
        path,
        [
            {"item_id": "i1", "vector": [1.0, 0.0, 0.0, 0.0]},
            {"item_id": "i2", "vector": [0.0, 1.0, 0.0, 0.0]},
        ],
    )
    table = load_embeddings(path)
    assert table.dimension == 4
    assert "i1" in table


def test_load_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "e.jsonl"
    _write_jsonl(
        path,
        [{"item_id": "i1", "vector": [1.0, 0.0, 0.0, 0.0]}, {"item_id": "i2", "vector": [1.0] * 5}],
    )
    with pytest.raises(DataFormatError, match="dimension mismatch"):
        load_embeddings(path)


def test_load_embeddings_nonfinite_names_item(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text('{"item_id": "bad-one", "vector": [1.0, NaN]}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match="bad-one"):
        load_embeddings(path)


def test_load_embeddings_rejects_a_non_object_line(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("7\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 1: row is not an object"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "row, reason",
    [
        ({"item_id": "i1", "vector": 5}, "vector must be a list of numbers, got 5"),
        ({"item_id": "i1", "vector": None}, "missing required field 'vector'"),
        ({"item_id": "i1", "vector": ["a", "b"]}, "vector must be a list of numbers, got ['a', 'b']"),
        ({"item_id": "i1", "vector": [1.0, True]}, "vector must be a list of numbers, got [1.0, True]"),
        ({"item_id": 7, "vector": [1.0, 0.0]}, "item_id must be a string, got 7"),
    ],
)
def test_mistyped_embedding_row_is_a_data_error_naming_its_line(tmp_path, capsys, row, reason):
    path = tmp_path / "e.jsonl"
    _write_jsonl(path, [{"item_id": "i0", "vector": [0.0, 1.0]}, row])
    with pytest.raises(DataFormatError, match=re.escape(f"line 2: {reason}")):
        load_embeddings(path)
    data = tmp_path / "d.jsonl"
    _write_jsonl(data, [_row(0, item_id="i0"), _row(1, item_id="i1")])
    assert run(["pairs", "--input", str(data), "--embeddings", str(path), "--output", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"line 2: {reason}" in err[0]


def test_missing_embedding_reference_fails(tmp_path):
    emb = EmbeddingTable.from_rows([("i1", [1.0, 0.0])])
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(0, item_id="i1"), _row(1, item_id="i2")])
    with pytest.raises(DataFormatError, match="i2"):
        load_records(path, embeddings=emb)


def test_validate_counts_and_warnings():
    dataset = dataset_of(
        [
            rec("a1", "i1", 10.0, session="s1"),
            rec("a1", "i1", 40.0, session="s2"),
            rec("a1", "i2", 10.0),
            rec("a2", "i3", 10.0),
        ]
    )
    report = validate(dataset)
    assert report.n_records == 4
    assert report.n_annotators == 2
    assert report.n_items == 3
    assert report.n_repeat_groups == 1
    assert report.n_sessions == 2
    assert report.n_framing_pairs == 0
    assert any("framing" in w for w in report.warnings)


def test_validate_no_repeats_flags_temporal_unavailable():
    dataset = dataset_of([rec("a1", "i1", 10.0), rec("a1", "i2", 20.0)])
    report = validate(dataset)
    assert report.n_repeat_groups == 0
    assert any("temporal diagnostics unavailable" in w for w in report.warnings)


def test_validate_framing_coverage_pct():
    records = []
    for i in range(10):
        if i == 0:
            records.append(rec("a1", f"i{i}", 10.0, framing="a"))
            records.append(rec("a1", f"i{i}", 20.0, framing="b"))
        else:
            records.append(rec("a1", f"i{i}", 10.0))
    report = validate(dataset_of(records))
    assert report.framing_coverage_pct == pytest.approx(10.0)
    assert report.n_framing_pairs == 1


def test_validate_empty_dataset_zero_counts():
    report = validate(Dataset(records=[], scale_kind="continuous_0_100"))
    assert report.n_records == 0
    assert report.n_annotators == 0
    assert "empty dataset" in report.warnings


def test_validate_is_pure():
    dataset = dataset_of([rec("a1", "i1", 10.0)])
    assert to_row(validate(dataset)) == to_row(validate(dataset))


def test_timestamp_monotonicity_checked():
    records = [
        rec("a1", "i1", 10.0, session="s1", timestamp=5),
        rec("a1", "i2", 10.0, session="s1", timestamp=3),
    ]
    report = validate(dataset_of(records))
    assert any("timestamp decreases" in w for w in report.warnings)


def test_strict_load_rejects_timestamp_regression(tmp_path):
    rows = [
        _row(0, session_id="s1", timestamp=5),
        _row(1, session_id="s1", timestamp=3),
    ]
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, rows)
    with pytest.raises(DataFormatError, match="timestamp"):
        load_records(path, strict=True)


def test_load_metadata(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_jsonl(
        path,
        [
            {"item_id": "i1", "content_type": "A1_generic", "theme_labels": ["x", "y"]},
            {"item_id": "i2", "plausible_pref": "E3_plausible"},
        ],
    )
    metadata = load_metadata(path)
    assert metadata["i1"].content_type == "A1_generic"
    assert metadata["i1"].theme_labels == frozenset({"x", "y"})
    assert metadata["i2"].plausible_pref == "E3_plausible"


@pytest.mark.parametrize(
    "line, reason",
    [
        pytest.param('["i1", "i2"]', "row is not an object", id='["i1", "i2"]'),
        pytest.param('"i1"', "row is not an object", id='"i1"'),
        pytest.param("7", "row is not an object", id="7"),
        pytest.param('{"item_id": "i1", "content_type": "A9_bogus"}',
                     "unknown content_type code 'A9_bogus'", id="unknown-code"),
    ],
)
def test_load_metadata_rejects_a_non_object_line(tmp_path, line, reason):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "i0"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"line 2: {reason}"):
        load_metadata(path)


def test_metadata_rejects_unknown_codes():
    from prefaudit.records import ItemMetadata

    with pytest.raises(DataFormatError):
        ItemMetadata(item_id="i", content_type="A9_bogus")


def test_repeat_groups_index(repeat_dataset):
    groups = repeat_dataset.repeat_groups
    assert set(groups) == {("a1", "i1", None), ("a1", "i2", None), ("a1", "i3", None)}
    assert all(len(v) == 2 for v in groups.values())


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_loaded_records_share_repeated_strings(tmp_path, fmt):
    assert run(["synth", "--per-type", "2", "--items-per-annotator", "30", "--repeats", "3",
                "--framing-pairs", "2", "--anchors", "4", "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / "dataset.jsonl"
    if fmt == "csv":
        save_records(load_records(path), tmp_path / "dataset.csv", fmt="csv")
        path = tmp_path / "dataset.csv"
    ds = load_records(path, fmt=fmt)
    assert len({id(r.annotator_id) for r in ds.records}) == len(ds.by_annotator)
    assert len({id(r.scale_kind) for r in ds.records}) == 1



# ------------------------------------------------------------------ encodings


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_row_that_is_not_utf8_is_rejected_naming_its_line(tmp_path, capsys, fmt):
    path = tmp_path / f"d.{fmt}"
    save_records(dataset_of([rec("a1", "i1", 50.0), rec("a1", "i2", 60.0)]), path, fmt=fmt)
    data = path.read_bytes()
    cut = data.rindex(b"prompt i2") + len(b"prompt")
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])  # inside the last row's prompt text
    dataset = load_records(path, fmt=fmt)
    line_no = 2 if fmt == "jsonl" else 3
    assert [r.item_id for r in dataset.records] == ["i1"]
    assert [(r.line_no, r.reason) for r in dataset.rejected] == [(line_no, "invalid UTF-8: byte 0xff")]
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line {line_no}: invalid UTF-8")):
        load_records(path, fmt=fmt, strict=True)
    argv = ["validate", "--input", str(path), "--input-format", fmt, "--output", str(tmp_path / "v.json")]
    assert run(argv) == 0
    assert run(argv + ["--strict"]) == 2
    assert f"{path}: line {line_no}: invalid UTF-8: byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, fmt):
    path = tmp_path / f"d.{fmt}"
    save_records(dataset_of([rec("a1", "i1", 50.0)]), path, fmt=fmt)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    dataset = load_records(path, fmt=fmt, strict=True)
    assert [r.item_id for r in dataset.records] == ["i1"]


def _reference_iter_jsonl(path, rejects=None):
    """``iter_jsonl`` as it was, with ``json.loads`` on every line: the reference
    the scanner-based reader must match."""
    strings = {}
    with records_module._open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            reason = records_module._undecodable(line)
            if reason is not None:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
            else:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    reason = f"invalid JSON: {exc}"
                else:
                    if isinstance(obj, dict):
                        if obj.keys() != {"#config"}:
                            yield line_no, records_module._shared(obj, strings)
                        continue
                    reason = "row is not an object"
            if rejects is None:
                raise DataFormatError(f"line {line_no}: {reason}")
            rejects.append(records_module.RejectedRow(line_no, reason, line))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_JSON_OBJECTS = st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=4)


@st.composite
def _jsonl_line(draw) -> bytes:
    """One line of a JSONL file: a valid object, or one of the ways a line goes wrong."""
    text = json.dumps(draw(_JSON_OBJECTS), ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from([
        "valid", "padded", "truncated", "trailing", "bom", "non-object", "non-finite",
        "deep", "long int", "not utf-8", "blank", "config",
    ]))
    if kind == "padded":
        text = draw(st.sampled_from([" ", "\t", "\x0c", "\u3000"])) + text + draw(st.sampled_from(["", " ", "\r"]))
    elif kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "trailing":
        text += draw(st.sampled_from([" {}", "{}", " x", ",", " 1", "]", " null", "\ufeff"]))
    elif kind == "bom":
        text = "\ufeff" + text
    elif kind == "non-object":
        text = json.dumps(draw(_JSON_VALUES.filter(lambda v: not isinstance(v, dict))))
    elif kind == "non-finite":
        text = draw(st.sampled_from(["NaN", "-Infinity", '{"a": NaN}', '{"a": [Infinity, -Infinity]}', '{"a": nan}']))
    elif kind == "deep":
        depth = draw(st.sampled_from([3, 50, 5000]))
        text = draw(st.sampled_from(["{}", '{{"a": {}}}'])).format("[" * depth + "]" * depth)
    elif kind == "long int":
        digits = "7" * draw(st.sampled_from([4300, 4301, 6000]))
        text = draw(st.sampled_from(["{}", '{{"a": {}}}', '{{"a": -{}}}'])).format(digits)
    elif kind == "blank":
        text = draw(st.sampled_from(["", " ", "\t", " \t ", "\x0c"]))
    elif kind == "config":
        text = json.dumps({"#config": draw(_JSON_VALUES), **draw(_JSON_OBJECTS)})
    data = text.encode("utf-8")
    if kind == "not utf-8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"])) + data[cut:]
    return data


def _reader_outcome(parse, path, lenient):
    """What ``parse`` yields, appends to its rejects and raises, in a comparable form:
    reprs tell ``1`` from ``1.0`` and ``True``, and ``-0.0`` from ``0.0``, and NaN equals NaN."""
    rejects = [] if lenient else None
    rows = []
    try:
        for row in parse(path, rejects):
            rows.append(row)
    except Exception as exc:  # DataFormatError; past the int-digits limit, a ValueError; too deep, a RecursionError
        raised = (type(exc), str(exc))
    else:
        raised = None
    return repr(rows), repr(rejects), raised


@settings(deadline=None, max_examples=300)
@seed(20261019)
@given(
    lines=st.lists(_jsonl_line(), max_size=6),
    newline=st.sampled_from([b"\n", b"\r\n"]),
    file_bom=st.booleans(),
)
def test_iter_jsonl_yields_rejects_and_raises_as_json_loads_per_line_did(tmp_path_factory, lines, newline, file_bom):
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    path.write_bytes(codecs.BOM_UTF8 * file_bom + newline.join(lines) + newline * bool(lines))
    for lenient in (True, False):
        expected = _reader_outcome(_reference_iter_jsonl, path, lenient)
        assert _reader_outcome(records_module.iter_jsonl, path, lenient) == expected


def _reference_records_from_rows(rows, scale_kind=None, strict=False, rejects=None):
    """``records_from_rows`` as it was, with a row loop of its own: the reference
    that the loop it now shares with ``read_rows`` (``_build_rows``) must match."""

    def record_from_obj(obj, scale_kind):
        if not obj.get("scale_kind"):
            if scale_kind is None:
                raise DataFormatError("record carries no scale_kind and no dataset-level default given")
            obj = {**obj, "scale_kind": scale_kind}
        return records_module.from_row(AnnotationRecord, obj)

    rejects = [] if rejects is None else rejects
    records = []
    effective_scale = scale_kind
    for line_no, obj in rows:
        try:
            rec = record_from_obj(obj, effective_scale)
            if effective_scale is None:
                effective_scale = rec.scale_kind
            elif rec.scale_kind != effective_scale:
                raise DataFormatError(
                    f"scale_kind {rec.scale_kind!r} differs from dataset scale {effective_scale!r}"
                )
            records.append(rec)
        except DataFormatError as exc:
            if strict:
                raise DataFormatError(f"line {line_no}: {exc}") from exc
            rejects.append(records_module.RejectedRow(line_no, str(exc), to_json(obj)))
    if not records:
        common = Counter(r.reason for r in rejects).most_common(1)
        why = f"; {common[0][1]} of {len(rejects)} rejected rows: {common[0][0]}" if common else ""
        raise DataFormatError(f"zero valid rows{why}")
    return records, rejects, effective_scale or records_module.SCALE_CONTINUOUS


_ABSENT = object()


_GOOD_SCORES = [50.0, 3, 1.0, 4.5, 5, 0]  # each in range on the continuous scale, most on the Likert one too
_BAD_SCORES = ["A", 150.0, -1, True, "50", None, math.nan]


@st.composite
def _record_row(draw) -> dict:
    """A record row: valid, or with a missing, falsy or foreign scale, a bad value, a
    missing field or an unknown one."""
    row = {
        "record_id": draw(st.sampled_from(["r1", "r2"])),
        "annotator_id": draw(st.sampled_from(["a1", "a2"])),
        "item_id": draw(st.sampled_from(["i1", "i2"])),
        "prompt_text": "p",
        "score": draw(st.sampled_from(_GOOD_SCORES * 5 + _BAD_SCORES)),
    }
    scale = draw(st.sampled_from([_ABSENT] * 3 + [records_module.SCALE_CONTINUOUS] * 3 + [
        records_module.SCALE_LIKERT, records_module.SCALE_BINARY, None, "", 0, False, "bogus"]))
    if scale is not _ABSENT:
        row["scale_kind"] = scale
    for name, value in draw(st.lists(st.sampled_from([
        ("weight", 0.5), ("position_index", 2.0), ("timestamp", 3), ("session_id", "s1"), ("framing_id", "f1"),
        ("weight", -1.0), ("position_index", -1), ("timestamp", "t"), ("session_id", 3), ("unknown", 1),
        ("record_id", _ABSENT), ("prompt_text", _ABSENT),
    ]), max_size=1)):
        if value is _ABSENT:
            row.pop(name, None)
        else:
            row[name] = value
    return row


def _rows_read(items, rejects):
    """``(line_no, row)`` of each row of ``items``, as a reader yields them; a string
    of ``items`` is a line the reader rejects for that reason, in ``rejects`` or raised."""
    for line_no, item in enumerate(items, start=1):
        if isinstance(item, str):
            if rejects is None:
                raise DataFormatError(f"line {line_no}: {item}")
            rejects.append(records_module.RejectedRow(line_no, item, "{"))
        else:
            yield line_no, dict(item)


def _load_outcome(build, items, scale_kind, strict):
    """What ``build`` (a ``records_from_rows``) returns, keeps as rejects and raises, as a
    load runs it: a lenient reader's rejects and the builder's share one list."""
    rejects = []
    try:
        records, kept, scale = build(_rows_read(items, None if strict else rejects), scale_kind, strict, rejects)
    except DataFormatError as exc:
        return repr(rejects), str(exc)
    assert kept is rejects
    return repr(records), repr([(r.line_no, r.reason, r.raw) for r in rejects]), scale


@settings(deadline=None, max_examples=300)
@seed(20261020)
@given(
    items=st.lists(_record_row() | st.sampled_from(["invalid JSON: x", "row is not an object"]), max_size=8),
    scale_kind=st.sampled_from([None, None, *records_module.SCALE_KINDS]),
)
def test_records_from_rows_builds_rejects_and_raises_as_its_own_loop_did(items, scale_kind):
    for strict in (False, True):
        expected = _load_outcome(_reference_records_from_rows, items, scale_kind, strict)
        assert _load_outcome(records_module.records_from_rows, items, scale_kind, strict) == expected


@dataclass(frozen=True, slots=True)
class _OutsideRow:
    item_id: str
    n: int = 0


def test_a_read_rows_of_a_class_from_outside_the_package_keeps_no_sidecar(tmp_path):
    """The sidecar header digests the package's own source, so a row type defined
    elsewhere, whose source it does not cover, keeps no sidecar."""
    path = tmp_path / "rows.jsonl"
    path.write_text('{"item_id": "i1"}\n{"item_id": "i2"}\n', encoding="utf-8")
    assert records_module._rows_key(_OutsideRow) is None
    for _ in range(2):
        assert [row.item_id for row in records_module.read_rows(path, _OutsideRow)] == ["i1", "i2"]
        assert not _sidecar(path).exists()
    assert records_module._rows_key(ItemMetadata) == ("read_rows", "prefaudit.records.ItemMetadata")
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"item_id": "i1"}\n', encoding="utf-8")
    assert load_metadata(meta) == {"i1": ItemMetadata("i1")}
    assert _sidecar(meta).is_file()


# ------------------------------------------------------------------ load sidecar


def _sidecar(path):
    return path.with_name(f".{path.name}.prefaudit")


def _refuse(*args, **kwargs):
    raise AssertionError("the input was parsed")


def _lenient_corpus(tmp_path):
    """Twelve rows of three annotators and one line that is not JSON; two lines are rejected."""
    path = tmp_path / "d.jsonl"
    rows = [_row(i, annotator_id=f"a{i % 3}", session_id="s1", timestamp=i) for i in range(12)]
    rows[4]["score"] = 150.0
    _write_jsonl(path, rows)
    path.write_text(path.read_text() + "not json\n", encoding="utf-8")
    return path


def _metadata_file(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_jsonl(path, [
        {"item_id": f"i{i}", "content_type": "A1_generic", "theme_labels": ["harm", f"t{i % 2}"]} for i in range(4)
    ])
    return path


def _embeddings_file(tmp_path):
    path = tmp_path / "e.jsonl"
    _write_jsonl(path, [{"item_id": f"i{i}", "vector": [1.0, float(i)]} for i in range(4)])
    return path


# Each load that keeps a sidecar: a writer of a small file it loads, and the loader.
LOADS = {
    "records": (_lenient_corpus, load_records),
    "metadata": (_metadata_file, load_metadata),
    "embeddings": (_embeddings_file, load_embeddings),
}
SIDE_INPUTS = ("metadata", "embeddings")


def _values(load):
    """A load as plain values, equal exactly when the loads are."""
    if isinstance(load, Dataset):
        return load.records, load.rejected, load.scale_kind
    if isinstance(load, EmbeddingTable):
        return load.dimension, {item_id: vec.tolist() for item_id, vec in load.entries.items()}
    return load


def _by_load(cases):
    """``(kind, case)`` params over every load; the records case keeps the case's bare id."""
    return [pytest.param(kind, case, id=case if kind == "records" else f"{kind}-{case}")
            for kind in LOADS for case in cases]


def test_warm_load_reads_the_sidecar_instead_of_the_rows(tmp_path, monkeypatch):
    path = _lenient_corpus(tmp_path)
    cold = load_records(path)
    assert _sidecar(path).is_file()
    monkeypatch.setattr(records_module, "iter_jsonl", _refuse)
    monkeypatch.setattr(records_module, "from_row", _refuse)
    warm = load_records(path)
    assert warm.records == cold.records
    assert warm.rejected == cold.rejected and len(warm.rejected) == 2
    assert warm.scale_kind == cold.scale_kind
    for recs in warm.by_annotator.values():
        assert len({id(r.annotator_id) for r in recs}) == 1


def test_csv_input_uses_the_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    save_records(dataset_of([rec("a1", "i1", 50.0), rec("a2", "i2", 3.0)]), path, fmt="csv")
    cold = load_records(path, fmt="csv")
    monkeypatch.setattr(records_module, "_iter_csv", _refuse)
    assert load_records(path, fmt="csv").records == cold.records
    with pytest.raises(AssertionError, match="parsed"):
        load_records(path, fmt="csv", scale_kind="continuous_0_100")  # another key


_SAME_SIZE_EDITS = {
    "records": ('"score": 50.0', '"score": 51.0'),
    "metadata": ("A1_generic", "A2_factual"),
    "embeddings": ("[1.0, 0.0]", "[1.0, 9.0]"),
}


@pytest.mark.parametrize("kind", LOADS)
def test_a_same_size_edit_is_parsed_again(tmp_path, kind):
    write, load = LOADS[kind]
    path = write(tmp_path)
    before = _values(load(path))
    size = path.stat().st_size
    path.write_text(path.read_text().replace(*_SAME_SIZE_EDITS[kind], 1), encoding="utf-8")
    assert path.stat().st_size == size
    fresh = tmp_path / "fresh"  # the edited bytes, with no sidecar beside them
    fresh.mkdir()
    (fresh / path.name).write_bytes(path.read_bytes())
    assert _values(load(path)) == _values(load(fresh / path.name)) != before


@pytest.mark.parametrize("kind, damage", _by_load(["truncated", "random bytes", "directory"]))
def test_a_bad_sidecar_gives_a_normal_load(tmp_path, kind, damage):
    write, load = LOADS[kind]
    path = write(tmp_path)
    expected = _values(load(path))
    sidecar = _sidecar(path)
    if damage == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-40])
    elif damage == "random bytes":
        sidecar.write_bytes(random.Random(3).randbytes(2000))
    else:
        sidecar.unlink()
        sidecar.mkdir()
    assert _values(load(path)) == expected


def _forge(path, key, change):
    """Rewrite ``path``'s sidecar with a matching header and ``change`` applied to its body."""
    header = records_module._sidecar_header(key, hashlib.sha256(path.read_bytes()).digest())
    blob = _sidecar(path).read_bytes()
    assert blob.startswith(header)
    columns, rejects, scale = marshal.loads(blob[len(header):])
    columns = list(columns)
    columns, rejects, scale = change(columns, rejects, scale)
    _sidecar(path).write_bytes(header + marshal.dumps((tuple(columns), rejects, scale)))


def _set(columns, name, value, at=0):
    """``columns`` with ``name``'s value at ``at`` replaced; a column stored as None
    (no record sets the field) is filled with None first."""
    col = list(columns[records_module._RECORD_FIELDS.index(name)] or [None] * len(columns[0]))
    col[at] = value
    columns[records_module._RECORD_FIELDS.index(name)] = tuple(col)
    return columns


FORGERIES = {
    "score out of range": lambda c, r, s: (_set(c, "score", 150.0), r, s),
    "score of a bool": lambda c, r, s: (_set(c, "score", True), r, s),
    "integer id": lambda c, r, s: (_set(c, "annotator_id", 7), r, s),
    "missing required": lambda c, r, s: (_set(c, "prompt_text", None), r, s),
    "negative position": lambda c, r, s: (_set(c, "position_index", -1), r, s),
    "two scales": lambda c, r, s: (_set(c, "scale_kind", "likert_5"), r, s),
    "other scale": lambda c, r, s: (c, r, "likert_5"),
    "short column": lambda c, r, s: (_set(c, "item_id", [], at=slice(0, 1)), r, s),
    "no records": lambda c, r, s: ([() if col else None for col in c], r, s),
    "mistyped reject": lambda c, r, s: (c, ((1, "why", 7),), s),
    # caught by ``AnnotationRecord.__post_init__`` only, not by the column type checks
    "negative weight": lambda c, r, s: (_set(c, "weight", -1.0), r, s),
    "infinite weight": lambda c, r, s: (_set(c, "weight", float("inf")), r, s),
    "NaN score": lambda c, r, s: (_set(c, "score", float("nan")), r, s),
    "binary score not A or B": lambda c, r, s: (_binary(c, "C"), r, "binary_pair"),
}


def _binary(columns, first_score):
    """``columns`` as a binary_pair corpus whose first score is ``first_score`` and the rest "A"."""
    n = len(columns[0])
    columns[records_module._RECORD_FIELDS.index("scale_kind")] = ("binary_pair",) * n
    columns[records_module._RECORD_FIELDS.index("score")] = (first_score,) + ("A",) * (n - 1)
    return columns


@pytest.mark.parametrize("forgery", list(FORGERIES))
def test_a_sidecar_that_fails_a_parse_check_is_not_used(tmp_path, forgery):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(i, session_id="s1", timestamp=i, position_index=i) for i in range(3)])
    expected = load_records(path)
    _forge(path, ("jsonl", None), FORGERIES[forgery])
    dataset = load_records(path)
    assert (dataset.records, dataset.rejected, dataset.scale_kind) == (
        expected.records, expected.rejected, expected.scale_kind)


@pytest.mark.parametrize("change, field, value", [
    (lambda c, r, s: (_set(c, "weight", 2.0), r, s), "weight", 2.0),
    (lambda c, r, s: (_binary(c, "B"), r, "binary_pair"), "score", "B"),
], ids=["weight", "binary score"])
def test_a_forged_sidecar_that_passes_every_check_is_used(tmp_path, change, field, value):
    """The control for the forgeries above: each is refused for its bad value alone."""
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(i, session_id="s1", timestamp=i, position_index=i) for i in range(3)])
    load_records(path)
    _forge(path, ("jsonl", None), change)
    assert getattr(load_records(path).records[0], field) == value


@pytest.mark.parametrize("warm", [False, True], ids=["cold parse", "sidecar"])
def test_a_loaded_record_is_indistinguishable_from_a_constructed_one(tmp_path, monkeypatch, warm):
    path = tmp_path / "d.jsonl"
    rows = [_row(i, session_id="s1", timestamp=i, weight=0.5) for i in range(3)]
    _write_jsonl(path, rows)
    loaded = load_records(path).records
    if warm:
        monkeypatch.setattr(records_module, "iter_jsonl", _refuse)
        loaded = load_records(path).records
    for row, record in zip(rows, loaded, strict=True):
        built = AnnotationRecord(**row)
        assert type(record) is AnnotationRecord
        assert record == built and hash(record) == hash(built)
        with pytest.raises(FrozenInstanceError):
            record.score = 60.0
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is AnnotationRecord and copy == built
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", [*ROW_TYPES, EndpointConfig], ids=lambda cls: cls.__name__)
def test_the_record_twin_matches_annotation_records_layout(cls):
    """Each row type's twin has its slots, is not frozen, and once given the class
    is the object the constructor builds from the same fields."""
    twin = records_module._twin(cls)
    assert twin.__slots__ == cls.__slots__
    expected = records_module.from_row(cls, CLEAN[cls])  # through the constructor
    obj = twin(*(None for _ in fields(cls)))
    for name, value in to_row(expected).items():
        setattr(obj, name, value)  # not frozen
    obj.__class__ = cls
    assert obj == expected and to_row(obj) == to_row(expected)


@pytest.mark.parametrize("cls", [cls for cls in (*ROW_TYPES, EndpointConfig) if cls.__module__.startswith("prefaudit.")
                                 and cls.__dataclass_params__.frozen], ids=lambda cls: cls.__name__)
def test_a_frozen_row_refuses_to_set_or_delete_any_attribute(cls):
    obj = records_module.from_row(cls, CLEAN[cls])
    for name in (next(iter(CLEAN[cls])), "extra"):  # a field, and a name that is none
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert obj == records_module.from_row(cls, CLEAN[cls])


def test_strict_and_lenient_loads_of_a_clean_file_share_the_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(i) for i in range(3)])
    cold = load_records(path, strict=True)
    monkeypatch.setattr(records_module, "iter_jsonl", _refuse)
    assert load_records(path).records == cold.records
    assert load_records(path, strict=True).records == cold.records


def test_a_strict_load_parses_a_file_whose_sidecar_holds_rejects(tmp_path):
    path = _lenient_corpus(tmp_path)
    assert len(load_records(path).rejected) == 2
    with pytest.raises(DataFormatError, match=r"d\.jsonl: line 5: score 150\.0 outside"):
        load_records(path, strict=True)


def _parse_count(monkeypatch):
    """A list that grows by one each time ``load_records`` parses a JSONL file."""
    calls = []
    parse = records_module.iter_jsonl
    monkeypatch.setattr(records_module, "iter_jsonl", lambda *a: calls.append(1) or parse(*a))
    return calls


# A forgery of each load's sidecar that passes every check, but is not the file's.
_VALID_FORGERIES = {
    "records": lambda path: _forge(path, ("jsonl", None), lambda c, r, s: (_set(c, "score", 99.0), r, s)),
    "metadata": lambda path: _forge_rows(path, _set_cell(ItemMetadata, "content_type", "A2_factual")),
    "embeddings": lambda path: _forge_rows(path, _set_cell(records_module._EmbeddingRow, "vector", [3.0, 4.0])),
}


@pytest.mark.parametrize("kind, who", _by_load(["another user", "group-writable", "world-writable", "symlink", "fifo"]))
def test_a_sidecar_that_is_not_the_users_own_file_is_not_used(tmp_path, monkeypatch, kind, who):
    write, load = LOADS[kind]
    path = write(tmp_path)
    expected = _values(load(path))
    sidecar = _sidecar(path)
    _VALID_FORGERIES[kind](path)
    if who == "another user":
        monkeypatch.setattr(os, "geteuid", lambda: sidecar.stat().st_uid + 1)
    elif who == "group-writable":
        sidecar.chmod(0o664)
    elif who == "world-writable":
        sidecar.chmod(0o646)
    elif who == "symlink":
        sidecar.rename(tmp_path / "elsewhere")
        sidecar.symlink_to(tmp_path / "elsewhere")
    else:
        sidecar.unlink()
        os.mkfifo(sidecar)  # opened without waiting for a writer
    calls = _parse_count(monkeypatch)
    assert _values(load(path)) == expected
    assert calls == [1]


def test_an_unexpected_error_reading_the_sidecar_means_a_parse(tmp_path, monkeypatch):
    path = _lenient_corpus(tmp_path)
    expected = load_records(path)

    def broken(*args):
        raise AttributeError("no such hash")

    monkeypatch.setattr(records_module, "_file_sha256", broken)
    assert load_records(path).records == expected.records


# A row that makes each load fail, and the load it makes fail.
_FAILING_ROWS = {
    "records": (_row(1, score=150.0), partial(load_records, strict=True)),
    "metadata": ({"item_id": "i9", "content_type": "A9_bogus"}, load_metadata),
    "embeddings": ({"item_id": "i9", "vector": [0.0, 0.0]}, load_embeddings),
}


@pytest.mark.parametrize("kind", LOADS)
def test_a_sidecar_is_not_written_for_a_failed_load_or_a_pipe(tmp_path, kind):
    write, load = LOADS[kind]
    path = write(tmp_path)
    bad_row, failing_load = _FAILING_ROWS[kind]
    text = path.read_text()
    path.write_text(text + json.dumps(bad_row) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        failing_load(path)
    assert not _sidecar(path).exists()
    path.write_text(text, encoding="utf-8")
    read, write_end = os.pipe()
    with os.fdopen(write_end, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert _values(load(f"/dev/fd/{read}")) == _values(load(path))  # the pipe loses no line
    os.close(read)


def _forge_rows(path, change):
    """Rewrite ``path``'s ``read_rows`` sidecar, its header kept, with ``change``
    applied to its columns."""
    blob = _sidecar(path).read_bytes()
    key = marshal.loads(blob)[3]  # the header comes first, and ``loads`` reads one object
    header = records_module._sidecar_header(key, hashlib.sha256(path.read_bytes()).digest())
    assert key[0] == "read_rows" and blob.startswith(header)
    _sidecar(path).write_bytes(header + marshal.dumps(change(marshal.loads(blob[len(header):]))))


def _set_cell(cls, name, value, at=0):
    """A forgery: the columns of ``cls`` with the value of ``name`` at ``at`` set to
    ``value``; a column stored as None (no object sets the field) is filled with None first."""
    def change(columns):
        columns = list(columns)
        i = records_module._field_names(cls).index(name)
        col = list(columns[i] or [None] * len(columns[0]))
        col[at] = value
        columns[i] = tuple(col)
        return tuple(columns)

    return change


def _in_pair_table(change):
    """A forgery of a flags sidecar: ``change`` applied to the columns of its pairs."""
    def forge(columns):
        index, table = columns[1]
        return (columns[0], (index, change(table)), *columns[2:])

    return forge


def _set_pair_index(value, at=0):
    """A forgery of a flags sidecar: the index of the flag at ``at`` into its pair table set to ``value``."""
    def forge(columns):
        index, table = columns[1]
        return (columns[0], (index[:at] + (value,) + index[at + 1:], table), *columns[2:])

    return forge


def _as_rows(cls):
    """A forgery: the payload as row dicts, not columns."""
    names = records_module._field_names(cls)
    return lambda columns: [dict(zip(names, row)) for row in zip(*(col or [None] * len(columns[0]) for col in columns))]


@pytest.mark.parametrize("kind", SIDE_INPUTS)
def test_a_warm_side_input_load_builds_every_object_without_parsing_or_a_row(tmp_path, monkeypatch, kind):
    write, load = LOADS[kind]
    path = write(tmp_path)
    cold = _values(load(path))
    assert _sidecar(path).is_file()
    monkeypatch.setattr(records_module, "iter_jsonl", _refuse)
    monkeypatch.setattr(records_module, "from_row", _refuse)
    assert _values(load(path)) == cold


def test_a_forged_side_input_sidecar_that_passes_every_check_is_used(tmp_path):
    """The control for the forgeries below: each is refused for its bad value alone."""
    metadata_path, embeddings_path = _metadata_file(tmp_path), _embeddings_file(tmp_path)
    expected_metadata = load_metadata(metadata_path)
    load_embeddings(embeddings_path)
    _VALID_FORGERIES["metadata"](metadata_path)
    _VALID_FORGERIES["embeddings"](embeddings_path)
    assert load_metadata(metadata_path) == {
        **expected_metadata, "i0": replace(expected_metadata["i0"], content_type="A2_factual")}
    assert load_embeddings(embeddings_path)["i0"].tolist() == [3.0, 4.0]


# Forged columns each fail a check that a parse applies. Those that pass the
# columns and fail only the embedding table (a renamed first item, another first
# dimension) show that the table built from them is dropped before the file is parsed.
ROW_FORGERIES = {
    "metadata": {
        "unknown content_type": _set_cell(ItemMetadata, "content_type", "A9_bogus", at=-1),
        "repeated item_id": _set_cell(ItemMetadata, "item_id", "i0", at=-1),
        "mistyped theme label": _set_cell(ItemMetadata, "theme_labels", frozenset({"harm", 7}), at=-1),
        "unknown field": lambda columns: (*columns, ("red",) * len(columns[0])),
        "rows without line numbers": _as_rows(ItemMetadata),
    },
    "embeddings": {
        "zero vector": lambda columns: _set_cell(records_module._EmbeddingRow, "vector", [0.0, 0.0], at=-1)(
            _set_cell(records_module._EmbeddingRow, "item_id", "stale")(columns)),
        "repeated item_id": _set_cell(records_module._EmbeddingRow, "item_id", "i0", at=-1),
        "another dimension": _set_cell(records_module._EmbeddingRow, "vector", [1.0, 2.0, 3.0]),
        "non-finite entry": _set_cell(records_module._EmbeddingRow, "vector", [1.0, float("nan")], at=-1),
        "rows without line numbers": _as_rows(records_module._EmbeddingRow),
    },
}


@pytest.mark.parametrize("kind, forgery", [(kind, name) for kind in ROW_FORGERIES for name in ROW_FORGERIES[kind]])
def test_a_side_input_sidecar_that_fails_a_parse_check_is_not_used(tmp_path, kind, forgery):
    write, load = LOADS[kind]
    path = write(tmp_path)
    expected = _values(load(path))
    _forge_rows(path, ROW_FORGERIES[kind][forgery])
    assert _values(load(path)) == expected


# ------------------------------------------------------------------ sidecars the CLI writers leave


def _pairs_file(tmp_path):
    pairs = [PromptPair(f"i{i}|i{i + 1}", f"i{i}", f"i{i + 1}", 0.9 + i / 100) for i in range(3)]
    path = tmp_path / "pairs.jsonl"
    cli._write_jsonl(str(path), {}, pairs, PromptPair, kept=True)
    return path


def _flags_file(tmp_path):
    pairs = [PromptPair("i1|i2", "i1", "i2", 0.95), PromptPair("i3|i3", "i3", "i3", 1.0, "identical")]
    flags = [InconsistencyFlag(f"a{i}", pairs[i // 2], 10.0, 40.0 + i, 30.0 + i, 15.0) for i in range(4)]
    path = tmp_path / "flags.jsonl"
    cli._write_jsonl(str(path), {}, flags, InconsistencyFlag, kept=True)
    return path


def _profiles_file(tmp_path):
    profiles = [ConsistencyProfile(f"a{i}", temp=0.5, n_temp_pairs=i, reliability=0.25 * i) for i in range(3)]
    path = tmp_path / "profiles.jsonl"
    cli._write_jsonl(str(path), {}, profiles, ConsistencyProfile, kept=True)
    return path


def _ratios_file(tmp_path):
    ratios = [RatioRecord(f"a{i}", "harm", 5, 1.0, 2.0, 0.5, 100, 7) for i in range(3)]
    path = tmp_path / "ratios.jsonl"
    cli._write_jsonl(str(path), {}, ratios, RatioRecord, kept=True)
    return path


# Each intermediate file whose writer leaves a sidecar: a writer of a small one, and its reader.
WRITTEN = {
    "flags": (_flags_file, cli.load_flags),
    "pairs": (_pairs_file, cli.load_pairs),
    "profiles": (_profiles_file, cli.load_profiles),
    "ratios": (_ratios_file, cli.load_ratio_records),
}


@pytest.mark.parametrize("kind", WRITTEN)
def test_a_file_a_writer_left_a_sidecar_beside_reads_without_parsing(tmp_path, monkeypatch, kind):
    write, load = WRITTEN[kind]
    path = write(tmp_path)
    fresh = tmp_path / "fresh"  # the same bytes, parsed
    fresh.mkdir()
    (fresh / path.name).write_bytes(path.read_bytes())
    parsed = load(fresh / path.name)
    monkeypatch.setattr(records_module, "iter_jsonl", _refuse)
    monkeypatch.setattr(records_module, "from_row", _refuse)
    assert repr(load(path)) == repr(parsed)


_FLAG_CELLS = {"annotator_id": "a0", "score_a": 10.0, "score_b": 40.0, "delta": 30.0, "threshold_used": 15.0}

# Each CLI loader as a list, its row type, and rows that the type's read rule changes:
# a pair without ``pair_id``, and a profile with ``diagnose --route``'s routing column.
LOADED = {
    "flags": (cli.load_flags, InconsistencyFlag,
              [{**_FLAG_CELLS, "item_a": "i1", "item_b": "i2"}, {**_FLAG_CELLS, "item_a": "i1", "item_b": "i2",
                                                                 "annotator_id": "a1", "pair_id": ""}]),
    "pairs": (cli.load_pairs, PromptPair,
              [{"item_a": "i1", "item_b": "i2"}, {"pair_id": "", "item_a": "i2", "item_b": "i3", "similarity": 0.5}]),
    "profiles": (lambda path: list(cli.load_profiles(path).values()), ConsistencyProfile,
                 [{"annotator_id": "a0", "temp": 0.5, "routing": "use_as_signal"},
                  {"annotator_id": "a1", "routing": None}]),
    "ratios": (cli.load_ratio_records, RatioRecord,
               [{"annotator_id": "a0", "theme": "harm", "n_items": 5, "var_within": 1, "baseline": 2.0, "ratio": 0.5,
                 "resamples_used": 100, "seed": 7}]),
}


@pytest.mark.parametrize("first", ["loader", "read_rows"])
@pytest.mark.parametrize("kind", LOADED)
def test_read_rows_gives_what_the_cli_loader_gives_from_one_sidecar(tmp_path, monkeypatch, kind, first):
    """Whichever reads a file first parses it and keeps the sidecar that the other
    then reads, unchanged; and each reads a writer's sidecar as the other does."""
    load, cls, rows = LOADED[kind]
    path = tmp_path / f"{kind}.jsonl"
    _write_jsonl(path, [{"#config": {}}, *rows])
    reads = [load, lambda path: records_module.read_rows(path, cls)]
    parse, hit = reads if first == "loader" else reversed(reads)
    with monkeypatch.context() as patch:
        if kind != "flags":  # a flat type's rows build by chunk, read rule included
            patch.setattr(records_module, "from_row", _refuse)
        parsed = parse(path)
    sidecar = _sidecar(path).read_bytes()
    (tmp_path / "written").mkdir()
    written = WRITTEN[kind][0](tmp_path / "written")
    monkeypatch.setattr(records_module, "iter_jsonl", _refuse)
    monkeypatch.setattr(records_module, "from_row", _refuse)
    assert repr(hit(path)) == repr(parsed)
    assert _sidecar(path).read_bytes() == sidecar
    assert repr(load(written)) == repr(records_module.read_rows(written, cls))  # the writer's sidecar


def test_flags_over_one_pair_share_it_across_chunks(tmp_path):
    """A parse builds flags a row at a time and shares a pair across the whole file,
    as does a read of the sidecar that it, or the writer, keeps."""
    n = 2 * records_module._CHUNK_ROWS + 1
    path = tmp_path / "flags.jsonl"
    _write_jsonl(path, [{"#config": {}}, *({**_FLAG_CELLS, "annotator_id": f"a{i}", "pair_id": "i1|i2",
                                            "item_a": "i1", "item_b": "i2"} for i in range(n))])
    written = tmp_path / "written.jsonl"  # a new pair object per flag, all equal
    flags = [InconsistencyFlag(f"a{i}", PromptPair("i1|i2", "i1", "i2"), 10.0, 40.0, 30.0, 15.0) for i in range(n)]
    cli._write_jsonl(str(written), {}, flags, InconsistencyFlag, kept=True)
    for read in (path, path, written):  # a parse, then its sidecar; the writer's sidecar
        flags = cli.load_flags(read)
        assert len(flags) == n and len({id(flag.pair) for flag in flags}) == 1


# A forgery of each written sidecar that passes every check, but is not the file's.
_VALID_WRITTEN_FORGERIES = {
    "flags": (_in_pair_table(_set_cell(PromptPair, "rationale_tag", "forged")),
              lambda flags: flags[0].pair.rationale_tag),
    "pairs": (_set_cell(PromptPair, "similarity", -0.5), lambda pairs: pairs[0].similarity),
    "profiles": (_set_cell(ConsistencyProfile, "cross", 0.75), lambda profiles: profiles["a0"].cross),
    "ratios": (_set_cell(RatioRecord, "n_items", 9), lambda ratios: ratios[0].n_items),
}


@pytest.mark.parametrize("kind", WRITTEN)
def test_a_forged_written_sidecar_that_passes_every_check_is_used(tmp_path, kind):
    """The control for the forgeries below: each is refused for its bad value alone."""
    write, load = WRITTEN[kind]
    path = write(tmp_path)
    change, read = _VALID_WRITTEN_FORGERIES[kind]
    _forge_rows(path, change)
    assert read(load(path)) in ("forged", -0.5, 0.75, 9)


WRITTEN_FORGERIES = {
    "flags": {
        "pair index out of range": _set_pair_index(2),
        "negative pair index": _set_pair_index(-1),
        "True as a pair index": _set_pair_index(True),
        "identical pair of similarity 0.5": _in_pair_table(_set_cell(PromptPair, "similarity", 0.5, at=1)),
        "directional pair with no direction": _in_pair_table(lambda c: _set_cell(PromptPair, "kind", "directional")(
            _set_cell(PromptPair, "expected_direction", None)(c))),
        "mistyped column": _set_cell(InconsistencyFlag, "score_a", "10.0", at=-1),
        "negative delta": _set_cell(InconsistencyFlag, "delta", -1.0),
        "short column": _set_cell(InconsistencyFlag, "delta", (), at=slice(0, 1)),
    },
    "pairs": {
        "identical pair of similarity 0.5": lambda c: _set_cell(PromptPair, "kind", "identical")(
            _set_cell(PromptPair, "similarity", 0.5)(c)),
        "directional pair with no direction": lambda c: _set_cell(PromptPair, "kind", "directional")(
            _set_cell(PromptPair, "expected_direction", None)(c)),
        "equivalent pair with no direction": _set_cell(PromptPair, "expected_direction", None),
        "mistyped column": _set_cell(PromptPair, "similarity", 1, at=-1),
        "unknown pair kind": _set_cell(PromptPair, "kind", "opposite"),
    },
    "profiles": {
        "mistyped column": _set_cell(ConsistencyProfile, "n_temp_pairs", 1.0),
        "reliability out of [0, 1]": _set_cell(ConsistencyProfile, "reliability", 1.5),
        "missing required": _set_cell(ConsistencyProfile, "annotator_id", None),
    },
    "ratios": {
        "mistyped column": _set_cell(RatioRecord, "n_items", True),
        "negative ratio": _set_cell(RatioRecord, "ratio", -0.5),
        "null seed": lambda c: (*c[:7], None, c[8]),
    },
}


@pytest.mark.parametrize("kind, forgery", [(k, name) for k in WRITTEN_FORGERIES for name in WRITTEN_FORGERIES[k]])
def test_a_written_sidecar_that_fails_a_parse_check_is_not_used(tmp_path, monkeypatch, kind, forgery):
    write, load = WRITTEN[kind]
    path = write(tmp_path)
    expected = repr(load(path))
    _forge_rows(path, WRITTEN_FORGERIES[kind][forgery])
    calls = _parse_count(monkeypatch)
    assert repr(load(path)) == expected
    assert calls == [1]


_COLUMN_SCORES = st.one_of(
    st.floats(min_value=-1.0, max_value=101.0),
    st.sampled_from([0.0, 1.0, 5.0, 100.0, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["A", "B", "C"]),
)


@settings(deadline=None, max_examples=300)
@given(
    scale=st.sampled_from(records_module.SCALE_KINDS + ("unknown",)),
    cells=st.lists(st.tuples(
        _COLUMN_SCORES,
        st.one_of(st.none(), st.integers(-2, 3)),
        st.one_of(st.none(), st.floats(min_value=-1.0, max_value=3.0), st.sampled_from([float("nan"), float("inf")])),
    ), min_size=1, max_size=5),
)
def test_the_column_check_accepts_exactly_the_columns_every_record_accepts(scale, cells):
    def built(score, position, weight):
        try:
            return AnnotationRecord("r", "a", "i", "p", score, scale, position_index=position, weight=weight)
        except DataFormatError:
            return None

    expected = [built(*cell) for cell in cells]
    scores, positions, weights = zip(*cells)
    given_fields = {
        "record_id": ("r",) * len(cells), "annotator_id": ("a",) * len(cells), "item_id": ("i",) * len(cells),
        "prompt_text": ("p",) * len(cells), "score": scores, "scale_kind": (scale,) * len(cells),
        "position_index": None if set(positions) == {None} else positions,
        "weight": None if set(weights) == {None} else weights,
    }
    columns = tuple(given_fields.get(name) for name in records_module._RECORD_FIELDS)
    loaded = records_module._records_from_columns(columns, scale, None)
    if None in expected:
        assert loaded is None
    else:
        assert loaded == expected and all(type(r) is AnnotationRecord for r in loaded)


def test_to_json_encodes_a_nested_dataclass_as_its_row():
    t_vs_one = stats.TestResult(statistic=2.5, p_value=0.03, df=9.0, kind="one_sample")
    report = PopulationReport(
        n_annotators=4, median_ratio=0.8, t_vs_one=t_vs_one, median_split=None,
        mean_diff_low_minus_high=None, pearson_r_ratio_vs_rating=0.5, n_low=2, n_high=2,
    )
    row = to_row(report)
    assert list(row) == [f.name for f in fields(PopulationReport)]
    assert row["t_vs_one"] is t_vs_one  # shallow: nested dataclasses are left to the encoder
    assert to_json(report) == to_json({
        "n_annotators": 4, "median_ratio": 0.8,
        "t_vs_one": {"statistic": 2.5, "p_value": 0.03, "df": 9.0, "kind": "one_sample"},
        "median_split": None, "mean_diff_low_minus_high": None,
        "pearson_r_ratio_vs_rating": 0.5, "n_low": 2, "n_high": 2,
    })


def test_to_json_encodes_a_set_sorted_and_nothing_else_it_has_no_form_for():
    assert to_json({"labels": frozenset({"b", "c", "a"})}) == '{"labels": ["a", "b", "c"]}'
    assert to_json({"b", "a"}) == '["a", "b"]'
    for value in (object(), stats.TestResult, 1j):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            to_json(value)


@dataclass(frozen=True)
class _Leaf:
    """A row object held by ``_Outer``, whose fields sort first and in between its own."""

    aa: object
    d: object = None


@dataclass(frozen=True)
class _Outer:
    b: object
    leaf: _Leaf
    c: object
    e: object = None


_ODD_TEXT = st.text() | st.sampled_from(["naïve café", "雪\U0001f600", "\udc80x", "\ud800", '"quoted" and \\ back\n', ""])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(10**18, 10**40).map(lambda v: -v), st.floats(), _ODD_TEXT,
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
                     np.float64(2.5), np.float64("nan"), np.int64(3)]),
)
_ANY = _SCALARS | st.tuples(_ODD_TEXT, _ODD_TEXT) | st.lists(_SCALARS, max_size=3) | st.lists(_ODD_TEXT, max_size=2).map(tuple) \
    | st.frozensets(_ODD_TEXT, max_size=3) | st.builds(_Leaf, _SCALARS, _SCALARS) | st.tuples(_SCALARS)
# What one column holds: one type (each fast way of the encoder), one type or None, or any mix.
_COLUMNS = [
    st.floats(), st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.integers(-10**40, 10**40),
    _ODD_TEXT, st.none() | _ODD_TEXT, st.none() | st.floats(), st.none() | st.integers(),
    st.tuples(_ODD_TEXT, _ODD_TEXT), st.none() | st.lists(_ODD_TEXT, max_size=3).map(tuple),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0]), st.none(), _ANY,
]
# a row count of no row, one row and either side of a chunk's end
_ROW_COUNTS = st.sampled_from([0, 1, 2, 7, records_module._CHUNK_ROWS, records_module._CHUNK_ROWS + 1])


def _expected_lines(rows: list[dict], nulls: bool) -> str:
    return "".join(to_json({k: v for k, v in row.items() if nulls or v is not None}) + "\n" for row in rows)


def _written(path, rows, cls=None, **options) -> str:
    records_module.write_jsonl(path, rows, cls, **options)
    return path.read_text(encoding="utf-8", errors="surrogatepass")


@settings(deadline=None, max_examples=150)
@seed(20261020)
@given(data=st.data(), nulls=st.booleans(), n=_ROW_COUNTS,
       keys=st.lists(st.sampled_from(["a", "b", "zz", "50%", "ключ", "k\"q", "%s"]), min_size=1, max_size=4, unique=True))
def test_the_column_encoder_writes_to_json_of_each_row(tmp_path_factory, data, nulls, n, keys):
    """Dict rows, read through ``columns``: the key order is sorted, ``%`` in a key is
    literal, and ``1``/``1.0``/``True`` and ``0.0``/``-0.0`` keep their own text."""
    kinds = {key: data.draw(st.sampled_from(_COLUMNS)) for key in keys}
    pool = data.draw(st.lists(st.fixed_dictionaries({key: kinds[key] for key in keys}), min_size=1, max_size=6))
    rows = [pool[i * 5 % len(pool)] for i in range(n)]
    path = tmp_path_factory.mktemp("encoded") / "rows.jsonl"
    columns = {key: itemgetter(key) for key in keys}
    assert _written(path, rows, columns=columns, nulls=nulls) == _expected_lines(rows, nulls)


@settings(deadline=None, max_examples=100)
@seed(20261021)
@given(data=st.data(), nulls=st.booleans(), n=_ROW_COUNTS)
def test_the_column_encoder_inlines_a_nested_row_object(tmp_path_factory, data, nulls, n):
    """A field holding a row object gives its fields in its place, each distinct object
    encoded once: equal objects and the same object in runs or interleaved."""
    leaves = data.draw(st.lists(st.builds(_Leaf, data.draw(st.sampled_from(_COLUMNS)), data.draw(st.sampled_from(_COLUMNS))),
                                min_size=1, max_size=3))
    leaves += [replace(leaf) for leaf in leaves]  # equal, and other objects
    column = {name: data.draw(st.sampled_from(_COLUMNS)) for name in ("b", "c", "e")}
    pool = [_Outer(data.draw(column["b"]), data.draw(st.sampled_from(leaves)), data.draw(column["c"]), data.draw(column["e"]))
            for _ in range(data.draw(st.integers(1, 6)))]
    rows = [pool[i * 5 % len(pool)] for i in range(n)]
    path = tmp_path_factory.mktemp("encoded") / "rows.jsonl"
    flat = [{**{k: v for k, v in to_row(row).items() if k != "leaf"}, **to_row(row.leaf)} for row in rows]
    assert _written(path, rows, _Outer, nulls=nulls) == _expected_lines(flat, nulls)
    # a column replaces a field, and a None drops one
    extra = {"c": attrgetter("e"), "e": None, "new": attrgetter("b")}
    flat = [{**row, "c": row["e"], "new": row["b"]} for row in flat]
    for row in flat:
        del row["e"]
    assert _written(path, rows, _Outer, columns=extra, nulls=nulls, header={"#config": {}}) == \
        to_json({"#config": {}}) + "\n" + _expected_lines(flat, nulls)


def test_the_column_encoder_raises_what_to_json_raises(tmp_path):
    loop: list = []
    loop.append(loop)
    for value, error in ((loop, ValueError), (object(), TypeError), (1j, TypeError)):
        with pytest.raises(error) as expected:
            to_json({"value": value})
        with pytest.raises(error) as raised:
            records_module.write_jsonl(tmp_path / "rows.jsonl", [{"value": 1.0}] * 3 + [{"value": value}],
                                       columns={"value": itemgetter("value")})
        assert str(raised.value) == str(expected.value)


def test_a_row_writer_with_no_row_type_and_no_columns_is_refused(tmp_path):
    """Such rows would each be written ``{}``: the writer raises and opens no file."""
    path = tmp_path / "rows.jsonl"
    for columns in (None, {}):
        with pytest.raises(TypeError, match="row type or columns"):
            records_module.write_jsonl(path, [{"value": 1.0}], columns=columns)
    assert not path.exists()
