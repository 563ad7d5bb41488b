"""Ingest: loaders, validation report, round-trip, conservation."""

import hashlib
import json
import marshal
import os
import pickle
import random
import re
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from conftest import dataset_of, rec
from prefaudit import records as records_module
from prefaudit import stats
from prefaudit.cli import run
from prefaudit.errors import DataFormatError
from prefaudit.records import (
    AnnotationRecord,
    Dataset,
    EmbeddingTable,
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
from prefaudit.ratio import PopulationReport


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


def test_a_same_size_edit_is_parsed_again(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(i) for i in range(3)])
    load_records(path)
    size = path.stat().st_size
    path.write_text(path.read_text().replace('"score": 50.0', '"score": 51.0', 1), encoding="utf-8")
    assert path.stat().st_size == size
    assert [r.score for r in load_records(path).records] == [51.0, 50.0, 50.0]


@pytest.mark.parametrize("damage", ["truncated", "random bytes", "directory"])
def test_a_bad_sidecar_gives_a_normal_load(tmp_path, damage):
    path = _lenient_corpus(tmp_path)
    expected = load_records(path)
    sidecar = _sidecar(path)
    if damage == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-40])
    elif damage == "random bytes":
        sidecar.write_bytes(random.Random(3).randbytes(2000))
    else:
        sidecar.unlink()
        sidecar.mkdir()
    dataset = load_records(path)
    assert (dataset.records, dataset.rejected) == (expected.records, expected.rejected)


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


def test_the_record_twin_matches_annotation_records_layout():
    """A field added to AnnotationRecord alone would show here, before any load fails."""
    twin = records_module._RecordTwin
    assert twin.__slots__ == AnnotationRecord.__slots__
    assert [(f.name, f.default) for f in fields(twin)] == [(f.name, f.default) for f in fields(AnnotationRecord)]
    assert not twin.__dataclass_params__.frozen


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


@pytest.mark.parametrize("who", ["another user", "group-writable", "world-writable", "symlink", "fifo"])
def test_a_sidecar_that_is_not_the_users_own_file_is_not_used(tmp_path, monkeypatch, who):
    path = _lenient_corpus(tmp_path)
    expected = load_records(path)
    sidecar = _sidecar(path)
    _forge(path, ("jsonl", None), lambda c, r, s: (_set(c, "score", 99.0), r, s))  # valid, but not the file's
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
    dataset = load_records(path)
    assert calls == [1]
    assert (dataset.records, dataset.rejected) == (expected.records, expected.rejected)


def test_an_unexpected_error_reading_the_sidecar_means_a_parse(tmp_path, monkeypatch):
    path = _lenient_corpus(tmp_path)
    expected = load_records(path)

    def broken(*args):
        raise AttributeError("no such hash")

    monkeypatch.setattr(records_module, "_file_sha256", broken)
    assert load_records(path).records == expected.records


def test_a_sidecar_is_not_written_for_a_failed_load_or_a_pipe(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [_row(0), _row(1, score=150.0)])
    with pytest.raises(DataFormatError):
        load_records(path, strict=True)
    assert not _sidecar(path).exists()
    read, write = os.pipe()
    with os.fdopen(write, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_row(0)) + "\n")
    assert len(load_records(f"/dev/fd/{read}").records) == 1
    os.close(read)


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
