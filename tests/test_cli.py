"""CLI: exit codes, config echo, subcommand pipelines, report rendering."""

import argparse
import collections
import compileall
import csv
import gc
import json
import marshal
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import flag_row
from prefaudit import cli, pairing, records
from prefaudit.cli import load_flags, load_profiles, run
from prefaudit.errors import DataFormatError
from prefaudit.pairing import InconsistencyFlag, PromptPair
from prefaudit.records import load_metadata, load_records


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def _records_rows():
    """Four structured annotators (tight on themed items, ratio << 1) and four
    unstructured ones (wild everywhere, ratio ~ 1 and inconsistent repeats)."""
    rows = []
    rid = 0

    def add(annotator, item, session, score):
        nonlocal rid
        rows.append(
            {
                "record_id": f"r{rid:03d}",
                "annotator_id": annotator,
                "item_id": item,
                "prompt_text": f"prompt {item}",
                "response_text": f"resp {item}",
                "model_id": "m1",
                "score": score,
                "scale_kind": "continuous_0_100",
                "session_id": f"{annotator}-{session}",
            }
        )
        rid += 1

    for i in range(4):
        structured = f"s{i}"
        for j, item in enumerate(("i1", "i2", "i3")):
            add(structured, item, "s1", 60.0 + (i % 2) + j)
            add(structured, item, "s2", 62.0 + (i % 2) + j)
        add(structured, "i4", "s1", 5.0 + i)
        add(structured, "i4", "s2", 5.0 + i)
        unstructured = f"u{i}"
        for j, item in enumerate(("i1", "i2", "i3", "i4")):
            add(unstructured, item, "s1", 5.0 + i + j)
            add(unstructured, item, "s2", 95.0 - i - j)
    return rows


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, _records_rows())
    return path


@pytest.fixture
def metadata_path(tmp_path):
    path = tmp_path / "meta.jsonl"
    _write_jsonl(
        path,
        [
            {"item_id": item, "theme_labels": ["harm"], "content_type": "A1_generic",
             "plausible_pref": "E1_implausible"}
            for item in ("i1", "i2", "i3")
        ],
    )
    return path


def test_validate_subcommand(dataset_path, tmp_path):
    out = tmp_path / "report.json"
    code = run(["validate", "--input", str(dataset_path), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["n_records"] == 64
    assert payload["result"]["n_repeat_groups"] == 32
    assert payload["config"]["cmd"] == "validate"


def test_validate_report_format(dataset_path, tmp_path):
    out = tmp_path / "report.txt"
    assert run(["validate", "--input", str(dataset_path), "--output", str(out), "--format", "report"]) == 0
    text = out.read_text()
    assert "Dataset validation" in text and "n_records" in text


def test_lenient_validate_reports_rejected_rows_by_reason(tmp_path):
    rows = _records_rows()
    for i, weight in ((3, -4.0), (5, -4.0), (7, float("nan"))):
        rows[i]["weight"] = weight
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, rows)
    out = tmp_path / "report.json"
    assert run(["validate", "--input", str(path), "--output", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert (result["n_records"], result["n_rejected"]) == (61, 3)
    assert result["rejected_by_reason"] == {
        "weight must be finite and >= 0, got -4.0": 2,
        "weight must be finite and >= 0, got nan": 1,
    }
    assert run(["validate", "--input", str(path), "--output", str(out), "--format", "report"]) == 0
    text = out.read_text()
    assert "n_rejected            3\n" in text
    assert text.endswith(
        "rejected: 2 rows: weight must be finite and >= 0, got -4.0\n"
        "rejected: 1 rows: weight must be finite and >= 0, got nan\n"
    )


def test_unknown_flag_usage_error(dataset_path):
    assert run(["validate", "--input", str(dataset_path), "--bogus"]) == 1


def test_no_subcommand_usage_error():
    assert run([]) == 1


def test_missing_file_runtime_error(tmp_path):
    assert run(["validate", "--input", str(tmp_path / "absent.jsonl")]) == 3


def test_missing_config_file_runtime_error(tmp_path, capsys):
    assert run(["validate", "--config", str(tmp_path / "absent.cfg"), "--input", "x.jsonl"]) == 3
    assert capsys.readouterr().err.startswith("runtime error: ")


def test_unexpected_exception_is_a_one_line_runtime_error(dataset_path, monkeypatch, capsys, caplog):
    def broken(args):
        raise KeyError("annotator_id")

    monkeypatch.setattr("prefaudit.cli._cmd_validate", broken)
    caplog.set_level("DEBUG", logger="prefaudit")
    assert run(["validate", "--input", str(dataset_path)]) == 3
    err = capsys.readouterr().err
    assert err == "runtime error: KeyError('annotator_id')\n"
    assert [r.exc_info[0] for r in caplog.records] == [KeyError]  # the traceback is logged


def test_non_string_ids_rejected_at_load(tmp_path):
    rows = [
        {"record_id": f"r{i}", "annotator_id": 7 if i % 2 else "a1", "item_id": f"i{i // 2}",
         "prompt_text": "p", "score": 10.0 * i, "scale_kind": "continuous_0_100"}
        for i in range(6)
    ]
    path = tmp_path / "ids.jsonl"
    _write_jsonl(path, rows)
    dataset = load_records(path)
    assert [r.line_no for r in dataset.rejected] == [2, 4, 6]
    assert all("annotator_id must be a string" in r.reason for r in dataset.rejected)
    out = tmp_path / "profiles.jsonl"
    assert run(["diagnose", "--input", str(path), "--output", str(out)]) == 0
    assert list(load_profiles(out)) == ["a1"]
    assert run(["diagnose", "--input", str(path), "--strict", "--output", str(out)]) == 2


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("theme_labels", "harm", "theme_labels must be a list of strings"),
        ("theme_labels", ["harm", 3], "theme_labels must be a list of strings"),
        ("value_dimension", 3, "value_dimension must be a string"),
    ],
)
def test_mistyped_metadata_is_a_data_error(dataset_path, tmp_path, capsys, field, value, reason):
    meta = tmp_path / "meta.jsonl"
    _write_jsonl(meta, [{"item_id": "i1", "theme_labels": ["harm"], "value_dimension": "care"},
                        {"item_id": "i2", field: value}])
    with pytest.raises(DataFormatError, match=f"line 2: {reason}"):
        load_metadata(meta)
    code = run(["ratio", "--input", str(dataset_path), "--metadata", str(meta),
                "--output", str(tmp_path / "ratios.jsonl")])
    assert code == 2
    assert f"line 2: {reason}" in capsys.readouterr().err


def test_invalid_data_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [{"record_id": "r0", "annotator_id": "a", "item_id": "i",
                        "prompt_text": "p", "score": 500.0, "scale_kind": "continuous_0_100"}])
    assert run(["validate", "--input", str(bad)]) == 2


_ARTIFACT_ROWS = {
    # flag: (subcommand reading it, a valid row, a required field of that row,
    #        fields of that row, each with a value it does not admit)
    "--pairs": ("diagnose", {"item_a": "i1", "item_b": "i2"}, "item_a",
                [("similarity", "high"), ("similarity", "0.5"), ("similarity", True),
                 ("similarity", 5.0), ("similarity", -7.0), ("similarity", float("nan"))]),
    "--flags": ("classify", {"item_a": "i1", "item_b": "i2", "annotator_id": "u0", "score_a": 5.0,
                             "score_b": 95.0, "delta": 90.0, "threshold_used": 15.0}, "annotator_id",
                [("delta", "wide"), ("score_a", "0.5"), ("score_a", True),
                 ("similarity", 5.0), ("similarity", -7.0), ("similarity", float("nan"))]),
    "--profiles": ("weights", {"annotator_id": "s0", "temp": 1.0}, "annotator_id",
                   [("n_temp_pairs", "7"), ("reliability", float("nan")), ("temp", -4.0), ("cross", float("inf"))]),
    "--ratios": ("simulate", {"annotator_id": "s0", "theme": "harm", "n_items": 3, "var_within": 1.0,
                              "baseline": 2.0, "ratio": 0.5, "resamples_used": 10, "seed": 0}, "theme",
                 [("ratio", "x"), ("ratio", -3.0), ("ratio", float("inf")), ("ratio", float("nan")),
                  ("var_within", -1.0), ("baseline", float("nan"))]),
}


@pytest.mark.parametrize(
    "defect", ["invalid JSON", "non-object line", "unknown field", "missing field", "mistyped field"]
)
@pytest.mark.parametrize("flag", list(_ARTIFACT_ROWS))
def test_bad_intermediate_row_is_a_data_error_naming_its_line(dataset_path, tmp_path, capsys, flag, defect):
    cmd, row, required, mistyped = _ARTIFACT_ROWS[flag]
    cases = {
        "invalid JSON": [('{"item_a": ', "invalid JSON")],
        "non-object line": [(json.dumps([row]), "row is not an object")],
        "unknown field": [(json.dumps({**row, "bogus": 1}), "bogus")],
        "missing field": [(json.dumps({k: v for k, v in row.items() if k != required}), required)],
        "mistyped field": [(json.dumps({**row, field: value}), repr(value)) for field, value in mistyped],
    }[defect]
    for line, reason in cases:
        artifact = tmp_path / "artifact.jsonl"
        artifact.write_text(json.dumps({"#config": {}}) + "\n" + line + "\n", encoding="utf-8")
        argv = [cmd, "--input", str(dataset_path), flag, str(artifact), "--output", str(tmp_path / "out")]
        if cmd == "weights":
            argv += ["--summary-output", str(tmp_path / "summary.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "line 2: " in err[0] and reason in err[0]


@pytest.mark.parametrize("flag", ["--pairs", "--flags"])
def test_an_identical_pair_with_a_nan_similarity_is_a_data_error_naming_its_line(dataset_path, tmp_path, capsys, flag):
    cmd, row, _, _ = _ARTIFACT_ROWS[flag]
    artifact = tmp_path / "artifact.jsonl"
    _write_jsonl(artifact, [{"#config": {}}, {**row, "kind": "identical", "similarity": float("nan")}])
    assert run([cmd, "--input", str(dataset_path), flag, str(artifact), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {artifact}: line 2: ") and "similarity" in err and "nan" in err


def test_a_zero_embedding_vector_is_a_data_error_naming_its_line(dataset_path, tmp_path, capsys):
    embeddings = tmp_path / "emb.jsonl"
    _write_jsonl(embeddings, [{"item_id": "i1", "vector": [1.0, 0.0]}, {"item_id": "i2", "vector": [0.0, 0.0]}])
    assert run(["pairs", "--input", str(dataset_path), "--embeddings", str(embeddings)]) == 2
    assert capsys.readouterr().err == f"data error: {embeddings}: line 2: embedding for 'i2' is a zero vector\n"


@pytest.mark.parametrize("flag, cmd, row", [
    ("--metadata", "validate", {"theme_labels": ["harm"]}),
    ("--embeddings", "pairs", {"vector": [1.0, 0.0]}),
])
def test_a_repeated_item_id_is_a_data_error_naming_both_lines(dataset_path, tmp_path, capsys, flag, cmd, row):
    table = tmp_path / "table.jsonl"
    _write_jsonl(table, [{"item_id": item, **row} for item in ("i1", "i2", "i3", "i4", "i2")])
    assert run([cmd, "--input", str(dataset_path), flag, str(table), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"data error: {table}: line 5: item_id 'i2' repeats line 2\n"


def test_a_repeated_profile_annotator_is_a_data_error_naming_both_lines(dataset_path, tmp_path, capsys):
    """Two profiles of one annotator are refused, not read as the last of them."""
    profiles = tmp_path / "profiles.jsonl"
    _write_jsonl(profiles, [{"annotator_id": "a0", "reliability": 0.9}, {"annotator_id": "a0", "reliability": 0.1}])
    code = run(["weights", "--input", str(dataset_path), "--profiles", str(profiles),
                "--output", str(tmp_path / "w.jsonl"), "--summary-output", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {profiles}: line 2: annotator_id 'a0' repeats line 1\n"
    assert not (tmp_path / "w.jsonl").exists()


def test_weights_with_both_outputs_on_stdout_is_a_usage_error(tmp_path, capsys):
    # exits before the input is read: a missing input would exit 3
    assert run(["weights", "--input", str(tmp_path / "absent.jsonl")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: --output and --summary-output both write to standard output")


def test_bad_csv_profile_cell_is_a_data_error_naming_its_line(dataset_path, tmp_path, capsys):
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("# config: {}\r\nannotator_id,temp,n_temp_pairs\r\ns0,abc,4\r\n", encoding="utf-8")
    code = run(["weights", "--input", str(dataset_path), "--profiles", str(profiles),
                "--output", str(tmp_path / "w.jsonl"), "--summary-output", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {profiles}: line 3: non-numeric temp 'abc'\n"


def test_repeats_then_classify_pipeline(dataset_path, metadata_path, tmp_path):
    flags = tmp_path / "flags.jsonl"
    report = tmp_path / "repeats.json"
    code = run([
        "repeats", "--input", str(dataset_path),
        "--flags-output", str(flags), "--output", str(report),
    ])
    assert code == 0
    summary = json.loads(report.read_text())["result"]["summary"]
    assert summary["n_inconsistent_pairs"] == 16  # every unstructured repeat swings wide
    assert summary["n_annotators_flagged"] == 4

    labels_out = tmp_path / "labels.jsonl"
    classify_report = tmp_path / "classify.json"
    code = run([
        "classify", "--input", str(dataset_path), "--metadata", str(metadata_path),
        "--flags", str(flags), "--labels-output", str(labels_out),
        "--output", str(classify_report),
    ])
    assert code == 0
    rows = [json.loads(line) for line in labels_out.read_text().splitlines()]
    labels = [r["label"] for r in rows if "#config" not in r]
    assert labels.count("non_attitude") == 12  # generic/implausible themed items
    assert labels.count("constructed_preference") == 4  # uncoded i4 falls through
    result = json.loads(classify_report.read_text())["result"]
    assert result["rows"][0]["label"] == "non_attitude"
    assert result["rows"][0]["n"] == 12


def _unshared_flags(path):
    """Each flag row of ``path`` built on its own, its pair included."""
    own = ("annotator_id", "score_a", "score_b", "delta", "threshold_used")
    flags = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        row = json.loads(line)
        pair = records.from_row(PromptPair, {k: v for k, v in row.items() if k not in own})
        flags.append(records.from_row(InconsistencyFlag, {**{k: row[k] for k in own}, "pair": pair}))
    return flags


def test_loaded_flags_share_one_pair_per_distinct_pair(dataset_path, tmp_path):
    flags_path = tmp_path / "flags.jsonl"
    assert run(["repeats", "--input", str(dataset_path), "--flags-output", str(flags_path),
                "--output", str(tmp_path / "report.json")]) == 0
    flags = load_flags(flags_path)
    assert len(flags) == 16
    assert len({id(f.pair) for f in flags}) == len({f.pair for f in flags}) == 4
    assert flags == _unshared_flags(flags_path)


def test_pair_rows_differing_in_sign_of_zero_or_type_share_no_pair(tmp_path):
    row = {"item_a": "i1", "item_b": "i2", "pair_id": "i1|i2", "annotator_id": "u0",
           "score_a": 5.0, "score_b": 95.0, "delta": 90.0, "threshold_used": 15.0}
    path = tmp_path / "flags.jsonl"
    _write_jsonl(path, [{"#config": {}}, {**row, "similarity": 0.0}, {**row, "similarity": -0.0}])
    flags = load_flags(path)
    assert flags[0].pair is not flags[1].pair
    assert [math.copysign(1.0, f.pair.similarity) for f in flags] == [1.0, -1.0]
    _write_jsonl(path, [{"#config": {}}, {**row, "similarity": 1.0}, {**row, "similarity": True}])
    with pytest.raises(DataFormatError, match="line 3: non-numeric similarity True"):
        load_flags(path)


_PAIR_FIELDS = {"pair_id": "i1|i2", "item_a": "i1", "item_b": "i2", "similarity": 0.5, "kind": "equivalent",
                "expected_direction": "equal", "rationale_tag": None}


@st.composite
def _flag_file_rows(draw):
    """Flag rows over two pairs, each row's pair fields drawn in one of a few
    similarity spellings and key orders; runs of one pair and interleaved rows alike."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        pair = dict(_PAIR_FIELDS)
        if draw(st.booleans()):
            pair.update(pair_id="i3|i4", item_a="i3", item_b="i4")
        pair["similarity"] = draw(st.sampled_from([1, 1.0, 0.0, -0.0, 0, 0.5]))
        names = draw(st.sampled_from([list(pair), list(reversed(pair)), ["pair_id", "item_b", "item_a",
                                                                          "similarity", "kind", "expected_direction", "rationale_tag"]]))
        own = {"annotator_id": draw(st.sampled_from(["u0", "u1"])), "score_a": 5.0, "score_b": 95.0,
               "delta": 90.0, "threshold_used": 15.0}
        rows.append({**own, **{name: pair[name] for name in names}} if draw(st.booleans())
                    else {**{name: pair[name] for name in names}, **own})
    return rows


@settings(deadline=None, max_examples=200)
@seed(20261019)
@given(rows=_flag_file_rows())
def test_loaded_flags_share_a_pair_exactly_where_pair_fields_match_in_name_order_type_and_value(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("flags") / "flags.jsonl"
    _write_jsonl(path, [{"#config": {}}, *rows])
    flags = load_flags(path)
    assert repr(flags) == repr(_unshared_flags(path))  # a repr tells -0.0 from 0.0
    own = ("annotator_id", "score_a", "score_b", "delta", "threshold_used")
    keys = [tuple((k, repr(v)) for k, v in row.items() if k not in own) for row in rows]
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (flags[i].pair is flags[j].pair) == (keys[i] == keys[j]), (rows[i], rows[j])


def test_flag_rows_without_pair_id_share_the_pair_built_from_the_first(tmp_path):
    pair = {k: v for k, v in _PAIR_FIELDS.items() if k != "pair_id"}
    own = {"annotator_id": "u0", "score_a": 5.0, "score_b": 95.0, "delta": 90.0, "threshold_used": 15.0}
    path = tmp_path / "flags.jsonl"
    _write_jsonl(path, [{"#config": {}}, {**own, **pair}, {**own, **pair, "annotator_id": "u1"}])
    flags = load_flags(path)
    assert flags[0].pair is flags[1].pair
    assert flags[0].pair.pair_id == "i1|i2"
    _write_jsonl(path, [{"#config": {}}, {**own, **pair, "similarity": 1}, {**own, **pair, "similarity": True}])
    with pytest.raises(DataFormatError, match="line 3: non-numeric similarity True"):
        load_flags(path)


def _smoke_corpus(workload, corpus, monkeypatch):
    """The benchmark's smoke corpus of ``workload`` in ``corpus``, its ``repeats`` stage run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpora
    import workloads

    corpora.build(workload, "smoke", 1, corpus)
    stage = next(s for s in workloads.STAGES[workload] if s[0] == "repeats")
    assert run(workloads.stage_argv(stage, corpus)) == 0


@pytest.mark.parametrize("workload", ["audit-sparse", "jury-dense"])
def test_the_flags_writer_writes_the_bytes_of_one_flag_row_per_flag(tmp_path, monkeypatch, workload):
    _smoke_corpus(workload, tmp_path, monkeypatch)
    config = json.loads((tmp_path / "flags.jsonl").read_text().splitlines()[0])["#config"]
    flags = load_flags(tmp_path / "flags.jsonl")
    assert len(flags) >= len({f.pair for f in flags}) > 1
    interleaved = random.Random(5).sample(flags, len(flags))
    for order in (flags, interleaved):
        cli._write_jsonl(str(tmp_path / "rows.jsonl"), config, order, InconsistencyFlag)
        reference = [records.to_json({"#config": config}), *map(records.to_json, map(flag_row, order))]
        assert (tmp_path / "rows.jsonl").read_text() == "\n".join(reference) + "\n"


def test_a_csv_copy_of_a_flags_file_loads_equal_to_it(tmp_path, monkeypatch):
    """A flags CSV row's pair cells are typed by ``PromptPair``'s fields."""
    _smoke_corpus("jury-dense", tmp_path, monkeypatch)
    lines = (tmp_path / "flags.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    with (tmp_path / "flags.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write(records.CONFIG_PREFIX + json.dumps(json.loads(lines[0])["#config"]) + "\r\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    original = load_flags(tmp_path / "flags.jsonl")
    assert len(original) > len({f.pair for f in original}) > 1
    copy = load_flags(tmp_path / "flags.csv")
    assert repr(copy) == repr(original)  # a repr tells -0.0 from 0.0 and 1 from 1.0
    first_with_pair = [[next(i for i, g in enumerate(flags) if g.pair is f.pair) for f in flags]
                       for flags in (copy, original)]
    assert first_with_pair[0] == first_with_pair[1]


def test_loading_repeats_flags_builds_each_distinct_pair_once(tmp_path, monkeypatch):
    """A flags file holds many flags per pair; building a pair per flag would cost
    a ``from_row`` of a ``PromptPair`` each."""
    _smoke_corpus("jury-dense", tmp_path, monkeypatch)
    path = tmp_path / "flags.jsonl"
    _sidecar(path).unlink()  # a parse, not a read of the sidecar ``repeats`` left
    distinct = {json.loads(line)["pair_id"] for line in path.read_text(encoding="utf-8").splitlines()[1:]}
    calls = []
    build = records.from_row

    def counted(cls, row):
        calls.extend([cls] if cls is PromptPair else [])
        return build(cls, row)

    monkeypatch.setattr(records, "from_row", counted)
    flags = load_flags(path)
    assert len(flags) > len(distinct)
    assert 0 < len(calls) <= len(distinct)


def test_classify_names_the_count_of_flags_off_its_input_and_labels_them_all(dataset_path, metadata_path, tmp_path, capsys):
    flags = tmp_path / "flags.jsonl"
    assert run(["repeats", "--input", str(dataset_path), "--flags-output", str(flags),
                "--output", str(tmp_path / "repeats.json")]) == 0
    rows = [json.loads(line) for line in flags.read_text().splitlines()[1:]]
    partial = tmp_path / "partial.jsonl"
    _write_jsonl(partial, [r for r in _records_rows() if r["annotator_id"] != "u0" and r["item_id"] != "i4"])
    off = sum(r["annotator_id"] == "u0" or "i4" in (r["item_a"], r["item_b"]) for r in rows)
    assert 0 < off < len(rows)
    outcomes, errs = {}, {}
    for name, data in (("full", dataset_path), ("partial", partial)):
        code = run(["classify", "--input", str(data), "--metadata", str(metadata_path), "--flags", str(flags),
                    "--labels-output", str(tmp_path / f"{name}-labels.jsonl"),
                    "--output", str(tmp_path / f"{name}.json")])
        labels = (tmp_path / f"{name}-labels.jsonl").read_text().splitlines()[1:]
        outcomes[name] = (code, json.loads((tmp_path / f"{name}.json").read_text())["result"], labels)
        errs[name] = capsys.readouterr().err
    assert outcomes["full"] == outcomes["partial"]
    assert outcomes["full"][1]["n_total"] == len(rows)
    assert errs == {"full": "", "partial": f"classify: {off} of {len(rows)} flags name an annotator or item absent"
                    " from --input; they are labelled and counted all the same\n"}


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_state(dataset_path, tmp_path, monkeypatch, capsys, enabled):
    seen = []
    validate = cli._cmd_validate

    def watched(args):
        seen.append(gc.isenabled())
        return validate(args)

    def interrupted(args):
        raise KeyboardInterrupt

    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [{"record_id": "r0", "annotator_id": "a", "item_id": "i", "prompt_text": "p",
                        "score": 500.0, "scale_kind": "continuous_0_100"}])
    exits = {
        0: ["validate", "--input", str(dataset_path), "--output", str(tmp_path / "v.json")],
        1: ["weights", "--input", str(dataset_path)],
        2: ["validate", "--input", str(bad), "--strict"],
        3: ["validate", "--input", str(tmp_path / "absent.jsonl")],
    }
    monkeypatch.setattr(cli, "_cmd_validate", watched)
    if not enabled:
        gc.disable()
    try:
        for code, argv in exits.items():
            assert run(argv) == code
            assert gc.isenabled() is enabled, code
        monkeypatch.setattr(cli, "_cmd_validate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(["validate", "--input", str(dataset_path)])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False, False]  # paused while each validate ran


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["audit-sparse", "jury-dense"])
def test_each_benchmark_stage_leaves_little_cyclic_garbage(tmp_path, monkeypatch, workload):
    """``run`` pauses the cyclic collector, so a stage that made cyclic garbage per
    row would hold it until the process ends. A stage leaves about 1,000 objects
    of it today, most of them the argument parser's."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpora
    import workloads

    corpora.build(workload, "smoke", 1, tmp_path)
    gc.disable()
    try:
        gc.collect()
        for stage in workloads.STAGES[workload]:
            assert run(workloads.stage_argv(stage, tmp_path)) == 0, stage[0]
            found = gc.collect()
            assert found < 5000, (stage[0], found)
    finally:
        gc.enable()


_COUNTED_RUN = (
    "import io, json, sys\n"
    "from prefaudit import cli, records\n"
    "decoded = []\n"
    "open_text = records._open_text\n"
    "def counted(path, *args, **kwargs):\n"
    "    if not isinstance(path, io.TextIOBase):  # a stream is already open, and counted\n"
    "        decoded.append(str(path))\n"
    "    return open_text(path, *args, **kwargs)\n"
    "records._open_text = counted\n"
    "print(json.dumps([cli.run(sys.argv[1:]), decoded]))\n"
)


def _counted_run(cwd, *argv):
    """``prefaudit argv`` in a fresh interpreter in ``cwd``: its exit code, and each
    file it opened to decode (every parse of an input opens it through ``_open_text``)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _COUNTED_RUN, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_the_stage_after_a_writer_decodes_no_line_of_the_file_it_left(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpora

    corpora.build("jury-dense", "smoke", 1, tmp_path)
    chains = [
        (["repeats", "--input", "dataset.jsonl", "--embeddings", "emb.jsonl", "--flags-output", "flags.jsonl",
          "--output", "repeats.json"],
         ["classify", "--input", "dataset.jsonl", "--flags", "flags.jsonl", "--output", "classify.json"]),
        (["ratio", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--resamples", "100",
          "--output", "ratios.jsonl"],
         ["simulate", "--input", "dataset.jsonl", "--ratios", "ratios.jsonl", "--output", "simulate.json"]),
        (["diagnose", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--resamples", "100",
          "--output", "profiles.jsonl"],
         ["weights", "--input", "dataset.jsonl", "--profiles", "profiles.jsonl", "--output", "weighted.jsonl",
          "--summary-output", "weights.json"]),
    ]
    for write, read in chains:
        assert _counted_run(tmp_path, *write)[0] == 0
        assert _counted_run(tmp_path, *read) == [0, []]
    # ``pairs`` leaves no sidecar: no stage of a benchmark workload reads its output
    assert _counted_run(tmp_path, "pairs", "--input", "dataset.jsonl", "--embeddings", "emb.jsonl",
                        "--output", "pairs.jsonl")[0] == 0
    assert not (tmp_path / ".pairs.jsonl.prefaudit").exists()
    assert _counted_run(tmp_path, "diagnose", "--input", "dataset.jsonl", "--pairs", "pairs.jsonl",
                        "--resamples", "100", "--output", "paired.jsonl") == [0, ["pairs.jsonl"]]
    flags = tmp_path / "flags.jsonl"
    flags.write_text("".join(flags.read_text().splitlines(keepends=True)[:-1]))  # edited after the write
    assert _counted_run(tmp_path, *chains[0][1]) == [0, ["flags.jsonl"]]
    sidecars = sorted(tmp_path.glob(".*.prefaudit"))
    assert run(["repeats", "--input", str(tmp_path / "dataset.jsonl"), "--flags-output", "-",
                "--output", str(tmp_path / "repeats.json")]) == 0
    assert run(["ratio", "--input", str(tmp_path / "dataset.jsonl"), "--metadata", str(tmp_path / "meta.jsonl"),
                "--format", "csv", "--output", str(tmp_path / "ratios.csv")]) == 0
    assert sorted(tmp_path.glob(".*.prefaudit")) == sidecars  # none for standard output, nor for a CSV
    assert not (tmp_path / ".ratios.csv.prefaudit").exists()


def test_python_dash_m_leaves_the_sidecar_the_console_script_leaves(dataset_path, tmp_path, monkeypatch):
    """A sidecar key names the row type alone, so the flags file that ``python -m
    prefaudit.cli`` writes keeps the sidecar that an in-process ``load_flags`` reads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    flags = tmp_path / "flags_m.jsonl"
    subprocess.run([sys.executable, "-m", "prefaudit.cli", "repeats", "--input", str(dataset_path),
                    "--flags-output", str(flags), "--output", str(tmp_path / "repeats.json")],
                   env=env, check=True, capture_output=True)
    assert (tmp_path / ".flags_m.jsonl.prefaudit").is_file()
    monkeypatch.setattr(records, "iter_jsonl", _refuse_parse)
    monkeypatch.setattr(records, "from_row", _refuse_parse)
    assert load_flags(flags) == pairing.repeat_audit(load_records(dataset_path))[0]


def _refuse_parse(*args, **kwargs):
    raise AssertionError("the file was parsed")


@pytest.mark.parametrize("workload", ["audit-sparse", "jury-dense"])
def test_a_second_pass_of_a_benchmark_workload_parses_no_row(tmp_path, monkeypatch, workload):
    """A timed benchmark pass follows another in the same directory, so each of its
    loads is a sidecar hit: the second run of every stage decodes no line and builds
    no object from a row."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpora
    import workloads

    corpora.build(workload, "smoke", 1, tmp_path)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("iter_jsonl", "_iter_csv", "_chunk_columns", "from_row"):
        monkeypatch.setattr(records, name, counted(name, getattr(records, name)))
    passes = []
    for _ in range(2):
        calls.clear()
        for stage in workloads.STAGES[workload]:
            assert run(workloads.stage_argv(stage, tmp_path)) == 0, stage[0]
        passes.append(dict(calls))
    assert passes[0]["iter_jsonl"] >= 2 and passes[0]["_chunk_columns"] > 0  # the first pass parses its inputs
    assert passes[1] == {}


_STAGE_RUN = "import sys\nfrom prefaudit.cli import run\nsys.exit(run(sys.argv[1:]))\n"


def _package_copy(root: Path) -> Path:
    """A copy of the package's source under ``root / "src"``; returns the package directory."""
    package = root / "src" / "prefaudit"
    shutil.copytree(Path(cli.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def _run_copy(root: Path, cwd: Path, script: str, *argv: str) -> str:
    """``script`` with ``argv`` in a fresh interpreter that imports the package copy under ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _sidecar_parts(path: Path) -> tuple:
    """The header and the payload bytes of ``path``'s sidecar."""
    blob = path.with_name(f".{path.name}.prefaudit").read_bytes()
    header = marshal.loads(blob)
    return header, blob[len(marshal.dumps(header, 2)):]


def test_a_change_to_any_module_of_the_package_retires_every_sidecar(tmp_path, monkeypatch):
    """The sidecar header digests the source of every module of the package, so a
    one-byte change to ``taxonomy.py``, which reads no file, makes the next
    ``validate`` and ``classify --flags`` parse their inputs again and rewrite the
    records, metadata and flags sidecars, each with the columns it kept before (the
    flags sidecar, which ``repeats`` left, is now the parse's, equal but not byte-equal)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpora

    package = _package_copy(tmp_path)
    work = tmp_path / "work"
    corpora.build("audit-sparse", "smoke", 1, work)
    validate = ("validate", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--output", "validate.json")
    classify = ("classify", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--flags", "flags.jsonl",
                "--output", "classify.json")
    _run_copy(tmp_path, work, _STAGE_RUN, "repeats", "--input", "dataset.jsonl", "--flags-output", "flags.jsonl",
              "--output", "repeats.json")
    inputs = [work / name for name in ("dataset.jsonl", "meta.jsonl", "flags.jsonl")]
    for stage in (validate, classify):
        _run_copy(tmp_path, work, _STAGE_RUN, *stage)
    kept = list(map(_sidecar_parts, inputs))
    for stage in (validate, classify):
        _run_copy(tmp_path, work, _STAGE_RUN, *stage)
    assert list(map(_sidecar_parts, inputs)) == kept  # a hit leaves each sidecar as it was
    taxonomy = package / "taxonomy.py"
    source = bytearray(taxonomy.read_bytes())
    assert source[3:4].isalpha()  # the first letter of the module docstring
    source[3] ^= 0x20
    taxonomy.write_bytes(source)
    for stage in (validate, classify):
        _run_copy(tmp_path, work, _STAGE_RUN, *stage)
    for path, (old_header, old_payload), (new_header, new_payload) in zip(inputs, kept, map(_sidecar_parts, inputs)):
        assert new_header[2] != old_header[2]  # the source digest
        assert new_header[:2] + new_header[3:] == old_header[:2] + old_header[3:]
        assert marshal.loads(new_payload) == marshal.loads(old_payload), path.name


_SOURCELESS_RUN = (
    "import json, sys\n"
    "from prefaudit import cli, records\n"
    "assert records.__file__.endswith('.pyc'), records.__file__\n"
    "read = []\n"
    "own = records._read_own_file\n"
    "records._read_own_file = lambda path: read.append(str(path)) or own(path)\n"
    "print(json.dumps([cli.run(sys.argv[1:]), read]))\n"
)


def test_an_install_without_source_reads_and_keeps_no_sidecar(tmp_path, dataset_path):
    package = _package_copy(tmp_path)
    assert compileall.compile_dir(package, legacy=True, quiet=1)
    for source in package.glob("*.py"):
        source.unlink()
    work = tmp_path / "work"
    work.mkdir()
    shutil.copy(dataset_path, work / "dataset.jsonl")
    argv = ("validate", "--input", "dataset.jsonl", "--output", "validate.json")
    for _ in range(2):
        assert json.loads(_run_copy(tmp_path, work, _SOURCELESS_RUN, *argv)) == [0, []]
    assert sorted(path.name for path in work.iterdir()) == ["dataset.jsonl", "validate.json"]


def test_diagnose_counts_the_pairs_that_name_an_item_absent_from_its_input(dataset_path, tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    rows = [{"pair_id": "i1|i2", "item_a": "i1", "item_b": "i2", "similarity": 0.95},
            {"pair_id": "i3|i4", "item_a": "i3", "item_b": "i4", "similarity": 0.91}]
    _write_jsonl(pairs, rows)
    out = tmp_path / "profiles.jsonl"
    argv = ["diagnose", "--input", str(dataset_path), "--pairs", str(pairs), "--output", str(out)]
    assert run(argv) == 0
    expected = out.read_bytes()
    assert capsys.readouterr().err == ""
    stray = {"pair_id": "i1|item-zzz", "item_a": "i1", "item_b": "item-zzz", "similarity": 0.95}
    _write_jsonl(pairs, [*rows, stray, {**stray, "item_a": "item-yyy", "item_b": "i1", "pair_id": "x"}])
    assert run(argv) == 0
    assert capsys.readouterr().err == (f"diagnose: 2 of {len(rows) + 2} pairs name an item absent from --input;"
                                       " they add no rating comparison\n")
    assert out.read_bytes() == expected


def test_repeats_report_table(dataset_path, tmp_path):
    out = tmp_path / "table.txt"
    assert run(["repeats", "--input", str(dataset_path), "--output", str(out), "--format", "report"]) == 0
    text = out.read_text()
    assert "Inconsistencies" in text
    assert "Mean Pref. Score Δ" in text
    assert "identical_responses" in text


def test_diagnose_profiles(dataset_path, tmp_path):
    out = tmp_path / "profiles.jsonl"
    assert run(["diagnose", "--input", str(dataset_path), "--tau", "15", "--output", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert "#config" in lines[0]
    rows = {r["annotator_id"]: r for r in lines[1:]}
    assert rows["s0"]["temp"] == 1.0
    assert rows["u0"]["temp"] == 0.0
    assert rows["u0"]["reliability"] == 0.0
    assert rows["s0"]["n_temp_pairs"] == 4


def test_diagnose_with_routing_column(dataset_path, tmp_path):
    out = tmp_path / "profiles.jsonl"
    code = run([
        "diagnose", "--input", str(dataset_path), "--tau", "15",
        "--route", "--t-temp", "0.5", "--output", str(out),
    ])
    assert code == 0
    rows = {r["annotator_id"]: r for r in map(json.loads, out.read_text().splitlines()[1:])}
    assert rows["s0"]["routing"] == "use_as_signal"
    assert rows["u0"]["routing"] == "filter_downweight"


def test_weights_accepts_routed_profiles(dataset_path, tmp_path):
    results = {}
    for name, extra in (("plain", []), ("routed", ["--route"])):
        profiles = tmp_path / f"{name}.jsonl"
        assert run(["diagnose", "--input", str(dataset_path), "--output", str(profiles), *extra]) == 0
        weighted = tmp_path / f"{name}-weighted.jsonl"
        code = run([
            "weights", "--input", str(dataset_path), "--profiles", str(profiles),
            "--output", str(weighted), "--summary-output", str(tmp_path / f"{name}-summary.json"),
        ])
        assert code == 0
        results[name] = weighted.read_text()
    assert results["routed"] == results["plain"]


def test_classify_empty_flags_renders_headers(dataset_path, tmp_path):
    flags = tmp_path / "flags.jsonl"
    flags.write_text(json.dumps({"#config": {}}) + "\n", encoding="utf-8")
    out = tmp_path / "table.txt"
    code = run([
        "classify", "--input", str(dataset_path), "--flags", str(flags),
        "--output", str(out), "--format", "report",
    ])
    assert code == 0
    text = out.read_text()
    assert "Classification" in text and "Mean Δ" in text


def test_ratio_and_simulate_pipeline(dataset_path, metadata_path, tmp_path):
    ratios = tmp_path / "ratios.jsonl"
    stats = tmp_path / "stats.json"
    code = run([
        "ratio", "--input", str(dataset_path), "--metadata", str(metadata_path),
        "--resamples", "200", "--seed", "5", "--min-support", "5",
        "--output", str(ratios), "--stats-output", str(stats),
    ])
    assert code == 0
    ratio_rows = [json.loads(line) for line in ratios.read_text().splitlines()[1:]]
    by_annotator = {r["annotator_id"]: r["ratio"] for r in ratio_rows}
    assert max(by_annotator[f"s{i}"] for i in range(4)) < min(by_annotator[f"u{i}"] for i in range(4))
    stats_payload = json.loads(stats.read_text())["result"]
    assert stats_payload["n_annotators"] == 8
    assert stats_payload["n_low"] == 4 and stats_payload["n_high"] == 4

    flips = tmp_path / "flips.json"
    code = run([
        "simulate", "--input", str(dataset_path), "--ratios", str(ratios),
        "--iterations", "200", "--sample-size", "3", "--seed", "5",
        "--output", str(flips),
    ])
    assert code == 0
    flips_payload = json.loads(flips.read_text())["result"]
    assert flips_payload["n_eligible"] == 4


@pytest.mark.parametrize("argv", [["diagnose", "--pairs"], ["classify", "--flags"], ["weights", "--profiles"],
                                  ["simulate", "--ratios"], ["validate", "--metadata"]], ids=lambda argv: argv[1])
def test_a_missing_input_file_is_named_as_given(dataset_path, tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.jsonl")
    assert run([argv[0], "--input", str(dataset_path), argv[1], missing, "--output", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"runtime error: [Errno 2] No such file or directory: {missing!r}\n"


def _report_rows(path, title):
    """Each row of the one table of a ``--format report`` file, its first cell -> its second."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(records.CONFIG_PREFIX) and lines[1] == title
    return dict(re.split(r"\s{2,}", line) for line in lines[4:])


def test_the_population_report_shows_the_json_result_of_the_same_run(dataset_path, metadata_path, tmp_path):
    argv = ["ratio", "--input", str(dataset_path), "--metadata", str(metadata_path),
            "--output", str(tmp_path / "ratios.jsonl")]
    assert run([*argv, "--stats-output", str(tmp_path / "stats.json")]) == 0
    assert run([*argv, "--format", "report", "--stats-output", str(tmp_path / "stats.txt")]) == 0
    result = json.loads((tmp_path / "stats.json").read_text())["result"]
    t, split = result["t_vs_one"], result["median_split"]
    assert split is not None and result["pearson_r_ratio_vs_rating"] is not None
    assert _report_rows(tmp_path / "stats.txt", "Inconsistency-ratio population statistics") == {
        "annotators with ratios": str(result["n_annotators"]),
        "median annotator ratio": f"{result['median_ratio']:.4f}",
        "t vs 1.0": f"{t['statistic']:.2f} (p={t['p_value']:.3g})",
        "median-split t": f"{split['statistic']:.2f} (p={split['p_value']:.3g})",
        "mean diff (low - high)": f"{result['mean_diff_low_minus_high']:.2f}",
        "Pearson r (ratio vs rating)": f"{result['pearson_r_ratio_vs_rating']:.2f}",
    }


def test_the_flips_report_shows_the_json_result_of_the_same_run(dataset_path, metadata_path, tmp_path):
    ratios = tmp_path / "ratios.jsonl"
    assert run(["ratio", "--input", str(dataset_path), "--metadata", str(metadata_path), "--output", str(ratios)]) == 0
    argv = ["simulate", "--input", str(dataset_path), "--ratios", str(ratios), "--sample-size", "3"]
    assert run([*argv, "--output", str(tmp_path / "flips.json")]) == 0
    assert run([*argv, "--format", "report", "--output", str(tmp_path / "flips.txt")]) == 0
    result = json.loads((tmp_path / "flips.json").read_text())["result"]
    assert result["n_eligible"] > 0
    assert _report_rows(tmp_path / "flips.txt", "Majority-flip simulation") == {
        "eligible prompts": str(result["n_eligible"]),
        "flips (low-inconsistency pool)": str(result["n_flips_low"]),
        "flips (high-inconsistency pool)": str(result["n_flips_high"]),
        "pct flips (low)": f"{result['pct_flips']:.1f}%",
        "skipped prompts": str(len(result["skipped"])),
    }


def test_simulate_leaves_numpy_ma_unimported(dataset_path, metadata_path, tmp_path):
    """``numpy.ma`` costs every process that imports it about 14 ms; ``np.median`` imports it."""
    ratios, stats, flips = (str(tmp_path / name) for name in ("ratios.jsonl", "stats.json", "flips.json"))
    argvs = [
        ["ratio", "--input", str(dataset_path), "--metadata", str(metadata_path),
         "--output", ratios, "--stats-output", stats],
        ["simulate", "--input", str(dataset_path), "--ratios", ratios, "--sample-size", "3", "--output", flips],
    ]
    script = (
        "import json, sys\n"
        "from prefaudit.cli import run\n"
        "print([run(argv) for argv in json.loads(sys.argv[1])], 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] False"


def test_weights_subcommand(dataset_path, tmp_path):
    weighted = tmp_path / "weighted.jsonl"
    summary = tmp_path / "summary.json"
    code = run([
        "weights", "--input", str(dataset_path), "--weight-mode", "binary",
        "--threshold", "0.5", "--policy", "filter",
        "--output", str(weighted), "--summary-output", str(summary),
    ])
    assert code == 0
    payload = json.loads(summary.read_text())["result"]
    assert payload["n_input"] == 64
    assert payload["n_retained"] == 32  # the unstructured annotators drop
    assert payload["n_retained"] == len(weighted.read_text().splitlines())


def test_weights_names_the_annotators_without_a_profile(dataset_path, tmp_path, capsys):
    profiles = tmp_path / "profiles.jsonl"
    _write_jsonl(profiles, [{"annotator_id": "nobody", "reliability": 0.5}])
    weighted, summary = tmp_path / "weighted.jsonl", tmp_path / "summary.json"
    code = run(["weights", "--input", str(dataset_path), "--profiles", str(profiles),
                "--output", str(weighted), "--summary-output", str(summary)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "weights: 1 of 1 profiles in --profiles name an annotator absent from --input;"
        " their reliability weights no record",
        "weights: 8 of 8 annotators in --input have no profile reliability;"
        " their records are weighted by item reliability alone",
    ]
    assert len(weighted.read_text().splitlines()) == json.loads(summary.read_text())["result"]["n_input"] == 64


def test_simulate_with_no_ratio_annotator_in_the_input_fails_at_once(dataset_path, tmp_path, capsys):
    ratios = tmp_path / "ratios.jsonl"
    rows = [{"annotator_id": annotator, "theme": "harm", "n_items": 5, "var_within": 1.0, "baseline": 1.0,
             "ratio": 1.0, "resamples_used": 0, "seed": 0} for annotator in ("ghost-1", "ghost-2")]
    _write_jsonl(ratios, rows)
    out = tmp_path / "flips.json"
    assert run(["simulate", "--input", str(dataset_path), "--ratios", str(ratios), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {ratios}: none of its 2 annotators rates in --input"
    ]
    assert not out.exists()


def test_simulate_counts_the_ratio_annotators_absent_from_its_input(dataset_path, metadata_path, tmp_path, capsys):
    ratios, flips = tmp_path / "ratios.jsonl", tmp_path / "flips.json"
    assert run(["ratio", "--input", str(dataset_path), "--metadata", str(metadata_path), "--resamples", "200",
                "--seed", "5", "--min-support", "5", "--output", str(ratios)]) == 0
    argv = ["simulate", "--input", str(dataset_path), "--ratios", str(ratios), "--iterations", "200",
            "--sample-size", "3", "--seed", "5", "--output", str(flips)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    rows = [json.loads(line) for line in ratios.read_text().splitlines()[1:]]
    _write_jsonl(ratios, [*rows, {**rows[0], "annotator_id": "ghost-1"}, {**rows[-1], "annotator_id": "ghost-2"}])
    assert run(argv) == 0
    n = len({row["annotator_id"] for row in rows}) + 2
    assert capsys.readouterr().err == (f"simulate: 2 of {n} annotators in --ratios are absent from --input;"
                                       " they rate no prompt but count in the median split\n")
    assert json.loads(flips.read_text())["result"]["n_eligible"] == 4


def test_weights_counts_the_profiles_whose_annotator_is_absent_from_its_input(dataset_path, tmp_path, capsys):
    profiles, weighted, summary = (tmp_path / name for name in ("profiles.jsonl", "weighted.jsonl", "summary.json"))
    assert run(["diagnose", "--input", str(dataset_path), "--output", str(profiles)]) == 0
    argv = ["weights", "--input", str(dataset_path), "--profiles", str(profiles),
            "--output", str(weighted), "--summary-output", str(summary)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    expected = weighted.read_bytes()
    rows = [json.loads(line) for line in profiles.read_text().splitlines()[1:]]
    _write_jsonl(profiles, [*rows, {"annotator_id": "ghost", "reliability": 0.0}])
    assert run(argv) == 0
    assert capsys.readouterr().err == (f"weights: 1 of {len(rows) + 1} profiles in --profiles name an annotator"
                                       " absent from --input; their reliability weights no record\n")
    assert weighted.read_bytes() == expected


def test_plan_subcommand_and_schedule(tmp_path):
    out = tmp_path / "plan.json"
    schedule = tmp_path / "schedule.jsonl"
    code = run([
        "plan", "--tier", "1", "--items", "10000", "--annotators", "5",
        "--cost", "0.50", "--output", str(out),
        "--schedule-output", str(schedule), "--seed", "3",
    ])
    assert code == 0
    plan = json.loads(out.read_text())["result"]
    assert plan["extra_annotations"] == 500
    assert plan["extra_cost"] == 250.0
    assert plan["overhead_pct"] == 5.0
    lines = schedule.read_text().splitlines()
    assert len(lines) == 1 + 10000 + 500  # header + base + repeats


def test_plan_infeasible_exit_code(tmp_path):
    assert run(["plan", "--tier", "1", "--items", "100", "--annotators", "1", "--cost", "0.5"]) == 2


def test_calibrate_subcommand(tmp_path):
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--method", "scale", "--scale", "likert_5", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())["result"]
    assert payload["consistent_max"] == 1.0 and payload["marginal_max"] == 2.0


def test_calibrate_non_numeric_diff_is_a_data_error(tmp_path, capsys):
    diffs = tmp_path / "diffs.txt"
    diffs.write_text("1.0\nabc\n", encoding="utf-8")
    assert run(["calibrate", "--method", "empirical", "--diffs", str(diffs)]) == 2
    assert "entry 2 is not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_calibrate_non_finite_diff_is_a_data_error_naming_the_entry(tmp_path, capsys, entry):
    diffs = tmp_path / "diffs.txt"
    diffs.write_text("1.0\n" + entry + "\n", encoding="utf-8")
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--method", "empirical", "--diffs", str(diffs), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {diffs}: entry 2 is not finite: {entry!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_calibrate_non_finite_flip_margin_is_a_usage_error(tmp_path, capsys, margin):
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--method", "consequence", "--flip-margin", margin, "--output", str(out)]) == 1
    assert capsys.readouterr().err.endswith(f"error: argument --flip-margin: must be a finite number, got {margin!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("cost", ["nan", "inf"])
def test_plan_non_finite_cost_is_a_usage_error(tmp_path, capsys, cost):
    out = tmp_path / "plan.json"
    argv = ["plan", "--tier", "1", "--items", "10000", "--annotators", "5", "--cost", cost, "--output", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err.endswith(f"error: argument --cost: must be a finite number, got {cost!r}\n")
    assert not out.exists()


def _float_flags():
    """(subcommand, option) for every float-valued option of every subcommand."""
    _, children = cli.build_parser()
    return [(child.prog.split()[-1], action.option_strings[0])
            for child in children for action in child._actions if action.type in (float, cli.finite_float)]


def test_every_float_flag_takes_finite_numbers_only():
    _, children = cli.build_parser()
    assert not [a for child in children for a in child._actions if a.type is float]
    assert len(_float_flags()) == 20


def _full_parser_outcome(argv, capsys):
    """The exit code ``run`` makes of what every subcommand's parser does with argv,
    and what it prints."""
    parser, _ = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return 0 if exc.value.code in (0, None) else 1, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["bogus"], ["bogus", "--input", "x.jsonl"], ["--tau", "5"],
    ["validate", "--input", "x.jsonl", "--bogus", "1"], ["diagnose", "--input", "x.jsonl", "--tau", "abc"],
    *([cmd, "--help"] for cmd in cli._SUBCOMMANDS),
    *([cmd] for cmd in cli._SUBCOMMANDS),  # each one's required option is missing
], ids=" ".join)
def test_the_invoked_subcommands_parser_alone_prints_what_every_parser_prints(capsys, argv):
    expected = _full_parser_outcome(argv, capsys)
    code = run(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == expected


def test_a_validate_run_adds_its_own_options_only(dataset_path, tmp_path, monkeypatch):
    """Every ``add_argument`` queries the terminal size; every subcommand's parser
    together make over 130 of them, and one run needs the invoked subcommand's."""
    calls = []
    add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *a, **k: calls.append(a) or add_argument(self, *a, **k))
    assert run(["validate", "--input", str(dataset_path), "--output", str(tmp_path / "v.json")]) == 0
    assert 0 < len(calls) <= 30


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_a_non_finite_float_flag_is_a_usage_error_naming_the_flag(tmp_path, capsys, value):
    for cmd, flag in _float_flags():
        assert run([cmd, f"{flag}={value}", "--output", str(tmp_path / "out")]) == 1, (cmd, flag)
        err = capsys.readouterr().err
        assert err.endswith(f"prefaudit {cmd}: error: argument {flag}: must be a finite number, got {value!r}\n")
    assert not (tmp_path / "out").exists()


def test_a_non_numeric_float_flag_is_worded_as_before(capsys):
    assert run(["diagnose", "--input", "x.jsonl", "--tau", "abc"]) == 1
    assert capsys.readouterr().err.endswith("error: argument --tau: invalid float value: 'abc'\n")


def test_calibrate_diffs_with_a_non_utf8_byte_is_a_data_error_naming_the_line(tmp_path, capsys):
    diffs = tmp_path / "diffs.txt"
    diffs.write_bytes(b"\xef\xbb\xbf1.0\n2\xff\n")  # the byte-order mark is skipped
    assert run(["calibrate", "--method", "empirical", "--diffs", str(diffs)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {diffs}: line 2: invalid UTF-8: byte 0xff"]


def test_synth_subcommand_writes_dataset_and_truth(tmp_path):
    outdir = tmp_path / "synth"
    code = run([
        "synth", "--per-type", "2", "--items-per-annotator", "60", "--repeats", "3",
        "--framing-pairs", "2", "--anchors", "4", "--seed", "9",
        "--output-dir", str(outdir),
    ])
    assert code == 0
    dataset_lines = (outdir / "dataset.jsonl").read_text().splitlines()
    assert len(dataset_lines) == 8 * (60 + 3 + 2 + 4)
    truth = json.loads((outdir / "truth.json").read_text())["result"]
    assert len(truth["truth"]) == 8
    assert len(truth["anchor_scores"]) == 4


_SYNTH_SHAPE = ["--per-type", "1", "--items-per-annotator", "30", "--repeats", "3", "--framing-pairs", "5",
                "--anchors", "2"]


@pytest.mark.parametrize("flag, value, why", [
    ("--repeats", "-1", "n_repeats_per_annotator must be >= 0, got -1"),
    ("--per-type", "-1", "genuine annotator count must be >= 0, got -1"),
    ("--anchors", "-3", "n_anchors must be >= 0, got -3"),
    ("--items-per-annotator", "0", "--items-per-annotator must be >= 1, got 0"),
])
def test_synth_refuses_a_count_out_of_range_as_a_usage_error_naming_it(flag, value, why, tmp_path, capsys):
    argv = _SYNTH_SHAPE[:]
    argv[argv.index(flag) + 1] = value
    assert run(["synth", *argv, "--output-dir", str(tmp_path / "synth")]) == 1
    assert capsys.readouterr().err == f"usage error: {why}\n"
    assert not (tmp_path / "synth").exists()


def test_themes_subcommand_fixture_transport(dataset_path, tmp_path):
    labels_file = tmp_path / "labels.txt"
    labels_file.write_text("Privacy\nChild Harm\n", encoding="utf-8")
    endpoints_file = tmp_path / "endpoints.json"
    endpoints_file.write_text(json.dumps([
        {"endpoint_id": f"ep{i}", "base_url": "http://x", "auth_env_var": "K", "model_name": "m"}
        for i in range(3)
    ]), encoding="utf-8")
    fixtures_file = tmp_path / "fixtures.json"
    fixtures_file.write_text(json.dumps({
        f"ep{i}": {"prompt": json.dumps({"labels": ["Privacy"]})} for i in range(3)
    }), encoding="utf-8")
    out = tmp_path / "patch.jsonl"
    code = run([
        "themes", "--input", str(dataset_path), "--labels", str(labels_file),
        "--endpoints", str(endpoints_file), "--transport", "fixture",
        "--fixtures", str(fixtures_file), "--output", str(out),
    ])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()][1:]
    assert all(row["theme_labels"] == ["Privacy"] for row in rows)
    assert {row["item_id"] for row in rows} == {"i1", "i2", "i3", "i4"}
    # the patch, header included, reads back as item metadata
    assert run(["validate", "--input", str(dataset_path), "--metadata", str(out),
                "--output", str(tmp_path / "validate.json")]) == 0


def _themes_argv(dataset_path, tmp_path, endpoints, fixtures, cache=None):
    """A themes run over three fixture endpoints; any of its files may be replaced."""
    files = {
        "labels.txt": "Privacy\n",
        "endpoints.json": endpoints or json.dumps([
            {"endpoint_id": f"ep{i}", "base_url": "http://x"} for i in range(3)
        ]),
        "fixtures.json": fixtures or json.dumps({
            f"ep{i}": {"prompt": json.dumps({"labels": ["Privacy"]})} for i in range(3)
        }),
    }
    if cache is not None:
        files["cache.json"] = cache
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["themes", "--input", str(dataset_path), "--labels", str(tmp_path / "labels.txt"),
            "--endpoints", str(tmp_path / "endpoints.json"), "--transport", "fixture",
            "--fixtures", str(tmp_path / "fixtures.json"), "--output", str(tmp_path / "patch.jsonl")]
    return argv + (["--cache", str(tmp_path / "cache.json")] if cache is not None else [])


@pytest.mark.parametrize(
    "endpoints, fixtures, cache, bad_file",
    [
        ('{"endpoint_id": "ep0", "base_url": "http://x"}', None, None, "endpoints.json"),
        ('[{"endpoint_id": "ep0"}]', None, None, "endpoints.json"),
        (None, None, '["prompt"]', "cache.json"),
        (None, None, '{"prompt": "Privacy"}', "cache.json"),
        (None, '{"ep0": ', None, "fixtures.json"),
        (None, '{"ep0": "payload"}', None, "fixtures.json"),
    ],
    ids=["endpoints object", "endpoint missing field", "cache list", "cache labels not a list",
         "fixtures invalid JSON", "fixtures flat"],
)
def test_malformed_themes_inputs_are_data_errors_naming_the_file(
    dataset_path, tmp_path, capsys, endpoints, fixtures, cache, bad_file
):
    assert run(_themes_argv(dataset_path, tmp_path, endpoints, fixtures, cache)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"data error: {tmp_path / bad_file}: ")


@pytest.mark.parametrize("bad_file", ["labels.txt", "endpoints.json", "fixtures.json", "cache.json"])
def test_a_non_utf8_themes_input_is_a_data_error_naming_the_file_and_line(
    dataset_path, tmp_path, capsys, bad_file
):
    argv = _themes_argv(dataset_path, tmp_path, None, None, cache="{}")
    bad = tmp_path / bad_file
    bad.write_bytes(bad.read_bytes()[:1] + b"\n\xff" + bad.read_bytes()[1:])
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {bad}: line 2: invalid UTF-8: byte 0xff"]


def _without_output_paths(text):
    """Artifact text with the output paths its ``#config`` header, if it has one, echoes left out."""
    header, _, body = text.partition("\n")
    config = json.loads(header).get("#config")
    if config is None:  # a records file, such as the weighted export
        return text
    return {k: v for k, v in config.items() if not k.endswith("output")}, body


@pytest.mark.parametrize(
    "cmd, flag", [("pairs", "--output"), ("repeats", "--flags-output"), ("weights", "--output")]
)
def test_artifact_written_to_stdout_matches_the_file(dataset_path, tmp_path, capsys, monkeypatch, cmd, flag):
    monkeypatch.chdir(tmp_path)
    embeddings = tmp_path / "emb.jsonl"
    vectors = {"i1": [1.0, 0.0], "i2": [0.99, 0.1], "i3": [0.0, 1.0], "i4": [0.1, 0.99]}
    _write_jsonl(embeddings, [{"item_id": k, "vector": v} for k, v in vectors.items()])
    argv = [cmd, "--input", str(dataset_path)] + {
        "pairs": ["--embeddings", str(embeddings)],
        "repeats": ["--embeddings", str(embeddings), "--output", str(tmp_path / "report.json")],
        "weights": ["--summary-output", str(tmp_path / "summary.json")],
    }[cmd]
    artifact = tmp_path / "artifact.jsonl"
    assert run(argv + [flag, str(artifact)]) == 0
    assert run(argv + [flag, "-"]) == 0
    written = artifact.read_text(encoding="utf-8")
    assert written.count("\n") > 2
    assert _without_output_paths(capsys.readouterr().out) == _without_output_paths(written)
    assert not (tmp_path / "-").exists()


def test_config_file_supplies_defaults(dataset_path, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("tau = 5\nseed = 3\n", encoding="utf-8")
    out = tmp_path / "profiles.jsonl"
    code = run([
        "diagnose", "--config", str(config), "--input", str(dataset_path),
        "--output", str(out),
    ])
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])["#config"]
    assert header["tau"] == 5
    rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert {r["tau_used"] for r in rows} == {5}


def test_config_file_given_with_an_equals_sign_supplies_defaults(dataset_path, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("tau = 5\n", encoding="utf-8")
    joined, spaced = tmp_path / "joined.jsonl", tmp_path / "spaced.jsonl"
    for argv in (
        [f"--config={config}", "diagnose", "--input", str(dataset_path), "--output", str(joined)],
        ["diagnose", "--config", str(config), "--input", str(dataset_path), "--output", str(spaced)],
    ):
        assert run(argv) == 0
    header = json.loads(joined.read_text().splitlines()[0])["#config"]
    assert header["tau"] == 5 and "config" not in header
    assert joined.read_text().replace("joined", "spaced") == spaced.read_text()


@pytest.mark.parametrize("at", [0, 1], ids=["before the subcommand", "after it"])
def test_an_abbreviated_config_flag_is_not_taken_for_config(dataset_path, tmp_path, capsys, at):
    config = tmp_path / "run.cfg"
    config.write_text("tau = 5\n", encoding="utf-8")
    out = tmp_path / "profiles.jsonl"
    argv = ["diagnose", "--input", str(dataset_path), "--output", str(out)]
    argv[at:at] = ["--conf", str(config)]
    assert run(argv) == 1
    assert "prefaudit: error: " in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_supplies_defaults(dataset_path, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbftau = 5\n")
    out = tmp_path / "profiles.jsonl"
    assert run(["diagnose", "--config", str(config), "--input", str(dataset_path), "--output", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["#config"]["tau"] == 5


@pytest.mark.parametrize("text, line, why", [
    (b"seed = 3\ntau = 5\xff\n", 2, "invalid UTF-8: byte 0xff"),
    (b"# defaults\ntau\n", 2, "config line is not key=value: 'tau'"),
    (b"seed = 3\ntau = nan\n", 2, "tau must be a finite number, got 'nan'"),
    (b"delta-threshold = '-Infinity'\n", 1, "delta-threshold must be a finite number, got '-Infinity'"),
], ids=["non-UTF-8 byte", "not key=value", "NaN", "quoted infinity"])
def test_a_bad_config_file_is_one_error_line_naming_the_file_and_line(tmp_path, capsys, text, line, why):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    assert run(["validate", "--config", str(config), "--input", "x.jsonl"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {config}: line {line}: {why}"]


@pytest.mark.parametrize("cmd, text, why", [
    ("diagnose", "tua = 5\n", "unknown config key 'tua'"),
    ("diagnose", "route = yes\n", "route must be true or false, got 'yes'"),
    ("diagnose", "tau = -3\n", "tau must be finite and >= 0, got -3.0"),
    ("diagnose", "seed = 1.5\n", "seed invalid int value: '1.5'"),
    ("validate", "format = xml\n", "format invalid choice: 'xml' (choose from 'json', 'report')"),
    ("validate", "format = csv\n", "format invalid choice: 'csv' (choose from 'json', 'report')"),
    ("diagnose", "format = csv\n", None),  # a choice of diagnose's --format, though not of validate's
    ("validate", "help = true\n", "unknown config key 'help'"),
], ids=[
    "unknown key", "switch not true or false", "negative tau", "non-integer seed", "no format's choice",
    "another subcommand's format choice", "this subcommand's format choice", "help",
])
def test_a_config_value_its_option_refuses_exits_2_naming_the_file_line_and_key(
    dataset_path, tmp_path, capsys, cmd, text, why
):
    """``why`` None: the value is accepted, and the run writes its output."""
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = run([cmd, "--config", str(config), "--input", str(dataset_path), "--output", str(out)])
    if why is None:
        assert code == 0 and capsys.readouterr().err == "" and out.exists()
    else:
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {config}: line 1: {why}"]
        assert not out.exists()


def test_a_config_value_takes_the_type_of_the_option_it_sets(dataset_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("output = 2024\nroute = true\ntau = 5\nseed = 3\nsame-annotator = false\n", encoding="utf-8")
    assert run(["diagnose", "--config", str(config), "--input", str(dataset_path)]) == 0
    header = json.loads((tmp_path / "2024").read_text().splitlines()[0])["#config"]
    assert header["output"] == "2024" and header["route"] is True
    assert repr(header["tau"]) == "5.0" and repr(header["seed"]) == "3"
    assert "same_annotator" not in header  # a pairs option, which diagnose never reads


@pytest.mark.parametrize("cmd, flag", [("diagnose", "--tau"), ("weights", "--tau"), ("repeats", "--delta-threshold")])
def test_a_negative_tau_or_delta_threshold_is_a_usage_error_naming_the_flag(dataset_path, tmp_path, capsys, cmd, flag):
    out = tmp_path / "out"
    assert run([cmd, "--input", str(dataset_path), flag, "-3", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"prefaudit {cmd}: error: argument {flag}: must be finite and >= 0, got -3.0\n")
    assert not out.exists()


def test_seeded_rerun_byte_identical(dataset_path, metadata_path, tmp_path):
    ratios = tmp_path / "ratios.jsonl"
    args = [
        "ratio", "--input", str(dataset_path), "--metadata", str(metadata_path),
        "--resamples", "100", "--seed", "7", "--output", str(ratios),
    ]
    assert run(args) == 0
    first = ratios.read_bytes()
    assert run(args) == 0
    assert ratios.read_bytes() == first


def _sidecar(path):
    return path.with_name(f".{path.name}.prefaudit")


def test_strict_after_a_lenient_load_still_names_the_bad_line(dataset_path, tmp_path, capsys):
    rows = _records_rows()
    rows[2]["score"] = 150.0
    _write_jsonl(dataset_path, rows)
    argv = ["validate", "--input", str(dataset_path), "--output", str(tmp_path / "v.json")]
    assert run(argv) == 0
    assert _sidecar(dataset_path).is_file()
    capsys.readouterr()
    assert run(argv + ["--strict"]) == 2
    assert f"data error: {dataset_path}: line 3: score 150.0 outside [0, 100]" in capsys.readouterr().err


AUDIT_STAGES = (
    ("validate", "--input", "data.jsonl", "--metadata", "meta.jsonl", "--output", "validate.json"),
    ("repeats", "--input", "data.jsonl", "--flags-output", "flags.jsonl", "--output", "repeats.json"),
    ("classify", "--input", "data.jsonl", "--metadata", "meta.jsonl", "--flags", "flags.jsonl",
     "--labels-output", "labels.jsonl", "--output", "classify.json"),
    ("diagnose", "--input", "data.jsonl", "--metadata", "meta.jsonl", "--seed", "7", "--output", "profiles.jsonl"),
    ("ratio", "--input", "data.jsonl", "--metadata", "meta.jsonl", "--seed", "7", "--min-support", "3",
     "--output", "ratios.jsonl", "--stats-output", "population.json"),
    ("simulate", "--input", "data.jsonl", "--ratios", "ratios.jsonl", "--sample-size", "3", "--seed", "7",
     "--output", "simulate.json"),
    ("weights", "--input", "data.jsonl", "--profiles", "profiles.jsonl",
     "--output", "weighted.jsonl", "--summary-output", "weights.json"),
)


def _audit_artifacts(tmp_path):
    outputs = {}
    for stage in AUDIT_STAGES:
        argv = [str(tmp_path / a) if a.endswith((".json", ".jsonl")) else a for a in stage]
        assert run(argv) == 0, stage[0]
        for flag, name in zip(stage, stage[1:]):
            if flag.endswith("output"):
                outputs[name] = (tmp_path / name).read_bytes()
    return outputs


def test_stage_outputs_do_not_depend_on_the_sidecar(dataset_path, metadata_path, tmp_path):
    sidecar = _sidecar(dataset_path)
    assert not sidecar.exists()
    cold = _audit_artifacts(tmp_path)
    assert sidecar.is_file()
    assert _audit_artifacts(tmp_path) == cold
    sidecar.write_bytes(sidecar.read_bytes()[:100] + b"\x00" * 50)
    assert _audit_artifacts(tmp_path) == cold
