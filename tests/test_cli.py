"""CLI: exit codes, config echo, subcommand pipelines, report rendering."""

import json

import pytest

from prefaudit.cli import load_profiles, run
from prefaudit.errors import DataFormatError
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
                [("similarity", "high"), ("similarity", "0.5"), ("similarity", True)]),
    "--flags": ("classify", {"item_a": "i1", "item_b": "i2", "annotator_id": "u0", "score_a": 5.0,
                             "score_b": 95.0, "delta": 90.0, "threshold_used": 15.0}, "annotator_id",
                [("delta", "wide"), ("score_a", "0.5"), ("score_a", True)]),
    "--profiles": ("weights", {"annotator_id": "s0", "temp": 1.0}, "annotator_id",
                   [("n_temp_pairs", "7"), ("reliability", float("nan")), ("temp", -4.0), ("cross", float("inf"))]),
    "--ratios": ("simulate", {"annotator_id": "s0", "theme": "harm", "n_items": 3, "var_within": 1.0,
                              "baseline": 2.0, "ratio": 0.5, "resamples_used": 10, "seed": 0}, "theme",
                 [("ratio", "x")]),
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


def test_a_zero_embedding_vector_is_a_data_error_naming_its_line(dataset_path, tmp_path, capsys):
    embeddings = tmp_path / "emb.jsonl"
    _write_jsonl(embeddings, [{"item_id": "i1", "vector": [1.0, 0.0]}, {"item_id": "i2", "vector": [0.0, 0.0]}])
    assert run(["pairs", "--input", str(dataset_path), "--embeddings", str(embeddings)]) == 2
    assert capsys.readouterr().err == f"data error: {embeddings}: line 2: embedding for 'i2' is a zero vector\n"


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


def test_config_file_with_a_byte_order_mark_supplies_defaults(dataset_path, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbftau = 5\n")
    out = tmp_path / "profiles.jsonl"
    assert run(["diagnose", "--config", str(config), "--input", str(dataset_path), "--output", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["#config"]["tau"] == 5


@pytest.mark.parametrize("text, line, why", [
    (b"seed = 3\ntau = 5\xff\n", 2, "invalid UTF-8: byte 0xff"),
    (b"# defaults\ntau\n", 2, "config line is not key=value: 'tau'"),
], ids=["non-UTF-8 byte", "not key=value"])
def test_a_bad_config_file_is_one_error_line_naming_the_file_and_line(tmp_path, capsys, text, line, why):
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    assert run(["validate", "--config", str(config), "--input", "x.jsonl"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {config}: line {line}: {why}"]


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
