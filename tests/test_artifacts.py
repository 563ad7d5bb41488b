"""CLI files: every object the CLI writes reads back equal, through each
(writer, reader) pair the CLI exposes."""

import json
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaudit import diagnostics, pairing, ratio
from prefaudit.cli import (
    _flag_row, _write_csv, _write_jsonl, load_flags, load_pairs, load_profiles, load_ratio_records, run,
)
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.pairing import PAIR_KINDS, InconsistencyFlag, PromptPair
from prefaudit.ratio import RatioRecord
from prefaudit.records import ItemMetadata, load_metadata, load_records, save_records, to_row

ids = st.text(min_size=1, max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False)
optional_unit = st.none() | st.floats(0.0, 1.0)  # a profile score's domain
counts = st.integers(0, 10**6)
DIRECTIONS = {
    "identical": st.none(),
    "equivalent": st.sampled_from([None, "equal"]),
    "directional": st.sampled_from(["a_more", "b_more"]),
}


@st.composite
def pairs(draw):
    kind = draw(st.sampled_from(PAIR_KINDS))
    return PromptPair(
        pair_id=draw(ids),
        item_a=draw(ids),
        item_b=draw(ids),
        similarity=1.0 if kind == "identical" else draw(finite),
        kind=kind,
        expected_direction=draw(DIRECTIONS[kind]),
        rationale_tag=draw(st.none() | ids),
    )


flags = st.builds(
    InconsistencyFlag, annotator_id=ids, pair=pairs(),
    score_a=finite, score_b=finite, delta=finite, threshold_used=finite,
)
profiles = st.builds(
    ConsistencyProfile, annotator_id=ids,
    temp=optional_unit, frame=optional_unit, order=optional_unit, cross=optional_unit,
    n_temp_pairs=counts, n_frame_pairs=counts, n_order_pairs=counts, n_cross_items=counts,
    reliability=optional_unit, tau_used=finite,
)
ratio_records = st.builds(
    RatioRecord, annotator_id=ids, theme=ids, n_items=counts,
    var_within=finite, baseline=finite, ratio=finite,
    resamples_used=counts, seed=counts, degenerate=st.booleans(),
)
round_trip = settings(deadline=None, max_examples=40)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts") / "artifact.jsonl"


def _write(path, rows):
    _write_jsonl(str(path), {"cmd": "round-trip"}, rows)
    return path


@round_trip
@given(st.lists(pairs(), max_size=5))
def test_pairs_round_trip(artifact, written):
    assert load_pairs(_write(artifact, [vars(p) for p in written])) == written


@round_trip
@given(st.lists(flags, max_size=5))
def test_flags_round_trip(artifact, written):
    assert load_flags(_write(artifact, [_flag_row(f) for f in written])) == written


@round_trip
@given(st.lists(profiles, max_size=5, unique_by=lambda p: p.annotator_id))
def test_profiles_round_trip(artifact, written):
    read = load_profiles(_write(artifact, [to_row(p) for p in written]))
    assert read == {p.annotator_id: p for p in written}


@round_trip
@given(st.lists(ratio_records, max_size=5))
def test_ratio_records_round_trip(artifact, written):
    assert load_ratio_records(_write(artifact, [to_row(r) for r in written])) == written


def _write_either(path, fmt, header, rows):
    if fmt == "csv":
        _write_csv(str(path), {"cmd": "round-trip"}, header, rows)
    else:
        _write_jsonl(str(path), {"cmd": "round-trip"}, rows)
    return path


@round_trip
@given(
    st.lists(profiles, max_size=5, unique_by=lambda p: p.annotator_id),
    st.sampled_from(["jsonl", "csv"]),
    st.none() | st.sampled_from(["use_as_signal", "filter_downweight"]),
)
def test_profiles_round_trip_in_either_format_with_or_without_routing(artifact, written, fmt, routing):
    rows = [{**to_row(p), **({"routing": routing} if routing else {})} for p in written]
    header = list(rows[0]) if rows else ["annotator_id"]  # as diagnose builds it
    read = load_profiles(_write_either(artifact, fmt, header, rows))
    assert read == {p.annotator_id: p for p in written}


@round_trip
@given(st.lists(ratio_records, max_size=5), st.sampled_from(["jsonl", "csv"]))
def test_ratio_records_round_trip_in_either_format(artifact, written, fmt):
    header = [f.name for f in fields(RatioRecord)]  # as ratio writes it
    assert load_ratio_records(_write_either(artifact, fmt, header, [to_row(r) for r in written])) == written


def test_jsonl_artifact_is_written_row_by_row(tmp_path):
    """The writer holds one encoded row at a time, never the whole file."""
    rows = ({"annotator_id": f"a{i % 32}", "pair_id": f"item-{i:06d}|item-{i + 1:06d}",
             "label": "measurement_artifact", "rule_trace": ["repeat", "delta"]} for i in range(20_000))
    path = tmp_path / "labels.jsonl"
    tracemalloc.start()
    try:
        _write_jsonl(str(path), {"cmd": "stream"}, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


# ------------------------------------------------------- through the subcommands

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A synth dataset, with two themes split by item, in a fresh directory."""
    root = tmp_path_factory.mktemp("corpus")
    assert run(["synth", "--per-type", "2", "--items-per-annotator", "30", "--repeats", "6",
                "--framing-pairs", "2", "--anchors", "6", "--seed", "3", "--output-dir", str(root)]) == 0
    dataset = load_records(root / "dataset.jsonl")
    meta = root / "meta.jsonl"
    meta.write_text("".join(
        json.dumps({"item_id": item, "theme_labels": ["harm" if i % 2 else "care"]}) + "\n"
        for i, item in enumerate(dataset.item_ids)
    ), encoding="utf-8")
    return root


def _cli(corpus, *argv):
    args = [str(corpus / a) if a.endswith((".json", ".jsonl", ".csv")) else a for a in argv]
    assert run(args) == 0, args
    return corpus / argv[argv.index("--output") + 1] if "--output" in argv else None


def _dataset(corpus, metadata=False):
    return load_records(corpus / "dataset.jsonl",
                        metadata=load_metadata(corpus / "meta.jsonl") if metadata else None)


def _rewritten(path, tmp_path):
    """The bytes ``save_records`` writes for what ``load_records`` read from ``path``."""
    save_records(load_records(path), tmp_path / "again.jsonl")
    return (tmp_path / "again.jsonl").read_bytes()


def test_synth_output_reads_back_as_input(corpus, tmp_path):
    assert _rewritten(corpus / "dataset.jsonl", tmp_path) == (corpus / "dataset.jsonl").read_bytes()
    _cli(corpus, "validate", "--input", "dataset.jsonl", "--strict", "--output", "validate.json")


def test_themes_output_reads_back_as_metadata(corpus, tmp_path):
    labels, endpoints, fixtures = tmp_path / "labels.txt", tmp_path / "endpoints.json", tmp_path / "fx.json"
    labels.write_text("Privacy\nChild Harm\n", encoding="utf-8")
    endpoints.write_text(json.dumps([
        {"endpoint_id": f"ep{i}", "base_url": "http://x", "auth_env_var": "K", "model_name": "m"}
        for i in range(3)
    ]), encoding="utf-8")
    # the empty marker matches every prompt
    fixtures.write_text(json.dumps({f"ep{i}": {"": json.dumps({"labels": ["Privacy"]})} for i in range(3)}))
    patch = tmp_path / "patch.jsonl"
    assert run(["themes", "--input", str(corpus / "dataset.jsonl"), "--labels", str(labels),
                "--endpoints", str(endpoints), "--transport", "fixture", "--fixtures", str(fixtures),
                "--output", str(patch)]) == 0
    written = [json.loads(line) for line in patch.read_text().splitlines()[1:]]
    assert len(written) == len(_dataset(corpus).item_ids)
    assert load_metadata(patch) == {
        row["item_id"]: ItemMetadata(row["item_id"], theme_labels=row["theme_labels"]) for row in written
    }


def test_flags_read_back_equal(corpus):
    flags_path = corpus / "flags.jsonl"
    _cli(corpus, "repeats", "--input", "dataset.jsonl", "--flags-output", "flags.jsonl", "--output", "r.json")
    flags, _summary, _ladder = pairing.repeat_audit(_dataset(corpus))
    assert flags and load_flags(flags_path) == flags


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("route", [False, True])
def test_profiles_read_back_equal_and_weight_alike(corpus, fmt, route):
    name = f"profiles-{int(route)}.{fmt}"
    profiles = _cli(corpus, "diagnose", "--input", "dataset.jsonl", "--format", fmt,
                    *(["--route"] if route else []), "--output", name)
    assert load_profiles(profiles) == diagnostics.build_profiles(_dataset(corpus))
    weighted = _cli(corpus, "weights", "--input", "dataset.jsonl", "--profiles", name,
                    "--output", f"weighted-{name}.jsonl", "--summary-output", "summary.json")
    reference = _cli(corpus, "weights", "--input", "dataset.jsonl", "--output", "weighted.jsonl",
                     "--summary-output", "summary.json")
    assert weighted.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_ratio_records_read_back_equal_and_simulate_alike(corpus, fmt):
    ratios = _cli(corpus, "ratio", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--format", fmt,
                  "--output", f"ratios.{fmt}")
    written = ratio.all_ratios(_dataset(corpus, metadata=True))
    assert written and load_ratio_records(ratios) == written
    results = []
    for source in (f"ratios.{fmt}", "reference-ratios.jsonl"):
        if source.startswith("reference"):
            _cli(corpus, "ratio", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--output", source)
        out = _cli(corpus, "simulate", "--input", "dataset.jsonl", "--ratios", source, "--sample-size", "3",
                   "--output", "sim.json")
        results.append(json.loads(out.read_text())["result"])
    assert results[0] == results[1]


@pytest.mark.parametrize("policy", ["weight", "filter", "both"])
def test_weighted_export_reads_back_as_input(corpus, tmp_path, policy):
    weighted = _cli(corpus, "weights", "--input", "dataset.jsonl", "--weight-mode", "binary",
                    "--policy", policy, "--output", f"w-{policy}.jsonl", "--summary-output", "summary.json")
    assert _rewritten(weighted, tmp_path) == weighted.read_bytes()
    read = load_records(weighted).records
    kept = {r.record_id: r for r in _dataset(corpus).records}
    assert [replace(r, weight=None) for r in read] == [kept[r.record_id] for r in read]
    assert all((r.weight is None) == (policy == "filter") for r in read)
    assert (len(read) < len(kept)) == (policy != "weight")  # binary weights zero some records
    _cli(corpus, "validate", "--input", f"w-{policy}.jsonl", "--output", "validate.json")
    # weighting the export again overwrites its weights, or drops them under filter
    again = _cli(corpus, "weights", "--input", f"w-{policy}.jsonl", "--weight-mode", "binary",
                 "--policy", policy, "--output", f"w2-{policy}.jsonl", "--summary-output", "summary.json")
    assert again.read_bytes() == weighted.read_bytes()
