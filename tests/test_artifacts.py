"""CLI files: every object the CLI writes reads back equal, through each
(writer, reader) pair the CLI exposes."""

import json
import tracemalloc
from dataclasses import fields, replace
from operator import itemgetter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from prefaudit import cli, diagnostics, pairing, ratio
from prefaudit import records as records_module
from prefaudit.cli import (
    _write_csv, _write_jsonl, load_flags, load_pairs, load_profiles, load_ratio_records, run,
)
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.pairing import PAIR_KINDS, InconsistencyFlag, PromptPair
from prefaudit.ratio import RatioRecord
from prefaudit.records import ItemMetadata, load_metadata, load_records, save_records, to_row

ids = st.text(min_size=1, max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False)
optional_unit = st.none() | st.floats(0.0, 1.0)  # a profile score's domain
nonnegative = st.floats(0.0, allow_infinity=False)  # variances, ratios, deltas, thresholds and tau
cosine = st.floats(-1.0, 1.0)  # a pair's similarity
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
        similarity=1.0 if kind == "identical" else draw(cosine),
        kind=kind,
        expected_direction=draw(DIRECTIONS[kind]),
        rationale_tag=draw(st.none() | ids),
    )


flags = st.builds(
    InconsistencyFlag, annotator_id=ids, pair=pairs(),
    score_a=finite, score_b=finite, delta=nonnegative, threshold_used=nonnegative,
)
profiles = st.builds(
    ConsistencyProfile, annotator_id=ids,
    temp=optional_unit, frame=optional_unit, order=optional_unit, cross=optional_unit,
    n_temp_pairs=counts, n_frame_pairs=counts, n_order_pairs=counts, n_cross_items=counts,
    reliability=optional_unit, tau_used=nonnegative,
)
ratio_records = st.builds(
    RatioRecord, annotator_id=ids, theme=ids, n_items=counts,
    var_within=nonnegative, baseline=nonnegative, ratio=nonnegative,
    resamples_used=counts, seed=counts, degenerate=st.booleans(),
)
round_trip = settings(deadline=None, max_examples=40)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts") / "artifact.jsonl"


def _write(path, written, cls, columns=None):
    _write_jsonl(str(path), {"cmd": "round-trip"}, written, cls, columns)
    return path


@round_trip
@given(st.lists(pairs(), max_size=5))
def test_pairs_round_trip(artifact, written):
    assert load_pairs(_write(artifact, written, PromptPair)) == written


@round_trip
@given(st.lists(flags, max_size=5))
def test_flags_round_trip(artifact, written):
    assert load_flags(_write(artifact, written, InconsistencyFlag)) == written


@round_trip
@given(st.lists(profiles, max_size=5, unique_by=lambda p: p.annotator_id))
def test_profiles_round_trip(artifact, written):
    read = load_profiles(_write(artifact, written, ConsistencyProfile))
    assert read == {p.annotator_id: p for p in written}


@round_trip
@given(st.lists(ratio_records, max_size=5))
def test_ratio_records_round_trip(artifact, written):
    assert load_ratio_records(_write(artifact, written, RatioRecord)) == written


def _write_either(path, fmt, header, written, cls, columns=None):
    """``written`` as the CSV or the JSONL writer writes it, with the extra ``columns``."""
    if fmt == "csv":
        rows = [{**to_row(o), **{k: get(o) for k, get in (columns or {}).items()}} for o in written]
        _write_csv(str(path), {"cmd": "round-trip"}, header(rows), rows)
    else:
        _write(path, written, cls, columns)
    return path


@round_trip
@given(
    st.lists(profiles, max_size=5, unique_by=lambda p: p.annotator_id),
    st.sampled_from(["jsonl", "csv"]),
    st.none() | st.sampled_from(["use_as_signal", "filter_downweight"]),
)
def test_profiles_round_trip_in_either_format_with_or_without_routing(artifact, written, fmt, routing):
    columns = {"routing": lambda p: routing} if routing else None
    header = lambda rows: list(rows[0]) if rows else ["annotator_id"]  # as diagnose builds it
    read = load_profiles(_write_either(artifact, fmt, header, written, ConsistencyProfile, columns))
    assert read == {p.annotator_id: p for p in written}


@round_trip
@given(st.lists(ratio_records, max_size=5), st.sampled_from(["jsonl", "csv"]))
def test_ratio_records_round_trip_in_either_format(artifact, written, fmt):
    header = lambda rows: [f.name for f in fields(RatioRecord)]  # as ratio writes it
    assert load_ratio_records(_write_either(artifact, fmt, header, written, RatioRecord)) == written


def test_jsonl_artifact_is_written_row_by_row(tmp_path):
    """The writer reads its rows as it writes them, never the whole file at once."""
    rows = ({"annotator_id": f"a{i % 32}", "pair_id": f"item-{i:06d}|item-{i + 1:06d}",
             "label": "measurement_artifact", "rule_trace": ["repeat", "delta"]} for i in range(20_000))
    path = tmp_path / "labels.jsonl"
    columns = {key: itemgetter(key) for key in ("annotator_id", "pair_id", "label", "rule_trace")}
    tracemalloc.start()
    try:
        _write_jsonl(str(path), {"cmd": "stream"}, rows, columns=columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def _write_peak(path, rows, cls=None, columns=None):
    """The tracemalloc peak of writing ``rows``, which are made beforehand."""
    tracemalloc.start()
    try:
        _write_jsonl(str(path), {"cmd": "stream"}, rows, cls, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _label_rows(n):
    return [{"annotator_id": f"a{i % 32}", "pair_id": f"item-{i:06d}|item-{i + 1:06d}",
             "label": "measurement_artifact", "rule_trace": ("repeat", "delta")} for i in range(n)]


def _flags(n):
    """``n`` flags over 50 pairs."""
    pool = [PromptPair(f"i{i}|j{i}", f"i{i}", f"j{i}", 0.5 + i / 100) for i in range(50)]
    return [InconsistencyFlag(f"a{i % 64}", pool[i // 41 % 50], float(i % 100), 50.0, abs(i % 100 - 50.0), 15.0)
            for i in range(n)]


STREAMED = {
    "labels": (_label_rows, None, {key: itemgetter(key) for key in ("annotator_id", "pair_id", "label", "rule_trace")}),
    "flags": (_flags, InconsistencyFlag, None),
}


@pytest.mark.parametrize("kind", STREAMED)
def test_jsonl_artifact_is_written_a_chunk_at_a_time(tmp_path, kind):
    """Writing ten times the rows peaks less than one chunk's text higher: the writer
    holds one chunk of rows, columns and text at a time, never the whole file's."""
    make, cls, columns = STREAMED[kind]
    chunk = records_module._CHUNK_ROWS
    two = _write_peak(tmp_path / "two.jsonl", make(2 * chunk), cls, columns)
    twenty = _write_peak(tmp_path / "twenty.jsonl", make(20 * chunk), cls, columns)
    assert twenty - two < (tmp_path / "twenty.jsonl").stat().st_size / 20


# ------------------------------------------------------- the sidecars the writers leave

# Strings, numbers and pairs a parse could read back otherwise than they were
# written: non-ASCII text and lone surrogates, which the writer escapes; an int
# in a float field and an integral float in an int field, which a parse casts;
# a signed zero; and equal pairs that are distinct objects.
odd_ids = ids | st.sampled_from(["naïve café", "雪\U0001f600", "\udc80x", "\ud800"])
# now and then no pair_id, which a read fills in, so that the writer leaves no sidecar
pair_ids = st.integers(0, 9).flatmap(lambda i: odd_ids if i else st.just(""))
odd_finite = finite | st.integers(-10**6, 10**6) | st.sampled_from([-0.0, 0.0])
odd_nonnegative = nonnegative | st.integers(0, 10**6)
odd_optional_unit = optional_unit | st.sampled_from([0, 1])
odd_counts = counts | st.integers(0, 100).map(float)


@st.composite
def odd_pairs(draw):
    kind = draw(st.sampled_from(PAIR_KINDS))
    return PromptPair(
        pair_id=draw(pair_ids),
        item_a=draw(odd_ids),
        item_b=draw(odd_ids),
        similarity=draw(st.sampled_from([1, 1.0]) if kind == "identical" else cosine | st.sampled_from([-1, 0, 1, -0.0])),
        kind=kind,
        expected_direction=draw(DIRECTIONS[kind]),
        rationale_tag=draw(st.none() | odd_ids),
    )


@st.composite
def odd_flags(draw):
    """Flags over a few pairs, some of them equal copies of others, in runs or interleaved."""
    pool = draw(st.lists(odd_pairs(), min_size=1, max_size=3))
    pool += [replace(pair) for pair in pool if draw(st.booleans())]  # equal, and another object
    return [
        InconsistencyFlag(draw(odd_ids), draw(st.sampled_from(pool)), draw(odd_finite), draw(odd_finite),
                          draw(odd_nonnegative), draw(odd_nonnegative))
        for _ in range(draw(st.integers(0, 8)))
    ]


# Each intermediate file the CLI writes: the row type it writes, whether it leaves a sidecar
# for some objects (as the CLI's writer decides), the objects to write, and the reader.
WRITTEN = {
    "pairs": (PromptPair, lambda objs: False, st.lists(odd_pairs(), max_size=5), load_pairs),
    "flags": (InconsistencyFlag, lambda objs: cli._kept(flag.pair for flag in objs), odd_flags(), load_flags),
    "profiles": (ConsistencyProfile, lambda objs: True,
                 st.lists(st.builds(
                     ConsistencyProfile, annotator_id=odd_ids,
                     temp=odd_optional_unit, frame=odd_optional_unit, order=odd_optional_unit, cross=odd_optional_unit,
                     n_temp_pairs=odd_counts, n_frame_pairs=odd_counts, n_order_pairs=odd_counts,
                     n_cross_items=odd_counts, reliability=odd_optional_unit, tau_used=odd_nonnegative,
                 ), max_size=5, unique_by=lambda profile: profile.annotator_id), load_profiles),  # one per annotator
    "ratios": (RatioRecord, lambda objs: True,
               st.lists(st.builds(
                   RatioRecord, annotator_id=odd_ids, theme=odd_ids, n_items=odd_counts,
                   var_within=odd_nonnegative, baseline=odd_nonnegative, ratio=odd_nonnegative,
                   resamples_used=odd_counts, seed=odd_counts, degenerate=st.booleans(),
               ), max_size=5), load_ratio_records),
}


def _shape(loaded):
    """What a read gave: each object's type and its fields' exact types and reprs (a
    repr tells -0.0 from 0.0 and 1 from 1.0), and which flags share one pair."""
    objects = list(loaded.values()) if isinstance(loaded, dict) else loaded
    values = [(type(o), [(type(v), repr(v)) for v in to_row(o).values()]) for o in objects]
    pairs = [o.pair for o in objects if isinstance(o, InconsistencyFlag)]
    return values, [next(i for i, q in enumerate(pairs) if q is p) for p in pairs]


def _refuse(*args, **kwargs):
    raise AssertionError("the file was parsed")


@settings(deadline=None, max_examples=60)
@seed(20261020)
@given(data=st.data(), kind=st.sampled_from(list(WRITTEN)))
def test_a_sidecar_a_writer_leaves_reads_as_a_fresh_parse_of_the_file(tmp_path_factory, data, kind):
    cls, keeps, objects, load = WRITTEN[kind]
    written = data.draw(objects)
    kept = keeps(written)
    directory = tmp_path_factory.mktemp("written")
    path = directory / f"{kind}.jsonl"
    _write_jsonl(str(path), {"cmd": kind}, written, cls, kept=kept)
    assert (directory / f".{kind}.jsonl.prefaudit").is_file() == kept
    (directory / "fresh").mkdir()
    fresh = directory / "fresh" / path.name
    fresh.write_bytes(path.read_bytes())
    parsed = _shape(load(fresh))
    with pytest.MonkeyPatch.context() as patch:
        if kept:
            patch.setattr(records_module, "iter_jsonl", _refuse)
            patch.setattr(records_module, "from_row", _refuse)
        assert _shape(load(path)) == parsed
        patch.setattr(records_module, "iter_jsonl", _refuse)
        patch.setattr(records_module, "from_row", _refuse)
        assert _shape(load(fresh)) == parsed  # the sidecar the parse of the copy kept


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
