"""CLI intermediate files: every object the CLI writes reads back equal."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefaudit.cli import _flag_row, _write_jsonl, load_flags, load_pairs, load_profiles, load_ratio_records
from prefaudit.diagnostics import ConsistencyProfile
from prefaudit.pairing import PAIR_KINDS, InconsistencyFlag, PromptPair
from prefaudit.ratio import RatioRecord

ids = st.text(min_size=1, max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False)
optional_finite = st.none() | finite
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
    temp=optional_finite, frame=optional_finite, order=optional_finite, cross=optional_finite,
    n_temp_pairs=counts, n_frame_pairs=counts, n_order_pairs=counts, n_cross_items=counts,
    reliability=optional_finite, tau_used=finite,
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
    read = load_profiles(_write(artifact, [p.as_dict() for p in written]))
    assert read == {p.annotator_id: p for p in written}


@round_trip
@given(st.lists(ratio_records, max_size=5))
def test_ratio_records_round_trip(artifact, written):
    assert load_ratio_records(_write(artifact, [r.as_dict() for r in written])) == written
