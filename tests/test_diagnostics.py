"""Consistency measures, reliability aggregation, framing-effect statistics."""

import random
from itertools import combinations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import dataset_of, metadata_of, rec
from prefaudit.diagnostics import (
    ConsistencyProfile,
    build_profile,
    build_profiles,
    cross_item_consistency,
    framing_consistency,
    framing_effect_stats,
    order_consistency,
    reliability,
    temporal_consistency,
)
from prefaudit.errors import InsufficientSupportError
from prefaudit.pairing import PromptPair
from prefaudit.planner import plan_tier
from prefaudit.ratio import RatioConfig
from prefaudit.records import ORDER_TAG_AB, ORDER_TAG_BA, to_row
from prefaudit.synth import generate


def test_temporal_two_of_three_pairs(repeat_dataset):
    score, n = temporal_consistency(repeat_dataset, "a1", 15.0)
    assert n == 3
    assert score == pytest.approx(2.0 / 3.0)


def test_temporal_identical_everywhere():
    records = [rec("a1", f"i{i}", 42.0, session=s) for i in range(4) for s in ("s1", "s2")]
    score, n = temporal_consistency(dataset_of(records), "a1", 15.0)
    assert score == 1.0 and n == 4


def test_temporal_full_scale_swings_score_zero():
    # one item rated 10, 50, and 100 on three occasions: all deltas above 15
    records = [
        rec("a1", "greet", 10.0, session="s1"),
        rec("a1", "greet", 50.0, session="s2"),
        rec("a1", "greet", 100.0, session="s3"),
    ]
    score, n = temporal_consistency(dataset_of(records), "a1", 15.0)
    assert n == 3
    assert score == 0.0


def test_temporal_requires_different_times():
    records = [rec("a1", "i1", 10.0, session="s1"), rec("a1", "i1", 90.0, session="s1")]
    score, n = temporal_consistency(dataset_of(records), "a1", 15.0)
    assert score is None and n == 0
    # a timestamp gap qualifies when sessions are absent
    records = [rec("a1", "i1", 10.0, timestamp=1), rec("a1", "i1", 90.0, timestamp=2)]
    score, n = temporal_consistency(dataset_of(records), "a1", 15.0)
    assert n == 1 and score == 0.0


def test_temporal_absent_when_no_repeats():
    score, n = temporal_consistency(dataset_of([rec("a1", "i1", 5.0)]), "a1", 15.0)
    assert score is None and n == 0


def test_temporal_monotone_in_tau(repeat_dataset):
    scores = [temporal_consistency(repeat_dataset, "a1", tau)[0] for tau in (0, 10, 15, 40, 100)]
    assert scores == sorted(scores)


def test_framing_consistency_variants():
    records = [
        rec("a1", "i1", 100.0, framing="a"),
        rec("a1", "i1", 0.0, framing="b"),
        rec("a1", "i2", 55.0, framing="a"),
        rec("a1", "i2", 55.0, framing="b"),
        rec("a1", "i3", 40.0, framing="a"),
        rec("a1", "i3", 55.0, framing="b"),  # boundary: delta 15 counts consistent
    ]
    score, n = framing_consistency(dataset_of(records), "a1", 15.0)
    assert n == 3
    assert score == pytest.approx(2.0 / 3.0)


def test_framing_with_equivalent_pairs():
    records = [rec("a1", "i1", 80.0), rec("a1", "i2", 20.0)]
    pair = PromptPair("i1|i2", "i1", "i2", 0.92, "equivalent")
    score, n = framing_consistency(dataset_of(records), "a1", 15.0, pairs=[pair])
    assert n == 1 and score == 0.0


def _framing_by_pair_loop(dataset, annotator_id, tau, pairs):
    """framing_consistency as it was computed pair by pair: the reference."""
    deltas = [
        abs(r1.score - r2.score)
        for recs in dataset.by_annotator_item.get(annotator_id, {}).values()
        for r1, r2 in combinations(recs, 2)
        if None not in (r1.framing_id, r2.framing_id) and r1.framing_id != r2.framing_id
    ]
    mine = dataset.by_annotator_item.get(annotator_id, {})
    for pair in pairs:
        if pair.kind != "equivalent" or pair.is_self_pair:
            continue
        for ra in mine.get(pair.item_a, []):
            for rb in mine.get(pair.item_b, []):
                deltas.append(abs(ra.score - rb.score))
    if not deltas:
        return None, 0
    return sum(1 for d in deltas if d <= tau) / len(deltas), len(deltas)


def test_framing_with_cross_item_pairs_matches_the_pair_loop():
    plan = plan_tier(1, 8 * 60, 8, 0.0, repeat_rate=4 / 60, min_repeats=4)
    dataset = generate(2, plan.n_items, plan, seed=5, n_framing_pairs=4, n_anchors=12).dataset
    rng = random.Random(5)
    items = dataset.item_ids
    pairs = []
    for n in range(400):
        a, b = rng.choice(items), rng.choice(items + items[:5])  # some self pairs
        kind = rng.choice(["equivalent", "equivalent", "directional"])
        pairs.append(PromptPair(f"p{n}", a, b, 0.9, kind, "a_more" if kind == "directional" else None))
    pairs += pairs[:20]  # a pair listed twice counts twice
    profiles = build_profiles(dataset, tau=15.0, pairs=pairs)
    n_cross = 0
    for annotator_id in dataset.annotator_ids:
        expected = _framing_by_pair_loop(dataset, annotator_id, 15.0, pairs)
        n_cross += expected[1] - framing_consistency(dataset, annotator_id, 15.0)[1]
        assert framing_consistency(dataset, annotator_id, 15.0, pairs) == expected
        assert (profiles[annotator_id].frame, profiles[annotator_id].n_frame_pairs) == expected
    assert n_cross > 50


def test_framing_absent_without_variants():
    score, n = framing_consistency(dataset_of([rec("a1", "i1", 5.0)]), "a1", 15.0)
    assert score is None and n == 0


def test_order_consistency_counts():
    records = []
    for i in range(10):
        first = "A"
        second = "A" if i < 7 else "B"
        records.append(rec("a1", f"i{i}", first, scale="binary_pair", condition_tag=ORDER_TAG_AB))
        records.append(rec("a1", f"i{i}", second, scale="binary_pair", condition_tag=ORDER_TAG_BA))
    score, n = order_consistency(dataset_of(records, scale="binary_pair"), "a1")
    assert n == 10
    assert score == pytest.approx(0.7)


def test_order_absent_without_both_orders():
    records = [rec("a1", "i1", "A", scale="binary_pair", condition_tag=ORDER_TAG_AB)]
    score, n = order_consistency(dataset_of(records, scale="binary_pair"), "a1")
    assert score is None and n == 0


def _cross_dataset(dim_ratings, history_ratings, dimension="justice"):
    records = []
    metadata = {}
    for i, value in enumerate(dim_ratings):
        item = f"d{i}"
        records.append(rec("a1", item, value))
        metadata.update(metadata_of(**{item: {"value_dimension": dimension}}))
    for i, value in enumerate(history_ratings):
        records.append(rec("a1", f"h{i}", value))
    return dataset_of(records, metadata=metadata)


def test_cross_item_constant_ratings_score_one():
    dataset = _cross_dataset([50.0] * 5, [10.0, 90.0, 30.0, 70.0, 20.0, 80.0])
    score, n = cross_item_consistency(dataset, "a1", "justice", RatioConfig(resamples=400, seed=1))
    assert n == 5
    assert score == pytest.approx(1.0)


def test_cross_item_random_from_own_history_near_half():
    rng = np.random.default_rng(5)
    values = [float(v) for v in rng.uniform(0, 100, size=60)]
    dataset = _cross_dataset(values[:20], values[20:])
    score, _ = cross_item_consistency(dataset, "a1", "justice", RatioConfig(resamples=2000, seed=2))
    assert 0.35 <= score <= 0.65


def test_cross_item_insufficient_support():
    dataset = _cross_dataset([50.0] * 4, [10.0] * 8)
    with pytest.raises(InsufficientSupportError):
        cross_item_consistency(dataset, "a1", "justice")


def test_reliability_modes():
    full = ConsistencyProfile("a", temp=1.0, frame=1.0, order=1.0, cross=1.0)
    assert reliability(full, "weighted") == 1.0
    assert reliability(full, "min") == 1.0
    assert reliability(full, "hierarchical") == 1.0

    only_temp = ConsistencyProfile("a", temp=0.4)
    assert reliability(only_temp, "weighted") == pytest.approx(0.4)

    two = ConsistencyProfile("a", temp=0.9, frame=0.2)
    assert reliability(two, "min") == pytest.approx(0.2)
    assert reliability(two, "weighted") == pytest.approx(0.55)
    assert reliability(two, "weighted", weights=(3, 1, 0, 0)) == pytest.approx(0.725)


def test_reliability_hierarchical_first_failing():
    assert reliability(ConsistencyProfile("a", temp=0.3, frame=0.9), "hierarchical") == 0.3
    assert reliability(ConsistencyProfile("a", temp=0.9, frame=0.3), "hierarchical") == 0.3
    passing = ConsistencyProfile("a", temp=0.9, frame=0.8)
    assert reliability(passing, "hierarchical") == pytest.approx(0.85)


def test_reliability_min_below_weighted():
    rng = np.random.default_rng(8)
    for _ in range(50):
        profile = ConsistencyProfile(
            "a",
            temp=float(rng.uniform()),
            frame=float(rng.uniform()),
            order=float(rng.uniform()),
            cross=float(rng.uniform()),
        )
        assert reliability(profile, "min") <= reliability(profile, "weighted") + 1e-12


def test_reliability_errors():
    with pytest.raises(InsufficientSupportError):
        reliability(ConsistencyProfile("a"), "weighted")
    with pytest.raises(ValueError):
        reliability(ConsistencyProfile("a", temp=0.5), "bogus")
    with pytest.raises(ValueError):
        reliability(ConsistencyProfile("a", temp=0.5), "weighted", weights=(1, 2, 3))


def test_relabeling_invariance(repeat_dataset):
    renamed = dataset_of(
        [
            rec(r.annotator_id.replace("a1", "zz"), r.item_id.replace("i", "q"), r.score, session=r.session_id)
            for r in repeat_dataset.records
        ]
    )
    assert temporal_consistency(repeat_dataset, "a1", 15.0)[0] == pytest.approx(
        temporal_consistency(renamed, "zz", 15.0)[0]
    )


def _framing_pair_dataset(side_a, side_b):
    records = []
    for idx, (a, b) in enumerate(zip(side_a, side_b)):
        annotator = f"ann{idx}"
        records.append(rec(annotator, "v1", a))
        records.append(rec(annotator, "v2", b))
    return dataset_of(records), PromptPair("v1|v2", "v1", "v2", 0.95, "equivalent")


def test_framing_effect_all_equal():
    dataset, pair = _framing_pair_dataset([50.0, 60.0, 70.0], [50.0, 60.0, 70.0])
    effect = framing_effect_stats(dataset, pair)
    assert effect.pair_shift == 0.0
    assert effect.paired_t == 0.0
    assert effect.cohens_d == 0.0
    assert effect.degenerate


def test_framing_effect_matches_scipy_oracle():
    side_a = [10.0, 20.0, 30.0, 55.0, 40.0]
    side_b = [18.0, 25.0, 41.0, 49.0, 52.0]
    dataset, pair = _framing_pair_dataset(side_a, side_b)
    effect = framing_effect_stats(dataset, pair)
    expected = scipy_stats.ttest_rel(side_a, side_b)
    assert effect.paired_t == pytest.approx(float(expected.statistic), abs=1e-9)
    assert effect.p_value == pytest.approx(float(expected.pvalue), abs=1e-9)
    diffs = np.asarray(side_a) - np.asarray(side_b)
    assert effect.cohens_d == pytest.approx(float(diffs.mean() / diffs.std(ddof=1)), abs=1e-9)
    assert effect.pair_shift == pytest.approx(abs(float(diffs.mean())), abs=1e-12)
    assert effect.per_annotator_deviation["ann0"] == 8.0


def test_framing_effect_annotator_order_invariant():
    side_a = [10.0, 20.0, 30.0]
    side_b = [20.0, 30.0, 45.0]
    dataset, pair = _framing_pair_dataset(side_a, side_b)
    shuffled = dataset_of(list(reversed(dataset.records)))
    assert to_row(framing_effect_stats(dataset, pair)) == to_row(framing_effect_stats(shuffled, pair))


def test_framing_effect_needs_two_shared_annotators():
    records = [rec("solo", "v1", 10.0), rec("solo", "v2", 20.0)]
    with pytest.raises(InsufficientSupportError):
        framing_effect_stats(dataset_of(records), PromptPair("v1|v2", "v1", "v2", 0.95, "equivalent"))


def test_build_profiles_fills_components(repeat_dataset):
    profiles = build_profiles(repeat_dataset, tau=15.0)
    profile = profiles["a1"]
    assert profile.temp == pytest.approx(2.0 / 3.0)
    assert profile.frame is None
    assert profile.reliability == pytest.approx(2.0 / 3.0)
    assert profile.tau_used == 15.0


def test_temporal_on_binary_scale_uses_exact_agreement():
    records = [
        rec("a1", "i1", "A", session="s1", scale="binary_pair"),
        rec("a1", "i1", "A", session="s2", scale="binary_pair"),
        rec("a1", "i2", "A", session="s1", scale="binary_pair"),
        rec("a1", "i2", "B", session="s2", scale="binary_pair"),
    ]
    score, n = temporal_consistency(dataset_of(records, scale="binary_pair"), "a1")
    assert n == 2
    assert score == pytest.approx(0.5)


def test_build_profile_uses_scale_default_tau():
    records = [
        rec("a1", "i1", 3.0, session="s1", scale="likert_5"),
        rec("a1", "i1", 4.0, session="s2", scale="likert_5"),
        rec("a1", "i2", 1.0, session="s1", scale="likert_5"),
        rec("a1", "i2", 5.0, session="s2", scale="likert_5"),
    ]
    profile = build_profile(dataset_of(records, scale="likert_5"), "a1")
    assert profile.tau_used == 1.0
    assert profile.temp == pytest.approx(0.5)
