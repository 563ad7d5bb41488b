"""Tier plans, schedules with spacing guarantees, threshold calibration."""

import numpy as np
import pytest

from prefaudit.errors import InfeasiblePlanError
from prefaudit.planner import (
    assign_diagnostics,
    calibrate_consequence,
    calibrate_empirical,
    calibrate_scale,
    plan_tier,
    validate_schedule,
)
from prefaudit.records import ItemMetadata


def test_tier1_worked_cost_example():
    plan = plan_tier(1, 10_000, 5, 0.50)
    assert plan.items_per_annotator == 2000
    assert plan.n_repeats_per_annotator == 100
    assert plan.extra_annotations == 500
    assert plan.extra_cost == 250.0
    assert plan.overhead_pct == 5.0


def test_tier1_minimum_repeats_infeasible():
    with pytest.raises(InfeasiblePlanError, match="binding constraint"):
        plan_tier(1, 100, 1, 0.50)  # 5% of 100 items = 5 repeats < 15


def test_tier2_cross_annotator_framing_costs_nothing():
    tier1 = plan_tier(1, 10_000, 5, 0.50)
    tier2 = plan_tier(2, 10_000, 5, 0.50)
    assert tier2.extra_annotations == tier1.extra_annotations == 500
    assert tier2.framing_rate == 0.125
    assert tier2.n_framing_pairs_per_annotator == 250
    assert tier2.n_within_framing_per_annotator == 0


def test_tier2_within_annotator_framing_adds_annotations():
    plan = plan_tier(2, 10_000, 5, 0.50, within_annotator_framing_rate=0.10)
    assert plan.n_within_framing_per_annotator == 200
    assert plan.extra_annotations == 5 * (100 + 200)


def test_tier3_retest_structure():
    plan = plan_tier(3, 10_000, 5, 0.50)
    assert plan.retest_rate == 0.25
    assert plan.n_repeats_per_annotator == 500
    assert plan.n_within_framing_per_annotator == 250
    assert plan.extra_annotations == 5 * 750
    assert plan.overhead_pct == pytest.approx(37.5)


def test_rate_bounds_enforced():
    with pytest.raises(ValueError, match="repeat_rate"):
        plan_tier(1, 10_000, 5, 0.50, repeat_rate=0.02)
    with pytest.raises(ValueError, match="framing_rate"):
        plan_tier(2, 10_000, 5, 0.50, framing_rate=0.5)
    with pytest.raises(ValueError, match="retest_rate"):
        plan_tier(3, 10_000, 5, 0.50, retest_rate=0.1)


def test_overhead_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n_annotators = int(rng.integers(2, 9))
        ipa = int(rng.integers(400, 3000))
        plan = plan_tier(1, ipa * n_annotators, n_annotators, 1.0)
        base = plan.items_per_annotator * plan.n_annotators
        assert plan.overhead_pct == pytest.approx(100.0 * plan.extra_annotations / base)
        assert plan.n_repeats_per_annotator >= 15
        assert 0.05 <= plan.repeat_rate <= 0.08


def _small_plan():
    return plan_tier(1, 500, 5, 0.1, min_repeats=5)


def test_schedule_respects_spacing_and_is_deterministic():
    plan = _small_plan()
    items = [f"item-{i:03d}" for i in range(500)]
    annotators = [f"ann-{i}" for i in range(5)]
    schedule = assign_diagnostics(plan, items, annotators, seed=13)
    again = assign_diagnostics(plan, items, annotators, seed=13)
    assert schedule.entries == again.entries
    assert validate_schedule(schedule) == []

    # independent spacing scan
    for annotator in annotators:
        entries = schedule.for_annotator(annotator)
        first_seen = {}
        repeats = 0
        for entry in entries:
            key = (entry.item_id, entry.framing_id)
            if key in first_seen:
                assert entry.position - first_seen[key] >= plan.min_spacing
                repeats += 1
            else:
                first_seen[key] = entry.position
        assert repeats == plan.n_repeats_per_annotator


def test_schedule_infeasible_spacing():
    from dataclasses import replace

    plan = replace(_small_plan(), min_spacing=200)  # longer than the task list
    items = [f"item-{i:03d}" for i in range(500)]
    with pytest.raises(InfeasiblePlanError):
        assign_diagnostics(plan, items, [f"ann-{i}" for i in range(5)], seed=1)


def test_plan_rejects_spacing_longer_than_tasklist():
    with pytest.raises(InfeasiblePlanError, match="spacing"):
        plan_tier(1, 500, 5, 0.1, min_repeats=5, min_spacing=99)


def test_schedule_splits_framing_variants_across_annotators():
    plan = plan_tier(2, 400, 4, 0.1, min_repeats=5)
    items = [f"item-{i:03d}" for i in range(400)]
    annotators = [f"ann-{i}" for i in range(4)]
    schedule = assign_diagnostics(plan, items, annotators, seed=3)
    variants = {
        annotator: {e.framing_id for e in schedule.for_annotator(annotator) if e.framing_id}
        for annotator in annotators
    }
    assert variants["ann-0"] == {"a"}
    assert variants["ann-1"] == {"b"}


def test_schedule_stratified_by_content_type():
    plan = plan_tier(1, 200, 2, 0.1, min_repeats=5)
    items = [f"item-{i:03d}" for i in range(200)]
    metadata = {
        item: ItemMetadata(item, content_type="A1_generic" if i % 2 == 0 else "A4_value_laden")
        for i, item in enumerate(items)
    }
    schedule = assign_diagnostics(plan, items, [f"ann-{i}" for i in range(2)], seed=5, metadata=metadata)
    assert validate_schedule(schedule) == []
    for annotator in ("ann-0", "ann-1"):
        repeated = [e.item_id for e in schedule.for_annotator(annotator) if e.kind == "repeat"]
        kinds = {metadata[i].content_type for i in repeated}
        assert kinds == {"A1_generic", "A4_value_laden"}  # both strata represented


def test_calibrate_empirical_formula():
    t = 2.0 * np.sqrt(3.0)
    diffs = [1.0] * 4 + [9.0] * 4 + [5.0 - t] * 2 + [5.0 + t] * 2
    calibration = calibrate_empirical(diffs, k=2.0)
    # oracle: mean 5, sample sd 4 -> 5 + 2 x 4
    assert calibration.consistent_max == pytest.approx(13.0, abs=1e-6)
    assert calibration.marginal_max == pytest.approx(26.0, abs=1e-6)
    assert calibration.method == "empirical"


def test_calibrate_empirical_matches_numpy_oracle():
    rng = np.random.default_rng(2)
    diffs = [float(d) for d in rng.uniform(0, 20, size=25)]
    calibration = calibrate_empirical(diffs, k=1.5)
    expected = float(np.mean(diffs) + 1.5 * np.std(diffs, ddof=1))
    assert calibration.consistent_max == pytest.approx(expected, abs=1e-12)


def test_calibrate_empirical_needs_ten_cases():
    with pytest.raises(ValueError, match="10"):
        calibrate_empirical([1.0] * 9)


def test_calibrate_scale_rows():
    continuous = calibrate_scale("continuous_0_100")
    assert (continuous.consistent_max, continuous.marginal_max) == (15.0, 30.0)
    likert = calibrate_scale("likert_5")
    assert (likert.consistent_max, likert.marginal_max) == (1.0, 2.0)
    binary = calibrate_scale("binary_pair")
    assert binary.consistent_max == 0.0
    assert binary.consistent_max < binary.marginal_max  # empty marginal band


def test_calibrate_consequence():
    calibration = calibrate_consequence("continuous_0_100", 10.0)
    assert calibration.consistent_max == 10.0
    assert calibration.marginal_max == 20.0
    binary = calibrate_consequence("binary_pair", 0.0)
    assert binary.consistent_max == 0.0
