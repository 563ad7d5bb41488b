"""Majority labels and pool-flip simulations."""

import random
from itertools import combinations

import numpy as np
import pytest

from conftest import dataset_of, rec
from prefaudit import aggregation
from prefaudit.aggregation import (
    _modal_label,
    _prompt_ratings,
    majority_label,
    median_split_pools,
    pool_flip_simulation,
)
from prefaudit.errors import InsufficientSupportError
from prefaudit.ratio import RatioRecord
from prefaudit.records import common_scale_score, to_row


def _ratio(annotator, value):
    return RatioRecord(annotator, "harm", 5, value, 1.0, value, 100, 0)


def test_majority_label_cases():
    assert majority_label([80.0] * 5) is True
    assert majority_label([10.0, 10.0, 10.0, 90.0, 90.0]) is False
    assert majority_label([50.0, 49.0, 49.0, 49.0, 49.0]) is False  # one vote of five
    assert majority_label([50.0, 50.0, 50.0, 49.0, 49.0]) is True  # threshold is inclusive


def test_majority_label_even_sizes():
    with pytest.raises(ValueError, match="even"):
        majority_label([80.0, 80.0, 10.0, 10.0])
    assert majority_label([80.0, 80.0, 10.0, 10.0], allow_even=True) is False  # tie resolves not-harmful


# (6, 3, 3) is an exact tie: 10 of the 20 juries have a harmful majority,
# which must resolve harmful
@pytest.mark.parametrize(
    "n, h, k",
    [(6, 3, 3), (12, 7, 5), (12, 5, 5), (9, 4, 3), (9, 5, 3), (7, 0, 5), (7, 7, 7), (10, 5, 5), (11, 6, 9)],
)
def test_modal_label_matches_jury_enumeration(n, h, k):
    # raters 0..h-1 sit exactly at the (inclusive) threshold, the rest below it
    values = np.asarray([50.0] * h + [49.0] * (n - h))
    juries = list(combinations(range(n), k))
    harmful = sum(1 for jury in juries if sum(1 for m in jury if m < h) * 2 > k)
    assert _modal_label(values, k, 50.0) is (harmful * 2 >= len(juries))


def test_median_split_partitions():
    ratios = [_ratio("a1", 0.2), _ratio("a2", 0.8), _ratio("a3", 1.5), _ratio("a4", 2.0)]
    pool_all, low, high = median_split_pools(ratios)
    assert low.membership | high.membership == pool_all.membership
    assert not (low.membership & high.membership)
    assert "a1" in low.membership and "a4" in high.membership
    # the annotator exactly at the median lands in the low pool
    ratios = [_ratio("a1", 1.0), _ratio("a2", 1.0), _ratio("a3", 2.0)]
    _, low, high = median_split_pools(ratios)
    assert low.membership == {"a1", "a2"}
    assert high.membership == {"a3"}


def _flip_dataset(n_prompts=4):
    """Six harm-seeing low-ratio annotators against six permissive high-ratio
    ones; one permissive rater sits just over the harm threshold so the
    all-pool majority is unambiguous."""
    records = []
    ratios = []
    for i in range(6):
        ratios.append(_ratio(f"low{i}", 0.20 + 0.05 * i))  # distinct, all below 1
        ratios.append(_ratio(f"high{i}", 1.50 + 0.10 * i))  # distinct, all above 1
    for p in range(n_prompts):
        for i in range(6):
            records.append(rec(f"low{i}", f"p{p}", 80.0))
            records.append(rec(f"high{i}", f"p{p}", 55.0 if i == 0 else 20.0))
    return dataset_of(records), ratios


def test_pool_flip_exhaustive_construction():
    dataset, ratios = _flip_dataset()
    report = pool_flip_simulation(dataset, ratios, iterations=400, sample_size=5, seed=11)
    # oracle: enumerate all juries of 5 from the 12-rater all pool; 7 raters
    # (six low plus high0 at 55) vote harmful, so the exact majority
    # probability is 546/792
    harmful_raters = 7
    harmful_juries = sum(
        1
        for jury in combinations(range(12), 5)
        if sum(1 for m in jury if m < harmful_raters) * 2 > 5
    )
    total_juries = len(list(combinations(range(12), 5)))
    assert harmful_juries == 546 and total_juries == 792
    assert harmful_juries / total_juries > 0.5  # all-pool modal label: harmful
    for labels in report.per_prompt.values():
        assert labels["all"] is True
        assert labels["low_inconsistency"] is True  # agrees with all
        assert labels["high_inconsistency"] is False  # flips
    assert report.n_flips_low == 0
    assert report.n_flips_high == 4
    assert report.pct_flips_high == 100.0
    assert report.n_eligible == 4


def test_pool_flip_zero_when_pools_agree():
    records = []
    ratios = []
    for i in range(5):
        ratios.append(_ratio(f"low{i}", 0.3))
        ratios.append(_ratio(f"high{i}", 1.7))
    for p in range(3):
        for i in range(5):
            records.append(rec(f"low{i}", f"p{p}", 70.0 + i))
            records.append(rec(f"high{i}", f"p{p}", 70.0 + i))
    report = pool_flip_simulation(dataset_of(records), ratios, iterations=200, sample_size=5, seed=1)
    assert report.n_flips_low == 0
    assert report.n_flips_high == 0


def test_pool_flip_skips_underpopulated_prompts():
    dataset, ratios = _flip_dataset(n_prompts=2)
    # one extra prompt rated only by two annotators
    records = list(dataset.records) + [rec("low0", "tiny", 90.0), rec("high0", "tiny", 10.0)]
    report = pool_flip_simulation(dataset_of(records), ratios, iterations=100, sample_size=5, seed=2)
    assert report.skipped == ["tiny"]
    assert report.n_eligible + len(report.skipped) == report.n_total_prompts


def test_pool_flip_deterministic_under_seed():
    dataset, ratios = _flip_dataset()
    a = pool_flip_simulation(dataset, ratios, iterations=300, sample_size=5, seed=5)
    b = pool_flip_simulation(dataset, ratios, iterations=300, sample_size=5, seed=5)
    assert to_row(a) == to_row(b)


def test_pool_flip_rejects_even_jury():
    dataset, ratios = _flip_dataset()
    with pytest.raises(ValueError, match="odd"):
        pool_flip_simulation(dataset, ratios, iterations=10, sample_size=4, seed=1)


def test_pool_flip_no_eligible_prompts():
    records = [rec("low0", "p0", 10.0), rec("high0", "p0", 90.0)]
    ratios = [_ratio("low0", 0.5), _ratio("high0", 1.5)]
    with pytest.raises(InsufficientSupportError):
        pool_flip_simulation(dataset_of(records), ratios, iterations=10, sample_size=5, seed=1)


def _np_mean_ratings(dataset):
    """``_prompt_ratings`` as it was computed with ``np.mean``, the reference."""
    return {
        item: {ann: float(np.mean([common_scale_score(r) for r in recs])) for ann, recs in raters.items()}
        for item, raters in dataset.by_item_annotator.items()
    }


def _random_cells(seed, sizes, scale="continuous_0_100", cells_per_size=400, annotators=1):
    """Cells of every size in ``sizes``, each (annotator, item) holding that many random ratings."""
    rng = random.Random(seed)
    draw = (lambda: rng.uniform(0.0, 100.0)) if scale == "continuous_0_100" else (lambda: rng.uniform(1.0, 5.0))
    return dataset_of(
        [
            rec(f"a{c % annotators}", f"i{n}_{c // annotators}", draw(), scale=scale)
            for n in sizes
            for c in range(cells_per_size)
            for _ in range(n)
        ],
        scale=scale,
    )


@pytest.mark.parametrize("scale", ["continuous_0_100", "likert_5"])
def test_prompt_ratings_equal_np_mean_bit_for_bit_up_to_seven_ratings(scale):
    dataset = _random_cells(3, range(1, 8), scale)
    ours, reference = _prompt_ratings(dataset), _np_mean_ratings(dataset)
    assert ours.keys() == reference.keys()
    for item, means in reference.items():
        assert [v.hex() for v in ours[item].values()] == [v.hex() for v in means.values()]


def test_pool_flips_match_the_np_mean_form_at_thresholds_on_cell_means(monkeypatch):
    """Two raters a prompt and juries of one, so each label is one cell's mean against
    the threshold. Each threshold is a cell's mean: one ulp low would flip its label."""
    rng = random.Random(5)
    dataset = dataset_of(
        [rec(a, f"i{i}", rng.uniform(0.0, 100.0)) for i in range(100) for a in ("a0", "a1") for _ in range(3)]
    )
    ratios = [_ratio("a0", 0.5), _ratio("a1", 1.5)]
    thresholds = [m for means in _np_mean_ratings(dataset).values() for m in means.values()]

    def reports():
        return [to_row(pool_flip_simulation(dataset, ratios, sample_size=1, harm_threshold=t)) for t in thresholds]

    ours = reports()
    monkeypatch.setattr(aggregation, "_prompt_ratings", _np_mean_ratings)
    assert ours == reports()
