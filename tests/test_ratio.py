"""Inconsistency ratio: variance, resampled baselines, population statistics."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_of, metadata_of, rec
from prefaudit.errors import InsufficientSupportError
from prefaudit.ratio import (
    RatioConfig,
    all_ratios,
    annotator_mean_ratios,
    exact_baseline,
    inconsistency_ratio,
    interpret_ratio,
    median_split,
    population_stats,
    random_baseline,
    within_theme_variance,
)


def _theme_dataset(theme_values, extra_values, annotator="a1", theme="harm"):
    records = []
    metadata = {}
    for i, value in enumerate(theme_values):
        item = f"t{i}"
        records.append(rec(annotator, item, value))
        metadata.update(metadata_of(**{item: {"theme_labels": {theme}}}))
    for i, value in enumerate(extra_values):
        records.append(rec(annotator, f"x{i}", value))
    return dataset_of(records, metadata=metadata)


def test_within_theme_variance_constant_and_alternating():
    dataset = _theme_dataset([50.0] * 5, [])
    var, n = within_theme_variance(dataset, "a1", "harm")
    assert var == 0.0 and n == 5

    dataset = _theme_dataset([0.0, 100.0, 0.0, 100.0, 0.0], [])
    var, n = within_theme_variance(dataset, "a1", "harm")
    assert var == pytest.approx(2400.0)  # mean 40, population convention
    assert n == 5


def test_within_theme_variance_insufficient_support():
    dataset = _theme_dataset([50.0] * 4, [])
    with pytest.raises(InsufficientSupportError, match="needs 5"):
        within_theme_variance(dataset, "a1", "harm")


def test_baseline_constant_history_degenerate_ratio_zero():
    # np.var of seven 33.3s is ~5e-29, not 0
    for value, n_extra in ((70.0, 7), (33.3, 2)):
        dataset = _theme_dataset([value] * 5, [value] * n_extra)
        record = inconsistency_ratio(dataset, "a1", "harm", RatioConfig(resamples=50, seed=0))
        assert record.baseline == 0.0
        assert record.ratio == 0.0
        assert record.degenerate


def test_baseline_equals_variance_when_theme_is_whole_history():
    values = [3.0, 10.0, 22.0, 35.0, 41.0, 50.0, 58.0, 67.0, 74.0, 80.0, 88.0, 95.0]
    dataset = _theme_dataset(values, [])
    record = inconsistency_ratio(dataset, "a1", "harm", RatioConfig(resamples=10, seed=0))
    assert record.baseline == pytest.approx(record.var_within, abs=0)
    assert record.ratio == 1.0


def test_baseline_matches_exhaustive_enumeration():
    values = [3.0, 10.0, 22.0, 35.0, 41.0, 50.0, 58.0, 67.0, 74.0, 80.0, 88.0, 95.0]
    k = 5
    dataset = _theme_dataset(values[:k], values[k:])
    # oracle: enumerate all C(12, 5) subsets of the full history
    exhaustive = float(
        np.mean([np.var(subset) for subset in combinations(values, k)])
    )
    assert exhaustive == pytest.approx(738.393939, rel=1e-9)
    sampled = random_baseline(dataset, "a1", k=k, resamples=20_000, seed=9)
    assert sampled == pytest.approx(exhaustive, rel=0.01)
    assert exact_baseline(dataset, "a1", k=k) == pytest.approx(exhaustive, rel=1e-12)
    # second oracle: closed form for sampling without replacement
    n = len(values)
    closed_form = (k - 1) / k * n / (n - 1) * float(np.var(values))
    assert exhaustive == pytest.approx(closed_form, rel=1e-12)


def test_baseline_seeded_determinism():
    values = [float(v) for v in range(20)]
    dataset = _theme_dataset(values[:5], values[5:])
    first = random_baseline(dataset, "a1", k=5, resamples=500, seed=7)
    second = random_baseline(dataset, "a1", k=5, resamples=500, seed=7)
    assert first == second
    assert first != random_baseline(dataset, "a1", k=5, resamples=500, seed=8)


def test_baseline_history_smaller_than_k():
    dataset = _theme_dataset([1.0, 2.0, 3.0], [])
    with pytest.raises(InsufficientSupportError):
        random_baseline(dataset, "a1", k=5, resamples=10, seed=0)
    with pytest.raises(InsufficientSupportError):
        exact_baseline(dataset, "a1", k=5)
    with pytest.raises(ValueError, match="k >= 2"):
        exact_baseline(dataset, "a1", k=1)


def test_ratio_shift_and_scale_invariance():
    rng = np.random.default_rng(17)
    theme_values = [float(v) for v in rng.uniform(20, 40, size=6)]
    extra = [float(v) for v in rng.uniform(0, 60, size=14)]
    base = inconsistency_ratio(_theme_dataset(theme_values, extra), "a1", "harm", RatioConfig(resamples=300, seed=3))
    shifted = inconsistency_ratio(
        _theme_dataset([v + 7.5 for v in theme_values], [v + 7.5 for v in extra]),
        "a1",
        "harm",
        RatioConfig(resamples=300, seed=3),
    )
    scaled = inconsistency_ratio(
        _theme_dataset([v * 1.5 for v in theme_values], [v * 1.5 for v in extra]),
        "a1",
        "harm",
        RatioConfig(resamples=300, seed=3),
    )
    assert shifted.ratio == pytest.approx(base.ratio, rel=1e-9)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-9)


def test_ratio_above_one_for_extreme_theme_against_midrange_history():
    theme_values = [0.0, 100.0, 0.0, 100.0, 0.0]
    extra = [48.0, 50.0, 52.0, 49.0, 51.0, 50.0, 47.0, 53.0, 50.0, 50.0]
    record = inconsistency_ratio(_theme_dataset(theme_values, extra), "a1", "harm", RatioConfig(resamples=500, seed=4))
    assert record.ratio > 1.0
    assert interpret_ratio(record.ratio) == "above_random"


def test_interpret_ratio_bands():
    assert interpret_ratio(0.2) == "below_random"
    assert interpret_ratio(1.0) == "near_random"
    assert interpret_ratio(2.0) == "above_random"


def test_exclude_theme_from_history_option():
    theme_values = [0.0, 100.0, 0.0, 100.0, 0.0]
    extra = [50.0] * 10
    config = RatioConfig(resamples=400, seed=5, exclude_theme_from_history=True)
    record = inconsistency_ratio(_theme_dataset(theme_values, extra), "a1", "harm", config)
    # the remaining history is constant, so the baseline degenerates
    assert record.degenerate and record.ratio == 0.0

    extra = [3.0, 10.0, 22.0, 35.0, 41.0, 58.0, 67.0, 80.0, 95.0]
    record = inconsistency_ratio(_theme_dataset(theme_values, extra), "a1", "harm", config)
    # oracle: enumerate every 5-subset of the reduced (theme-free) history
    exhaustive = float(np.mean([np.var(subset) for subset in combinations(extra, 5)]))
    assert record.baseline == pytest.approx(exhaustive, rel=1e-12)
    assert record.ratio == pytest.approx(2400.0 / exhaustive, rel=1e-12)


def _population_dataset(per_annotator):
    """per_annotator: annotator -> (theme_values, extra_values)."""
    records = []
    metadata = {}
    for annotator, (theme_values, extra) in per_annotator.items():
        for i, value in enumerate(theme_values):
            item = f"{annotator}-t{i}"
            records.append(rec(annotator, item, value))
            metadata.update(metadata_of(**{item: {"theme_labels": {"harm"}}}))
        for i, value in enumerate(extra):
            records.append(rec(annotator, f"{annotator}-x{i}", value))
    return dataset_of(records, metadata=metadata)


def test_all_ratios_and_mean_ratios():
    rng = np.random.default_rng(23)
    per = {
        f"a{i}": (
            [float(v) for v in rng.uniform(0, 100, size=6)],
            [float(v) for v in rng.uniform(0, 100, size=10)],
        )
        for i in range(4)
    }
    dataset = _population_dataset(per)
    ratios = all_ratios(dataset, RatioConfig(resamples=200, seed=6))
    assert {r.annotator_id for r in ratios} == set(per)
    means = annotator_mean_ratios(ratios)
    assert all(m > 0 for m in means.values())


def test_population_stats_all_ratios_one_gives_zero_t():
    # theme == whole history makes every ratio exactly 1
    per = {
        "a1": ([10.0, 30.0, 50.0, 70.0, 90.0], []),
        "a2": ([20.0, 40.0, 60.0, 80.0, 99.0], []),
        "a3": ([5.0, 25.0, 45.0, 65.0, 85.0], []),
        "a4": ([1.0, 21.0, 41.0, 61.0, 81.0], []),
    }
    dataset = _population_dataset(per)
    ratios = all_ratios(dataset, RatioConfig(resamples=50, seed=1))
    assert all(r.ratio == 1.0 for r in ratios)
    report = population_stats(ratios, dataset)
    assert report.t_vs_one.statistic == 0.0
    assert report.t_vs_one.p_value == 1.0
    assert report.median_split is None  # nothing sits above the median


def test_population_stats_median_split_and_correlation():
    # two tight low-ratio annotators rating high, two noisy high-ratio rating low
    tight = [60.0, 62.0, 61.0, 63.0, 59.0]
    noisy = [0.0, 90.0, 10.0, 80.0, 20.0]
    per = {
        "low1": (tight, [80.0, 82.0, 30.0, 31.0, 78.0, 32.0]),
        "low2": ([v + 1 for v in tight], [79.0, 81.0, 29.0, 30.0, 77.0, 31.0]),
        "high1": (noisy, [40.0, 42.0, 41.0, 43.0, 39.0, 41.0]),
        "high2": ([v + 2 for v in noisy], [38.0, 40.0, 39.0, 41.0, 37.0, 40.0]),
    }
    dataset = _population_dataset(per)
    ratios = all_ratios(dataset, RatioConfig(resamples=400, seed=2))
    report = population_stats(ratios, dataset)
    means = annotator_mean_ratios(ratios)
    assert means["low1"] < 1.0 < means["high1"]
    assert report.mean_diff_low_minus_high > 0  # consistent annotators rate higher here
    assert report.pearson_r_ratio_vs_rating < 0
    assert report.n_low + report.n_high == 4


def test_population_stats_identical_means_zero_diff():
    # every annotator's overall mean rating is exactly 50, but the structured
    # annotators group tightly within the theme while the wild ones do not
    structured = ([48.0, 49.0, 50.0, 51.0, 52.0], [10.0, 90.0])
    wild = ([0.0, 100.0, 10.0, 90.0, 50.0], [50.0, 50.0])
    per = {"a1": structured, "a2": structured, "a3": wild, "a4": wild}
    dataset = _population_dataset(per)
    ratios = all_ratios(dataset, RatioConfig(resamples=400, seed=3))
    means = annotator_mean_ratios(ratios)
    assert means["a1"] < means["a3"]
    report = population_stats(ratios, dataset)
    assert report.mean_diff_low_minus_high == 0.0
    assert report.median_split.statistic == 0.0
    assert report.pearson_r_ratio_vs_rating is None  # ratings constant across annotators


def test_population_stats_requires_two_annotators():
    per = {"a1": ([10.0, 20.0, 30.0, 40.0, 50.0], [])}
    dataset = _population_dataset(per)
    ratios = all_ratios(dataset, RatioConfig(resamples=50, seed=1))
    with pytest.raises(InsufficientSupportError):
        population_stats(ratios, dataset)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e6), st.sampled_from([0.0, 0.5, 1.0, 1e6])),
                min_size=1, max_size=12))
def test_median_split_takes_numpys_median_bit_for_bit(values):
    """Odd and even lengths, ties (the sampled values) and values in [0, 1e6]."""
    median, low, high = median_split({f"a{i}": value for i, value in enumerate(values)})
    assert median.hex() == float(np.median(values)).hex()
    assert len(low) + len(high) == len(values)
