"""Per-(annotator, theme) inconsistency ratios against random-grouping baselines.

The ratio compares the variance of an annotator's ratings within one theme
to the expected variance of an equally sized random grouping drawn from the
annotator's own rating history. A ratio near 1 means the theme grouping is
indistinguishable from a random grouping of that annotator's ratings; well
below 1 means structured, stable judgments; well above 1 means pronounced
instability.

The baseline is computed exactly: a k-subset drawn without replacement from
an N-rating history has expected population variance
sigma_N^2 * (k - 1) / k * N / (N - 1) (finite-population sampling; Cochran,
*Sampling Techniques*, 1977). ``random_baseline`` is the seeded Monte-Carlo
estimator of the same quantity, kept as a reference.

Variance convention: population (divide by n) in both the numerator and the
baseline, so the convention cancels in the ratio.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Annotated, Optional, Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientSupportError
from .records import COUNT, NONNEGATIVE, Dataset, check_domains, frozen_row, score_value
from .stats import TestResult, one_sample_t, pearson_r, seeded_sampler, welch_t

_RESAMPLE_CHUNK_CELLS = 50_000_000


@dataclass(frozen=True)
class RatioConfig:
    # resamples and seed are echoed into each RatioRecord; the exact
    # baseline draws nothing
    resamples: int = 1000
    seed: int = 0
    min_support: int = 5
    # full history by default; flip to exclude the theme's own items
    exclude_theme_from_history: bool = False


@frozen_row
class RatioRecord:
    """One scored (annotator, theme) cell.

    ``resamples_used`` and ``seed`` record the requested configuration;
    the exact baseline makes no draws.
    """

    annotator_id: str
    theme: str
    n_items: Annotated[int, COUNT]
    var_within: Annotated[float, NONNEGATIVE]
    baseline: Annotated[float, NONNEGATIVE]
    ratio: Annotated[float, NONNEGATIVE]
    resamples_used: int
    seed: int
    degenerate: bool = False

    __post_init__ = check_domains  # the declared domains are its only rule


def interpret_ratio(ratio: float, low: float = 0.75, high: float = 1.25) -> str:
    """Qualitative band: below_random / near_random / above_random."""
    if ratio < low:
        return "below_random"
    if ratio > high:
        return "above_random"
    return "near_random"


def _group_ratings(dataset: Dataset, annotator_id: str, items: frozenset[str]) -> list[float]:
    return [score_value(r) for r in dataset.by_annotator.get(annotator_id, []) if r.item_id in items]


def group_variance(
    dataset: Dataset, annotator_id: str, items: frozenset[str], group: str, min_support: int = 5
) -> tuple[float, int]:
    """Population variance and count of the annotator's ratings on ``items``; fewer
    than ``min_support`` raise, naming ``group`` (such as "theme 'harm'")."""
    ratings = _group_ratings(dataset, annotator_id, items)
    if len(ratings) < min_support:
        raise InsufficientSupportError(
            f"annotator {annotator_id!r} has {len(ratings)} ratings on {group}, needs {min_support}"
        )
    return float(np.asarray(ratings).var(ddof=0)), len(ratings)


def within_theme_variance(
    dataset: Dataset,
    annotator_id: str,
    theme: str,
    min_support: int = 5,
) -> tuple[float, int]:
    """Population variance of the annotator's within-theme ratings."""
    items = dataset.items_by_theme.get(theme, frozenset())
    return group_variance(dataset, annotator_id, items, f"theme {theme!r}", min_support)


def _baseline_history(
    dataset: Dataset,
    annotator_id: str,
    k: int,
    exclude_item_ids: Optional[set[str]],
) -> np.ndarray:
    records = dataset.by_annotator.get(annotator_id, [])
    if exclude_item_ids:
        records = [r for r in records if r.item_id not in exclude_item_ids]
    history = np.asarray([score_value(r) for r in records], dtype=float)
    if history.size < k:
        raise InsufficientSupportError(
            f"history of {history.size} ratings is smaller than group size {k}"
        )
    if k < 2:
        raise ValueError("baseline needs group size k >= 2")
    return history


def exact_baseline(
    dataset: Dataset,
    annotator_id: str,
    k: int,
    exclude_item_ids: Optional[set[str]] = None,
) -> float:
    """Expected variance of k ratings grouped at random from the annotator's history.

    The expectation over every k-subset drawn without replacement, in
    closed form: sigma_N^2 * (k - 1) / k * N / (N - 1) for a history of N
    ratings with population variance sigma_N^2. When k equals N the only
    subset is the full history, whose variance is returned as is, so a
    theme covering the whole history has ratio exactly 1. A constant
    history gives exactly 0.
    """
    history = _baseline_history(dataset, annotator_id, k, exclude_item_ids)
    if history.min() == history.max():
        # numpy's var leaves rounding residue (~1e-29) on some constant arrays
        return 0.0
    n = history.size
    variance = float(history.var(ddof=0))
    if n == k:
        return variance
    return variance * (k - 1) / k * n / (n - 1)


def random_baseline(
    dataset: Dataset,
    annotator_id: str,
    k: int,
    resamples: int,
    seed: int,
    exclude_item_ids: Optional[set[str]] = None,
) -> float:
    """Expected variance of k ratings grouped at random from the annotator's history.

    Sampling is without replacement (a random regrouping of existing
    ratings), averaged over ``resamples`` seeded draws. When k equals the
    history size every draw is the full history, so the exact variance is
    returned without sampling. The seeded Monte-Carlo reference for
    ``exact_baseline``.
    """
    history = _baseline_history(dataset, annotator_id, k, exclude_item_ids)
    if history.size == k:
        return float(history.var(ddof=0))
    rng = seeded_sampler(seed, f"baseline|{annotator_id}")
    chunk = max(1, _RESAMPLE_CHUNK_CELLS // int(history.size))
    total = 0.0
    done = 0
    while done < resamples:
        take = min(chunk, resamples - done)
        # rank k positions per draw: argsort of uniform keys = random subset
        keys = rng.random((take, history.size))
        idx = np.argpartition(keys, k - 1, axis=1)[:, :k]
        total += float(history[idx].var(axis=1, ddof=0).sum())
        done += take
    return total / resamples


def group_ratio(
    dataset: Dataset, annotator_id: str, items: frozenset[str], group: str, min_support: int = 5,
    exclude_items_from_history: bool = False,
) -> tuple[float, int, float, float]:
    """``(var_within, n, baseline, ratio)`` of the annotator's ratings on ``items``
    (see ``group_variance``) against ``exact_baseline``. A zero baseline (the
    annotator rates everything identically) gives ratio 0 rather than NaN."""
    var_within, n = group_variance(dataset, annotator_id, items, group, min_support)
    exclude = items if exclude_items_from_history else None
    baseline = exact_baseline(dataset, annotator_id, k=n, exclude_item_ids=exclude)
    return var_within, n, baseline, var_within / baseline if baseline > 0.0 else 0.0


def inconsistency_ratio(
    dataset: Dataset,
    annotator_id: str,
    theme: str,
    config: RatioConfig = RatioConfig(),
) -> RatioRecord:
    """Within-theme variance over the annotator's exact random-grouping baseline."""
    var_within, n, baseline, ratio = group_ratio(
        dataset, annotator_id, dataset.items_by_theme.get(theme, frozenset()), f"theme {theme!r}",
        config.min_support, config.exclude_theme_from_history,
    )
    return RatioRecord(annotator_id, theme, n, var_within, baseline, ratio,
                       config.resamples, config.seed, degenerate=baseline <= 0.0)


def dataset_themes(dataset: Dataset) -> list[str]:
    return sorted(dataset.items_by_theme)


def all_ratios(dataset: Dataset, config: RatioConfig = RatioConfig()) -> list[RatioRecord]:
    """Ratio records for every (annotator, theme) cell meeting the support floor."""
    out: list[RatioRecord] = []
    themes = dataset_themes(dataset)
    for annotator_id in dataset.annotator_ids:
        for theme in themes:
            try:
                out.append(inconsistency_ratio(dataset, annotator_id, theme, config))
            except InsufficientSupportError:
                continue
    return out


def median_split(values: dict[str, float]) -> tuple[float, list[str], list[str]]:
    """The median of ``values`` and its keys at or below it (low) and above it
    (high), each in the order of ``values``. At the median goes low, so the two
    always partition the keys."""
    median = float(statistics.median(values.values()))
    low = [key for key, value in values.items() if value <= median]
    high = [key for key, value in values.items() if value > median]
    return median, low, high


def annotator_mean_ratios(ratios: Sequence[RatioRecord]) -> dict[str, float]:
    """Annotator-level average inconsistency ratio across that annotator's themes."""
    per: dict[str, list[float]] = {}
    for rec in ratios:
        per.setdefault(rec.annotator_id, []).append(rec.ratio)
    return {a: float(np.mean(vals)) for a, vals in sorted(per.items())}


@dataclass
class PopulationReport:
    """Population-level tests over annotator mean ratios and mean ratings."""

    n_annotators: int
    median_ratio: float
    t_vs_one: TestResult
    # median-split fields are None when every annotator sits at the median
    # and no high pool exists
    median_split: Optional[TestResult]
    mean_diff_low_minus_high: Optional[float]
    # None when either marginal is constant and the correlation is undefined
    pearson_r_ratio_vs_rating: Optional[float]
    n_low: int
    n_high: int


def population_stats(ratios: Sequence[RatioRecord], dataset: Dataset) -> PopulationReport:
    """One-sample t vs 1.0, median-split rating comparison (see ``median_split``),
    and ratio-rating correlation."""
    mean_ratio = annotator_mean_ratios(ratios)
    if len(mean_ratio) < 2:
        raise InsufficientSupportError("population statistics need ratios for >= 2 annotators")
    annotators = sorted(mean_ratio)
    ratio_values = [mean_ratio[a] for a in annotators]
    mean_rating = {
        a: float(np.mean([score_value(r) for r in dataset.by_annotator[a]])) for a in annotators
    }
    rating_values = [mean_rating[a] for a in annotators]

    t_vs_one = one_sample_t(ratio_values, 1.0)
    median, low_ids, high_ids = median_split(mean_ratio)
    low = [mean_rating[a] for a in low_ids]
    high = [mean_rating[a] for a in high_ids]
    if len(low) >= 2 and len(high) >= 2:
        split = welch_t(low, high)
        mean_diff = float(np.mean(low) - np.mean(high))
    elif not high:
        # every annotator sits at the median; there is nothing to split
        split = None
        mean_diff = None
    else:
        raise DegenerateDataError("median split leaves a pool with fewer than 2 annotators")
    try:
        correlation = pearson_r(ratio_values, rating_values)
    except DegenerateDataError:
        correlation = None
    return PopulationReport(
        n_annotators=len(annotators),
        median_ratio=median,
        t_vs_one=t_vs_one,
        median_split=split,
        mean_diff_low_minus_high=mean_diff,
        pearson_r_ratio_vs_rating=correlation,
        n_low=len(low),
        n_high=len(high),
    )
