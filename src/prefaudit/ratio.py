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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientSupportError
from .records import Dataset, score_value
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


@dataclass(frozen=True)
class RatioRecord:
    """One scored (annotator, theme) cell.

    ``resamples_used`` and ``seed`` record the requested configuration;
    the exact baseline makes no draws.
    """

    annotator_id: str
    theme: str
    n_items: int
    var_within: float
    baseline: float
    ratio: float
    resamples_used: int
    seed: int
    degenerate: bool = False


def interpret_ratio(ratio: float, low: float = 0.75, high: float = 1.25) -> str:
    """Qualitative band: below_random / near_random / above_random."""
    if ratio < low:
        return "below_random"
    if ratio > high:
        return "above_random"
    return "near_random"


def _theme_records(dataset: Dataset, annotator_id: str, theme: str):
    themed_items = dataset.items_by_theme.get(theme, frozenset())
    return [r for r in dataset.by_annotator.get(annotator_id, []) if r.item_id in themed_items]


def theme_ratings(dataset: Dataset, annotator_id: str, theme: str) -> list[float]:
    """The annotator's ratings on items carrying the theme label."""
    return [score_value(r) for r in _theme_records(dataset, annotator_id, theme)]


def within_theme_variance(
    dataset: Dataset,
    annotator_id: str,
    theme: str,
    min_support: int = 5,
) -> tuple[float, int]:
    """Population variance of the annotator's within-theme ratings."""
    ratings = theme_ratings(dataset, annotator_id, theme)
    if len(ratings) < min_support:
        raise InsufficientSupportError(
            f"annotator {annotator_id!r} has {len(ratings)} ratings on theme {theme!r}, "
            f"needs {min_support}"
        )
    return float(np.asarray(ratings).var(ddof=0)), len(ratings)


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
    stream_key: Optional[str] = None,
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
    rng = seeded_sampler(seed, stream_key or f"baseline|{annotator_id}")
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


def inconsistency_ratio(
    dataset: Dataset,
    annotator_id: str,
    theme: str,
    config: RatioConfig = RatioConfig(),
) -> RatioRecord:
    """Within-theme variance over the annotator's exact random-grouping baseline."""
    var_within, n = within_theme_variance(dataset, annotator_id, theme, config.min_support)
    exclude = None
    if config.exclude_theme_from_history:
        exclude = {r.item_id for r in _theme_records(dataset, annotator_id, theme)}
    baseline = exact_baseline(dataset, annotator_id, k=n, exclude_item_ids=exclude)
    if baseline <= 0.0:
        # annotator rates everything identically; report 0 rather than NaN
        return RatioRecord(annotator_id, theme, n, var_within, baseline, 0.0,
                           config.resamples, config.seed, degenerate=True)
    return RatioRecord(annotator_id, theme, n, var_within, baseline,
                       var_within / baseline, config.resamples, config.seed)


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
    """One-sample t vs 1.0, median-split rating comparison, and ratio-rating correlation.

    The median split assigns annotators at the median to the low pool so the
    two pools always partition the scored annotators.
    """
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
    median = float(np.median(ratio_values))
    low = [mean_rating[a] for a in annotators if mean_ratio[a] <= median]
    high = [mean_rating[a] for a in annotators if mean_ratio[a] > median]
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
