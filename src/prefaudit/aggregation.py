"""Majority-label stress tests across annotator pools.

Quantifies what annotator inconsistency does to small-sample aggregation:
for each prompt, a jury of annotators is drawn at random from each of three
pools (everyone, the below-median-inconsistency half, the above-median
half), ratings are binarized at a harm threshold and the majority is taken.
A prompt's modal label in a pool is harmful when a harmful majority has
probability at least 1/2 over every jury that pool can seat; the
probability is hypergeometric and is computed exactly. Prompts whose modal
label under a restricted pool differs from the all-annotator pool count as
flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np

from .errors import DataFormatError, InsufficientSupportError
from .ratio import RatioRecord, annotator_mean_ratios
from .records import SCALE_BINARY, Dataset, common_scale_score

POOL_ALL = "all"
POOL_LOW = "low_inconsistency"
POOL_HIGH = "high_inconsistency"


@dataclass(frozen=True)
class PoolSpec:
    name: str
    membership: frozenset[str]
    split_statistic: Optional[float] = None  # the median annotator-mean ratio


def median_split_pools(ratios: Sequence[RatioRecord]) -> tuple[PoolSpec, PoolSpec, PoolSpec]:
    """Partition ratio-scored annotators at the median annotator-mean ratio.

    Annotators exactly at the median land in the low pool, so low and high
    always partition the scored set.
    """
    means = annotator_mean_ratios(ratios)
    if len(means) < 2:
        raise InsufficientSupportError("median split needs mean ratios for >= 2 annotators")
    median = float(np.median(list(means.values())))
    low = frozenset(a for a, m in means.items() if m <= median)
    high = frozenset(a for a, m in means.items() if m > median)
    return (
        PoolSpec(POOL_ALL, frozenset(means), median),
        PoolSpec(POOL_LOW, low, median),
        PoolSpec(POOL_HIGH, high, median),
    )


def majority_label(
    ratings: Sequence[float],
    harm_threshold: float = 50.0,
    allow_even: bool = False,
) -> bool:
    """Majority harm judgment: binarize at >= threshold, majority wins.

    Even jury sizes can tie and are rejected unless ``allow_even`` is set,
    in which case a tie resolves to not-harmful.
    """
    n = len(ratings)
    if n == 0:
        raise ValueError("majority label needs at least one rating")
    if n % 2 == 0 and not allow_even:
        raise ValueError(f"even sample size {n} can tie; pass an odd size or allow_even=True")
    harmful = sum(1 for r in ratings if r >= harm_threshold)
    return harmful * 2 > n


@dataclass
class FlipReport:
    """Modal majority labels per prompt and pool, with flip counts.

    ``iterations`` and ``seed`` record the requested configuration; the
    modal labels are exact and draw no juries.
    """

    per_prompt: dict[str, dict[str, bool]]
    n_flips_low: int
    n_flips_high: int
    pct_flips: float  # low-pool flips over eligible prompts
    pct_flips_high: float
    iterations: int
    sample_size: int
    harm_threshold: float
    seed: int
    n_eligible: int
    n_total_prompts: int
    split_statistic: Optional[float] = None
    skipped: list[str] = field(default_factory=list)


def _prompt_ratings(dataset: Dataset) -> dict[str, dict[str, float]]:
    """item -> annotator -> that annotator's mean rating of the item (0-100)."""
    if dataset.scale_kind == SCALE_BINARY:
        raise DataFormatError("majority-flip simulation needs magnitude ratings, not binary choices")
    # A left fold from 0.0 adds in np.mean's order for up to 7 ratings, so it gives
    # the same bits at a tenth of the cost; sum() compensates from Python 3.12 on.
    return {
        item: {ann: reduce(add, map(common_scale_score, recs), 0.0) / len(recs) for ann, recs in raters.items()}
        for item, raters in dataset.by_item_annotator.items()
    }


def _modal_label(values: np.ndarray, sample_size: int, harm_threshold: float) -> bool:
    """Modal majority label over every jury of ``sample_size``; ties resolve harmful.

    With h harmful raters among n, juries with a harmful majority number
    sum_{j > k/2} C(h, j) * C(n - h, k - j) out of C(n, k). Integer
    arithmetic keeps an exact tie exact.
    """
    n = int(values.size)
    h = int((values >= harm_threshold).sum())
    k = sample_size
    harmful_juries = sum(math.comb(h, j) * math.comb(n - h, k - j) for j in range(k // 2 + 1, k + 1))
    return 2 * harmful_juries >= math.comb(n, k)


def pool_flip_simulation(
    dataset: Dataset,
    ratios: Sequence[RatioRecord],
    iterations: int = 1000,
    sample_size: int = 5,
    seed: int = 0,
    harm_threshold: float = 50.0,
) -> FlipReport:
    """Count prompts whose modal majority label flips under restricted pools.

    Every prompt needs at least ``sample_size`` raters in each pool;
    prompts failing that are skipped and reported. Modal labels are exact,
    so ``iterations`` and ``seed`` only echo into the report.
    """
    if sample_size % 2 == 0:
        raise ValueError("sample_size must be odd so majorities cannot tie")
    pool_all, pool_low, pool_high = median_split_pools(ratios)
    if not pool_low.membership or not pool_high.membership:
        raise InsufficientSupportError("an inconsistency pool is empty")
    ratings = _prompt_ratings(dataset)

    per_prompt: dict[str, dict[str, bool]] = {}
    skipped: list[str] = []
    flips_low = 0
    flips_high = 0
    for item in sorted(ratings):
        raters = ratings[item]
        pools = {}
        eligible = True
        for pool in (pool_all, pool_low, pool_high):
            members = sorted(set(raters) & pool.membership)
            if len(members) < sample_size:
                eligible = False
                break
            pools[pool.name] = np.asarray([raters[m] for m in members])
        if not eligible:
            skipped.append(item)
            continue
        labels = {
            name: _modal_label(values, sample_size, harm_threshold) for name, values in pools.items()
        }
        per_prompt[item] = labels
        if labels[POOL_LOW] != labels[POOL_ALL]:
            flips_low += 1
        if labels[POOL_HIGH] != labels[POOL_ALL]:
            flips_high += 1

    n_eligible = len(per_prompt)
    if n_eligible == 0:
        raise InsufficientSupportError(
            f"no prompt has {sample_size} raters in every pool ({len(skipped)} skipped)"
        )
    return FlipReport(
        per_prompt=per_prompt,
        n_flips_low=flips_low,
        n_flips_high=flips_high,
        pct_flips=100.0 * flips_low / n_eligible,
        pct_flips_high=100.0 * flips_high / n_eligible,
        iterations=iterations,
        sample_size=sample_size,
        harm_threshold=harm_threshold,
        seed=seed,
        n_eligible=n_eligible,
        n_total_prompts=len(ratings),
        split_statistic=pool_all.split_statistic,
        skipped=skipped,
    )
