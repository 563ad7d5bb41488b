"""Diagnostic campaign design: tiered plans, schedules, threshold calibration.

Tier 1 embeds repeated items (5-8% of each annotator's load, at least 15
repeats, at least 20 intervening positions). Tier 2 adds equivalent-wording
framing pairs for 10-15% of items, split across annotators at no extra
annotation cost. Tier 3 upgrades to a full retest (20-30%) plus
within-annotator framing (10-15%, one variant per session).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, floor
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasiblePlanError
from .records import SCALE_BINARY, SCALE_CONTINUOUS, SCALE_LIKERT, ItemMetadata
from .stats import seeded_sampler

MIN_REPEATS_PER_ANNOTATOR = 15
DEFAULT_MIN_SPACING = 20

TIER_RATE_BOUNDS = {
    "repeat_rate": (0.05, 0.08),
    "framing_rate": (0.10, 0.15),
    "retest_rate": (0.20, 0.30),
    "within_annotator_framing_rate": (0.10, 0.15),
}
# worked-example rates; framing/retest default to their range midpoints
DEFAULT_RATES = {
    "repeat_rate": 0.05,
    "framing_rate": 0.125,
    "retest_rate": 0.25,
    "within_annotator_framing_rate": 0.125,
}


@dataclass(frozen=True)
class TierPlan:
    tier: int
    n_items: int
    n_annotators: int
    items_per_annotator: int
    repeat_rate: float
    n_repeats_per_annotator: int
    min_spacing: int
    extra_annotations: int
    overhead_pct: float
    extra_cost: float
    framing_rate: Optional[float] = None
    n_framing_pairs_per_annotator: int = 0
    within_annotator_framing_rate: Optional[float] = None
    n_within_framing_per_annotator: int = 0
    retest_rate: Optional[float] = None


def _round_half_up(x: float) -> int:
    return int(floor(x + 0.5))


def _check_rate(name: str, value: float) -> float:
    lo, hi = TIER_RATE_BOUNDS[name]
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def plan_tier(
    tier: int,
    n_items: int,
    n_annotators: int,
    cost_per_annotation: float,
    repeat_rate: Optional[float] = None,
    framing_rate: Optional[float] = None,
    within_annotator_framing_rate: Optional[float] = None,
    retest_rate: Optional[float] = None,
    min_spacing: int = DEFAULT_MIN_SPACING,
    min_repeats: int = MIN_REPEATS_PER_ANNOTATOR,
) -> TierPlan:
    """Size the diagnostic structure and its cost for one campaign.

    Items are partitioned across annotators (single coverage), so the base
    annotation count is items_per_annotator x n_annotators and the overhead
    percentage is exactly extra / base. Infeasible inputs raise with the
    binding constraint named.
    """
    if tier not in (1, 2, 3):
        raise ValueError(f"tier must be 1, 2, or 3, got {tier}")
    if n_items <= 0 or n_annotators <= 0 or cost_per_annotation < 0:
        raise ValueError("n_items and n_annotators must be positive; cost nonnegative")
    ipa = ceil(n_items / n_annotators)

    if tier == 3:
        retest = _check_rate("retest_rate", DEFAULT_RATES["retest_rate"] if retest_rate is None else retest_rate)
        effective_repeat = retest
    else:
        retest = None
        effective_repeat = _check_rate(
            "repeat_rate", DEFAULT_RATES["repeat_rate"] if repeat_rate is None else repeat_rate
        )
    n_rep = _round_half_up(ipa * effective_repeat)
    if n_rep < min_repeats:
        raise InfeasiblePlanError(
            f"binding constraint: {effective_repeat:.0%} of {ipa} items per annotator gives "
            f"{n_rep} repeats, below the minimum {min_repeats}"
        )
    if n_rep > ipa - min_spacing + 1:
        raise InfeasiblePlanError(
            f"binding constraint: cannot place {n_rep} repeats with spacing {min_spacing} "
            f"in a {ipa}-item task list"
        )

    framing = None
    n_framing = 0
    waf = None
    n_waf = 0
    if tier == 2:
        framing = _check_rate(
            "framing_rate", DEFAULT_RATES["framing_rate"] if framing_rate is None else framing_rate
        )
        n_framing = _round_half_up(ipa * framing)
        if within_annotator_framing_rate is not None:
            waf = _check_rate("within_annotator_framing_rate", within_annotator_framing_rate)
            n_waf = _round_half_up(ipa * waf)
    elif tier == 3:
        waf = _check_rate(
            "within_annotator_framing_rate",
            DEFAULT_RATES["within_annotator_framing_rate"]
            if within_annotator_framing_rate is None
            else within_annotator_framing_rate,
        )
        framing = waf
        n_framing = n_waf = _round_half_up(ipa * waf)
    if n_waf > n_framing:
        raise InfeasiblePlanError(
            "binding constraint: within-annotator framing cannot exceed the framed item count"
        )

    extra = n_annotators * (n_rep + n_waf)
    base = ipa * n_annotators
    return TierPlan(
        tier=tier,
        n_items=n_items,
        n_annotators=n_annotators,
        items_per_annotator=ipa,
        repeat_rate=effective_repeat,
        n_repeats_per_annotator=n_rep,
        min_spacing=min_spacing,
        extra_annotations=extra,
        overhead_pct=100.0 * extra / base,
        extra_cost=extra * cost_per_annotation,
        framing_rate=framing,
        n_framing_pairs_per_annotator=n_framing,
        within_annotator_framing_rate=waf,
        n_within_framing_per_annotator=n_waf,
        retest_rate=retest,
    )


@dataclass(frozen=True)
class ScheduleEntry:
    annotator_id: str
    position: int
    session_id: str
    item_id: str
    framing_id: Optional[str]
    kind: str  # base | repeat | framing_variant


@dataclass
class DiagnosticSchedule:
    plan: TierPlan
    seed: int
    entries: list[ScheduleEntry] = field(default_factory=list)

    def for_annotator(self, annotator_id: str) -> list[ScheduleEntry]:
        return sorted(
            (e for e in self.entries if e.annotator_id == annotator_id),
            key=lambda e: e.position,
        )


def _stratified_choice(
    rng,
    candidates: list[str],
    n: int,
    metadata: Optional[dict[str, ItemMetadata]],
) -> list[str]:
    """Pick n items, stratified by content_type when codes are available."""
    if not metadata or not any(
        (m := metadata.get(c)) is not None and m.content_type is not None for c in candidates
    ):
        picked = rng.choice(len(candidates), size=n, replace=False)
        return [candidates[int(i)] for i in sorted(picked)]
    strata: dict[str, list[str]] = {}
    for item in candidates:
        meta = metadata.get(item)
        key = meta.content_type if meta is not None and meta.content_type else "uncoded"
        strata.setdefault(key, []).append(item)
    picked: list[str] = []
    remaining = n
    names = sorted(strata)
    for idx, name in enumerate(names):
        pool = strata[name]
        share = round(n * len(pool) / len(candidates)) if idx < len(names) - 1 else remaining
        share = max(0, min(share, len(pool), remaining))
        if share:
            chosen = rng.choice(len(pool), size=share, replace=False)
            picked.extend(pool[int(i)] for i in chosen)
        remaining -= share
    # top up from anything unpicked if rounding left a shortfall
    if remaining > 0:
        leftovers = [c for c in candidates if c not in set(picked)]
        chosen = rng.choice(len(leftovers), size=remaining, replace=False)
        picked.extend(leftovers[int(i)] for i in chosen)
    return sorted(picked, key=candidates.index)


def assign_diagnostics(
    plan: TierPlan,
    item_ids: Sequence[str],
    annotator_ids: Sequence[str],
    seed: int,
    metadata: Optional[dict[str, ItemMetadata]] = None,
) -> DiagnosticSchedule:
    """Emit per-annotator ordered task lists realizing the plan.

    Base items land in session s1; repeats and second framing variants land
    in session s2, appended after the base list so every repeat sits at
    least min_spacing positions after its original. Framing variants are
    split across annotators (alternating which version an annotator sees);
    within-annotator framing schedules the other variant in s2. The same
    seed always yields the same schedule.
    """
    if len(annotator_ids) != plan.n_annotators:
        raise ValueError(f"plan expects {plan.n_annotators} annotators, got {len(annotator_ids)}")
    if len(item_ids) != plan.n_items:
        raise ValueError(f"plan expects {plan.n_items} items, got {len(item_ids)}")
    ipa = plan.items_per_annotator
    order_rng = seeded_sampler(seed, "assign|items")
    shuffled = [item_ids[int(i)] for i in order_rng.permutation(len(item_ids))]

    schedule = DiagnosticSchedule(plan=plan, seed=seed)
    for a_idx, annotator in enumerate(annotator_ids):
        chunk = shuffled[a_idx * ipa : (a_idx + 1) * ipa]
        if not chunk:
            raise InfeasiblePlanError("item partition left an annotator without items")
        rng = seeded_sampler(seed, f"assign|{annotator}")
        local = [chunk[int(i)] for i in rng.permutation(len(chunk))]

        framed = set()
        if plan.n_framing_pairs_per_annotator:
            framed = set(
                _stratified_choice(rng, local, min(plan.n_framing_pairs_per_annotator, len(local)), metadata)
            )
        variant_main = "a" if a_idx % 2 == 0 else "b"
        variant_other = "b" if variant_main == "a" else "a"

        for pos, item in enumerate(local):
            schedule.entries.append(
                ScheduleEntry(
                    annotator, pos, "s1", item,
                    variant_main if item in framed else None,
                    "base",
                )
            )

        # repeats restricted to early positions so appending keeps spacing
        latest = len(local) - plan.min_spacing
        if latest < 0:
            raise InfeasiblePlanError(
                f"binding constraint: spacing {plan.min_spacing} exceeds task length {len(local)}"
            )
        candidates = local[: latest + 1]
        if plan.n_repeats_per_annotator > len(candidates):
            raise InfeasiblePlanError(
                f"binding constraint: only {len(candidates)} positions can host a repeat "
                f"with spacing {plan.min_spacing}, need {plan.n_repeats_per_annotator}"
            )
        repeats = _stratified_choice(rng, candidates, plan.n_repeats_per_annotator, metadata)
        pos = len(local)
        for item in repeats:
            schedule.entries.append(
                ScheduleEntry(
                    annotator, pos, "s2", item,
                    variant_main if item in framed else None,
                    "repeat",
                )
            )
            pos += 1
        if plan.n_within_framing_per_annotator:
            framed_list = sorted(framed, key=local.index)
            for item in framed_list[: plan.n_within_framing_per_annotator]:
                schedule.entries.append(
                    ScheduleEntry(annotator, pos, "s2", item, variant_other, "framing_variant")
                )
                pos += 1
    return schedule


def validate_schedule(schedule: DiagnosticSchedule, plan: Optional[TierPlan] = None) -> list[str]:
    """Independent post-hoc check of a schedule against its plan's invariants.

    Returns a list of violations (empty means the schedule passes): repeat
    spacing, per-annotator repeat counts, and session separation of repeats.
    """
    plan = plan or schedule.plan
    violations: list[str] = []
    per_annotator: dict[str, list[ScheduleEntry]] = {}
    for entry in schedule.entries:
        per_annotator.setdefault(entry.annotator_id, []).append(entry)
    for annotator, entries in sorted(per_annotator.items()):
        entries.sort(key=lambda e: e.position)
        base_pos: dict[tuple[str, Optional[str]], int] = {}
        repeat_count = 0
        for entry in entries:
            key = (entry.item_id, entry.framing_id)
            if entry.kind == "repeat":
                repeat_count += 1
                if key not in base_pos:
                    violations.append(f"{annotator}: repeat of {entry.item_id} has no original")
                    continue
                gap = entry.position - base_pos[key]
                if gap < plan.min_spacing:
                    violations.append(
                        f"{annotator}: repeat of {entry.item_id} only {gap} positions after its original"
                    )
                original_session = next(
                    e.session_id for e in entries if (e.item_id, e.framing_id) == key and e.kind == "base"
                )
                if entry.session_id == original_session:
                    violations.append(f"{annotator}: repeat of {entry.item_id} in the same session")
            else:
                base_pos.setdefault(key, entry.position)
        if repeat_count < plan.n_repeats_per_annotator:
            violations.append(
                f"{annotator}: {repeat_count} repeats, plan requires {plan.n_repeats_per_annotator}"
            )
    return violations


@dataclass(frozen=True)
class ThresholdCalibration:
    method: str  # empirical | scale_relative | consequence
    scale_kind: str
    consistent_max: float
    marginal_max: float
    basis: str

    def __post_init__(self):
        if self.consistent_max >= self.marginal_max:
            raise ValueError("consistent_max must be below marginal_max")


def calibrate_empirical(
    clear_case_diffs: Sequence[float],
    k: float = 2.0,
    scale_kind: str = SCALE_CONTINUOUS,
) -> ThresholdCalibration:
    """Threshold at k standard deviations above the mean clear-case difference.

    Clear cases are repeats of items any attentive annotator agrees on, so
    their spread estimates honest rating noise. k is conventionally
    1.5-2. The marginal band extends to twice the consistent bound,
    mirroring the 15/30 structure of the scale heuristics.
    """
    if len(clear_case_diffs) < 10:
        raise ValueError(f"empirical calibration needs >= 10 clear-case diffs, got {len(clear_case_diffs)}")
    if not 1.5 <= k <= 2.0:
        raise ValueError(f"k conventionally lies in [1.5, 2], got {k}")
    diffs = np.asarray(clear_case_diffs, dtype=float)
    consistent_max = float(diffs.mean() + k * diffs.std(ddof=1))
    return ThresholdCalibration(
        method="empirical",
        scale_kind=scale_kind,
        consistent_max=consistent_max,
        marginal_max=2.0 * consistent_max,
        basis=f"mean {diffs.mean():.4g} + {k:g} x sd {diffs.std(ddof=1):.4g} over {diffs.size} clear cases",
    )


def calibrate_scale(scale_kind: str) -> ThresholdCalibration:
    """Scale-relative heuristics: 15/30 on 0-100, 1/2 on Likert-5, exactness on binary."""
    if scale_kind == SCALE_CONTINUOUS:
        consistent, marginal, basis = 15.0, 30.0, "0-100 scale: <=15 consistent, 16-30 marginal, >30 inconsistent"
    elif scale_kind == SCALE_LIKERT:
        consistent, marginal, basis = 1.0, 2.0, "5-point Likert: <=1 consistent, 2 marginal, >=3 inconsistent"
    elif scale_kind == SCALE_BINARY:
        # any disagreement is inconsistent; the marginal band is empty
        consistent, marginal, basis = 0.0, 0.5, "binary choice: any disagreement on a repeat is inconsistent"
    else:
        raise ValueError(f"unknown scale_kind {scale_kind!r}")
    return ThresholdCalibration("scale_relative", scale_kind, consistent, marginal, basis)


def calibrate_consequence(scale_kind: str, flip_margin: float) -> ThresholdCalibration:
    """Threshold at the smallest difference that changes the training signal."""
    if flip_margin < 0:
        raise ValueError(f"flip_margin must be nonnegative, got {flip_margin}")
    marginal = 2.0 * flip_margin if flip_margin > 0 else 0.5
    return ThresholdCalibration(
        method="consequence",
        scale_kind=scale_kind,
        consistent_max=flip_margin,
        marginal_max=marginal,
        basis=f"differences beyond {flip_margin:g} would flip the aggregated signal",
    )
