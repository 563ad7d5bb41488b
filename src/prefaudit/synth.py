"""Synthetic annotators with known latent types, for diagnostic-recovery tests.

Each latent type has a generative signature the diagnostics should pick up:

* genuine: item-specific latent mean plus small noise, stable everywhere
* non_attitude: uniform random ratings on every presentation
* constructed: latent mean plus a per-(item, framing-variant) offset drawn
  once per variant, so repeats within a variant are stable while variants
  diverge
* artifact: genuine-like, but each rating is replaced by uniform noise with
  some probability, including on unambiguous anchor items

Anchor items carry known gold scores so attention-check logic can be
exercised; construction does not trigger on them (they are unambiguous),
while artifact and non-attitude corruption does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .diagnostics import build_profile
from .errors import InfeasiblePlanError
from .planner import TierPlan
from .records import SCALE_CONTINUOUS, AnnotationRecord, Dataset
from .stats import seeded_sampler
from .taxonomy import (
    ROUTE_ELICIT,
    ROUTE_FILTER,
    ROUTE_FIX,
    ROUTE_SIGNAL,
    RoutingThresholds,
    anchor_failure_rate,
    decision_procedure,
)

LATENT_TYPES = ("genuine", "non_attitude", "constructed", "artifact")

TYPE_TO_ROUTE = {
    "non_attitude": ROUTE_FILTER,
    "constructed": ROUTE_ELICIT,
    "artifact": ROUTE_FIX,
    "genuine": ROUTE_SIGNAL,
}


@dataclass(frozen=True)
class GenParams:
    noise_sd: float = 5.0
    framing_offset_sd: float = 30.0
    artifact_rate: float = 0.3

    def __post_init__(self):
        if self.noise_sd <= 0 or self.framing_offset_sd <= 0:
            raise ValueError("noise and offset scales must be positive")
        if not 0.0 <= self.artifact_rate <= 1.0:
            raise ValueError("artifact_rate must lie in [0, 1]")


@dataclass(frozen=True)
class LatentAnnotator:
    annotator_id: str
    latent_type: str
    params: GenParams


@dataclass
class SyntheticDataset:
    dataset: Dataset
    truth: dict[str, str]
    anchor_scores: dict[str, float]
    seed: int
    clamp_count: int


class _Rater:
    """Draws one annotator's ratings according to their latent type."""

    def __init__(self, latent: LatentAnnotator, rng: np.random.Generator):
        self.latent = latent
        self.rng = rng
        self.offsets: dict[tuple[str, Optional[str]], float] = {}
        self.clamps = 0

    def _clamp(self, value: float) -> float:
        if value < 0.0 or value > 100.0:
            self.clamps += 1
        return float(min(100.0, max(0.0, value)))

    def rate(self, item_id: str, mu: float, framing_id: Optional[str], is_anchor: bool) -> float:
        p = self.latent.params
        kind = self.latent.latent_type
        if kind == "non_attitude":
            return float(self.rng.uniform(0.0, 100.0))
        if kind == "artifact" and self.rng.random() < p.artifact_rate:
            return float(self.rng.uniform(0.0, 100.0))
        value = mu + self.rng.normal(0.0, p.noise_sd)
        if kind == "constructed" and not is_anchor:
            key = (item_id, framing_id)
            if key not in self.offsets:
                self.offsets[key] = float(self.rng.normal(0.0, p.framing_offset_sd))
            value += self.offsets[key]
        return self._clamp(value)


def _per_type_counts(n_annotators_per_type: Union[int, dict[str, int]]) -> dict[str, int]:
    if isinstance(n_annotators_per_type, int):
        return {t: n_annotators_per_type for t in LATENT_TYPES}
    unknown = set(n_annotators_per_type) - set(LATENT_TYPES)
    if unknown:
        raise ValueError(f"unknown latent types: {sorted(unknown)}")
    return {t: n_annotators_per_type.get(t, 0) for t in LATENT_TYPES}


def generate(
    n_annotators_per_type: Union[int, dict[str, int]],
    n_items: int,
    plan: TierPlan,
    seed: int,
    n_framing_pairs: int = 10,
    n_anchors: int = 20,
    params: GenParams = GenParams(),
) -> SyntheticDataset:
    """Generate a dataset realizing the plan's diagnostic structure.

    Items are partitioned across annotators per the plan. Each annotator's
    first ``plan.n_repeats_per_annotator`` items are re-rated in a second
    session, the next ``n_framing_pairs`` items are presented once per
    session under two framing variants, and every annotator rates the
    shared anchor set once. Identical (parameters, seed) give bit-identical
    datasets; each annotator draws from an independent keyed substream.
    """
    counts = _per_type_counts(n_annotators_per_type)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no annotators requested")
    if n_framing_pairs < 1:
        raise ValueError("every synthetic annotator carries at least one framing pair")
    ipa = plan.items_per_annotator
    if n_items < ipa * total:
        raise InfeasiblePlanError(
            f"binding constraint: partition needs {ipa * total} items ({ipa} x {total}), got {n_items}"
        )
    if plan.n_repeats_per_annotator + n_framing_pairs > ipa:
        raise InfeasiblePlanError(
            "binding constraint: repeats plus framing pairs exceed items per annotator"
        )

    width = max(5, len(str(n_items)))
    item_ids = [f"item-{i:0{width}d}" for i in range(n_items)]
    anchor_ids = [f"anchor-{i:03d}" for i in range(n_anchors)]
    mu_rng = seeded_sampler(seed, "synth|mu")
    mu = dict(zip(item_ids, mu_rng.uniform(10.0, 90.0, size=n_items)))
    anchor_mu = dict(zip(anchor_ids, mu_rng.uniform(10.0, 90.0, size=n_anchors)))

    annotators: list[LatentAnnotator] = []
    index = 0
    for latent_type in LATENT_TYPES:
        for _ in range(counts[latent_type]):
            annotators.append(LatentAnnotator(f"{latent_type}-{index:04d}", latent_type, params))
            index += 1

    records: list[AnnotationRecord] = []
    clamp_count = 0
    record_no = 0

    def emit(rater, annotator_id, item_id, mu_x, session, position, framing, is_anchor):
        nonlocal record_no
        score = rater.rate(item_id, mu_x, framing, is_anchor)
        records.append(
            AnnotationRecord(
                record_id=f"r{record_no:07d}",
                annotator_id=annotator_id,
                item_id=item_id,
                prompt_text=f"prompt for {item_id}",
                score=score,
                scale_kind=SCALE_CONTINUOUS,
                session_id=f"{annotator_id}-{session}",
                position_index=position,
                framing_id=framing,
            )
        )
        record_no += 1

    for a_idx, latent in enumerate(annotators):
        rater = _Rater(latent, seeded_sampler(seed, f"synth|{latent.annotator_id}"))
        chunk = item_ids[a_idx * ipa : (a_idx + 1) * ipa]
        repeats = chunk[: plan.n_repeats_per_annotator]
        framed = chunk[plan.n_repeats_per_annotator : plan.n_repeats_per_annotator + n_framing_pairs]
        framed_set = set(framed)

        position = 0
        for item in chunk:
            framing = "a" if item in framed_set else None
            emit(rater, latent.annotator_id, item, mu[item], "s1", position, framing, False)
            position += 1
        for item in anchor_ids:
            emit(rater, latent.annotator_id, item, anchor_mu[item], "s1", position, None, True)
            position += 1
        for item in repeats:
            emit(rater, latent.annotator_id, item, mu[item], "s2", position, None, False)
            position += 1
        for item in framed:
            emit(rater, latent.annotator_id, item, mu[item], "s2", position, "b", False)
            position += 1
        clamp_count += rater.clamps

    dataset = Dataset(records=records, scale_kind=SCALE_CONTINUOUS)
    return SyntheticDataset(
        dataset=dataset,
        truth={a.annotator_id: a.latent_type for a in annotators},
        anchor_scores={k: float(v) for k, v in anchor_mu.items()},
        seed=seed,
        clamp_count=clamp_count,
    )


# How far from its anchor's true score a rating may fall before it counts as an anchor failure.
ANCHOR_TOLERANCE = 15.0


def route_annotators(
    synthetic: SyntheticDataset,
    tau: float = 15.0,
    thresholds: RoutingThresholds = RoutingThresholds(),
) -> dict[str, str]:
    """Run the diagnostic-and-routing pipeline over a synthetic dataset."""
    dataset = synthetic.dataset
    routes: dict[str, str] = {}
    for annotator_id in dataset.annotator_ids:
        profile = build_profile(dataset, annotator_id, tau)
        rate, _n = anchor_failure_rate(dataset, annotator_id, synthetic.anchor_scores, ANCHOR_TOLERANCE)
        routes[annotator_id] = decision_procedure(profile, thresholds, artifact_rate=rate)
    return routes


@dataclass
class RecoveryReport:
    """Confusion of latent types against routings, with mapped accuracy."""

    confusion: dict[str, dict[str, int]]
    accuracy: float
    n_annotators: int
    per_type_accuracy: dict[str, float] = field(default_factory=dict)


def score_recovery(synthetic: SyntheticDataset, routings: dict[str, str]) -> RecoveryReport:
    """Score routings against the latent truth under the canonical mapping."""
    if not synthetic.truth:
        raise ValueError("synthetic dataset holds no annotators")
    missing = set(synthetic.truth) - set(routings)
    extra = set(routings) - set(synthetic.truth)
    if missing or extra:
        raise ValueError(f"truth/routing id mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
    confusion: dict[str, dict[str, int]] = {}
    hits = 0
    per_type_hits: dict[str, int] = {}
    per_type_total: dict[str, int] = {}
    for annotator_id, latent_type in synthetic.truth.items():
        route = routings[annotator_id]
        confusion.setdefault(latent_type, {}).setdefault(route, 0)
        confusion[latent_type][route] += 1
        per_type_total[latent_type] = per_type_total.get(latent_type, 0) + 1
        if TYPE_TO_ROUTE[latent_type] == route:
            hits += 1
            per_type_hits[latent_type] = per_type_hits.get(latent_type, 0) + 1
    return RecoveryReport(
        confusion=confusion,
        accuracy=hits / len(synthetic.truth),
        n_annotators=len(synthetic.truth),
        per_type_accuracy={
            t: per_type_hits.get(t, 0) / n for t, n in sorted(per_type_total.items())
        },
    )
