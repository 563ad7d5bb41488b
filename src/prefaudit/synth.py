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

from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from .diagnostics import build_profile
from .errors import InfeasiblePlanError
from .planner import TierPlan
from .records import SCALE_CONTINUOUS, AnnotationRecord, Dataset, _rows_from_columns
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


def _scores(latent: LatentAnnotator, rng: np.random.Generator, mus: np.ndarray,
            noise_at: np.ndarray, shifted: np.ndarray, offset_at: np.ndarray) -> tuple[list[float], int]:
    """One annotator's scores for presentations of latent means ``mus``, clamped to
    [0, 100], and how many were clamped. ``rng`` is drawn in presentation order, as a
    draw per presentation would draw it. A constructed annotator draws one standard
    normal stream: each presentation's noise at ``noise_at``, and each presentation
    ``shifted`` (every one off the anchors) adds the framing offset at ``offset_at``,
    drawn right after the noise of the first presentation of its (item, framing)."""
    p, kind = latent.params, latent.latent_type
    if kind == "non_attitude":
        values = rng.uniform(0.0, 100.0, size=len(mus))
    elif kind == "genuine":
        values = mus + rng.normal(0.0, p.noise_sd, size=len(mus))
    elif kind == "constructed":  # ``normal(0.0, sd)`` is ``0.0 + sd * z``, which adds as ``sd * z`` does
        z = rng.standard_normal(size=1 + max(noise_at.max(), offset_at.max()))
        values = mus + p.noise_sd * z[noise_at]
        values[shifted] += p.framing_offset_sd * z[offset_at]
    else:  # whether a uniform or a normal follows each ``random()``: no bulk draw gives this stream
        random, uniform, normal, rate, sd = rng.random, rng.uniform, rng.normal, p.artifact_rate, p.noise_sd
        values = np.array([uniform(0.0, 100.0) if random() < rate else mu + normal(0.0, sd) for mu in mus.tolist()])
    return np.clip(values, 0.0, 100.0).tolist(), int(np.count_nonzero((values < 0.0) | (values > 100.0)))


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
    datasets; each annotator draws from an independent keyed substream, in
    presentation order. A negative annotator, repeat or anchor count raises
    ValueError naming it, before any draw.
    """
    counts = _per_type_counts(n_annotators_per_type)
    given = {f"{t} annotator count": n for t, n in counts.items()}
    given.update(n_repeats_per_annotator=plan.n_repeats_per_annotator, n_anchors=n_anchors)
    for name, value in given.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
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
    mu = mu_rng.uniform(10.0, 90.0, size=n_items)
    anchor_mu = mu_rng.uniform(10.0, 90.0, size=n_anchors)

    annotators: list[LatentAnnotator] = []
    index = 0
    for latent_type in LATENT_TYPES:
        for _ in range(counts[latent_type]):
            annotators.append(LatentAnnotator(f"{latent_type}-{index:04d}", latent_type, params))
            index += 1

    # Each annotator's presentations, the same for every one: its chunk in s1, the first
    # ``repeats`` plain and the next ``n_framing_pairs`` as framing "a"; the anchors in
    # s1; then the repeats again, and the framed items as framing "b", in s2.
    repeats, n_rerated = plan.n_repeats_per_annotator, plan.n_repeats_per_annotator + n_framing_pairs
    n_s1 = ipa + n_anchors
    framings = (None,) * repeats + ("a",) * n_framing_pairs + (None,) * (n_s1 - n_rerated)
    framings += (None,) * repeats + ("b",) * n_framing_pairs
    # A constructed annotator's draws: a noise and an offset for each of the chunk, a noise
    # for each anchor and repeat, then a noise and an offset for each framed item in s2.
    # Every presentation off the anchors adds an offset, a repeat its s1 presentation's.
    pairs_at = 2 * ipa + n_anchors + repeats
    noise_at = np.r_[0 : 2 * ipa : 2, 2 * ipa : pairs_at, pairs_at : pairs_at + 2 * n_framing_pairs : 2]
    shifted = np.r_[0:ipa, n_s1 : n_s1 + n_rerated]
    offset_at = 1 + np.r_[noise_at[:ipa], noise_at[:repeats], noise_at[n_s1 + repeats :]]

    columns: dict[str, list] = {"annotator_id": [], "item_id": [], "score": [], "session_id": []}
    clamp_count = 0
    for a_idx, latent in enumerate(annotators):
        aid, lo = latent.annotator_id, a_idx * ipa
        chunk = item_ids[lo : lo + ipa]
        mus = np.concatenate((mu[lo : lo + ipa], anchor_mu, mu[lo : lo + n_rerated]))
        scores, clamps = _scores(latent, seeded_sampler(seed, f"synth|{aid}"), mus, noise_at, shifted, offset_at)
        clamp_count += clamps
        columns["annotator_id"] += (aid,) * len(scores)
        columns["item_id"] += chunk + anchor_ids + chunk[:n_rerated]
        columns["score"] += scores
        columns["session_id"] += (f"{aid}-s1",) * n_s1 + (f"{aid}-s2",) * n_rerated
    n = len(columns["score"])
    columns.update(
        record_id=[f"r{i:07d}" for i in range(n)],
        prompt_text=[f"prompt for {item}" for item in columns["item_id"]],
        scale_kind=(SCALE_CONTINUOUS,) * n,
        position_index=list(range(len(framings))) * len(annotators),
        framing_id=framings * len(annotators),
    )
    names = [f.name for f in fields(AnnotationRecord)]
    table = tuple(None if name not in columns else tuple(columns[name]) for name in names)
    # a fault the column checks find (none, for clamped scores) raises as the constructor raises it
    records = _rows_from_columns(AnnotationRecord, table) or [
        AnnotationRecord(**dict(zip(columns, row))) for row in zip(*columns.values())
    ]

    dataset = Dataset(records=records, scale_kind=SCALE_CONTINUOUS)
    return SyntheticDataset(
        dataset=dataset,
        truth={a.annotator_id: a.latent_type for a in annotators},
        anchor_scores=dict(zip(anchor_ids, anchor_mu.tolist())),
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
