"""Classification of flagged inconsistencies and annotator routing.

Pair-level classification uses two schemes. Equivalent content: a delta of
at most 15 points is consistent, 16-30 marginal, and above 30 excessive.
Directional content (one side expected more harmful): a correct-direction
margin above 15 is consistent, an absolute margin within 15 marginal, and a
wrong-direction margin above 15 a violation.

Case-level labels follow a mechanized rule cascade over analyst-supplied
item codes. The coding itself is interpretive human work; this module only
replays the documented profile-to-label mapping and records which rule
fired, so classification stays replayable. When codes are absent the
cascade falls through to a flagged fallback rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diagnostics import ConsistencyProfile
from .pairing import InconsistencyFlag
from .records import Dataset, ItemMetadata, score_value

CATEGORIES = ("consistent", "marginal", "excessive", "violation")
LABELS = ("non_attitude", "constructed_preference", "measurement_artifact", "genuine_uncrystallized")

ROUTE_FILTER = "filter_downweight"
ROUTE_ELICIT = "elicit_carefully"
ROUTE_FIX = "fix_instrument"
ROUTE_SIGNAL = "use_as_signal"
ROUTES = (ROUTE_FILTER, ROUTE_ELICIT, ROUTE_FIX, ROUTE_SIGNAL)


@dataclass(frozen=True)
class PairClassification:
    category: str
    basis: str  # equivalent_scheme | directional_scheme
    delta: float
    flag: Optional[InconsistencyFlag] = None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.category == "excessive" and self.basis != "equivalent_scheme":
            raise ValueError("excessive applies only under the equivalent scheme")
        if self.category == "violation" and self.basis != "directional_scheme":
            raise ValueError("violation applies only under the directional scheme")


@dataclass(frozen=True)
class TaxonomyLabel:
    label: str
    rule_trace: tuple[str, ...]
    flag: Optional[InconsistencyFlag] = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if not self.rule_trace:
            raise ValueError("rule_trace must be nonempty")


def classify_equivalent_pair(
    score_a: float,
    score_b: float,
    consistent_max: float = 15.0,
    marginal_max: float = 30.0,
    flag: Optional[InconsistencyFlag] = None,
) -> PairClassification:
    """Equivalent-content scheme: |delta| <= 15 / 16-30 / > 30."""
    delta = abs(score_a - score_b)
    if delta <= consistent_max:
        category = "consistent"
    elif delta <= marginal_max:
        category = "marginal"
    else:
        category = "excessive"
    return PairClassification(category, "equivalent_scheme", delta, flag)


def classify_directional_pair(
    score_a: float,
    score_b: float,
    expected: str,
    margin: float = 15.0,
    flag: Optional[InconsistencyFlag] = None,
) -> PairClassification:
    """Directional scheme: signed margin in the expected direction.

    With B expected more harmful: score_b - score_a > 15 is consistent,
    |score_b - score_a| <= 15 marginal, and score_a - score_b > 15 a
    violation (the less harmful side rated more harmful). Symmetric when A
    is expected more harmful.
    """
    if expected not in ("a_more", "b_more"):
        raise ValueError(f"expected direction must be a_more or b_more, got {expected!r}")
    signed = (score_b - score_a) if expected == "b_more" else (score_a - score_b)
    if signed > margin:
        category = "consistent"
    elif signed >= -margin:
        category = "marginal"
    else:
        category = "violation"
    return PairClassification(category, "directional_scheme", abs(score_a - score_b), flag)


def classify_pair(flag: InconsistencyFlag, **kwargs) -> PairClassification:
    """Dispatch on the pair kind: identical and equivalent pairs share the
    equivalent scheme; directional pairs use the directional scheme."""
    if flag.pair.kind == "directional":
        return classify_directional_pair(
            flag.score_a, flag.score_b, flag.pair.expected_direction, flag=flag, **kwargs
        )
    return classify_equivalent_pair(flag.score_a, flag.score_b, flag=flag, **kwargs)


def score_pattern(score_a: float, score_b: float) -> list[str]:
    """Score-pattern codes on the 0-100 scale.

    C1 extreme-to-extreme (one <= 20, the other >= 80), C2 extreme-to-middle,
    C3 middle-to-middle; C4 (same side of 50, >= 15 apart) is reported as a
    supplementary code alongside the primary one. Two scores at the same
    extreme end fit none of C1-C3 and carry C4 (or C2 for a sub-threshold
    gap) alone.
    """
    lo, hi = sorted((float(score_a), float(score_b)))
    codes = []
    if lo <= 20.0 and hi >= 80.0:
        codes.append("C1")
    elif (lo <= 20.0 and 20.0 < hi < 80.0) or (hi >= 80.0 and 20.0 < lo < 80.0):
        codes.append("C2")
    elif 20.0 < lo and hi < 80.0:
        codes.append("C3")
    if ((lo > 50.0 and hi > 50.0) or (lo < 50.0 and hi < 50.0)) and hi - lo >= 15.0:
        codes.append("C4")
    if not codes:
        codes.append("C2")
    return codes


def classify_flag(
    flag: InconsistencyFlag,
    metadata: Optional[ItemMetadata] = None,
    pair_classification: Optional[PairClassification] = None,
    artifact_floor: float = 40.0,
    moderate_bounds: tuple[float, float] = (21.0, 79.0),
    uncrystallized_max_delta: float = 30.0,
) -> TaxonomyLabel:
    """Label one flagged inconsistency through the rule cascade.

    Rules fire in order; the trace records the score-pattern codes and the
    rule that decided the label. A fallback always fires, so every flag
    receives exactly one label.
    """
    codes = score_pattern(flag.score_a, flag.score_b)
    trace = [f"pattern:{code}" for code in codes]
    scores = (flag.score_a, flag.score_b)
    meta = metadata
    if pair_classification is None:
        pair_classification = classify_pair(flag)
    trace.append(f"pair:{pair_classification.category}")

    if meta is not None and meta.response_quality == "B2_bad" and any(s > artifact_floor for s in scores):
        trace.append(f"rule1:bad_response_scored_above_{artifact_floor:g}")
        return TaxonomyLabel("measurement_artifact", tuple(trace), flag)
    if (
        meta is not None
        and meta.content_type in ("A1_generic", "A2_factual")
        and meta.plausible_pref == "E1_implausible"
    ):
        trace.append("rule2:no_plausible_preference_basis")
        return TaxonomyLabel("non_attitude", tuple(trace), flag)
    if pair_classification.category == "violation":
        trace.append("rule3:direction_violation")
        return TaxonomyLabel("non_attitude", tuple(trace), flag)
    if pair_classification.category == "excessive" or (
        meta is not None
        and meta.content_type in ("A3_subjective", "A4_value_laden", "A5_task_based")
        and meta.eval_complexity == "D3_multi_conflicting"
    ):
        trace.append("rule4:excessive_or_conflicting_criteria")
        return TaxonomyLabel("constructed_preference", tuple(trace), flag)
    lo, hi = moderate_bounds
    # "moderate" admits both scores inside the middle band, or a same-side
    # pattern (C4): scores like 63/85 stay on one side of the midpoint with a
    # moderate gap and signal ambivalence, not absence of attitude
    moderate_pattern = all(lo <= s <= hi for s in scores) or "C4" in codes
    if (
        meta is not None
        and meta.content_type == "A4_value_laden"
        and meta.plausible_pref == "E3_plausible"
        and moderate_pattern
        and flag.delta <= uncrystallized_max_delta
    ):
        trace.append("rule5:moderate_scores_on_value_laden_content")
        return TaxonomyLabel("genuine_uncrystallized", tuple(trace), flag)
    trace.append("rule6:fallback")
    return TaxonomyLabel("constructed_preference", tuple(trace), flag)


def classify_flags(
    flags: Sequence[InconsistencyFlag],
    dataset: Dataset,
    **kwargs,
) -> list[TaxonomyLabel]:
    """Classify every flag, pulling metadata from item_a of its pair."""
    return [
        classify_flag(flag, dataset.metadata.get(flag.pair.item_a), **kwargs) for flag in flags
    ]


@dataclass(frozen=True)
class RoutingThresholds:
    """Cutoffs for the routing procedure.

    Defaults were calibrated on the synthetic recovery corpus; the source
    material gives no numeric values for "low" consistency.
    """

    t_temp: float = 0.5
    t_frame: float = 0.55
    t_order: float = 0.6
    t_artifact_rate: float = 0.075


def decision_procedure(
    profile: ConsistencyProfile,
    thresholds: RoutingThresholds = RoutingThresholds(),
    artifact_rate: Optional[float] = None,
) -> str:
    """Route an annotator by first-failing diagnostic.

    Order of checks: temporal consistency (a non-attitude signature), then
    instrument-level evidence (order failures or a high logic-check failure
    rate), then framing sensitivity. Instrument evidence is screened before
    framing because task-execution failures contaminate the framing estimate
    itself, whereas framing failures say nothing about anchors; attention
    screening likewise precedes analysis in practice. Absent components are
    skipped, and an annotator passing every available check routes to
    use_as_signal.
    """
    if not profile.components():
        raise ValueError(f"profile {profile.annotator_id!r} has no component scores")
    if profile.temp is not None and profile.temp < thresholds.t_temp:
        return ROUTE_FILTER
    order_bad = profile.order is not None and profile.order < thresholds.t_order
    artifact_bad = artifact_rate is not None and artifact_rate > thresholds.t_artifact_rate
    if order_bad or artifact_bad:
        return ROUTE_FIX
    if profile.frame is not None and profile.frame < thresholds.t_frame:
        return ROUTE_ELICIT
    return ROUTE_SIGNAL


def anchor_failure_rate(
    dataset: Dataset,
    annotator_id: str,
    anchor_scores: dict[str, float],
    tolerance: float = 15.0,
) -> tuple[Optional[float], int]:
    """Fraction of an annotator's anchor-item ratings off by more than the tolerance.

    Anchor items carry externally known gold scores (attention checks).
    Returns (None, 0) when the annotator rated no anchors.
    """
    deviations = [
        abs(score_value(rec) - anchor_scores[rec.item_id])
        for rec in dataset.by_annotator.get(annotator_id, [])
        if rec.item_id in anchor_scores
    ]
    if not deviations:
        return None, 0
    failures = sum(1 for d in deviations if d > tolerance)
    return failures / len(deviations), len(deviations)


@dataclass
class ClassificationSummary:
    """Distribution of taxonomy labels with per-label mean deltas."""

    rows: list[dict]
    n_total: int


def classification_summary(labels: Sequence[TaxonomyLabel]) -> ClassificationSummary:
    """Counts, percentages, and mean deltas per label, largest class first."""
    groups: dict[str, list[TaxonomyLabel]] = {}
    for lab in labels:
        groups.setdefault(lab.label, []).append(lab)
    rows = []
    for label, members in groups.items():
        deltas = [m.flag.delta for m in members if m.flag is not None]
        rows.append(
            {
                "label": label,
                "n": len(members),
                "pct": 100.0 * len(members) / len(labels),
                "mean_delta": float(np.mean(deltas)) if deltas else 0.0,
            }
        )
    rows.sort(key=lambda r: (-r["n"], r["label"]))
    return ClassificationSummary(rows=rows, n_total=len(labels))
