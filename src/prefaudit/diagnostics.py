"""Per-annotator consistency measures and their aggregation into reliability.

Four measures, each the fraction of qualifying observation pairs that agree
within a tolerance tau (binary scales use exact agreement, tau = 0):

* temporal: same item, same framing, rated at different times
* framing: the same underlying item under two framing variants, or two
  distinct items linked as an equivalent pair
* order: the same binary comparison presented in both orders
* cross-item: a variance-based proxy over items tapping one value dimension

A pair whose delta equals tau exactly counts as consistent. Scores are
absent (None), never zero, when no qualifying pairs exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Annotated, Iterator, Optional, Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientSupportError
from .pairing import PromptPair
from .ratio import RatioConfig, group_ratio
from .records import (
    COUNT,
    NONNEGATIVE,
    ORDER_TAG_AB,
    ORDER_TAG_BA,
    SCALE_BINARY,
    UNIT,
    AnnotationRecord,
    Dataset,
    check_domains,
    default_tau,
    score_value,
)
from .stats import cohens_d, paired_t

RELIABILITY_MODES = ("weighted", "min", "hierarchical")

# reliability(hierarchical) falls back to these when no thresholds are given,
# and taxonomy.RoutingThresholds defaults to them
DEFAULT_T_TEMP = 0.5
DEFAULT_T_FRAME = 0.55


@dataclass(slots=True)
class ConsistencyProfile:
    """Per-annotator consistency scores with their supporting pair counts."""

    annotator_id: str
    temp: Annotated[Optional[float], UNIT] = None
    frame: Annotated[Optional[float], UNIT] = None
    order: Annotated[Optional[float], UNIT] = None
    cross: Annotated[Optional[float], UNIT] = None
    n_temp_pairs: Annotated[int, COUNT] = 0
    n_frame_pairs: Annotated[int, COUNT] = 0
    n_order_pairs: Annotated[int, COUNT] = 0
    n_cross_items: Annotated[int, COUNT] = 0
    reliability: Annotated[Optional[float], UNIT] = None
    tau_used: Annotated[float, NONNEGATIVE] = 15.0

    __post_init__ = check_domains  # the declared domains are its only rule

    @staticmethod
    def _read_row(row: dict) -> dict:
        """A row without the ``routing`` column that ``diagnose --route`` adds, which is no field."""
        return {k: v for k, v in row.items() if k != "routing"} if "routing" in row else row

    def components(self) -> dict[str, float]:
        out = {}
        for name in ("temp", "frame", "order", "cross"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _different_times(r1: AnnotationRecord, r2: AnnotationRecord) -> bool:
    if r1.session_id is not None and r2.session_id is not None and r1.session_id != r2.session_id:
        return True
    return r1.timestamp is not None and r2.timestamp is not None and r1.timestamp != r2.timestamp


def _cell_pairs(
    dataset: Dataset, annotator_id: str
) -> Iterator[tuple[AnnotationRecord, AnnotationRecord]]:
    """Every pair of ratings the annotator gave one item, in record order."""
    for recs in dataset.by_annotator_item.get(annotator_id, {}).values():
        yield from combinations(recs, 2)


def _pair_fraction(deltas: list[float], tau: float) -> tuple[Optional[float], int]:
    if not deltas:
        return None, 0
    hits = sum(1 for d in deltas if d <= tau)
    return hits / len(deltas), len(deltas)


def temporal_consistency(
    dataset: Dataset,
    annotator_id: str,
    tau: Optional[float] = None,
) -> tuple[Optional[float], int]:
    """Fraction of repeat rating pairs (same item and framing, different time)
    agreeing within tau.

    "Different time" means a different session, or failing that a different
    timestamp. Returns (None, 0) when the annotator has no qualifying repeat
    pairs.
    """
    tau = default_tau(dataset.scale_kind) if tau is None else tau
    deltas = [
        abs(score_value(r1) - score_value(r2))
        for r1, r2 in _cell_pairs(dataset, annotator_id)
        if r1.framing_id == r2.framing_id and _different_times(r1, r2)
    ]
    return _pair_fraction(deltas, tau)


def framing_consistency(
    dataset: Dataset,
    annotator_id: str,
    tau: Optional[float] = None,
    pairs: Optional[Sequence[PromptPair]] = None,
) -> tuple[Optional[float], int]:
    """Fraction of equivalent-content rating pairs agreeing within tau.

    Equivalent content is the same item under two distinct framing variants;
    ``pairs`` adds cross-item equivalent pairs discovered elsewhere.
    """
    tau = default_tau(dataset.scale_kind) if tau is None else tau
    deltas = [
        abs(score_value(r1) - score_value(r2))
        for r1, r2 in _cell_pairs(dataset, annotator_id)
        if None not in (r1.framing_id, r2.framing_id) and r1.framing_id != r2.framing_id
    ]
    if pairs:
        partners = _equivalent_partners(pairs)
        mine = dataset.by_annotator_item.get(annotator_id, {})
        for item_a, ras in mine.items():
            for item_b in partners.get(item_a, ()):
                for ra in ras:
                    for rb in mine.get(item_b, ()):
                        deltas.append(abs(score_value(ra) - score_value(rb)))
    return _pair_fraction(deltas, tau)


def _equivalent_partners(pairs: Sequence[PromptPair]) -> dict[str, list[str]]:
    """item_a -> the item_b of each cross-item equivalent pair, in pair order."""
    partners: dict[str, list[str]] = {}
    for pair in pairs:
        if pair.kind == "equivalent" and not pair.is_self_pair:
            partners.setdefault(pair.item_a, []).append(pair.item_b)
    return partners


def order_consistency(dataset: Dataset, annotator_id: str) -> tuple[Optional[float], int]:
    """Fraction of both-order binary presentations preferring the same response.

    Presentation order is read from condition_tag markers "order:AB" and
    "order:BA" on binary_pair records; the recorded choice names the
    response itself, not its screen position.
    """
    indicators = [
        0.0 if r1.score == r2.score else 1.0
        for r1, r2 in _cell_pairs(dataset, annotator_id)
        if r1.scale_kind == r2.scale_kind == SCALE_BINARY
        and {r1.condition_tag, r2.condition_tag} == {ORDER_TAG_AB, ORDER_TAG_BA}
    ]
    return _pair_fraction(indicators, 0.0)


def cross_item_consistency(
    dataset: Dataset,
    annotator_id: str,
    value_dimension: str,
    config: RatioConfig = RatioConfig(),
) -> tuple[float, int]:
    """Consistency proxy 1 / (1 + inconsistency ratio) over one value dimension.

    Needs at least ``config.min_support`` rated items tagged with the
    dimension. A single rating per item admits no within-annotator
    correlation, so the variance-ratio proxy stands in for a correlation:
    constant ratings give 1.0, ratings indistinguishable from the
    annotator's own random grouping give ~0.5.
    """
    dim_items = dataset.items_by_value_dimension.get(value_dimension, frozenset())
    _, n, _, ratio = group_ratio(
        dataset, annotator_id, dim_items, f"dimension {value_dimension!r}", config.min_support
    )
    return 1.0 / (1.0 + ratio), n


def annotator_value_dimensions(dataset: Dataset, annotator_id: str) -> list[str]:
    dims: set[str] = set()
    for rec in dataset.by_annotator.get(annotator_id, []):
        meta = dataset.metadata.get(rec.item_id)
        if meta is not None and meta.value_dimension is not None:
            dims.add(meta.value_dimension)
    return sorted(dims)


def reliability(
    profile: ConsistencyProfile,
    mode: str = "weighted",
    weights: Optional[Sequence[float]] = None,
    t_temp: float = DEFAULT_T_TEMP,
    t_frame: float = DEFAULT_T_FRAME,
) -> float:
    """Aggregate the present component scores into one reliability value.

    weighted: weighted average over the present components, weights
    renormalized to the present subset (absent scores are excluded, never
    imputed). min: minimum present component. hierarchical: a failing
    temporal score is returned directly, else a failing framing score, else
    the weighted aggregate.
    """
    components = profile.components()
    if not components:
        raise InsufficientSupportError(f"profile {profile.annotator_id!r} has no component scores")
    if mode not in RELIABILITY_MODES:
        raise ValueError(f"unknown reliability mode {mode!r}")
    if mode == "min":
        return min(components.values())
    if mode == "hierarchical":
        if profile.temp is not None and profile.temp < t_temp:
            return profile.temp
        if profile.frame is not None and profile.frame < t_frame:
            return profile.frame
        return reliability(profile, "weighted", weights)
    order = ("temp", "frame", "order", "cross")
    if weights is None:
        weights = (1.0, 1.0, 1.0, 1.0)
    if len(weights) != 4 or any(w < 0 for w in weights):
        raise ValueError("weights must be four nonnegative numbers (temp, frame, order, cross)")
    picked = [(components[name], w) for name, w in zip(order, weights) if name in components]
    total = sum(w for _, w in picked)
    if total == 0.0:
        raise ValueError("weights assign zero mass to every present component")
    return sum(v * w for v, w in picked) / total


def build_profile(
    dataset: Dataset,
    annotator_id: str,
    tau: Optional[float] = None,
    pairs: Optional[Sequence[PromptPair]] = None,
    ratio_config: RatioConfig = RatioConfig(),
    reliability_mode: str = "weighted",
    weights: Optional[Sequence[float]] = None,
) -> ConsistencyProfile:
    """Compute all supportable consistency scores for one annotator."""
    tau_used = default_tau(dataset.scale_kind) if tau is None else tau
    temp, n_temp = temporal_consistency(dataset, annotator_id, tau_used)
    frame, n_frame = framing_consistency(dataset, annotator_id, tau_used, pairs)
    order, n_order = order_consistency(dataset, annotator_id)
    cross_scores: list[float] = []
    n_cross = 0
    for dim in annotator_value_dimensions(dataset, annotator_id):
        try:
            score, n_items = cross_item_consistency(dataset, annotator_id, dim, ratio_config)
        except InsufficientSupportError:
            continue
        cross_scores.append(score)
        n_cross += n_items
    profile = ConsistencyProfile(
        annotator_id=annotator_id,
        temp=temp,
        frame=frame,
        order=order,
        cross=float(np.mean(cross_scores)) if cross_scores else None,
        n_temp_pairs=n_temp,
        n_frame_pairs=n_frame,
        n_order_pairs=n_order,
        n_cross_items=n_cross,
        tau_used=tau_used,
    )
    if profile.components():
        profile.reliability = reliability(profile, reliability_mode, weights)
    return profile


def build_profiles(
    dataset: Dataset,
    tau: Optional[float] = None,
    pairs: Optional[Sequence[PromptPair]] = None,
    ratio_config: RatioConfig = RatioConfig(),
    reliability_mode: str = "weighted",
    weights: Optional[Sequence[float]] = None,
) -> dict[str, ConsistencyProfile]:
    """Profiles for every annotator, keyed by annotator id."""
    return {
        annotator_id: build_profile(
            dataset, annotator_id, tau, pairs, ratio_config, reliability_mode, weights
        )
        for annotator_id in dataset.annotator_ids
    }


@dataclass
class FramingEffect:
    """Within-annotator deviations and the systematic shift across one pair."""

    pair_id: str
    per_annotator_deviation: dict[str, float]
    pair_shift: float
    paired_t: float
    p_value: float
    cohens_d: float
    n_annotators: int
    degenerate: bool = False


def framing_effect_stats(dataset: Dataset, pair: PromptPair) -> FramingEffect:
    """Paired-sample framing-shift statistics across annotators for one pair.

    An annotator contributes the mean of their ratings on each side. With a
    uniformly zero difference vector the shift is reported as t = 0, d = 0
    with a degeneracy flag rather than an error.
    """
    raters_a = dataset.by_item_annotator.get(pair.item_a, {})
    raters_b = dataset.by_item_annotator.get(pair.item_b, {})
    shared = sorted(raters_a.keys() & raters_b.keys())
    if len(shared) < 2:
        raise InsufficientSupportError(
            f"pair {pair.pair_id!r} has {len(shared)} annotators rating both sides, needs 2"
        )
    side_a = np.asarray([float(np.mean([score_value(r) for r in raters_a[a]])) for a in shared])
    side_b = np.asarray([float(np.mean([score_value(r) for r in raters_b[a]])) for a in shared])
    diffs = side_a - side_b
    deviations = {a: float(abs(d)) for a, d in zip(shared, diffs)}
    shift = float(abs(side_a.mean() - side_b.mean()))
    try:
        test = paired_t(diffs)
        effect = cohens_d(diffs)
        return FramingEffect(pair.pair_id, deviations, shift, test.statistic,
                             test.p_value, effect, len(shared))
    except DegenerateDataError:
        if np.allclose(diffs, 0.0):
            return FramingEffect(pair.pair_id, deviations, 0.0, 0.0, 1.0, 0.0,
                                 len(shared), degenerate=True)
        # constant nonzero differences: infinite t; report the sign with p ~ 0
        sign = 1.0 if diffs.mean() > 0 else -1.0
        return FramingEffect(pair.pair_id, deviations, shift, sign * float("inf"),
                             0.0, sign * float("inf"), len(shared), degenerate=True)

