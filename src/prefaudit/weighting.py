"""Pipeline-ready outputs: record weights, item reliability, variance split.

Turns consistency diagnostics into artifacts a training pipeline can
consume directly: per-record weights in [0, 1] (binary, linear, or sigmoid
in the available reliabilities), item-level repeat reliability, a
decomposition of rating variance into test-retest error and preference
variance, and a weighted/filtered dataset export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import exp
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import ConsistencyProfile
from .errors import InsufficientSupportError
from .records import Dataset, default_tau, open_output, record_to_obj, score_value, to_json

WEIGHT_MODES = ("binary", "linear", "sigmoid")
EXPORT_POLICIES = ("weight", "filter", "both")


def _repeat_pair_deltas_by_annotator(dataset: Dataset, item_id: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for (annotator, _item, _framing), recs in dataset.repeat_groups_by_item.get(item_id, {}).items():
        deltas = [abs(score_value(r1) - score_value(r2)) for r1, r2 in combinations(recs, 2)]
        out.setdefault(annotator, []).extend(deltas)
    return out


def item_reliability(dataset: Dataset, item_id: str, tau: Optional[float] = None) -> float:
    """Mean over annotators of their repeat-consistency fraction on this item."""
    tau = default_tau(dataset.scale_kind) if tau is None else tau
    per_annotator = _repeat_pair_deltas_by_annotator(dataset, item_id)
    if not per_annotator:
        raise InsufficientSupportError(f"item {item_id!r} has no annotator with a repeat")
    fractions = [
        sum(1 for d in deltas if d <= tau) / len(deltas) for deltas in per_annotator.values()
    ]
    return float(np.mean(fractions))


def item_reliability_table(dataset: Dataset, tau: Optional[float] = None) -> dict[str, float]:
    """Item reliability for every item with at least one repeat; others are excluded."""
    return {
        item_id: item_reliability(dataset, item_id, tau)
        for item_id in sorted(dataset.repeat_groups_by_item)
    }


@dataclass
class WeightTable:
    """Per-record weights with the reliabilities they were derived from."""

    weight_mode: str
    record_weights: dict[str, float]
    annotator_reliability: dict[str, float]
    item_reliability: dict[str, float]
    n_unscored_annotators: int
    params: dict = field(default_factory=dict)


def build_weights(
    dataset: Dataset,
    profiles: dict[str, ConsistencyProfile],
    mode: str = "linear",
    threshold: float = 0.5,
    item_threshold: Optional[float] = None,
    midpoint: float = 0.5,
    steepness: float = 10.0,
    tau: Optional[float] = None,
) -> WeightTable:
    """Per-record weights from annotator reliability and item reliability.

    linear: the product of the available reliabilities. binary: 1 when
    every available reliability clears its threshold, else 0. sigmoid: a
    logistic squash of the linear product with configurable midpoint and
    steepness. Annotators without a computed reliability carry neutral
    weight 1 (no evidence is not negative evidence) and are counted.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {mode!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if steepness <= 0:
        raise ValueError(f"steepness must be positive, got {steepness}")
    item_threshold = threshold if item_threshold is None else item_threshold
    annotator_rel = {
        a: p.reliability for a, p in profiles.items() if p.reliability is not None
    }
    item_rel = item_reliability_table(dataset, tau)

    weights: dict[str, float] = {}
    unscored: set[str] = set()
    for rec in dataset.records:
        rel_a = annotator_rel.get(rec.annotator_id)
        rel_x = item_rel.get(rec.item_id)
        if rel_a is None:
            unscored.add(rec.annotator_id)
        available = [r for r in (rel_a, rel_x) if r is not None]
        if mode == "binary":
            ok = (rel_a is None or rel_a >= threshold) and (rel_x is None or rel_x >= item_threshold)
            weights[rec.record_id] = 1.0 if ok else 0.0
        else:
            product = 1.0
            for r in available:
                product *= r
            if mode == "linear":
                weights[rec.record_id] = product
            else:
                weights[rec.record_id] = 1.0 / (1.0 + exp(-steepness * (product - midpoint)))
    return WeightTable(
        weight_mode=mode,
        record_weights=weights,
        annotator_reliability=annotator_rel,
        item_reliability=item_rel,
        n_unscored_annotators=len(unscored),
        params={
            "threshold": threshold,
            "item_threshold": item_threshold,
            "midpoint": midpoint,
            "steepness": steepness,
        },
    )


@dataclass
class VarianceDecomposition:
    """Total rating variance split into test-retest error and preference variance."""

    var_total: float
    var_artifact: float
    var_preference: float
    n_repeat_pairs: int
    n_inconsistent_pairs: int
    floored: bool


def variance_decomposition(dataset: Dataset, tau: Optional[float] = None) -> VarianceDecomposition:
    """Classical test-retest error variance against total rating variance.

    var_artifact is half the mean squared repeat-pair difference; the
    preference share is the remainder, floored at zero with the floor event
    reported. tau only classifies pairs as consistent or not for reporting;
    the estimator uses every repeat pair.
    """
    tau = default_tau(dataset.scale_kind) if tau is None else tau
    squared: list[float] = []
    inconsistent = 0
    for recs in dataset.repeat_groups.values():
        for r1, r2 in combinations(recs, 2):
            delta = score_value(r1) - score_value(r2)
            squared.append(delta * delta)
            if abs(delta) > tau:
                inconsistent += 1
    if not squared:
        raise InsufficientSupportError("variance decomposition needs at least one repeat pair")
    var_artifact = 0.5 * float(np.mean(squared))
    var_total = float(np.asarray([score_value(r) for r in dataset.records]).var(ddof=0))
    raw_preference = var_total - var_artifact
    return VarianceDecomposition(
        var_total=var_total,
        var_artifact=var_artifact,
        var_preference=max(0.0, raw_preference),
        n_repeat_pairs=len(squared),
        n_inconsistent_pairs=inconsistent,
        floored=raw_preference < 0.0,
    )


@dataclass
class ExportSummary:
    policy: str
    n_input: int
    n_retained: int
    n_dropped: int
    path: str


def export_weighted(
    dataset: Dataset,
    weights: WeightTable,
    policy: str,
    path: str | Path,
) -> ExportSummary:
    """Write the dataset with a weight field to ``path`` (standard output for
    ``-``), dropping zero-weight records under the filter policies. A weight
    the input records carry is overwritten, or dropped under the plain filter
    policy. The export carries no config header: it is a records file."""
    if policy not in EXPORT_POLICIES:
        raise ValueError(f"unknown export policy {policy!r}")
    retained = 0
    dropped = 0
    with open_output(path) as fh:
        for rec in dataset.records:
            w = weights.record_weights.get(rec.record_id, 1.0)
            if policy in ("filter", "both") and w == 0.0:
                dropped += 1
                continue
            obj = record_to_obj(rec)
            if policy == "filter":
                obj.pop("weight", None)
            else:
                obj["weight"] = w
            fh.write(to_json(obj) + "\n")
            retained += 1
    return ExportSummary(
        policy=policy,
        n_input=len(dataset.records),
        n_retained=retained,
        n_dropped=dropped,
        path=str(path),
    )
