"""Similar-pair discovery and score-inconsistency flagging.

Two routes produce candidate pairs: embedding similarity between distinct
items, and repeat groups (the same item rated more than once by an
annotator), which appear as self-pairs. Flags are raised per (annotator,
pair) whenever the most divergent rating pair crosses the delta threshold;
a sequential filter ladder then narrows flags down to exact test-retest
cases (identical prompt, identical response, same model).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DataFormatError, InsufficientSupportError
from .records import AnnotationRecord, Dataset, score_value

PAIR_KINDS = ("identical", "equivalent", "directional")

IDENTICAL_SIM = 1.0 - 1e-9
MAX_EXACT_ITEMS = 20_000


@dataclass(frozen=True)
class PromptPair:
    """Two items linked by semantic similarity (or one repeated item)."""

    pair_id: str
    item_a: str
    item_b: str
    similarity: float = 1.0
    kind: str = "equivalent"
    expected_direction: Optional[str] = None
    rationale_tag: Optional[str] = None

    def __post_init__(self):
        if self.kind not in PAIR_KINDS:
            raise DataFormatError(f"unknown pair kind {self.kind!r}")
        if self.kind == "identical" and abs(self.similarity - 1.0) > 1e-9:
            raise DataFormatError("identical pairs must have similarity 1")
        if self.kind == "directional":
            if self.expected_direction not in ("a_more", "b_more"):
                raise DataFormatError("directional pairs need expected_direction a_more or b_more")
        elif self.kind == "equivalent":
            if self.expected_direction not in (None, "equal"):
                raise DataFormatError("equivalent pairs imply expected_direction 'equal'")
            object.__setattr__(self, "expected_direction", "equal")
        elif self.expected_direction is not None:
            raise DataFormatError("identical pairs carry no expected_direction")

    @property
    def is_self_pair(self) -> bool:
        return self.item_a == self.item_b


@dataclass(frozen=True)
class InconsistencyFlag:
    """One (annotator, pair) whose ratings diverge beyond the threshold."""

    annotator_id: str
    pair: PromptPair
    score_a: float
    score_b: float
    delta: float
    threshold_used: float


@dataclass
class PrevalenceSummary:
    """Aggregate counts over an inconsistency-flagging run."""

    n_evaluated_pairs: int
    n_inconsistent_pairs: int
    pct_inconsistent: float
    n_annotators_evaluated: int
    n_annotators_flagged: int
    pct_annotators_flagged: float
    mean_delta: float
    delta_threshold: float


def cosine_similarity(u: Sequence[float], v: Sequence[float]) -> float:
    """cos(u, v) = dot(u, v) / (|u| |v|), clipped to [-1, 1]."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    if ua.shape != va.shape or ua.ndim != 1 or ua.size == 0:
        raise ValueError(f"vectors must share a nonzero 1-D shape, got {ua.shape} and {va.shape}")
    nu = float(np.linalg.norm(ua))
    nv = float(np.linalg.norm(va))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(np.clip(np.dot(ua, va) / (nu * nv), -1.0, 1.0))


def _sorted_ratings(records: list[AnnotationRecord]) -> list[AnnotationRecord]:
    return sorted(records, key=lambda r: (r.session_id or "", r.timestamp or -1, r.position_index or -1, r.record_id))


def find_similar_pairs(
    dataset: Dataset,
    sim_threshold: float,
    same_annotator: bool = True,
    candidate_pairs: Optional[Iterable[tuple[str, str]]] = None,
) -> list[PromptPair]:
    """All unordered distinct-item pairs at or above the similarity threshold.

    Exact all-pairs scoring is used up to 20k items; beyond that a
    precomputed candidate-pair list is required. With ``same_annotator``,
    only pairs both of whose items were rated by at least one common
    annotator are kept. Output is in canonical (item_a < item_b) order.
    """
    if dataset.embeddings is None:
        raise DataFormatError("dataset has no embeddings; similar-pair discovery needs them")
    table = dataset.embeddings
    item_ids = [iid for iid in dataset.item_ids if iid in table]

    raters = dataset.by_item_annotator

    def keep(a: str, b: str) -> bool:
        return not same_annotator or bool(raters.get(a, {}).keys() & raters.get(b, {}).keys())

    pairs: list[PromptPair] = []
    if candidate_pairs is not None:
        for a, b in candidate_pairs:
            a, b = sorted((a, b))
            if a == b or a not in table or b not in table:
                continue
            sim = cosine_similarity(table[a], table[b])
            if sim >= sim_threshold and keep(a, b):
                pairs.append(_make_pair(a, b, sim))
        return sorted(set(pairs), key=lambda p: (p.item_a, p.item_b))

    if len(item_ids) > MAX_EXACT_ITEMS:
        raise DataFormatError(
            f"{len(item_ids)} items exceed the exact all-pairs limit ({MAX_EXACT_ITEMS}); "
            "pass candidate_pairs from a precomputed candidate file"
        )
    if len(item_ids) < 2:
        return []
    matrix = np.stack([table[iid] for iid in item_ids]).astype(np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        zero = item_ids[int(np.argmax(norms == 0.0))]
        raise ValueError(f"zero embedding vector for item {zero!r}")
    matrix /= norms

    block = 2048
    n = len(item_ids)
    # the float32 prescan keeps a small margin; candidates are re-scored at
    # float64 before the threshold is applied for real
    prescan_threshold = sim_threshold - 1e-5
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = matrix[start:stop] @ matrix.T
        for i in range(start, stop):
            row = sims[i - start]
            for j in np.nonzero(row[i + 1 :] >= prescan_threshold)[0]:
                j = int(j) + i + 1
                a, b = item_ids[i], item_ids[j]
                if keep(a, b):
                    # recompute at float64 for a stable reported value
                    sim = cosine_similarity(table[a], table[b])
                    if sim >= sim_threshold:
                        pairs.append(_make_pair(a, b, sim))
    return sorted(pairs, key=lambda p: (p.item_a, p.item_b))


def _make_pair(a: str, b: str, sim: float) -> PromptPair:
    if sim >= IDENTICAL_SIM:
        return PromptPair(f"{a}|{b}", a, b, 1.0, "identical")
    return PromptPair(f"{a}|{b}", a, b, sim, "equivalent")


def repeat_pairs(dataset: Dataset) -> list[PromptPair]:
    """Self-pairs for every item some annotator rated at least twice."""
    return [
        PromptPair(f"{iid}|{iid}", iid, iid, 1.0, "identical")
        for iid in sorted(dataset.repeat_groups_by_item)
    ]


def flag_inconsistencies(
    dataset: Dataset,
    pairs: Sequence[PromptPair],
    delta_threshold: float = 15.0,
) -> tuple[list[InconsistencyFlag], PrevalenceSummary]:
    """Flag each (annotator, pair) whose ratings diverge by >= the threshold.

    For a self-pair all C(k, 2) rating pairs within the annotator's repeat
    group are examined; for a distinct-item pair every (rating on a, rating
    on b) combination is. The flag records the most divergent combination,
    and ties at exactly the threshold count as flagged.
    """
    flags: list[InconsistencyFlag] = []
    evaluated = 0
    annotators_evaluated: set[str] = set()
    annotators_flagged: set[str] = set()

    for pair in sorted(pairs, key=lambda p: (p.item_a, p.item_b)):
        by_ann_a = dataset.by_item_annotator.get(pair.item_a)
        by_ann_b = dataset.by_item_annotator.get(pair.item_b)
        if not by_ann_a or not by_ann_b:
            raise DataFormatError(f"pair {pair.pair_id!r} references unrated items")

        for annotator in sorted(by_ann_a.keys() & by_ann_b.keys()):
            if pair.is_self_pair:
                # repeats live within one framing variant; cross-variant
                # divergence is the framing diagnostic's business
                by_framing: dict[Optional[str], list[AnnotationRecord]] = {}
                for rec in by_ann_a[annotator]:
                    by_framing.setdefault(rec.framing_id, []).append(rec)
                combos = []
                for group in by_framing.values():
                    combos.extend(combinations(_sorted_ratings(group), 2))
                if not combos:
                    continue
            else:
                combos = [
                    (ra, rb)
                    for ra in _sorted_ratings(by_ann_a[annotator])
                    for rb in _sorted_ratings(by_ann_b[annotator])
                ]
            evaluated += 1
            annotators_evaluated.add(annotator)
            best = max(combos, key=lambda c: abs(score_value(c[0]) - score_value(c[1])))
            score_a, score_b = score_value(best[0]), score_value(best[1])
            delta = abs(score_a - score_b)
            if delta >= delta_threshold:
                flags.append(
                    InconsistencyFlag(annotator, pair, score_a, score_b, delta, delta_threshold)
                )
                annotators_flagged.add(annotator)

    mean_delta = float(np.mean([f.delta for f in flags])) if flags else 0.0
    summary = PrevalenceSummary(
        n_evaluated_pairs=evaluated,
        n_inconsistent_pairs=len(flags),
        pct_inconsistent=100.0 * len(flags) / evaluated if evaluated else 0.0,
        n_annotators_evaluated=len(annotators_evaluated),
        n_annotators_flagged=len(annotators_flagged),
        pct_annotators_flagged=(
            100.0 * len(annotators_flagged) / len(annotators_evaluated) if annotators_evaluated else 0.0
        ),
        mean_delta=mean_delta,
        delta_threshold=delta_threshold,
    )
    return flags, summary


@dataclass
class LadderReport:
    """Sequential flag counts after each filtering stage."""

    stages: list[tuple[str, int]]

    def counts(self) -> list[int]:
        return [count for _, count in self.stages]


def filter_ladder(
    flags: Sequence[InconsistencyFlag],
    stages: Sequence[tuple[str, Callable[[InconsistencyFlag], bool]]],
) -> LadderReport:
    """Apply ordered predicates cumulatively, recording the surviving count."""
    surviving = list(flags)
    report = [("initial", len(surviving))]
    for name, predicate in stages:
        surviving = [flag for flag in surviving if predicate(flag)]
        report.append((name, len(surviving)))
    return LadderReport(stages=report)


def standard_ladder_stages(
    dataset: Dataset,
    response_embeddings=None,
    response_sim_threshold: float = 0.9999,
) -> list[tuple[str, Callable[[InconsistencyFlag], bool]]]:
    """The test-retest ladder: identical prompts, identical responses, same model.

    Content identity prefers exact string equality; response identity falls
    back to response-embedding similarity when response text is absent.
    """

    def _texts(flag: InconsistencyFlag, attr: str):
        return dataset.item_text(flag.pair.item_a, attr), dataset.item_text(flag.pair.item_b, attr)

    def identical_prompts(flag: InconsistencyFlag) -> bool:
        if flag.pair.is_self_pair:
            return True
        ta, tb = _texts(flag, "prompt_text")
        if ta is not None and tb is not None:
            return ta == tb
        return flag.pair.similarity >= IDENTICAL_SIM

    def identical_responses(flag: InconsistencyFlag) -> bool:
        if flag.pair.is_self_pair:
            return True
        ta, tb = _texts(flag, "response_text")
        if ta is not None and tb is not None:
            return ta == tb
        if response_embeddings is not None:
            a, b = flag.pair.item_a, flag.pair.item_b
            if a in response_embeddings and b in response_embeddings:
                return cosine_similarity(response_embeddings[a], response_embeddings[b]) >= response_sim_threshold
        return False

    def same_model(flag: InconsistencyFlag) -> bool:
        if flag.pair.is_self_pair:
            return True
        ma, mb = _texts(flag, "model_id")
        return ma == mb

    return [
        ("identical_prompts", identical_prompts),
        ("identical_responses", identical_responses),
        ("same_model", same_model),
    ]


def repeat_audit(
    dataset: Dataset,
    sim_threshold: float = 0.90,
    delta_threshold: float = 15.0,
) -> tuple[list[InconsistencyFlag], PrevalenceSummary, LadderReport]:
    """Full repeat-audit pipeline: pairs, flags, and the filter ladder.

    Uses embedding pairs when embeddings are present, always including
    repeat-group self-pairs.
    """
    pairs = list(repeat_pairs(dataset))
    if dataset.embeddings is not None:
        pairs.extend(find_similar_pairs(dataset, sim_threshold, same_annotator=True))
    if not pairs:
        raise InsufficientSupportError("no repeat groups and no similar pairs to audit")
    flags, summary = flag_inconsistencies(dataset, pairs, delta_threshold)
    ladder = filter_ladder(flags, standard_ladder_stages(dataset))
    return flags, summary, ladder
