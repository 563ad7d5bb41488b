"""Seeded corpora for the benchmark workloads.

Every corpus is a function of (workload, size, seed) alone. The library only
ever sees the files written here; the latent truth and the expected counts
stay with the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prefaudit import records, synth
from prefaudit.planner import DEFAULT_MIN_SPACING, TierPlan

N_THEMES = 8
N_DIMENSIONS = 4
THEMES = [f"theme-{i}" for i in range(N_THEMES)]
DIMENSIONS = [f"dim-{i}" for i in range(N_DIMENSIONS)]

RATIO_MIN_SUPPORT = 5


@dataclass(frozen=True)
class SparseSize:
    """synth.generate shape: disjoint item blocks, one per annotator."""

    per_type: int
    items_per_annotator: int
    repeats: int
    framing_pairs: int
    anchors: int


@dataclass(frozen=True)
class DenseSize:
    """A shared item pool that every annotator rates."""

    annotators: int
    items: int
    repeat_share: float
    cluster: int = 4
    dim: int = 64


# Sizes per workload and scale. "full" is the measured size; "quarter" has a
# quarter of the records and feeds the scaling exponents; "smoke" is for the
# benchmark's own tests. A full pass takes 2-3 s on a 2-vCPU host, so a run
# holds a dozen or more of them. audit-sparse keeps 48 annotators with fewer
# items each rather than fewer annotators: recovery is scored per annotator,
# and over 32 of them it spread twice as wide across seeds.
SIZES = {
    "audit-sparse": {
        "full": SparseSize(12, 40, 20, 10, 20),
        "quarter": SparseSize(3, 40, 20, 10, 20),
        "smoke": SparseSize(3, 60, 10, 5, 6),
    },
    "jury-dense": {
        "full": DenseSize(32, 320, 0.1),
        "quarter": DenseSize(32, 80, 0.1),
        "smoke": DenseSize(12, 40, 0.1),
    },
}


def _rng(seed: int, key: str) -> np.random.Generator:
    """Benchmark-side generator, independent of the library's own streams."""
    return np.random.default_rng([seed, *key.encode("utf-8")])


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _theme_cells(dataset: records.Dataset, item_themes: dict[str, list[str]]) -> int:
    """(annotator, theme) cells with enough ratings for the ratio stage."""
    cells = 0
    for recs in dataset.by_annotator.values():
        counts: dict[str, int] = {}
        for rec in recs:
            for theme in item_themes.get(rec.item_id, ()):
                counts[theme] = counts.get(theme, 0) + 1
        cells += sum(1 for n in counts.values() if n >= RATIO_MIN_SUPPORT)
    return cells


def _expected(dataset: records.Dataset, item_themes, truth: dict, **extra) -> dict:
    return {
        "n_records": len(dataset.records),
        "n_items": len(dataset.by_item),
        "n_annotators": len(dataset.by_annotator),
        "n_repeat_groups": len(dataset.repeat_groups),
        "n_ratio_cells": _theme_cells(dataset, item_themes),
        "truth": dict(sorted(truth.items())),
        **extra,
    }


def sparse_corpus(size: SparseSize, seed: int, out: Path) -> dict:
    """synth.generate with seeded theme labels and value dimensions."""
    total = size.per_type * len(synth.LATENT_TYPES)
    ipa = size.items_per_annotator
    plan = TierPlan(
        tier=1,
        n_items=ipa * total,
        n_annotators=total,
        items_per_annotator=ipa,
        repeat_rate=size.repeats / ipa,
        n_repeats_per_annotator=size.repeats,
        min_spacing=DEFAULT_MIN_SPACING,
        extra_annotations=size.repeats * total,
        overhead_pct=100.0 * size.repeats / ipa,
        extra_cost=0.0,
    )
    synthetic = synth.generate(
        size.per_type, plan.n_items, plan, seed=seed,
        n_framing_pairs=size.framing_pairs, n_anchors=size.anchors,
    )
    dataset = synthetic.dataset
    rng = _rng(seed, "sparse|metadata")
    item_ids = dataset.item_ids
    n_labels = rng.integers(1, 3, size=len(item_ids))
    picks = rng.permuted(np.tile(np.arange(N_THEMES), (len(item_ids), 1)), axis=1)
    dims = rng.integers(0, N_DIMENSIONS, size=len(item_ids))
    item_themes = {
        iid: sorted(THEMES[t] for t in picks[i, : n_labels[i]]) for i, iid in enumerate(item_ids)
    }
    records.save_records(dataset, out / "dataset.jsonl")
    _write_jsonl(
        out / "meta.jsonl",
        ({"item_id": iid, "theme_labels": item_themes[iid], "value_dimension": DIMENSIONS[dims[i]]}
         for i, iid in enumerate(item_ids)),
    )
    return _expected(
        dataset, item_themes, synthetic.truth,
        anchor_scores=dict(sorted(synthetic.anchor_scores.items())),
    )


def dense_corpus(size: DenseSize, seed: int, out: Path) -> dict:
    """A shared pool rated by every annotator, half of them steady, half noisy.

    Items come in near-duplicate clusters (embedding noise well inside the
    0.9 cosine threshold) that share a latent mean. Each item's theme is the
    band its latent mean falls in, so a steady annotator's within-theme
    variance is far below their whole-history variance while a noisy
    annotator's is not: the inconsistency ratio separates the two halves.
    A ``repeat_share`` of the items is rated again in a second session.
    """
    rng = _rng(seed, "dense|items")
    n_clusters = size.items // size.cluster
    n_items = n_clusters * size.cluster
    centers = rng.normal(size=(n_clusters, size.dim))
    vectors = np.repeat(centers, size.cluster, axis=0) + rng.normal(scale=0.1, size=(n_items, size.dim))
    cluster_mu = rng.uniform(10.0, 90.0, size=n_clusters)
    mu = np.clip(np.repeat(cluster_mu, size.cluster) + rng.normal(scale=1.0, size=n_items), 10.0, 89.999)
    band = ((mu - 10.0) // (80.0 / N_THEMES)).astype(int)
    width = max(5, len(str(n_items)))
    item_ids = [f"item-{i:0{width}d}" for i in range(n_items)]
    item_themes = {iid: [THEMES[band[i]]] for i, iid in enumerate(item_ids)}
    codes = {
        "content_type": records.CONTENT_TYPES,
        "response_quality": records.RESPONSE_QUALITIES,
        "eval_complexity": records.EVAL_COMPLEXITIES,
        "plausible_pref": records.PLAUSIBLE_PREFS,
    }
    drawn = {name: rng.integers(0, len(values), size=n_items) for name, values in codes.items()}
    repeated = sorted(rng.choice(n_items, size=round(size.repeat_share * n_items), replace=False))

    truth = {}
    recs = []
    for a in range(size.annotators):
        steady = a % 2 == 0
        annotator_id = f"ann-{a:04d}"
        truth[annotator_id] = "steady" if steady else "noisy"
        arng = _rng(seed, f"dense|{annotator_id}")
        order = arng.permutation(n_items)
        sessions = [("s1", order), ("s2", np.asarray(repeated, dtype=int))]
        position = 0
        for session, items in sessions:
            noise = arng.normal(scale=3.0 if steady else 35.0, size=len(items))
            scores = np.clip(mu[items] + noise, 0.0, 100.0)
            for i, score in zip(items, scores):
                recs.append(records.AnnotationRecord(
                    record_id=f"r{len(recs):07d}",
                    annotator_id=annotator_id,
                    item_id=item_ids[i],
                    prompt_text=f"prompt for {item_ids[i]}",
                    score=round(float(score), 3),
                    scale_kind=records.SCALE_CONTINUOUS,
                    session_id=f"{annotator_id}-{session}",
                    position_index=position,
                ))
                position += 1
    dataset = records.Dataset(records=recs, scale_kind=records.SCALE_CONTINUOUS)
    records.save_records(dataset, out / "dataset.jsonl")
    _write_jsonl(
        out / "emb.jsonl",
        ({"item_id": iid, "vector": [round(float(x), 6) for x in vectors[i]]} for i, iid in enumerate(item_ids)),
    )
    _write_jsonl(
        out / "meta.jsonl",
        ({"item_id": iid, "theme_labels": item_themes[iid],
          **{name: codes[name][drawn[name][i]] for name in codes}}
         for i, iid in enumerate(item_ids)),
    )
    return _expected(dataset, item_themes, truth, n_clusters=n_clusters, cluster=size.cluster)


def build(workload: str, scale: str, seed: int, out: Path) -> dict:
    """Write one corpus into ``out``; return what its outputs should hold."""
    out.mkdir(parents=True, exist_ok=True)
    size = SIZES[workload][scale]
    if workload == "audit-sparse":
        return sparse_corpus(size, seed, out)
    return dense_corpus(size, seed, out)
