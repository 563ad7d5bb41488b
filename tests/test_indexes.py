"""Dataset indexes and the consumers that read them, against brute-force scans."""

import numpy as np
import pytest

from conftest import dataset_of, rec
from prefaudit.diagnostics import build_profile, cross_item_consistency
from prefaudit.errors import InsufficientSupportError
from prefaudit.planner import plan_tier
from prefaudit.ratio import RatioConfig, dataset_themes, exact_baseline
from prefaudit.records import ORDER_TAG_AB, ORDER_TAG_BA, Dataset, ItemMetadata, default_tau, score_value
from prefaudit.synth import generate
from prefaudit.weighting import item_reliability, item_reliability_table

THEMES = ("harm", "honesty", "privacy", "fairness", "unused")
DIMENSIONS = ("justice", "care", "liberty")


@pytest.fixture(scope="module")
def corpus() -> Dataset:
    """A synth corpus with seeded themes and value dimensions on most items."""
    plan = plan_tier(1, 80 * 8, 8, 0.0, repeat_rate=4 / 80, min_repeats=4)
    dataset = generate(2, plan.n_items, plan, seed=17, n_framing_pairs=6, n_anchors=6).dataset
    rng = np.random.default_rng(17)
    metadata = {}
    for item_id in dataset.item_ids:
        if rng.random() < 0.1:
            continue  # some items carry no metadata at all
        themes = rng.choice(THEMES[:-1], size=rng.integers(0, 3), replace=False)
        dim = rng.integers(0, len(DIMENSIONS) + 1)
        metadata[item_id] = ItemMetadata(
            item_id=item_id,
            theme_labels=frozenset(str(t) for t in themes),
            value_dimension=DIMENSIONS[dim] if dim < len(DIMENSIONS) else None,
        )
    return Dataset(records=dataset.records, scale_kind=dataset.scale_kind, metadata=metadata)


@pytest.fixture(scope="module")
def order_corpus() -> Dataset:
    """Binary choices shown in both orders, some repeated in one order or under two framings."""
    rng = np.random.default_rng(5)
    records = []
    for annotator in ("a0", "a1", "a2"):
        for item in (f"i{i}" for i in range(8)):
            for _ in range(rng.integers(1, 5)):
                records.append(rec(
                    annotator, item, str(rng.choice(["A", "B"])), scale="binary_pair",
                    session=f"s{rng.integers(0, 3)}", framing=("f0", "f1", None)[rng.integers(3)],
                    condition_tag=str(rng.choice([ORDER_TAG_AB, ORDER_TAG_BA])),
                ))
    rng.shuffle(records)
    return dataset_of(records, scale="binary_pair")


def test_cell_indexes_match_a_brute_force_grouping(corpus, order_corpus):
    for dataset in (corpus, order_corpus):
        annotators = list(dict.fromkeys(r.annotator_id for r in dataset.records))
        items = list(dict.fromkeys(r.item_id for r in dataset.records))
        assert list(dataset.by_annotator_item) == annotators
        assert list(dataset.by_item_annotator) == items
        for annotator in annotators:
            cells = dataset.by_annotator_item[annotator]
            assert list(cells) == list(dict.fromkeys(
                r.item_id for r in dataset.records if r.annotator_id == annotator
            ))
            for item, recs in cells.items():
                expected = [r for r in dataset.records if (r.annotator_id, r.item_id) == (annotator, item)]
                assert recs == expected
                assert dataset.by_item_annotator[item][annotator] == expected
        for item in items:
            assert list(dataset.by_item_annotator[item]) == list(dict.fromkeys(
                r.annotator_id for r in dataset.records if r.item_id == item
            ))


def _different_times(r1, r2) -> bool:
    if r1.session_id is not None and r2.session_id is not None and r1.session_id != r2.session_id:
        return True
    return r1.timestamp is not None and r2.timestamp is not None and r1.timestamp != r2.timestamp


def test_profile_pair_counts_match_every_pair_of_an_annotators_records(corpus, order_corpus):
    for dataset in (corpus, order_corpus):
        counts = {"temp": 0, "frame": 0, "order": 0}
        for annotator in dataset.annotator_ids:
            recs = [r for r in dataset.records if r.annotator_id == annotator]
            expected = {"temp": 0, "frame": 0, "order": 0}
            for i, r1 in enumerate(recs):
                for r2 in recs[i + 1:]:
                    if r1.item_id != r2.item_id:
                        continue
                    framings = {r1.framing_id, r2.framing_id}
                    expected["temp"] += len(framings) == 1 and _different_times(r1, r2)
                    expected["frame"] += len(framings) == 2 and None not in framings
                    expected["order"] += {r1.condition_tag, r2.condition_tag} == {ORDER_TAG_AB, ORDER_TAG_BA}
            profile = build_profile(dataset, annotator)
            assert (profile.n_temp_pairs, profile.n_frame_pairs, profile.n_order_pairs) == (
                expected["temp"], expected["frame"], expected["order"]
            )
            counts = {k: counts[k] + expected[k] for k in counts}
        assert counts["temp"] > 0 and counts["frame"] > 0
        assert (counts["order"] > 0) == (dataset is order_corpus)


def test_theme_and_dimension_indexes_match_metadata(corpus):
    for theme in THEMES:
        expected = {iid for iid, meta in corpus.metadata.items() if theme in meta.theme_labels}
        assert corpus.items_by_theme.get(theme, frozenset()) == expected
    for dim in DIMENSIONS:
        expected = {iid for iid, meta in corpus.metadata.items() if meta.value_dimension == dim}
        assert corpus.items_by_value_dimension[dim] == expected
    assert dataset_themes(corpus) == sorted(THEMES[:-1])


def test_repeat_groups_by_item_keeps_repeat_group_order(corpus):
    for item_id, groups in corpus.repeat_groups_by_item.items():
        assert list(groups) == [key for key in corpus.repeat_groups if key[1] == item_id]
        assert all(groups[key] is corpus.repeat_groups[key] for key in groups)
    assert sum(map(len, corpus.repeat_groups_by_item.values())) == len(corpus.repeat_groups)


def test_theme_ratings_match_a_metadata_scan(corpus):
    for annotator_id in corpus.annotator_ids:
        for theme in THEMES:
            expected = [
                score_value(r)
                for r in corpus.by_annotator[annotator_id]
                if r.item_id in corpus.metadata and theme in corpus.metadata[r.item_id].theme_labels
            ]
            items = corpus.items_by_theme.get(theme, frozenset())
            assert [score_value(r) for r in corpus.by_annotator[annotator_id] if r.item_id in items] == expected


def test_cross_item_consistency_matches_a_metadata_scan(corpus):
    config = RatioConfig()
    scored = 0
    for annotator_id in corpus.annotator_ids:
        for dim in DIMENSIONS:
            ratings = [
                score_value(r)
                for r in corpus.by_annotator[annotator_id]
                if r.item_id in corpus.metadata and corpus.metadata[r.item_id].value_dimension == dim
            ]
            if len(ratings) < config.min_support:
                with pytest.raises(InsufficientSupportError):
                    cross_item_consistency(corpus, annotator_id, dim, config)
                continue
            baseline = exact_baseline(corpus, annotator_id, k=len(ratings))
            ratio = 0.0 if baseline <= 0.0 else float(np.var(ratings)) / baseline
            assert cross_item_consistency(corpus, annotator_id, dim, config) == (
                1.0 / (1.0 + ratio), len(ratings)
            )
            scored += 1
    assert scored > 0


def test_item_reliability_table_matches_a_repeat_group_scan(corpus):
    tau = default_tau(corpus.scale_kind)
    expected = {}
    for item_id in corpus.item_ids:
        per_annotator = {}
        for (annotator_id, item, _framing), recs in corpus.repeat_groups.items():
            if item != item_id:
                continue
            per_annotator.setdefault(annotator_id, []).extend(
                abs(score_value(recs[i]) - score_value(recs[j]))
                for i in range(len(recs))
                for j in range(i + 1, len(recs))
            )
        if per_annotator:
            expected[item_id] = float(np.mean(
                [sum(d <= tau for d in deltas) / len(deltas) for deltas in per_annotator.values()]
            ))
    table = item_reliability_table(corpus)
    assert table == expected
    assert table == {item_id: item_reliability(corpus, item_id) for item_id in expected}
    unrepeated = next(iid for iid in corpus.item_ids if iid not in expected)
    with pytest.raises(InsufficientSupportError):
        item_reliability(corpus, unrepeated)
