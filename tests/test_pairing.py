"""Pair discovery, inconsistency flags, prevalence, and the filter ladder."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_of, rec
from prefaudit.errors import DataFormatError
from prefaudit.pairing import (
    InconsistencyFlag,
    PrevalenceSummary,
    PromptPair,
    _sorted_ratings,
    cosine_similarity,
    filter_ladder,
    find_similar_pairs,
    flag_inconsistencies,
    repeat_audit,
    repeat_pairs,
    standard_ladder_stages,
)
from prefaudit.records import EmbeddingTable, score_value


def test_cosine_identity_orthogonal_and_formula():
    assert cosine_similarity((1.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
    assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0)
    # dot = 32, |u| = sqrt(14), |v| = sqrt(77): frozen direct evaluation
    assert cosine_similarity((1, 2, 3), (4, 5, 6)) == pytest.approx(0.9746318461970762, abs=1e-12)


def test_cosine_errors():
    with pytest.raises(ValueError):
        cosine_similarity((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        cosine_similarity((1.0, 0.0), (1.0, 0.0, 0.0))


@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=6),
    st.lists(st.integers(-50, 50), min_size=2, max_size=6),
)
def test_cosine_symmetry(u, v):
    n = min(len(u), len(v))
    u = [float(x) for x in u[:n]]
    v = [float(x) for x in v[:n]]
    if not any(u) or not any(v):
        return
    assert cosine_similarity(u, v) == cosine_similarity(v, u)


def _embedded_dataset():
    table = EmbeddingTable.from_rows(
        [
            ("i1", [1.0, 0.0, 0.0]),
            ("i2", [1.0, 0.0, 0.0]),  # identical to i1
            ("i3", [0.95, 0.31224989991991992, 0.0]),  # close to i1
            ("i4", [0.0, 1.0, 0.0]),  # orthogonal
        ]
    )
    records = [
        rec("a1", "i1", 80.0),
        rec("a1", "i2", 20.0),
        rec("a1", "i3", 70.0),
        rec("a2", "i4", 10.0),
    ]
    return dataset_of(records, embeddings=table)


def test_find_similar_pairs_identical_and_threshold():
    dataset = _embedded_dataset()
    pairs = find_similar_pairs(dataset, 0.9, same_annotator=True)
    assert [(p.item_a, p.item_b) for p in pairs] == [("i1", "i2"), ("i1", "i3"), ("i2", "i3")]
    kinds = {(p.item_a, p.item_b): p.kind for p in pairs}
    assert kinds[("i1", "i2")] == "identical"
    assert kinds[("i1", "i3")] == "equivalent"
    high = find_similar_pairs(dataset, 0.999, same_annotator=True)
    assert [(p.item_a, p.item_b) for p in high] == [("i1", "i2")]


def test_find_similar_pairs_same_annotator_filter():
    dataset = _embedded_dataset()
    with_filter = find_similar_pairs(dataset, 0.0, same_annotator=True)
    without = find_similar_pairs(dataset, 0.0, same_annotator=False)
    assert len(without) > len(with_filter)
    assert all({"i4"} - {p.item_a, p.item_b} for p in with_filter)


def test_find_similar_pairs_orthogonal_empty():
    table = EmbeddingTable.from_rows([("i1", [1.0, 0.0]), ("i2", [0.0, 1.0])])
    dataset = dataset_of([rec("a1", "i1", 10.0), rec("a1", "i2", 20.0)], embeddings=table)
    assert find_similar_pairs(dataset, 0.7) == []


def test_find_similar_pairs_requires_embeddings():
    dataset = dataset_of([rec("a1", "i1", 10.0)])
    with pytest.raises(DataFormatError, match="embeddings"):
        find_similar_pairs(dataset, 0.9)


def test_find_similar_pairs_deterministic_canonical_order():
    dataset = _embedded_dataset()
    first = find_similar_pairs(dataset, 0.5)
    second = find_similar_pairs(dataset, 0.5)
    assert first == second
    assert all(p.item_a < p.item_b for p in first)


def test_candidate_pairs_route():
    dataset = _embedded_dataset()
    pairs = find_similar_pairs(dataset, 0.9, candidate_pairs=[("i2", "i1"), ("i1", "i4")])
    assert [(p.item_a, p.item_b) for p in pairs] == [("i1", "i2")]


def test_sim_threshold_monotonicity():
    dataset = _embedded_dataset()
    counts = [len(find_similar_pairs(dataset, t, same_annotator=False)) for t in (0.0, 0.5, 0.9, 0.999)]
    assert counts == sorted(counts, reverse=True)


def _self_pair(item="i1"):
    return PromptPair(f"{item}|{item}", item, item, 1.0, "identical")


def test_flag_no_divergence_no_flag():
    dataset = dataset_of([rec("a1", "i1", 80.0, session="s1"), rec("a1", "i1", 80.0, session="s2")])
    flags, summary = flag_inconsistencies(dataset, [_self_pair()])
    assert flags == []
    assert summary.n_evaluated_pairs == 1
    assert summary.n_inconsistent_pairs == 0
    assert summary.mean_delta == 0.0


def test_flag_divergent_pair():
    dataset = dataset_of([rec("a1", "i1", 50.0, session="s1"), rec("a1", "i1", 10.0, session="s2")])
    flags, summary = flag_inconsistencies(dataset, [_self_pair()])
    assert len(flags) == 1
    assert flags[0].delta == 40.0
    assert summary.mean_delta == 40.0
    assert summary.pct_inconsistent == 100.0


def test_flag_boundary_at_threshold_counts():
    dataset = dataset_of([rec("a1", "i1", 50.0, session="s1"), rec("a1", "i1", 35.0, session="s2")])
    flags, _ = flag_inconsistencies(dataset, [_self_pair()], delta_threshold=15.0)
    assert len(flags) == 1 and flags[0].delta == 15.0


def test_repeat_group_of_three_uses_max_delta():
    dataset = dataset_of(
        [
            rec("a1", "i1", 10.0, session="s1"),
            rec("a1", "i1", 50.0, session="s2"),
            rec("a1", "i1", 100.0, session="s3"),
        ]
    )
    flags, summary = flag_inconsistencies(dataset, [_self_pair()])
    assert len(flags) == 1
    assert flags[0].delta == 90.0
    assert {flags[0].score_a, flags[0].score_b} == {10.0, 100.0}
    assert summary.n_evaluated_pairs == 1


def test_cross_item_flags_use_all_combinations():
    dataset = dataset_of(
        [
            rec("a1", "i1", 90.0),
            rec("a1", "i1", 88.0),
            rec("a1", "i2", 20.0),
        ]
    )
    pair = PromptPair("i1|i2", "i1", "i2", 0.95, "equivalent")
    flags, _ = flag_inconsistencies(dataset, [pair])
    assert len(flags) == 1
    assert flags[0].delta == 70.0  # max over 2x1 combinations


def _reference_flag_inconsistencies(dataset, pairs, delta_threshold):
    """``flag_inconsistencies`` in its reference form: every combination of records
    built for each (pair, annotator), and ``max`` over their score differences."""
    flags, evaluated, evaluated_by, flagged_by = [], 0, set(), set()
    for pair in sorted(pairs, key=lambda p: (p.item_a, p.item_b)):
        by_ann_a = dataset.by_item_annotator[pair.item_a]
        by_ann_b = dataset.by_item_annotator[pair.item_b]
        for annotator in sorted(by_ann_a.keys() & by_ann_b.keys()):
            if pair.is_self_pair:
                by_framing = {}
                for r in by_ann_a[annotator]:
                    by_framing.setdefault(r.framing_id, []).append(r)
                combos = [c for group in by_framing.values() for c in combinations(_sorted_ratings(group), 2)]
                if not combos:
                    continue
            else:
                combos = [(ra, rb) for ra in _sorted_ratings(by_ann_a[annotator])
                          for rb in _sorted_ratings(by_ann_b[annotator])]
            evaluated += 1
            evaluated_by.add(annotator)
            best = max(combos, key=lambda c: abs(score_value(c[0]) - score_value(c[1])))
            score_a, score_b = score_value(best[0]), score_value(best[1])
            delta = abs(score_a - score_b)
            if delta >= delta_threshold:
                flags.append(InconsistencyFlag(annotator, pair, score_a, score_b, delta, delta_threshold))
                flagged_by.add(annotator)
    summary = PrevalenceSummary(
        evaluated, len(flags), 100.0 * len(flags) / evaluated if evaluated else 0.0,
        len(evaluated_by), len(flagged_by), 100.0 * len(flagged_by) / len(evaluated_by) if evaluated_by else 0.0,
        float(np.mean([f.delta for f in flags])) if flags else 0.0, delta_threshold,
    )
    return flags, summary


# Few distinct scores, so equal deltas tie; each threshold is one of those deltas.
_SCALE_SCORES = {
    "continuous_0_100": ([0.0, 15.0, 40.0, 55.0, 100.0], [15.0, 40.0, 55.0]),
    "likert_5": ([1.0, 2.0, 3.0, 5.0], [1.0, 2.0, 4.0]),
    "binary_pair": (["A", "B"], [0.0, 1.0]),
}


@st.composite
def _rated_items(draw):
    scale = draw(st.sampled_from(sorted(_SCALE_SCORES)))
    scores, thresholds = _SCALE_SCORES[scale]
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["a1", "a2", "a3"]), st.sampled_from(["i1", "i2", "i3"]), st.sampled_from(scores),
                  st.sampled_from([None, "s1", "s2"]), st.sampled_from([None, "f1", "f2"])),
        min_size=1, max_size=30,
    ))
    records = [rec(a, i, score, session=s, framing=f, scale=scale) for a, i, score, s, f in rows]
    return dataset_of(records, scale=scale), draw(st.sampled_from(thresholds))


@settings(deadline=None, max_examples=300)
@given(_rated_items())
def test_flags_equal_the_max_over_combinations_reference(case):
    dataset, threshold = case
    items = sorted(dataset.by_item)
    pairs = [_self_pair(i) for i in items] + [
        PromptPair(f"{a}|{b}", a, b, 0.95, "equivalent") for a, b in combinations(items, 2)
    ]
    assert flag_inconsistencies(dataset, pairs, threshold) == _reference_flag_inconsistencies(dataset, pairs, threshold)


def test_self_pair_framings_are_scored_apart_and_the_first_widest_wins():
    records = [
        rec("a1", "i1", 10.0, framing="f1"), rec("a1", "i1", 50.0, framing="f1"),
        rec("a1", "i1", 90.0, framing="f2"), rec("a1", "i1", 50.0, framing="f2"),  # ties f1's 40
        rec("a2", "i1", 0.0, framing="f1"), rec("a2", "i1", 100.0, framing="f2"),  # one rating per framing
    ]
    dataset = dataset_of(records)
    flags, summary = flag_inconsistencies(dataset, [_self_pair()], delta_threshold=40.0)
    assert [(f.annotator_id, f.score_a, f.score_b, f.delta) for f in flags] == [("a1", 10.0, 50.0, 40.0)]
    assert summary.n_evaluated_pairs == 1 and summary.n_annotators_evaluated == 1
    assert (flags, summary) == _reference_flag_inconsistencies(dataset, [_self_pair()], 40.0)


def test_delta_threshold_monotonicity():
    rng = np.random.default_rng(3)
    records = []
    for a in range(4):
        for i in range(6):
            records.append(rec(f"a{a}", f"i{i}", float(rng.uniform(0, 100)), session="s1"))
            records.append(rec(f"a{a}", f"i{i}", float(rng.uniform(0, 100)), session="s2"))
    dataset = dataset_of(records)
    pairs = repeat_pairs(dataset)
    counts = [
        len(flag_inconsistencies(dataset, pairs, threshold)[0]) for threshold in (5, 15, 30, 60)
    ]
    assert counts == sorted(counts, reverse=True)


def test_annotator_percentages():
    dataset = dataset_of(
        [
            rec("a1", "i1", 0.0, session="s1"),
            rec("a1", "i1", 90.0, session="s2"),
            rec("a2", "i1", 50.0, session="s1"),
            rec("a2", "i1", 52.0, session="s2"),
        ]
    )
    _, summary = flag_inconsistencies(dataset, [_self_pair()])
    assert summary.n_annotators_evaluated == 2
    assert summary.n_annotators_flagged == 1
    assert summary.pct_annotators_flagged == 50.0


def test_filter_ladder_counts_non_increasing_and_empty():
    flags = []
    report = filter_ladder(flags, [("x", lambda f: True)])
    assert report.counts() == [0, 0]

    dataset = dataset_of(
        [
            rec("a1", "i1", 10.0, session="s1"),
            rec("a1", "i1", 60.0, session="s2"),
        ]
    )
    flags, _ = flag_inconsistencies(dataset, [_self_pair()])
    stages = [("all", lambda f: True), ("none", lambda f: False), ("never", lambda f: True)]
    report = filter_ladder(flags, stages)
    assert report.counts() == [1, 1, 0, 0]
    counts = report.counts()
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_constant_ladder_when_every_flag_passes_every_stage():
    # exact duplicates: identical prompt, response, model, so all stages pass
    records = []
    for i, annotator in enumerate(("a1", "a2", "a3")):
        records.append(
            rec(annotator, "i1", 5.0, session="s1", prompt="same", response_text="resp", model_id="m")
        )
        records.append(
            rec(annotator, "i1", 95.0, session="s2", prompt="same", response_text="resp", model_id="m")
        )
    dataset = dataset_of(records)
    flags, _ = flag_inconsistencies(dataset, repeat_pairs(dataset))
    report = filter_ladder(flags, standard_ladder_stages(dataset))
    assert report.counts() == [3, 3, 3, 3]


def test_ladder_distinguishes_content_stages():
    # i1/i2 share a prompt and embedding but differ in response and model;
    # i1/i1 repeats pass everything.
    table = EmbeddingTable.from_rows([("i1", [1.0, 0.0]), ("i2", [1.0, 0.0])])
    records = [
        rec("a1", "i1", 0.0, session="s1", prompt="p", response_text="r1", model_id="m1"),
        rec("a1", "i1", 50.0, session="s2", prompt="p", response_text="r1", model_id="m1"),
        rec("a1", "i2", 99.0, session="s1", prompt="p", response_text="r2", model_id="m2"),
    ]
    dataset = dataset_of(records, embeddings=table)
    flags, summary, ladder = repeat_audit(dataset, sim_threshold=0.9, delta_threshold=15.0)
    names = dict(ladder.stages)
    assert names["initial"] == 2  # the i1 repeat and the i1-i2 pair
    assert names["identical_prompts"] == 2
    assert names["identical_responses"] == 1  # i1-i2 drops (different response)
    assert names["same_model"] == 1


def test_flags_reference_rated_items():
    dataset = dataset_of([rec("a1", "i1", 10.0)])
    pair = PromptPair("i1|iX", "i1", "iX", 0.99, "equivalent")
    with pytest.raises(DataFormatError, match="unrated"):
        flag_inconsistencies(dataset, [pair])


def test_flags_on_likert_scale_use_raw_scores():
    records = [
        rec("a1", "i1", 1.0, session="s1", scale="likert_5"),
        rec("a1", "i1", 4.0, session="s2", scale="likert_5"),
        rec("a1", "i2", 3.0, session="s1", scale="likert_5"),
        rec("a1", "i2", 3.0, session="s2", scale="likert_5"),
    ]
    dataset = dataset_of(records, scale="likert_5")
    flags, summary = flag_inconsistencies(dataset, repeat_pairs(dataset), delta_threshold=2.0)
    assert len(flags) == 1
    assert flags[0].delta == 3.0  # raw likert units, not the 0-100 mapping
    assert summary.n_evaluated_pairs == 2


def test_prompt_pair_invariants():
    with pytest.raises(DataFormatError):
        PromptPair("p", "a", "b", 0.95, "identical")  # identical needs similarity 1
    with pytest.raises(DataFormatError):
        PromptPair("p", "a", "b", 0.95, "directional")  # needs expected direction
    equivalent = PromptPair("p", "a", "b", 0.95, "equivalent")
    assert equivalent.expected_direction == "equal"
