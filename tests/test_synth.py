"""Synthetic annotator corpus: determinism, signatures, recovery, and output
identical to the per-record reference generator kept below."""

import hashlib
import json
from dataclasses import astuple
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from prefaudit import synth
from prefaudit.diagnostics import framing_consistency, temporal_consistency
from prefaudit.errors import DataFormatError, InfeasiblePlanError
from prefaudit.planner import TierPlan, plan_tier
from prefaudit.records import SCALE_CONTINUOUS, AnnotationRecord, Dataset, save_records
from prefaudit.stats import seeded_sampler
from prefaudit.synth import (
    LATENT_TYPES,
    GenParams,
    LatentAnnotator,
    SyntheticDataset,
    _per_type_counts,
    generate,
    route_annotators,
    score_recovery,
)
from prefaudit.taxonomy import ROUTE_SIGNAL


def _plan(n_annotators, repeats=5):
    # items per annotator = 20x the repeat count keeps the rate at 5%
    ipa = repeats * 20
    return plan_tier(
        1, ipa * n_annotators, n_annotators, 0.0,
        repeat_rate=repeats / ipa, min_repeats=min(repeats, 15),
    )


def _flat_plan(n_annotators, ipa, repeats):
    """A plan of ``ipa`` items per annotator, ``repeats`` of them re-rated, as the ``synth`` command builds it."""
    return TierPlan(
        tier=1, n_items=ipa * n_annotators, n_annotators=n_annotators, items_per_annotator=ipa,
        repeat_rate=repeats / ipa, n_repeats_per_annotator=repeats, min_spacing=1,
        extra_annotations=repeats * n_annotators, overhead_pct=100.0 * repeats / ipa, extra_cost=0.0,
    )


def small_corpus(per_type=3, seed=11, **kw):
    plan = _plan(per_type * 4, repeats=8)
    return generate(per_type, plan.n_items, plan, seed=seed, n_framing_pairs=6, n_anchors=10, **kw)


def test_generation_deterministic():
    a = small_corpus(seed=11)
    b = small_corpus(seed=11)
    assert a.dataset.records == b.dataset.records
    assert a.truth == b.truth
    assert a.anchor_scores == b.anchor_scores
    c = small_corpus(seed=12)
    assert c.dataset.records != a.dataset.records


def test_latent_mix_and_structure():
    corpus = small_corpus()
    kinds = {t: sum(1 for v in corpus.truth.values() if v == t) for t in set(corpus.truth.values())}
    assert kinds == {"genuine": 3, "non_attitude": 3, "constructed": 3, "artifact": 3}
    dataset = corpus.dataset
    for annotator in dataset.annotator_ids:
        _, n_temp = temporal_consistency(dataset, annotator, 15.0)
        assert n_temp == 8  # plan's repeats
        _, n_frame = framing_consistency(dataset, annotator, 15.0)
        assert n_frame == 6


def _mean_score(corpus, latent_type, fn):
    values = []
    for annotator, kind in corpus.truth.items():
        if kind != latent_type:
            continue
        score, _ = fn(corpus.dataset, annotator, 15.0)
        values.append(score)
    return float(np.mean(values))


def test_genuine_temporal_signature():
    # oracle: P(|N(0,5) - N(0,5)| <= 15) = 2 Phi(15 / (5 sqrt(2))) - 1 = 0.96605
    plan = _plan(12, repeats=20)
    corpus = generate({"genuine": 12}, plan.n_items, plan, seed=3, n_framing_pairs=6)
    mean_temp = _mean_score(corpus, "genuine", temporal_consistency)
    assert mean_temp >= 0.95
    assert mean_temp == pytest.approx(0.96605, abs=0.03)


def test_non_attitude_temporal_matches_uniform_oracle():
    # oracle: P(|U - U'| <= 15) on [0, 100] is 1 - 0.85^2 = 0.2775
    plan = _plan(25, repeats=20)
    corpus = generate({"non_attitude": 25}, plan.n_items, plan, seed=4, n_framing_pairs=6)
    mean_temp = _mean_score(corpus, "non_attitude", temporal_consistency)
    assert mean_temp == pytest.approx(0.2775, abs=0.05)


def test_constructed_signature_temp_high_frame_low():
    plan = _plan(12, repeats=20)
    corpus = generate({"constructed": 12}, plan.n_items, plan, seed=5, n_framing_pairs=10)
    mean_temp = _mean_score(corpus, "constructed", temporal_consistency)
    mean_frame = _mean_score(corpus, "constructed", framing_consistency)
    assert mean_temp - mean_frame > 0.3
    assert corpus.clamp_count > 0  # 30-sd offsets push past the scale bounds


def test_artifact_anchor_failures():
    from prefaudit.taxonomy import anchor_failure_rate

    plan = _plan(20, repeats=10)
    corpus = generate(
        {"artifact": 10, "genuine": 10}, plan.n_items, plan, seed=6,
        n_framing_pairs=6, n_anchors=20,
    )
    rates = {"artifact": [], "genuine": []}
    for annotator, kind in corpus.truth.items():
        rate, n = anchor_failure_rate(corpus.dataset, annotator, corpus.anchor_scores, 15.0)
        assert n == 20
        rates[kind].append(rate)
    assert np.mean(rates["artifact"]) > 0.1
    assert np.mean(rates["genuine"]) < 0.02


def test_all_genuine_route_to_signal():
    plan = _plan(8, repeats=20)
    corpus = generate({"genuine": 8}, plan.n_items, plan, seed=7, n_framing_pairs=8)
    routes = route_annotators(corpus)
    assert set(routes.values()) == {ROUTE_SIGNAL}


def test_recovery_with_widely_separated_parameters():
    # tight noise, huge framing offsets, and enough repeats/anchors that the
    # four signatures separate completely
    params = GenParams(noise_sd=2.0, framing_offset_sd=45.0, artifact_rate=0.3)
    plan = _plan(24, repeats=60)
    corpus = generate(6, plan.n_items, plan, seed=8, n_framing_pairs=10, n_anchors=30, params=params)
    report = score_recovery(corpus, route_annotators(corpus))
    assert report.accuracy == 1.0


def test_score_recovery_validations():
    corpus = small_corpus()
    routes = route_annotators(corpus)
    routes.pop(next(iter(routes)))
    with pytest.raises(ValueError, match="mismatch"):
        score_recovery(corpus, routes)


def test_generate_infeasible_partitions():
    plan = _plan(4, repeats=8)
    with pytest.raises(InfeasiblePlanError):
        generate(1, plan.items_per_annotator, plan, seed=1)  # partition needs 4x the items
    with pytest.raises(InfeasiblePlanError):
        generate(1, plan.n_items, plan, seed=1, n_framing_pairs=plan.items_per_annotator)


@pytest.mark.parametrize("counts, repeats, anchors, why", [
    ({"genuine": 3, "artifact": -1}, 3, 2, "artifact annotator count must be >= 0, got -1"),
    (-1, 3, 2, "genuine annotator count must be >= 0, got -1"),
    (1, -1, 2, "n_repeats_per_annotator must be >= 0, got -1"),
    (1, 3, -3, "n_anchors must be >= 0, got -3"),
])
def test_generate_refuses_a_negative_count_naming_it(counts, repeats, anchors, why):
    plan = _flat_plan(4, 30, repeats)
    with pytest.raises(ValueError, match=f"^{why}$"):
        generate(counts, plan.n_items, plan, seed=1, n_framing_pairs=5, n_anchors=anchors)


def test_a_score_the_column_checks_refuse_raises_as_the_constructor_raises_it(monkeypatch):
    def out_of_range(latent, rng, mus, *layout):
        return [150.0, *mus.tolist()[1:]], 0

    monkeypatch.setattr(synth, "_scores", out_of_range)
    plan = _flat_plan(4, 30, 3)
    with pytest.raises(DataFormatError, match=r"^score 150\.0 outside \[0, 100\] for continuous_0_100$"):
        generate(1, plan.n_items, plan, seed=1, n_framing_pairs=5)

# ---------------------------------------------------------------- the per-record reference

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


def reference_generate(n_annotators_per_type, n_items, plan, seed, n_framing_pairs=10, n_anchors=20,
                       params=GenParams()) -> SyntheticDataset:
    """``generate`` as a draw and a constructed record per presentation: the reference
    that its column build must match value for value, draw order included."""
    counts = _per_type_counts(n_annotators_per_type)
    ipa = plan.items_per_annotator

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


def _fields(synthetic):
    """Each record's fields, each as (value, type)."""
    return [[(v, type(v)) for v in astuple(r)] for r in synthetic.dataset.records]


@st.composite
def _shapes(draw):
    counts = draw(st.fixed_dictionaries({t: st.integers(0, 2) for t in LATENT_TYPES}).filter(lambda c: any(c.values())))
    repeats, framing = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    ipa = draw(st.integers(repeats + framing, repeats + framing + 4))
    params = GenParams(
        noise_sd=draw(st.sampled_from([0.5, 5.0, 40.0])),
        framing_offset_sd=draw(st.sampled_from([1.0, 30.0, 80.0])),
        artifact_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    plan = _flat_plan(sum(counts.values()), ipa, repeats)
    n_items = plan.n_items + draw(st.integers(0, 3))
    return (counts, n_items, plan, draw(st.integers(0, 2**32)),
            dict(n_framing_pairs=framing, n_anchors=draw(st.integers(0, 4)), params=params))


@settings(deadline=None, max_examples=80)
@seed(20261022)
@given(_shapes())
def test_generate_gives_the_per_record_reference_value_for_value(shape):
    counts, n_items, plan, corpus_seed, kw = shape
    built, reference = generate(counts, n_items, plan, corpus_seed, **kw), reference_generate(counts, n_items, plan, corpus_seed, **kw)
    assert _fields(built) == _fields(reference)
    assert built.dataset.records == reference.dataset.records
    assert (built.clamp_count, built.truth, built.anchor_scores) == (reference.clamp_count, reference.truth, reference.anchor_scores)


# name -> (counts, (annotators, items per annotator, repeats), spare items, seed, keywords)
DIGEST_CONFIGS = {
    "four types mixed": (2, (8, 30, 5), 0, 101, dict(n_framing_pairs=4, n_anchors=6)),
    "dict counts with a zero type": (
        {"genuine": 2, "non_attitude": 0, "constructed": 3, "artifact": 1}, (6, 24, 4), 5, 102,
        dict(n_framing_pairs=3, n_anchors=5),
    ),
    "no anchors": (1, (4, 20, 3), 0, 103, dict(n_framing_pairs=2, n_anchors=0)),
    "one framing pair": (1, (4, 16, 2), 0, 104, dict(n_framing_pairs=1, n_anchors=4)),
    "no repeats": ({"constructed": 2, "non_attitude": 1}, (3, 12, 0), 0, 105, dict(n_framing_pairs=5, n_anchors=3)),
    "artifact rate 0": ({"artifact": 3, "genuine": 1}, (4, 20, 3), 0, 106, dict(params=GenParams(artifact_rate=0.0))),
    "artifact rate 1": ({"artifact": 3, "constructed": 1}, (4, 20, 3), 0, 107, dict(params=GenParams(artifact_rate=1.0))),
    "clamped": (
        {"genuine": 2, "constructed": 2, "artifact": 2}, (6, 25, 5), 0, 108,
        dict(n_framing_pairs=5, params=GenParams(noise_sd=40.0, framing_offset_sd=60.0)),
    ),
}

# SHA-256 of each configuration's ``save_records`` bytes, then its clamp count, truth and
# anchor scores as JSON: the digests of the per-record generator that preceded the column build.
PINNED_DIGESTS = {
    "four types mixed": "ac676c8997a89d693ae7df052792fd340d7e602340df4aa166b3389710975187",
    "dict counts with a zero type": "3a3c84424661ec967e9651c147c46abfb34837d04d6e5692c5a2f22cc30def45",
    "no anchors": "3d4f492144ed5af92aa2bfd3fcb76805295b31075052dfa19b40a9a65e210a7d",
    "one framing pair": "cb423a74aebd092c7e79087f5658b84143e124761dea6e3fcc00626241b48f1d",
    "no repeats": "1229797fc9072ac59515b189f11a7de41b9a59c7eae21dfb371b19bcde19bc81",
    "artifact rate 0": "01b2b23967b8d423943347751426994b51fc14ea22fcb7360f42c2c5e33f4f54",
    "artifact rate 1": "a192c316cc3824b7186a9b8e44238d47950565c8d1b98dd1d9a5cf8597c0e760",
    "clamped": "4ebeda1121c0cb162ff53ebb9cfe8346f5017a85c8b63390b42bff483f64a249",
}


def synthetic_digest(synthetic, path) -> str:
    save_records(synthetic.dataset, path)
    digest = hashlib.sha256(path.read_bytes())
    digest.update(json.dumps([synthetic.clamp_count, synthetic.truth, synthetic.anchor_scores]).encode())
    return digest.hexdigest()


def _digest_corpus(name):
    counts, (n_annotators, ipa, repeats), spare, corpus_seed, kw = DIGEST_CONFIGS[name]
    plan = _flat_plan(n_annotators, ipa, repeats)
    return generate(counts, plan.n_items + spare, plan, corpus_seed, **kw)


@pytest.mark.parametrize("name", DIGEST_CONFIGS)
def test_generate_output_matches_its_pinned_digest(name, tmp_path):
    assert synthetic_digest(_digest_corpus(name), tmp_path / "dataset.jsonl") == PINNED_DIGESTS[name]


def test_the_clamped_configuration_clamps():
    assert _digest_corpus("clamped").clamp_count > 0
