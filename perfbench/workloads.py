"""Stage sequences, output checks and recovery scoring for each workload.

A pass runs a workload's stages one after another through
``prefaudit.cli.run`` in one process, with the arguments a command-line
user would give. Arguments ending in ``.json`` or ``.jsonl`` name files in
the corpus directory.

Two known defects shape the stages and the checks; NOTES.md records them:
audit-sparse feeds ``weights`` plain ``diagnose`` output, because routed
profiles crash it, and weighted exports are read with ``read_export``,
because ``records.load_records`` rejects their ``weight`` column.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from prefaudit import aggregation, cli, records, synth, taxonomy
from prefaudit.errors import PrefauditError

# CLI seed for every seeded stage. The workload seed shapes the corpus only.
SEED = "7"
OUTPUT_FLAGS = ("--output", "--flags-output", "--labels-output", "--stats-output", "--summary-output")
FLAG_THRESHOLD = 15.0

STAGES = {
    "audit-sparse": (
        ("validate", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--output", "validate.json"),
        ("repeats", "--input", "dataset.jsonl", "--flags-output", "flags.jsonl", "--output", "repeats.json"),
        ("classify", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--flags", "flags.jsonl",
         "--labels-output", "labels.jsonl", "--output", "classify.json"),
        ("diagnose", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--seed", SEED,
         "--output", "profiles.jsonl"),
        ("ratio", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--seed", SEED,
         "--output", "ratios.jsonl", "--stats-output", "population.json"),
        ("simulate", "--input", "dataset.jsonl", "--ratios", "ratios.jsonl", "--seed", SEED,
         "--output", "simulate.json"),
        ("weights", "--input", "dataset.jsonl", "--profiles", "profiles.jsonl",
         "--output", "weighted.jsonl", "--summary-output", "weights.json"),
    ),
    "jury-dense": (
        ("pairs", "--input", "dataset.jsonl", "--embeddings", "emb.jsonl", "--output", "pairs.jsonl"),
        ("repeats", "--input", "dataset.jsonl", "--embeddings", "emb.jsonl", "--flags-output", "flags.jsonl",
         "--output", "repeats.json"),
        ("classify", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--flags", "flags.jsonl",
         "--labels-output", "labels.jsonl", "--output", "classify.json"),
        # 100 resamples: here the ratios only feed the pool split
        ("ratio", "--input", "dataset.jsonl", "--metadata", "meta.jsonl", "--resamples", "100", "--seed", SEED,
         "--output", "ratios.jsonl"),
        ("simulate", "--input", "dataset.jsonl", "--ratios", "ratios.jsonl", "--seed", SEED,
         "--output", "simulate.json"),
    ),
}


class CheckFailed(Exception):
    """A stage's output disagrees with the corpus it was computed from."""


def stage_argv(stage: tuple[str, ...], corpus: Path) -> list[str]:
    return [str(corpus / a) if a.endswith((".json", ".jsonl")) else a for a in stage]


def stage_outputs(stage: tuple[str, ...]) -> list[str]:
    return [stage[i + 1] for i, a in enumerate(stage) if a in OUTPUT_FLAGS]


def _digest(corpus: Path, stage) -> str:
    h = hashlib.sha256()
    for name in stage_outputs(stage):
        h.update((corpus / name).read_bytes())
    return h.hexdigest()


@dataclass
class PassResult:
    stage_s: list[float]  # wall time of each stage, in stage order
    exit_codes: list[Optional[int]]  # None: an exception escaped cli.run
    digests: list[Optional[str]]  # of each stage's artifacts; None when it failed

    @property
    def seconds(self) -> float:
        return sum(self.stage_s)


def run_pass(workload: str, corpus: Path, call: Optional[Callable] = None) -> PassResult:
    """Run every stage once, timing each; hash the artifacts after the last.

    ``call(name, fn, *args)`` lets a tracer put each stage in a span.
    """
    stages = STAGES[workload]
    stage_s: list[float] = []
    codes: list[Optional[int]] = []
    for stage in stages:
        argv = stage_argv(stage, corpus)
        start = time.perf_counter()
        try:
            if call is None:
                codes.append(cli.run(argv))
            else:
                codes.append(call(f"cli.{stage[0]}", cli.run, argv))
        except Exception:  # a traceback the user would see is a failed stage
            codes.append(None)
        stage_s.append(time.perf_counter() - start)
    digests = [_digest(corpus, s) if code == 0 else None for s, code in zip(stages, codes)]
    return PassResult(stage_s, codes, digests)


# ------------------------------------------------------------------ checks

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _json_result(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def _jsonl_rows(path: Path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [row for row in rows if "#config" not in row]


def read_export(path: Path) -> tuple[list[records.AnnotationRecord], list[float]]:
    """Records and weights of a weighted export, validated row by row."""
    rows, weights = [], []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        obj = json.loads(line)
        weights.append(obj.pop("weight", 1.0))
        rows.append((line_no, obj))
    recs, _rejected, _scale = records.records_from_rows(rows, strict=True)
    return recs, weights


@dataclass
class Context:
    corpus: Path
    expected: dict
    dataset: Optional[records.Dataset] = None

    def load(self) -> records.Dataset:
        if self.dataset is None:
            self.dataset = records.load_records(self.corpus / "dataset.jsonl", strict=True)
        return self.dataset


def _check_validate(ctx: Context, stage) -> None:
    report = _json_result(ctx.corpus / "validate.json")
    for key in ("n_records", "n_items", "n_annotators", "n_repeat_groups"):
        _require(report[key] == ctx.expected[key], f"validate {key} {report[key]} != {ctx.expected[key]}")


def _expected_pairs(ctx: Context) -> int:
    cluster = ctx.expected.get("cluster", 0)
    return ctx.expected.get("n_clusters", 0) * cluster * (cluster - 1) // 2


def _check_pairs(ctx: Context, stage) -> None:
    pairs = cli.load_pairs(ctx.corpus / "pairs.jsonl")
    _require(len(pairs) == _expected_pairs(ctx), f"{len(pairs)} pairs, expected {_expected_pairs(ctx)}")
    cluster = ctx.expected["cluster"]
    for pair in pairs:
        a, b = (int(item.rsplit("-", 1)[1]) for item in (pair.item_a, pair.item_b))
        _require(a // cluster == b // cluster, f"pair {pair.pair_id} crosses near-duplicate clusters")


def _check_repeats(ctx: Context, stage) -> None:
    flags = cli.load_flags(ctx.corpus / "flags.jsonl")
    summary = _json_result(ctx.corpus / "repeats.json")["summary"]
    evaluated = ctx.expected["n_repeat_groups"] + _expected_pairs(ctx) * ctx.expected["n_annotators"]
    _require(summary["n_evaluated_pairs"] == evaluated,
             f"{summary['n_evaluated_pairs']} pairs evaluated, expected {evaluated}")
    _require(summary["n_inconsistent_pairs"] == len(flags), "flag file and summary disagree")
    for flag in flags:
        _require(flag.annotator_id in ctx.expected["truth"], f"unknown annotator {flag.annotator_id}")
        _require(flag.delta >= FLAG_THRESHOLD and flag.delta == abs(flag.score_a - flag.score_b),
                 f"flag {flag.pair.pair_id} has delta {flag.delta}")


def _check_classify(ctx: Context, stage) -> None:
    n_flags = len(cli.load_flags(ctx.corpus / "flags.jsonl"))
    outputs = stage_outputs(stage)
    labels = _jsonl_rows(ctx.corpus / outputs[0])
    summary = _json_result(ctx.corpus / outputs[1])
    _require(len(labels) == n_flags == summary["n_total"], "label count differs from flag count")
    _require(all(row["label"] in taxonomy.LABELS for row in labels), "unknown taxonomy label")
    _require(sum(row["n"] for row in summary["rows"]) == n_flags, "summary rows do not add up")


def _check_diagnose(ctx: Context, stage) -> None:
    profiles = cli.load_profiles(ctx.corpus / "profiles.jsonl")
    _require(sorted(profiles) == sorted(ctx.expected["truth"]), "profiles do not cover every annotator")
    _require(all(p.reliability is not None for p in profiles.values()), "an annotator has no reliability")


def _check_ratio(ctx: Context, stage) -> None:
    ratios = cli.load_ratio_records(ctx.corpus / "ratios.jsonl")
    _require(len(ratios) == ctx.expected["n_ratio_cells"],
             f"{len(ratios)} ratio cells, expected {ctx.expected['n_ratio_cells']}")
    resamples = int(stage[stage.index("--resamples") + 1]) if "--resamples" in stage else 1000
    _require(all(r.resamples_used == resamples and r.ratio >= 0.0 for r in ratios), "bad ratio record")
    if "--stats-output" in stage:
        report = _json_result(ctx.corpus / "population.json")
        _require(report["n_annotators"] == ctx.expected["n_annotators"], "population covers the wrong annotators")


def _check_simulate(ctx: Context, stage) -> None:
    report = _json_result(ctx.corpus / "simulate.json")
    n_items = ctx.expected["n_items"]
    # every annotator rates the anchors (sparse) or the whole pool (dense)
    eligible = len(ctx.expected["anchor_scores"]) if "anchor_scores" in ctx.expected else n_items
    _require(report["n_total_prompts"] == n_items, "simulate saw the wrong number of prompts")
    _require(report["n_eligible"] == eligible == len(report["per_prompt"]),
             f"{report['n_eligible']} eligible prompts, expected {eligible}")
    _require(report["n_eligible"] + len(report["skipped"]) == n_items, "eligible and skipped do not add up")


def _check_weights(ctx: Context, stage) -> None:
    outputs = stage_outputs(stage)
    summary = _json_result(ctx.corpus / outputs[1])
    recs, weights = read_export(ctx.corpus / outputs[0])
    n = ctx.expected["n_records"]
    _require(summary["n_input"] == n and summary["n_retained"] + summary["n_dropped"] == n,
             "export summary does not add up")
    _require(len(recs) == summary["n_retained"], f"export holds {len(recs)} rows, summary says {summary['n_retained']}")
    _require(all(0.0 <= w <= 1.0 for w in weights), "weight outside [0, 1]")


CHECKS = {
    "validate": _check_validate,
    "pairs": _check_pairs,
    "repeats": _check_repeats,
    "classify": _check_classify,
    "diagnose": _check_diagnose,
    "ratio": _check_ratio,
    "simulate": _check_simulate,
    "weights": _check_weights,
}


def check_outputs(workload: str, ctx: Context) -> list[Optional[str]]:
    """One entry per stage: None when its artifacts pass, else the reason."""
    problems: list[Optional[str]] = []
    for stage in STAGES[workload]:
        try:
            CHECKS[stage[0]](ctx, stage)
            problems.append(None)
        except (CheckFailed, PrefauditError, OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{stage[0]}: {type(exc).__name__}: {exc}")
    return problems


# ------------------------------------------------------------------ recovery

def _recovery_sparse(ctx: Context) -> float:
    """Route the diagnose profiles, as the paper's procedure does, and score them."""
    dataset = ctx.load()
    profiles = cli.load_profiles(ctx.corpus / "profiles.jsonl")
    anchors = ctx.expected["anchor_scores"]
    routings = {}
    for annotator_id, profile in profiles.items():
        rate, _n = taxonomy.anchor_failure_rate(dataset, annotator_id, anchors)
        routings[annotator_id] = taxonomy.decision_procedure(profile, artifact_rate=rate)
    truth = synth.SyntheticDataset(dataset, ctx.expected["truth"], anchors, seed=0, clamp_count=0)
    return synth.score_recovery(truth, routings).accuracy


def _recovery_dense(ctx: Context) -> float:
    """Share of annotators the median split puts in their own pool (steady = low)."""
    _all, low, _high = aggregation.median_split_pools(cli.load_ratio_records(ctx.corpus / "ratios.jsonl"))
    truth = ctx.expected["truth"]
    hits = sum(1 for a, kind in truth.items() if (a in low.membership) == (kind == "steady"))
    return hits / len(truth)


RECOVERY = {
    "audit-sparse": _recovery_sparse,
    "jury-dense": _recovery_dense,
}
