"""Command-line surface for auditable, reproducible runs.

Subcommands compose over cached intermediate files (flags, profiles,
ratios) so audits can iterate on thresholds without recomputing everything.
Every report, JSON result, JSONL artifact and CSV file embeds the effective
run configuration in its header; the record files (the weighted export of
``weights`` and the ``dataset.jsonl`` of ``synth``) carry none, so they load
as input like any records file. Every seeded run is byte-reproducible.

Exit codes: 0 success, 1 usage error, 2 data validation failure, 3 runtime
failure (any other exception a subcommand raises, reported on one line).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional

from . import aggregation, diagnostics, pairing, planner, ratio, records, synth, taxonomy, themes, weighting
from .errors import (
    DataFormatError,
    DegenerateDataError,
    InfeasiblePlanError,
    InsufficientSupportError,
    PrefauditError,
)

def _write_text(path: str, text: str) -> None:
    with records.open_output(path) as fh:
        fh.write(text)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _write_jsonl(path: str, config: dict, rows: Iterable) -> None:
    """The ``#config`` header line, then each row (a dict or a dataclass) as soon as it is encoded."""
    with records.open_output(path) as fh:
        fh.write(records.to_json({"#config": config}) + "\n")
        for row in rows:
            fh.write(records.to_json(row) + "\n")


def _write_report(path: str, config: dict, text: str) -> None:
    _write_text(path, records.CONFIG_PREFIX + records.to_json(config) + "\n" + text)


def _write_json(path: str, config: dict, result) -> None:
    """``result``, which may be or hold dataclasses and sets (see ``records.to_json``)."""
    _write_text(path, records.to_json({"config": config, "result": result}) + "\n")


def _write_csv(path: str, config: dict, header: list[str], rows: Iterable[dict]) -> None:
    with records.open_output(path, newline="") as fh:
        fh.write(records.CONFIG_PREFIX + records.to_json(config) + "\r\n")
        records.write_csv(fh, header, rows)


def _render_table(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [title, fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def _load_dataset(args: argparse.Namespace) -> records.Dataset:
    embeddings = records.load_embeddings(args.embeddings) if getattr(args, "embeddings", None) else None
    metadata = records.load_metadata(args.metadata) if getattr(args, "metadata", None) else None
    return records.load_records(
        args.input,
        fmt=getattr(args, "input_format", "jsonl"),
        strict=getattr(args, "strict", False),
        embeddings=embeddings,
        metadata=metadata,
    )


# ---------------------------------------------------------------- validate

def _cmd_validate(args) -> int:
    dataset = _load_dataset(args)
    report = records.validate(dataset)
    config = _config_echo(args)
    if args.format == "report":
        listed = ("warnings", "rejected_by_reason")  # one line each, below the table
        rows = [[k, str(v)] for k, v in records.to_row(report).items() if k not in listed]
        text = _render_table("Dataset validation", ["field", "value"], rows)
        for warning in report.warnings:
            text += f"warning: {warning}\n"
        for reason, count in report.rejected_by_reason.items():
            text += f"rejected: {count} rows: {reason}\n"
        _write_report(args.output, config, text)
    else:
        _write_json(args.output, config, report)
    return 0


# ---------------------------------------------------------------- pairs

def _pair_from_row(row: dict) -> pairing.PromptPair:
    """Analyst-coded files may leave out pair_id; similarity and kind have defaults."""
    if not row.get("pair_id"):
        row["pair_id"] = f"{row.get('item_a')}|{row.get('item_b')}"
    return records.from_row(pairing.PromptPair, row)


def load_pairs(path: str | Path) -> list[pairing.PromptPair]:
    return records.read_rows(path, pairing.PromptPair, _pair_from_row)


def _cmd_pairs(args) -> int:
    dataset = _load_dataset(args)
    pairs = pairing.find_similar_pairs(dataset, args.sim_threshold, args.same_annotator)
    _write_jsonl(args.output, _config_echo(args), (vars(p) for p in pairs))
    return 0


# ---------------------------------------------------------------- repeats

def _flag_row(flag: pairing.InconsistencyFlag) -> dict:
    row = {**vars(flag), **vars(flag.pair)}
    del row["pair"]
    return row


def _flag_from_row(row: dict) -> pairing.InconsistencyFlag:
    # the flag's own fields leave the row first, so the pair sees only its own
    own = {k: row.pop(k) for k in ("annotator_id", "score_a", "score_b", "delta", "threshold_used") if k in row}
    own["pair"] = _pair_from_row(row)
    return records.from_row(pairing.InconsistencyFlag, own)


def load_flags(path: str | Path) -> list[pairing.InconsistencyFlag]:
    return records.read_rows(path, pairing.InconsistencyFlag, _flag_from_row)


def render_prevalence(summary: pairing.PrevalenceSummary) -> str:
    rows = [[
        f"{summary.n_inconsistent_pairs} ({summary.pct_inconsistent:.2f}%)",
        f"{summary.n_annotators_flagged} ({summary.pct_annotators_flagged:.2f}%)",
        f"{summary.mean_delta:.2f}",
    ]] if summary.n_evaluated_pairs else []
    return _render_table(
        "Preference inconsistency statistics",
        ["Inconsistencies", "Annotators", "Mean Pref. Score Δ"],
        rows,
    )


def render_ladder(ladder: pairing.LadderReport) -> str:
    rows = [[name, str(count)] for name, count in ladder.stages]
    return _render_table("Filtering ladder", ["stage", "n pairs"], rows)


def _cmd_repeats(args) -> int:
    dataset = _load_dataset(args)
    flags, summary, ladder = pairing.repeat_audit(dataset, args.sim_threshold, args.delta_threshold)
    config = _config_echo(args)
    if args.flags_output:
        _write_jsonl(args.flags_output, config, map(_flag_row, flags))
    if args.format == "report":
        _write_report(args.output, config, render_prevalence(summary) + render_ladder(ladder))
    else:
        stages = [{"stage": name, "n_pairs": count} for name, count in ladder.stages]
        _write_json(args.output, config, {"summary": summary, "ladder": {"stages": stages}})
    return 0


# ---------------------------------------------------------------- diagnose

def _profile_from_row(row: dict) -> diagnostics.ConsistencyProfile:
    row.pop("routing", None)  # derived by diagnose --route, not a profile field
    return records.from_row(diagnostics.ConsistencyProfile, row)


def load_profiles(path: str | Path) -> dict[str, diagnostics.ConsistencyProfile]:
    profiles = records.read_rows(path, diagnostics.ConsistencyProfile, _profile_from_row)
    return {p.annotator_id: p for p in profiles}


def _cmd_diagnose(args) -> int:
    dataset = _load_dataset(args)
    weights = tuple(float(w) for w in args.weights.split(",")) if args.weights else None
    pairs = load_pairs(args.pairs) if args.pairs else None
    profiles = diagnostics.build_profiles(
        dataset,
        tau=args.tau,
        pairs=pairs,
        ratio_config=ratio.RatioConfig(resamples=args.resamples, seed=args.seed),
        reliability_mode=args.reliability_mode,
        weights=weights,
    )
    rows = [records.to_row(profiles[a]) for a in sorted(profiles)]
    if args.route:
        thresholds = taxonomy.RoutingThresholds(
            t_temp=args.t_temp, t_frame=args.t_frame, t_order=args.t_order
        )
        for row in rows:
            profile = profiles[row["annotator_id"]]
            row["routing"] = (
                taxonomy.decision_procedure(profile, thresholds) if profile.components() else None
            )
    config = _config_echo(args)
    if args.format == "csv":
        header = list(rows[0].keys()) if rows else ["annotator_id"]
        _write_csv(args.output, config, header, rows)
    else:
        _write_jsonl(args.output, config, rows)
    return 0


# ---------------------------------------------------------------- classify

def render_classification(summary: taxonomy.ClassificationSummary) -> str:
    rows = [
        [row["label"], str(row["n"]), f"{row['pct']:.1f}", f"{row['mean_delta']:.1f}"]
        for row in summary.rows
    ]
    return _render_table(
        "Classification of annotation inconsistencies",
        ["Classification", "n", "%", "Mean Δ"],
        rows,
    )


def _cmd_classify(args) -> int:
    dataset = _load_dataset(args)
    flags = load_flags(args.flags)
    labels = taxonomy.classify_flags(flags, dataset, artifact_floor=args.artifact_floor)
    summary = taxonomy.classification_summary(labels) if labels else taxonomy.ClassificationSummary([], 0)
    config = _config_echo(args)
    if args.labels_output:
        rows = (
            {
                "annotator_id": lab.flag.annotator_id if lab.flag else None,
                "pair_id": lab.flag.pair.pair_id if lab.flag else None,
                "label": lab.label,
                "rule_trace": list(lab.rule_trace),
            }
            for lab in labels
        )
        _write_jsonl(args.labels_output, config, rows)
    if args.format == "report":
        _write_report(args.output, config, render_classification(summary))
    else:
        _write_json(args.output, config, summary)
    return 0


# ---------------------------------------------------------------- ratio

def load_ratio_records(path: str | Path) -> list[ratio.RatioRecord]:
    return records.read_rows(path, ratio.RatioRecord)


def render_population(report: ratio.PopulationReport) -> str:
    split = report.median_split
    rows = [
        ["annotators with ratios", str(report.n_annotators)],
        ["median annotator ratio", f"{report.median_ratio:.4f}"],
        ["t vs 1.0", f"{report.t_vs_one.statistic:.2f} (p={report.t_vs_one.p_value:.3g})"],
        ["median-split t", f"{split.statistic:.2f} (p={split.p_value:.3g})" if split else "n/a"],
        [
            "mean diff (low - high)",
            f"{report.mean_diff_low_minus_high:.2f}" if report.mean_diff_low_minus_high is not None else "n/a",
        ],
        [
            "Pearson r (ratio vs rating)",
            f"{report.pearson_r_ratio_vs_rating:.2f}" if report.pearson_r_ratio_vs_rating is not None else "n/a",
        ],
    ]
    return _render_table("Inconsistency-ratio population statistics", ["statistic", "value"], rows)


def _cmd_ratio(args) -> int:
    dataset = _load_dataset(args)
    config_obj = ratio.RatioConfig(
        resamples=args.resamples,
        seed=args.seed,
        min_support=args.min_support,
        exclude_theme_from_history=args.exclude_theme_history,
    )
    ratios = ratio.all_ratios(dataset, config_obj)
    rows = map(records.to_row, ratios)
    config = _config_echo(args)
    if args.format == "csv":
        _write_csv(args.output, config, [f.name for f in fields(ratio.RatioRecord)], rows)
    else:
        _write_jsonl(args.output, config, rows)
    if args.stats_output:
        report = ratio.population_stats(ratios, dataset)
        if args.format == "report":
            _write_report(args.stats_output, config, render_population(report))
        else:
            _write_json(args.stats_output, config, report)
    return 0


# ---------------------------------------------------------------- simulate

def render_flips(report: aggregation.FlipReport) -> str:
    rows = [
        ["eligible prompts", str(report.n_eligible)],
        ["flips (low-inconsistency pool)", str(report.n_flips_low)],
        ["flips (high-inconsistency pool)", str(report.n_flips_high)],
        ["pct flips (low)", f"{report.pct_flips:.1f}%"],
        ["skipped prompts", str(len(report.skipped))],
    ]
    return _render_table("Majority-flip simulation", ["quantity", "value"], rows)


def _cmd_simulate(args) -> int:
    dataset = _load_dataset(args)
    ratios = load_ratio_records(args.ratios)
    report = aggregation.pool_flip_simulation(
        dataset,
        ratios,
        iterations=args.iterations,
        sample_size=args.sample_size,
        seed=args.seed,
        harm_threshold=args.harm_threshold,
    )
    config = _config_echo(args)
    if args.format == "report":
        _write_report(args.output, config, render_flips(report))
    else:
        _write_json(args.output, config, report)
    return 0


# ---------------------------------------------------------------- weights

def _cmd_weights(args) -> int:
    dataset = _load_dataset(args)
    if args.profiles:
        profiles = load_profiles(args.profiles)
    else:
        profiles = diagnostics.build_profiles(dataset, tau=args.tau)
    table = weighting.build_weights(
        dataset,
        profiles,
        mode=args.weight_mode,
        threshold=args.threshold,
        midpoint=args.midpoint,
        steepness=args.steepness,
        tau=args.tau,
    )
    summary = weighting.export_weighted(dataset, table, args.policy, args.output)
    _write_json(args.summary_output, _config_echo(args), summary)
    return 0


# ---------------------------------------------------------------- plan

def _cmd_plan(args) -> int:
    plan = planner.plan_tier(
        args.tier,
        args.items,
        args.annotators,
        args.cost,
        repeat_rate=args.repeat_rate,
        framing_rate=args.framing_rate,
        within_annotator_framing_rate=args.within_annotator_framing_rate,
        retest_rate=args.retest_rate,
        min_spacing=args.min_spacing,
    )
    config = _config_echo(args)
    _write_json(args.output, config, plan)
    if args.schedule_output:
        item_ids = [f"item-{i:06d}" for i in range(plan.n_items)]
        annotator_ids = [f"ann-{i:04d}" for i in range(plan.n_annotators)]
        schedule = planner.assign_diagnostics(plan, item_ids, annotator_ids, args.seed)
        violations = planner.validate_schedule(schedule)
        if violations:
            raise InfeasiblePlanError("; ".join(violations[:5]))
        entries = sorted(schedule.entries, key=attrgetter("annotator_id", "position"))
        _write_jsonl(args.schedule_output, config, entries)
    return 0


# ---------------------------------------------------------------- calibrate

def _cmd_calibrate(args) -> int:
    if args.method == "empirical":
        if not args.diffs:
            raise ValueError("empirical calibration needs --diffs")
        diffs = []
        for n, entry in enumerate(records.read_text(args.diffs).split(), start=1):
            try:
                diffs.append(float(entry))
            except ValueError:
                raise DataFormatError(f"{args.diffs}: entry {n} is not a number: {entry!r}") from None
        calibration = planner.calibrate_empirical(diffs, k=args.k, scale_kind=args.scale)
    elif args.method == "scale":
        calibration = planner.calibrate_scale(args.scale)
    elif args.method == "consequence":
        calibration = planner.calibrate_consequence(args.scale, args.flip_margin)
    else:
        raise ValueError(f"unknown calibration method {args.method!r}")
    _write_json(args.output, _config_echo(args), calibration)
    return 0


# ---------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    ipa = args.items_per_annotator
    total = args.per_type * 4
    plan = planner.TierPlan(
        tier=1,
        n_items=ipa * total,
        n_annotators=total,
        items_per_annotator=ipa,
        repeat_rate=args.repeats / ipa,
        n_repeats_per_annotator=args.repeats,
        min_spacing=planner.DEFAULT_MIN_SPACING,
        extra_annotations=args.repeats * total,
        overhead_pct=100.0 * args.repeats / ipa,
        extra_cost=0.0,
    )
    synthetic = synth.generate(
        args.per_type,
        plan.n_items,
        plan,
        seed=args.seed,
        n_framing_pairs=args.framing_pairs,
        n_anchors=args.anchors,
    )
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    records.save_records(synthetic.dataset, outdir / "dataset.jsonl")
    sidecar = {
        "seed": synthetic.seed,
        "truth": synthetic.truth,
        "anchor_scores": synthetic.anchor_scores,
        "clamp_count": synthetic.clamp_count,
    }
    _write_json(str(outdir / "truth.json"), _config_echo(args), sidecar)
    return 0


# ---------------------------------------------------------------- themes

def _cmd_themes(args) -> int:
    dataset = _load_dataset(args)
    label_list = [line.strip() for line in records.read_text(args.labels).splitlines() if line.strip()]
    endpoints = themes.load_endpoints(args.endpoints)
    if args.transport == "fixture":
        if not args.fixtures:
            raise ValueError("--transport fixture needs --fixtures")
        transport = themes.FixtureTransport.load(args.fixtures)
    else:
        transport = themes.HttpTransport()
    cache = themes.LabelCache.load(args.cache) if args.cache else None
    report = themes.label_corpus(
        dataset,
        label_list,
        endpoints,
        transport,
        concurrency_limit=args.concurrency,
        cache=cache,
    )
    config = _config_echo(args)
    rows = (
        {"item_id": item_id, "theme_labels": sorted(labels)}
        for item_id, labels in sorted(report.patch.items())
    )
    _write_jsonl(args.output, config, rows)
    if report.n_failed:
        print(f"{report.n_failed} prompts failed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- parser

def _add_io(sub, embeddings=False, metadata=False):
    sub.add_argument("--input", required=True, help="records file (canonical schema)")
    sub.add_argument("--input-format", choices=("jsonl", "csv"), default="jsonl")
    sub.add_argument("--strict", action="store_true", help="abort on any malformed row")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    if embeddings:
        sub.add_argument("--embeddings", help="JSONL embedding table")
    if metadata:
        sub.add_argument("--metadata", help="JSONL item metadata")


# The baseline and the modal labels are exact; these flags stay accepted and
# are echoed into the outputs (ratio records carry resamples_used and seed).
_EXACT_BASELINE_ECHO = "recorded in the output only; the exact baseline draws nothing"
_EXACT_MODAL_ECHO = "recorded in the output only; modal labels are exact and draw no juries"


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    """The main parser plus its subcommand parsers (config defaults reach both)."""
    parser = argparse.ArgumentParser(prog="prefaudit", description=__doc__)
    parser.add_argument("--config", help="key=value config file; flags override it")
    subparsers = parser.add_subparsers(dest="cmd")

    p = subparsers.add_parser("validate", help="structural audit of a dataset")
    _add_io(p, embeddings=True, metadata=True)
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_validate)

    p = subparsers.add_parser("pairs", help="discover similar prompt pairs")
    _add_io(p, embeddings=True)
    p.add_argument("--sim-threshold", type=float, default=0.9)
    p.add_argument("--same-annotator", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_pairs)

    p = subparsers.add_parser("repeats", help="repeat audit: flags, prevalence, filter ladder")
    _add_io(p, embeddings=True)
    p.add_argument("--sim-threshold", type=float, default=0.9)
    p.add_argument("--delta-threshold", type=float, default=15.0)
    p.add_argument("--flags-output", help="write flags JSONL here")
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_repeats)

    p = subparsers.add_parser("diagnose", help="per-annotator consistency profiles")
    _add_io(p, metadata=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--pairs", help="equivalent pairs JSONL to include in framing consistency")
    p.add_argument("--reliability-mode", choices=diagnostics.RELIABILITY_MODES, default="weighted")
    p.add_argument("--weights", help="w1,w2,w3,w4 for the weighted mode")
    p.add_argument("--resamples", type=int, default=1000, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--seed", type=int, default=0, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--route", action="store_true", help="add a routing column per annotator")
    p.add_argument("--t-temp", type=float, default=taxonomy.RoutingThresholds.t_temp)
    p.add_argument("--t-frame", type=float, default=taxonomy.RoutingThresholds.t_frame)
    p.add_argument("--t-order", type=float, default=taxonomy.RoutingThresholds.t_order)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_diagnose)

    p = subparsers.add_parser("classify", help="taxonomy labels for flagged inconsistencies")
    _add_io(p, metadata=True)
    p.add_argument("--flags", required=True, help="flags JSONL from a repeats run")
    p.add_argument("--artifact-floor", type=float, default=40.0)
    p.add_argument("--labels-output", help="write per-flag labels JSONL here")
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_classify)

    p = subparsers.add_parser("ratio", help="per-(annotator, theme) inconsistency ratios")
    _add_io(p, metadata=True)
    p.add_argument("--resamples", type=int, default=1000, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--seed", type=int, default=0, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--min-support", type=int, default=5)
    p.add_argument("--exclude-theme-history", action="store_true")
    p.add_argument("--stats-output", help="write population statistics here")
    p.add_argument("--format", choices=("jsonl", "csv", "report"), default="jsonl")
    p.set_defaults(func=_cmd_ratio)

    p = subparsers.add_parser("simulate", help="majority-flip stress test across annotator pools")
    _add_io(p, metadata=True)
    p.add_argument("--ratios", required=True, help="ratio records (JSONL or CSV) from a ratio run")
    p.add_argument("--iterations", type=int, default=1000, help=_EXACT_MODAL_ECHO)
    p.add_argument("--sample-size", type=int, default=5)
    p.add_argument("--harm-threshold", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0, help=_EXACT_MODAL_ECHO)
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_simulate)

    p = subparsers.add_parser("weights", help="reliability weights and weighted export")
    _add_io(p, metadata=True)
    p.add_argument("--profiles", help="profiles (JSONL or CSV) from a diagnose run (else recomputed)")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--weight-mode", choices=weighting.WEIGHT_MODES, default="linear")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--midpoint", type=float, default=0.5)
    p.add_argument("--steepness", type=float, default=10.0)
    p.add_argument("--policy", choices=weighting.EXPORT_POLICIES, default="weight")
    p.add_argument("--summary-output", default="-")
    p.set_defaults(func=_cmd_weights)

    p = subparsers.add_parser("plan", help="tiered diagnostic campaign plan")
    p.add_argument("--tier", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--annotators", type=int, required=True)
    p.add_argument("--cost", type=float, required=True, help="cost per annotation")
    p.add_argument("--repeat-rate", type=float)
    p.add_argument("--framing-rate", type=float)
    p.add_argument("--within-annotator-framing-rate", type=float)
    p.add_argument("--retest-rate", type=float)
    p.add_argument("--min-spacing", type=int, default=planner.DEFAULT_MIN_SPACING)
    p.add_argument("--schedule-output", help="also emit a concrete assignment schedule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_plan)

    p = subparsers.add_parser("calibrate", help="consistency-threshold calibration")
    p.add_argument("--method", choices=("empirical", "scale", "consequence"), required=True)
    p.add_argument("--scale", choices=records.SCALE_KINDS, default=records.SCALE_CONTINUOUS)
    p.add_argument("--diffs", help="file of clear-case diffs, one per line (empirical)")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--flip-margin", type=float, default=0.0)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_calibrate)

    p = subparsers.add_parser("synth", help="synthetic dataset with known latent types")
    p.add_argument("--per-type", type=int, default=5)
    p.add_argument("--items-per-annotator", type=int, default=100)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--framing-pairs", type=int, default=10)
    p.add_argument("--anchors", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = subparsers.add_parser("themes", help="label prompts with harm themes via endpoints")
    _add_io(p)
    p.add_argument("--labels", required=True, help="file with one theme name per line")
    p.add_argument("--endpoints", required=True, help="endpoint configuration JSON")
    p.add_argument("--transport", choices=("http", "fixture"), default="http")
    p.add_argument("--fixtures", help="canned payloads for the fixture transport")
    p.add_argument("--cache", help="prompt-to-labels cache file")
    p.add_argument("--concurrency", type=int, default=4)
    p.set_defaults(func=_cmd_themes)

    return parser, list(subparsers.choices.values())


def _apply_config_file(parsers: list[argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """Pull --config out of argv (any position) and install its values as defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    argv = argv[:idx] + argv[idx + 2 :]
    defaults = {}
    for line_no, raw in enumerate(records.read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: line {line_no}: config line is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        value = value.strip("'\"")
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        if value in ("true", "false"):
            value = value == "true"
        defaults[key.replace("-", "_")] = value
    for parser in parsers:
        parser.set_defaults(**defaults)
    return argv


def run(argv: Optional[list[str]] = None) -> int:
    """Parse and execute one subcommand, mapping failures to exit codes."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, children = build_parser()
    try:
        argv = _apply_config_file([parser, *children], argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unreadable --config file
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if not getattr(args, "cmd", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, InsufficientSupportError, DegenerateDataError, InfeasiblePlanError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (PrefauditError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Any other failure is a defect; its traceback goes to the log only.
        # Imported here because loading logging costs every run about 0.4 MB.
        import logging

        logging.getLogger("prefaudit").debug("uncaught exception in %s", args.cmd, exc_info=True)
        print(f"runtime error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
