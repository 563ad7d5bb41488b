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
import gc
import math
import sys
from dataclasses import fields
from operator import attrgetter, itemgetter
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

def _config_echo(args: argparse.Namespace) -> dict:
    """The options the invoked subcommand defines, and ``cmd``: the namespace holds no
    other value, as a config key is set only on the parsers that define it."""
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _write_jsonl(path: str, config: dict, rows: Iterable, cls: Optional[type] = None,
                 columns: Optional[dict] = None, kept: bool = False) -> None:
    """The ``#config`` header line, then ``rows`` laid out by ``cls`` and ``columns`` (see
    ``records.write_jsonl``). ``kept``, for a list of ``cls`` objects, leaves the
    sidecar that ``records.read_rows(path, cls)`` reads."""
    records.write_jsonl(path, rows, cls, columns=columns, header={"#config": config}, kept=kept)


def _kept(pairs: Iterable[pairing.PromptPair]) -> bool:
    """Whether a file of rows on ``pairs`` may keep its sidecar: not when a pair has no
    ``pair_id``, which a read gives it, so that it would not read back as written."""
    return all(pair.pair_id for pair in pairs)


def _write_result(path: str, args: argparse.Namespace, result, render=None) -> None:
    """``render(result)`` below a config line with ``--format report``, else ``result``
    as JSON, which may be or hold dataclasses and sets (see ``records.to_json``)."""
    config = _config_echo(args)
    if getattr(args, "format", None) == "report":
        text = records.CONFIG_PREFIX + records.to_json(config) + "\n" + render(result)
    else:
        text = records.to_json({"config": config, "result": result}) + "\n"
    with records.open_output(path) as fh:
        fh.write(text)


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

def render_validation(report: records.ValidationReport) -> str:
    listed = ("warnings", "rejected_by_reason")  # one line each, below the table
    rows = [[k, str(v)] for k, v in records.to_row(report).items() if k not in listed]
    text = _render_table("Dataset validation", ["field", "value"], rows)
    for warning in report.warnings:
        text += f"warning: {warning}\n"
    for reason, count in report.rejected_by_reason.items():
        text += f"rejected: {count} rows: {reason}\n"
    return text


def _cmd_validate(args) -> int:
    _write_result(args.output, args, records.validate(_load_dataset(args)), render_validation)
    return 0


# ---------------------------------------------------------------- pairs

def load_pairs(path: str | Path) -> list[pairing.PromptPair]:
    return records.read_rows(path, pairing.PromptPair)


def _cmd_pairs(args) -> int:
    dataset = _load_dataset(args)
    pairs = pairing.find_similar_pairs(dataset, args.sim_threshold, args.same_annotator)
    _write_jsonl(args.output, _config_echo(args), pairs, pairing.PromptPair)
    return 0


# ---------------------------------------------------------------- repeats

def load_flags(path: str | Path) -> list[pairing.InconsistencyFlag]:
    """The flags of a ``repeats --flags-output`` file; flags whose pair cells match
    share one pair (see ``records._nested_reader``)."""
    return records.read_rows(path, pairing.InconsistencyFlag)


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
    if args.flags_output:
        # a row holds its flag's fields and its pair's (see ``records.write_jsonl``)
        _write_jsonl(args.flags_output, _config_echo(args), flags, pairing.InconsistencyFlag,
                     kept=_kept(map(attrgetter("pair"), flags)))
    stages = [{"stage": name, "n_pairs": count} for name, count in ladder.stages]
    _write_result(args.output, args, {"summary": summary, "ladder": {"stages": stages}},
                  lambda _: render_prevalence(summary) + render_ladder(ladder))
    return 0


# ---------------------------------------------------------------- diagnose

def load_profiles(path: str | Path) -> dict[str, diagnostics.ConsistencyProfile]:
    return {p.annotator_id: p for p in records.read_rows(path, diagnostics.ConsistencyProfile, "annotator_id")}


def _cmd_diagnose(args) -> int:
    dataset = _load_dataset(args)
    weights = tuple(float(w) for w in args.weights.split(",")) if args.weights else None
    pairs = load_pairs(args.pairs) if args.pairs else None
    absent = sum(not (pair.item_a in dataset.by_item and pair.item_b in dataset.by_item) for pair in pairs or ())
    if absent:
        print(f"diagnose: {absent} of {len(pairs)} pairs name an item absent from --input;"
              " they add no rating comparison", file=sys.stderr)
    profiles = diagnostics.build_profiles(
        dataset,
        tau=args.tau,
        pairs=pairs,
        ratio_config=ratio.RatioConfig(resamples=args.resamples, seed=args.seed),
        reliability_mode=args.reliability_mode,
        weights=weights,
    )
    written = [profiles[a] for a in sorted(profiles)]
    columns = {}
    if args.route:
        thresholds = taxonomy.RoutingThresholds(
            t_temp=args.t_temp, t_frame=args.t_frame, t_order=args.t_order
        )
        columns["routing"] = lambda profile: (
            taxonomy.decision_procedure(profile, thresholds) if profile.components() else None
        )
    config = _config_echo(args)
    if args.format == "csv":
        rows = [{**records.to_row(p), **{k: get(p) for k, get in columns.items()}} for p in written]
        header = list(rows[0].keys()) if rows else ["annotator_id"]
        _write_csv(args.output, config, header, rows)
    else:
        _write_jsonl(args.output, config, written, diagnostics.ConsistencyProfile, columns, kept=True)
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


def _flags_off_input(flags: list[pairing.InconsistencyFlag], dataset: records.Dataset) -> int:
    """How many ``flags`` name an annotator, or a pair item, that no record of
    ``dataset`` has. A run of flags on one pair looks its items up once."""
    items = set(map(attrgetter("item_id"), dataset.records))
    annotators = set(map(attrgetter("annotator_id"), dataset.records))
    absent = 0
    last = None
    for flag in flags:
        if flag.pair is not last:
            last = flag.pair
            items_known = last.item_a in items and last.item_b in items
        absent += not (items_known and flag.annotator_id in annotators)
    return absent


# A ``classify --labels-output`` row: the flag's annotator and pair, then the label.
_LABEL_COLUMNS = {
    "annotator_id": lambda lab: lab.flag.annotator_id if lab.flag else None,
    "pair_id": lambda lab: lab.flag.pair.pair_id if lab.flag else None,
    "label": attrgetter("label"),
    "rule_trace": attrgetter("rule_trace"),  # a tuple of strings, written as a list
}


def _cmd_classify(args) -> int:
    dataset = _load_dataset(args)
    flags = load_flags(args.flags)
    absent = _flags_off_input(flags, dataset)
    if absent:
        print(f"classify: {absent} of {len(flags)} flags name an annotator or item absent from --input;"
              " they are labelled and counted all the same", file=sys.stderr)
    labels = taxonomy.classify_flags(flags, dataset, artifact_floor=args.artifact_floor)
    summary = taxonomy.classification_summary(labels) if labels else taxonomy.ClassificationSummary([], 0)
    if args.labels_output:
        _write_jsonl(args.labels_output, _config_echo(args), labels, columns=_LABEL_COLUMNS)
    _write_result(args.output, args, summary, render_classification)
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
    config = _config_echo(args)
    if args.format == "csv":
        _write_csv(args.output, config, [f.name for f in fields(ratio.RatioRecord)], map(records.to_row, ratios))
    else:
        _write_jsonl(args.output, config, ratios, ratio.RatioRecord, kept=True)
    if args.stats_output:
        _write_result(args.stats_output, args, ratio.population_stats(ratios, dataset), render_population)
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
    annotators = {r.annotator_id for r in ratios}
    if annotators and annotators.isdisjoint(dataset.by_annotator):
        raise DataFormatError(f"{args.ratios}: none of its {len(annotators)} annotators rates in --input")
    absent = len(annotators - dataset.by_annotator.keys())
    if absent:
        print(f"simulate: {absent} of {len(annotators)} annotators in --ratios are absent from --input;"
              " they rate no prompt but count in the median split", file=sys.stderr)
    report = aggregation.pool_flip_simulation(
        dataset,
        ratios,
        iterations=args.iterations,
        sample_size=args.sample_size,
        seed=args.seed,
        harm_threshold=args.harm_threshold,
    )
    _write_result(args.output, args, report, render_flips)
    return 0


# ---------------------------------------------------------------- weights

def _cmd_weights(args) -> int:
    if args.output == "-" and args.summary_output == "-":
        # one stream holding the records and then the summary is not a records file
        raise ValueError("--output and --summary-output both write to standard output; give one a file")
    dataset = _load_dataset(args)
    if args.profiles:
        profiles = load_profiles(args.profiles)
        absent = len(profiles.keys() - dataset.by_annotator.keys())
        if absent:
            print(f"weights: {absent} of {len(profiles)} profiles in --profiles name an annotator absent from --input;"
                  " their reliability weights no record", file=sys.stderr)
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
    if table.n_unscored_annotators:
        print(f"weights: {table.n_unscored_annotators} of {len(dataset.by_annotator)} annotators in --input"
              " have no profile reliability; their records are weighted by item reliability alone", file=sys.stderr)
    summary = weighting.export_weighted(dataset, table, args.policy, args.output)
    _write_result(args.summary_output, args, summary)
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
    _write_result(args.output, args, plan)
    if args.schedule_output:
        item_ids = [f"item-{i:06d}" for i in range(plan.n_items)]
        annotator_ids = [f"ann-{i:04d}" for i in range(plan.n_annotators)]
        schedule = planner.assign_diagnostics(plan, item_ids, annotator_ids, args.seed)
        violations = planner.validate_schedule(schedule)
        if violations:
            raise InfeasiblePlanError("; ".join(violations[:5]))
        entries = sorted(schedule.entries, key=attrgetter("annotator_id", "position"))
        _write_jsonl(args.schedule_output, _config_echo(args), entries, planner.ScheduleEntry)
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
            if not math.isfinite(diffs[-1]):
                raise DataFormatError(f"{args.diffs}: entry {n} is not finite: {entry!r}")
        calibration = planner.calibrate_empirical(diffs, k=args.k, scale_kind=args.scale)
    elif args.method == "scale":
        calibration = planner.calibrate_scale(args.scale)
    else:  # consequence: a config value, like the flag, is one of --method's choices
        calibration = planner.calibrate_consequence(args.scale, args.flip_margin)
    _write_result(args.output, args, calibration)
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
    _write_result(str(outdir / "truth.json"), args, sidecar)
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
    columns = {"item_id": itemgetter(0), "theme_labels": lambda patch: tuple(sorted(patch[1]))}
    _write_jsonl(args.output, _config_echo(args), sorted(report.patch.items()), columns=columns)
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


def finite_float(text: str) -> float:
    """The argparse type of every float flag: a float, but not NaN or an infinity.
    Text that is no number reads as argparse words it for ``type=float``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


class _NonNegative(argparse.Action):
    """Store a ``finite_float`` that is >= 0, else refuse it naming the flag: ``--tau``
    and ``--delta-threshold`` are written into profiles and flags, whose declared
    domains hold no negative value. ``_apply_config_file`` runs it on config values."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be finite and >= 0, got {value!r}")
        setattr(namespace, self.dest, value)


# The baseline and the modal labels are exact; these flags stay accepted and
# are echoed into the outputs (ratio records carry resamples_used and seed).
_EXACT_BASELINE_ECHO = "recorded in the output only; the exact baseline draws nothing"
_EXACT_MODAL_ECHO = "recorded in the output only; modal labels are exact and draw no juries"


def _validate_options(p):
    _add_io(p, embeddings=True, metadata=True)
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_validate)


def _pairs_options(p):
    _add_io(p, embeddings=True)
    p.add_argument("--sim-threshold", type=finite_float, default=0.9)
    p.add_argument("--same-annotator", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_pairs)


def _repeats_options(p):
    _add_io(p, embeddings=True)
    p.add_argument("--sim-threshold", type=finite_float, default=0.9)
    p.add_argument("--delta-threshold", type=finite_float, action=_NonNegative, default=15.0)
    p.add_argument("--flags-output", help="write flags JSONL here")
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_repeats)


def _diagnose_options(p):
    _add_io(p, metadata=True)
    p.add_argument("--tau", type=finite_float, action=_NonNegative, default=None)
    p.add_argument("--pairs", help="equivalent pairs JSONL to include in framing consistency")
    p.add_argument("--reliability-mode", choices=diagnostics.RELIABILITY_MODES, default="weighted")
    p.add_argument("--weights", help="w1,w2,w3,w4 for the weighted mode")
    p.add_argument("--resamples", type=int, default=1000, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--seed", type=int, default=0, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--route", action="store_true", help="add a routing column per annotator")
    p.add_argument("--t-temp", type=finite_float, default=taxonomy.RoutingThresholds.t_temp)
    p.add_argument("--t-frame", type=finite_float, default=taxonomy.RoutingThresholds.t_frame)
    p.add_argument("--t-order", type=finite_float, default=taxonomy.RoutingThresholds.t_order)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=_cmd_diagnose)


def _classify_options(p):
    _add_io(p, metadata=True)
    p.add_argument("--flags", required=True, help="flags JSONL from a repeats run")
    p.add_argument("--artifact-floor", type=finite_float, default=40.0)
    p.add_argument("--labels-output", help="write per-flag labels JSONL here")
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_classify)


def _ratio_options(p):
    _add_io(p, metadata=True)
    p.add_argument("--resamples", type=int, default=1000, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--seed", type=int, default=0, help=_EXACT_BASELINE_ECHO)
    p.add_argument("--min-support", type=int, default=5)
    p.add_argument("--exclude-theme-history", action="store_true")
    p.add_argument("--stats-output", help="write population statistics here")
    p.add_argument("--format", choices=("jsonl", "csv", "report"), default="jsonl")
    p.set_defaults(func=_cmd_ratio)


def _simulate_options(p):
    _add_io(p, metadata=True)
    p.add_argument("--ratios", required=True, help="ratio records (JSONL or CSV) from a ratio run")
    p.add_argument("--iterations", type=int, default=1000, help=_EXACT_MODAL_ECHO)
    p.add_argument("--sample-size", type=int, default=5)
    p.add_argument("--harm-threshold", type=finite_float, default=50.0)
    p.add_argument("--seed", type=int, default=0, help=_EXACT_MODAL_ECHO)
    p.add_argument("--format", choices=("json", "report"), default="json")
    p.set_defaults(func=_cmd_simulate)


def _weights_options(p):
    _add_io(p, metadata=True)
    p.add_argument("--profiles", help="profiles (JSONL or CSV) from a diagnose run (else recomputed)")
    p.add_argument("--tau", type=finite_float, action=_NonNegative, default=None)
    p.add_argument("--weight-mode", choices=weighting.WEIGHT_MODES, default="linear")
    p.add_argument("--threshold", type=finite_float, default=0.5)
    p.add_argument("--midpoint", type=finite_float, default=0.5)
    p.add_argument("--steepness", type=finite_float, default=10.0)
    p.add_argument("--policy", choices=weighting.EXPORT_POLICIES, default="weight")
    p.add_argument("--summary-output", default="-")
    p.set_defaults(func=_cmd_weights)


def _plan_options(p):
    p.add_argument("--tier", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--annotators", type=int, required=True)
    p.add_argument("--cost", type=finite_float, required=True, help="cost per annotation")
    p.add_argument("--repeat-rate", type=finite_float)
    p.add_argument("--framing-rate", type=finite_float)
    p.add_argument("--within-annotator-framing-rate", type=finite_float)
    p.add_argument("--retest-rate", type=finite_float)
    p.add_argument("--min-spacing", type=int, default=planner.DEFAULT_MIN_SPACING)
    p.add_argument("--schedule-output", help="also emit a concrete assignment schedule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_plan)


def _calibrate_options(p):
    p.add_argument("--method", choices=("empirical", "scale", "consequence"), required=True)
    p.add_argument("--scale", choices=records.SCALE_KINDS, default=records.SCALE_CONTINUOUS)
    p.add_argument("--diffs", help="file of clear-case diffs, one per line (empirical)")
    p.add_argument("--k", type=finite_float, default=2.0)
    p.add_argument("--flip-margin", type=finite_float, default=0.0)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_calibrate)


def _synth_options(p):
    p.add_argument("--per-type", type=int, default=5)
    p.add_argument("--items-per-annotator", type=int, default=100)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--framing-pairs", type=int, default=10)
    p.add_argument("--anchors", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_synth)


def _themes_options(p):
    _add_io(p)
    p.add_argument("--labels", required=True, help="file with one theme name per line")
    p.add_argument("--endpoints", required=True, help="endpoint configuration JSON")
    p.add_argument("--transport", choices=("http", "fixture"), default="http")
    p.add_argument("--fixtures", help="canned payloads for the fixture transport")
    p.add_argument("--cache", help="prompt-to-labels cache file")
    p.add_argument("--concurrency", type=int, default=4)
    p.set_defaults(func=_cmd_themes)


# Each subcommand -> its help line and the function that adds its options and its
# ``func``, the function that runs it; in usage order.
_SUBCOMMANDS = {
    "validate": ("structural audit of a dataset", _validate_options),
    "pairs": ("discover similar prompt pairs", _pairs_options),
    "repeats": ("repeat audit: flags, prevalence, filter ladder", _repeats_options),
    "diagnose": ("per-annotator consistency profiles", _diagnose_options),
    "classify": ("taxonomy labels for flagged inconsistencies", _classify_options),
    "ratio": ("per-(annotator, theme) inconsistency ratios", _ratio_options),
    "simulate": ("majority-flip stress test across annotator pools", _simulate_options),
    "weights": ("reliability weights and weighted export", _weights_options),
    "plan": ("tiered diagnostic campaign plan", _plan_options),
    "calibrate": ("consistency-threshold calibration", _calibrate_options),
    "synth": ("synthetic dataset with known latent types", _synth_options),
    "themes": ("label prompts with harm themes via endpoints", _themes_options),
}


def build_parser(cmd: Optional[str] = None) -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    """The main parser plus its subcommand parsers: every one, or ``cmd``'s alone.
    Each ``add_argument`` costs a terminal-size query, and a run needs one subcommand's."""
    # --config is applied before this parser runs; listed here for --help only
    parser = argparse.ArgumentParser(prog="prefaudit", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="key=value config file; flags override it")
    # ``cmd``'s parser alone still gives the main usage line every subcommand's name
    every = None if cmd is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    subparsers = parser.add_subparsers(dest="cmd", metavar=every)
    for name, (summary, add_options) in _SUBCOMMANDS.items():
        if cmd in (None, name):
            add_options(subparsers.add_parser(name, help=summary))
    return parser, list(subparsers.choices.values())


def _pop_config(argv: list[str]) -> tuple[Optional[str], list[str]]:
    """The path ``--config PATH`` or ``--config=PATH`` names (any position, no
    abbreviation), if any, and argv without it."""
    pre = argparse.ArgumentParser(prog="prefaudit", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    return known.config, argv


def _apply_config_file(parsers: list[argparse.ArgumentParser], path: str, cmd: Optional[str]) -> None:
    """Install the values of config file ``path`` as defaults of the subcommand
    ``parsers``, each key on the parsers whose options name it and each value read
    as that parser's option reads it (see ``_config_value``). A key no option names
    raises (``-h`` names none), and so does a value that the option of ``cmd``, the
    invoked subcommand, refuses, or that every option of its name refuses: ``--format``
    takes other choices in other subcommands. ``parsers`` must be every subcommand's."""
    options = {
        parser.prog.split()[-1]: {a.dest: a for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        for parser in parsers
    }
    defaults: dict[str, dict] = {name: {} for name in options}
    for line_no, raw in enumerate(records.read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: line {line_no}: config line is not key=value: {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        dest, text = key.replace("-", "_"), text.strip("'\"")
        named = [name for name, own in options.items() if dest in own]
        if not named:
            raise DataFormatError(f"{path}: line {line_no}: unknown config key {key!r}")
        refused = {}
        for name in named:
            try:
                defaults[name][dest] = _config_value(options[name][dest], key, text)
            except argparse.ArgumentTypeError as exc:
                refused[name] = exc
        why = refused.get(cmd) or (refused[named[0]] if len(refused) == len(named) else None)
        if why is not None:
            raise DataFormatError(f"{path}: line {line_no}: {why}")
    for parser in parsers:
        parser.set_defaults(**defaults[parser.prog.split()[-1]])


def _config_value(option: argparse.Action, key: str, text: str):
    """The value of config line ``key = text``, read as ``option``'s flag reads it: a
    switch takes ``true`` or ``false``, and an option without a ``type`` the text;
    a value outside the option's ``choices`` is refused."""
    if option.nargs == 0:
        if text not in ("true", "false"):
            raise argparse.ArgumentTypeError(f"{key} must be true or false, got {text!r}")
        return text == "true"
    try:
        value = text if option.type is None else option.type(text)
        if option.choices is not None and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {choices})")
        option(None, argparse.Namespace(), value)
        return value
    except (argparse.ArgumentError, argparse.ArgumentTypeError) as exc:
        why = getattr(exc, "message", exc)  # an ArgumentError's text, less the flag it names
    except ValueError:
        why = f"invalid {option.type.__name__} value: {text!r}"
    raise argparse.ArgumentTypeError(f"{key} {why}")


def run(argv: Optional[list[str]] = None) -> int:
    """Parse and execute one subcommand, mapping failures to exit codes."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config, argv = _pop_config(argv)
        cmd = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        # The invoked subcommand's parser alone, unless a config file is to be checked
        # against every option, or usage, --help or an invalid choice lists every one.
        parser, children = build_parser(None if config is not None else cmd)
        if config is not None:
            _apply_config_file(children, config, cmd)
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
    # A subcommand builds large acyclic graphs of records, rows and flags; a
    # cyclic collection during it scans them all and finds only the parser.
    gc_was_enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
