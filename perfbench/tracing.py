"""Spans and counts around the calls into each prefaudit layer.

The tracer wraps selected public functions as module attributes, from the
benchmark's side only; no prefaudit source changes. Module-level names are
looked up at call time, so calls between functions of one module and calls
from ``prefaudit.cli`` pass through the wrappers too. Per-record helpers
such as ``score_value`` are left alone: wrapping them would cost more than
the work they do.

Install the wrappers only around traced passes. The end-to-end passes run
with every function restored.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from prefaudit import aggregation, cli, diagnostics, pairing, ratio, records, synth, taxonomy, weighting
from prefaudit.errors import InsufficientSupportError

LAYERS = ("records", "pairing", "diagnostics", "ratio", "aggregation", "weighting", "taxonomy", "cli")
SCALED_LAYERS = ("records", "pairing", "diagnostics", "ratio", "aggregation", "weighting")
SUBCOMMANDS = ("validate", "pairs", "repeats", "classify", "diagnose", "ratio", "simulate", "weights")
INTERMEDIATE_READERS = ("load_flags", "load_profiles", "load_ratio_records", "load_pairs")
READ_SPANS = frozenset(f"cli.{name}" for name in INTERMEDIATE_READERS)


def _count_load(counts, fn, args, kwargs, dataset):
    counts["records.rows_loaded"] += len(dataset.records)
    counts["records.rows_rejected"] += len(dataset.rejected)


def _count_pairs(counts, fn, args, kwargs, pairs):
    counts["pairing.pairs_found"] += len(pairs)


def _count_flags(counts, fn, args, kwargs, result):
    flags, summary = result
    counts["pairing.pairs_evaluated"] += summary.n_evaluated_pairs
    counts["pairing.flags_raised"] += len(flags)


def _count_cells_scored(counts, fn, args, kwargs, ratios):
    counts["ratio.cells_scored"] += len(ratios)


def _count_baseline(counts, fn, args, kwargs, baseline):
    """Computed, not measured: resamples times the history each draw ranks."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    history = a["dataset"].by_annotator.get(a["annotator_id"], [])
    excluded = a["exclude_item_ids"] or ()
    size = sum(1 for r in history if r.item_id not in excluded)
    if size != a["k"]:  # the whole-history shortcut draws nothing
        counts["ratio.baseline_keys"] += a["resamples"] * size


def _count_flips(counts, fn, args, kwargs, report):
    counts["aggregation.prompts_eligible"] += report.n_eligible
    counts["aggregation.prompts_skipped"] += len(report.skipped)
    # computed: one jury draw per iteration, prompt and pool (all, low, high)
    counts["aggregation.jury_draws"] += 3 * report.n_eligible * report.iterations


def _count_export(counts, fn, args, kwargs, summary):
    counts["weighting.records_written"] += summary.n_retained


def _count_labels(counts, fn, args, kwargs, labels):
    counts["taxonomy.labels"] += len(labels)


@dataclass(frozen=True)
class Target:
    """A function to wrap and what to count around it.

    ``counter`` reads a successful call's result; ``calls`` counts every
    call; ``skipped`` counts calls that raised InsufficientSupportError,
    which the caller treats as a cell or dimension below the support floor.
    """

    module: object
    name: str
    counter: Optional[Callable] = None
    calls: Optional[str] = None
    skipped: Optional[str] = None


TARGETS = (
    Target(records, "load_records", _count_load, calls="records.load_calls"),
    Target(records, "load_embeddings"),
    Target(records, "load_metadata"),
    Target(records, "validate"),
    Target(records, "save_records"),
    Target(pairing, "find_similar_pairs", _count_pairs),
    Target(pairing, "repeat_pairs"),
    Target(pairing, "flag_inconsistencies", _count_flags),
    Target(pairing, "filter_ladder"),
    Target(pairing, "repeat_audit"),
    Target(diagnostics, "build_profiles"),
    Target(diagnostics, "build_profile"),
    Target(diagnostics, "temporal_consistency"),
    Target(diagnostics, "framing_consistency"),
    Target(diagnostics, "order_consistency"),
    Target(diagnostics, "cross_item_consistency", calls="diagnostics.cross_item_calls",
           skipped="diagnostics.cross_item_skipped"),
    Target(ratio, "all_ratios", _count_cells_scored),
    Target(ratio, "inconsistency_ratio", calls="ratio.cells_attempted"),
    Target(ratio, "random_baseline", _count_baseline, calls="ratio.random_baseline_calls"),
    Target(ratio, "population_stats"),
    Target(aggregation, "pool_flip_simulation", _count_flips),
    Target(weighting, "build_weights"),
    Target(weighting, "item_reliability_table"),
    Target(weighting, "export_weighted", _count_export),
    Target(taxonomy, "classify_flags", _count_labels),
    Target(taxonomy, "classification_summary"),
    *(Target(cli, name) for name in INTERMEDIATE_READERS),
    Target(synth, "generate"),
)

COUNTS = (
    "records.load_calls", "records.rows_loaded", "records.rows_rejected",
    "pairing.pairs_found", "pairing.pairs_evaluated", "pairing.flags_raised",
    "diagnostics.cross_item_calls", "diagnostics.cross_item_skipped",
    "ratio.random_baseline_calls", "ratio.baseline_keys", "ratio.cells_attempted", "ratio.cells_scored",
    "aggregation.prompts_eligible", "aggregation.prompts_skipped", "aggregation.jury_draws",
    "weighting.records_written", "taxonomy.labels",
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own."""
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, target: Target):
        fn = getattr(target.module, target.name)
        name = f"{_layer(target.module)}.{target.name}"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.calls:
                counts[target.calls] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except InsufficientSupportError:
                if target.skipped:
                    counts[target.skipped] += 1
                raise
            finally:
                self._close(index)
            if target.counter is not None:
                target.counter(counts, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for target in TARGETS:
            self._saved.append((target.module, target.name, getattr(target.module, target.name)))
            setattr(target.module, target.name, self._wrap(target))

    def uninstall(self) -> None:
        while self._saved:
            module, fname, original = self._saved.pop()
            setattr(module, fname, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, float]:
        """Summed duration of the spans of each name."""
        out: dict[str, float] = {}
        for name, start, end, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts for the spans recorded so far."""
        totals = self.totals()
        layer_self: dict[str, float] = {}
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            if name in READ_SPANS:  # reported as cli.intermediate_read_s instead
                continue
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        out = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
        timed = {
            "records.load_s": "records.load_records",
            "records.validate_s": "records.validate",
            "records.save_s": "records.save_records",
            "pairing.find_similar_pairs_s": "pairing.find_similar_pairs",
            "pairing.flag_inconsistencies_s": "pairing.flag_inconsistencies",
            "diagnostics.build_profiles_s": "diagnostics.build_profiles",
            "diagnostics.cross_item_s": "diagnostics.cross_item_consistency",
            "diagnostics.temporal_s": "diagnostics.temporal_consistency",
            "diagnostics.framing_s": "diagnostics.framing_consistency",
            "ratio.all_ratios_s": "ratio.all_ratios",
            "ratio.random_baseline_s": "ratio.random_baseline",
            "aggregation.pool_flip_simulation_s": "aggregation.pool_flip_simulation",
            "weighting.build_weights_s": "weighting.build_weights",
            "weighting.item_reliability_table_s": "weighting.item_reliability_table",
            "weighting.export_weighted_s": "weighting.export_weighted",
            "taxonomy.classify_flags_s": "taxonomy.classify_flags",
            **{f"cli.{sub}_s": f"cli.{sub}" for sub in SUBCOMMANDS},
        }
        out.update({metric: totals.get(span, 0.0) for metric, span in timed.items()})
        out["cli.intermediate_read_s"] = sum(totals.get(name, 0.0) for name in READ_SPANS)
        out.update(self.counts)
        return out


def scaling_exponents(full: dict, quarter: dict, record_ratio: float) -> dict[str, float]:
    """log(t_full / t_quarter) / log(record ratio) of each layer's self time.

    A layer that spends under a millisecond at either size has no meaningful
    exponent and reports 0.
    """
    out = {}
    for layer in SCALED_LAYERS:
        t_full, t_quarter = full[f"{layer}.self_s"], quarter[f"{layer}.self_s"]
        ok = t_full > 1e-3 and t_quarter > 1e-3 and record_ratio > 1.0
        out[f"{layer}.scaling_exponent"] = math.log(t_full / t_quarter) / math.log(record_ratio) if ok else 0.0
    return out
