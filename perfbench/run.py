"""prefaudit benchmark: seeded corpora through the real CLI, end to end and per layer.

    python3 perfbench/run.py --workload audit-sparse --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Load model: a closed loop with one caller and no threads of its own. Set-up
writes the corpus, then passes of the workload's stage sequence run one
after another, with set-up repeated between them, until ``--seconds`` of
wall time have gone by; the pass under way is finished. Each pass runs in a
fresh process, since the command line starts one per stage: a long-lived
process reuses the heap pages of its earlier passes and ran later passes
20-25% faster with about a million fewer page faults, a saving no
command-line user gets. A fresh process also keeps set-up out of the peak
resident memory of the process that runs the timed pass.

``pipeline_s`` is the upper quartile of the run's pass times, not their
median. On a shared host the whole machine runs about 30% faster for
stretches of 15-60 s at a time; a median flips to the fast phase whenever
half of a run falls in one, while the upper quartile moves only when three
quarters of it do. A slower program moves every quartile alike.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, adds one traced pass over a quarter-size corpus
for the scaling exponents, and prints the per-layer metrics. The last line
of standard output is the result object; the line before it says where the
numbers came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("audit-sparse", "jury-dense")
BLAS_THREADS = str(os.cpu_count() or 1)
SETUP_REPS = 3
PASS_TIMEOUT_S = 120

# Cap numpy/BLAS threads before numpy is first imported; pass processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # a plain source tree, not a git checkout


def one_pass(workload: str, corpus: Path, spans: Optional[Path]) -> dict:
    """One pass in this process; traced when ``spans`` names a file for the spans."""
    from workloads import run_pass

    tracer = None
    if spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run_pass(workload, corpus, tracer.call if tracer else None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "seconds": result.seconds,
        "stage_s": result.stage_s,
        "exit_codes": result.exit_codes,
        "digests": result.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.write(spans)
        out["layers"] = tracer.layer_metrics()
    return out


def _spawn_pass(workload: str, corpus: Path, spans: Optional[Path] = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--one-pass", str(corpus)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"pass process for {workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup(workload: str, scale: str, seed: int, corpus: Path) -> tuple[dict, float]:
    """Write the corpus once; return what its outputs should hold and the time it took."""
    import corpora

    start = time.perf_counter()
    expected = corpora.build(workload, scale, seed, corpus)
    return expected, time.perf_counter() - start


def _stage_failures(passes: list[dict], problems: list) -> int:
    """Failed stage calls: nonzero exit, escaped exception, changed bytes, failed check."""
    reference = passes[0]["digests"]
    failed = 0
    for result in passes:
        for code, digest, ref, problem in zip(result["exit_codes"], result["digests"], reference, problems):
            failed += code != 0 or digest != ref or problem is not None
    return failed


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("scaling_exponent"):
        return "exponent"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, work: Path) -> tuple[dict, dict]:
    from workloads import RECOVERY, STAGES, Context, check_outputs

    corpus = work / scale
    if trace:
        from tracing import Tracer

        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            expected, setup_s = _setup(workload, scale, seed, corpus)
        finally:
            setup_tracer.uninstall()
        setup_tracer.write(WORK / f"spans-{workload}-s{seed}-setup.jsonl")
        quarter = work / ("smoke" if scale == "smoke" else "quarter")
        quarter_expected, _ = _setup(workload, quarter.name, seed, quarter)
    else:
        expected, setup_s = _setup(workload, scale, seed, corpus)
    setup_times = [setup_s]

    # Set-up is repeated between passes rather than back to back, so its
    # median samples the host over the whole run, as the passes do.
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        passes.append(_spawn_pass(workload, corpus))
        if trace:
            traced.append(_spawn_pass(workload, corpus, WORK / f"spans-{workload}-s{seed}-{len(traced)}.jsonl"))
            passes.append(traced[-1])
        if time.perf_counter() - start >= seconds:
            break
        if not trace:
            setup_times.append(_setup(workload, scale, seed, corpus)[1])
    while not trace and len(setup_times) < SETUP_REPS:
        setup_times.append(_setup(workload, scale, seed, corpus)[1])
    if trace:
        quarter_pass = _spawn_pass(workload, quarter, WORK / f"spans-{workload}-s{seed}-quarter.jsonl")

    ctx = Context(corpus, expected)
    problems = check_outputs(workload, ctx)
    attempted = len(passes) * len(STAGES[workload])
    failed = _stage_failures(passes, problems)
    info = {
        "workload": workload, "seed": seed, "scale": scale, "trace": int(trace),
        "pass_s": [round(p["seconds"], 4) for p in passes],
        "stage_s": [[round(t, 4) for t in p["stage_s"]] for p in passes],
        "setup_s": [round(t, 4) for t in setup_times],
        "n_records": expected["n_records"], "n_items": expected["n_items"],
        "n_annotators": expected["n_annotators"], "problems": [p for p in problems if p],
    }
    if not trace:
        metrics = {
            "pipeline_s": _metric(_upper_quartile([p["seconds"] for p in passes]), "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(max(p["peak_rss_mb"] for p in passes), "MB"),
            "stage_success_rate": _metric((attempted - failed) / attempted, "ratio"),
            "recovery_accuracy": _metric(RECOVERY[workload](ctx) if failed == 0 else 0.0, "ratio"),
        }
    else:
        from tracing import scaling_exponents

        layers = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        record_ratio = expected["n_records"] / quarter_expected["n_records"]
        layers.update(scaling_exponents(layers, quarter_pass["layers"], record_ratio))
        # set-up is traced on its own: the passes neither generate nor save a corpus
        setup_totals = setup_tracer.totals()
        layers["synth.generate_s"] = setup_totals.get("synth.generate", 0.0)
        layers["records.save_s"] = setup_totals.get("records.save_records", 0.0)
        layers["trace.overhead_s"] = (statistics.median(p["seconds"] for p in traced)
                                      - statistics.median(p["seconds"] for p in passes[0::2]))
        metrics = {key: _metric(value, _unit(key)) for key, value in sorted(layers.items())}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, info


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, untraced and traced, on tiny corpora")
    parser.add_argument("--one-pass", type=Path, metavar="CORPUS", help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "prefaudit" / "__init__.py").is_file():
        print(f"error: prefaudit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # corpora, workloads and tracing import prefaudit, so they are imported
    # inside the functions below, once src/ is on the path
    sys.path.insert(0, str(ROOT / "src"))

    if args.one_pass is not None:
        print(json.dumps(one_pass(args.workload, args.one_pass, args.spans)))
        return 0

    WORK.mkdir(exist_ok=True)
    runs = [(w, t) for w in WORKLOADS for t in (False, True)] if args.smoke else [(args.workload, bool(args.trace))]
    results = []
    for workload, trace in runs:
        work = WORK / f"{workload}-s{args.seed}-p{os.getpid()}"
        try:
            result, info = run_workload(workload, args.seed, 0.0 if args.smoke else args.seconds, trace,
                                        "smoke" if args.smoke else "full", work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"provenance": {**provenance(), **info}}, sort_keys=True))
        results.append(result)
    if args.smoke:
        results = [{
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }]
    print(json.dumps(results[0]))
    return 0 if results[0]["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
