"""The benchmark's own tests: smoke mode end to end, and the missing-source exit.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_smoke_runs_every_workload_and_stage():
    done = _run(ROOT, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    runs = [json.loads(line)["provenance"] for line in lines[:-1]]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in ("audit-sparse", "jury-dense") for t in (0, 1)
    )
    for run in runs:
        assert run["problems"] == [] and run["git_commit"] and run["nproc"] >= 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "jury-dense", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_restores_every_function():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import TARGETS, Tracer

    before = [getattr(t.module, t.name) for t in TARGETS]
    tracer = Tracer()
    tracer.install()
    assert all(getattr(t.module, t.name) is not f for t, f in zip(TARGETS, before))
    tracer.uninstall()
    assert [getattr(t.module, t.name) for t in TARGETS] == before
