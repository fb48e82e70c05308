"""Self-test of the benchmark at tiny sizes; it sets no wall-clock bounds.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inproc  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

# Every workload in jobs.py, including any that BENCHMARK.json leaves out.
WORKLOAD_NAMES = list(WORKLOADS)


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_every_metric_and_no_failure(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def _tamper(obj, kind):
    if isinstance(obj, kind):
        return (not obj) if kind is bool else obj * (1 + 1e-6) + 1e-6
    if isinstance(obj, list):
        return [_tamper(x, kind) for x in obj]
    if isinstance(obj, dict):
        return {k: _tamper(v, kind) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_check_accepts_the_output_and_rejects_a_changed_one(workload, tmp_path,
                                                                  monkeypatch):
    jobs = WORKLOADS[workload](np.random.default_rng(5), tmp_path, True)
    monkeypatch.chdir(tmp_path)
    for job in jobs:
        code, out = inproc.run_job({"kind": job.kind, "argv": job.argv})
        assert job.check(code, out) is None, job.name
        assert job.check(code + 1, out) is not None, job.name
        if code == 0:
            changed = _tamper(json.loads(out), bool if job.name.startswith("verify-") else float)
            assert job.check(code, json.dumps(changed)) is not None, job.name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
