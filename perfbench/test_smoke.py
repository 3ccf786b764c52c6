"""Smoke test of the benchmark itself.

Runs every workload at the tiny input size, untraced and traced, and checks
that each metric declared in BENCHMARK.json is emitted with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracer import Tracer, _span_table, iteration_metrics  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert name in proc.stdout.split("\n{")[0], f"{name} missing from the report"
    if trace:
        assert result["metrics"]["trace.top_coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_ablation_counts_repeated_stage_runs():
    proc = _run("desk_ablation", 1)
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["evaluate.ablation.stage_runs"]["value"] == 16
    assert metrics["evaluate.ablation.distinct_stage_ratio"]["value"] == 11 / 16
    assert metrics["distill.procedures"]["value"] == 19


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("desk_ablation", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = Tracer()
    outer, inner = tracer.intern("outer"), tracer.intern("inner")
    a = tracer.open(outer)
    b = tracer.open(inner)
    tracer.close(b)
    c = tracer.open(inner)
    tracer.close(c)
    tracer.close(a)
    tracer.start[a], tracer.end[a] = 0.0, 10.0
    tracer.start[b], tracer.end[b] = 1.0, 3.0
    tracer.start[c], tracer.end[c] = 4.0, 8.0
    total, selft, calls, top, _, _ = _span_table(tracer, 0, len(tracer))
    assert total[outer] == 10.0 and selft[outer] == 4.0
    assert total[inner] == 6.0 and selft[inner] == 6.0 and calls[inner] == 2
    assert top == 10.0
    assert iteration_metrics(tracer, 0, len(tracer), 10.0)["trace.top_coverage"] == 1.0
