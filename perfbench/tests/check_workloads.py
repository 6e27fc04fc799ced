"""Smoke-size runs of every workload through the benchmark's command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("serve-mixed", "batch-ladder", "ingest-rw")


def _run(workload: str, trace: int, seconds: float = 1.0):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_result_shape(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert [name for name, _ in expected] == list(result["metrics"])
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_metric(workload):
    lines, result = _run(workload, trace=1)
    _assert_result_shape(result, layers.PER_LAYER)
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith(workload)}
    for name, unit, _, _ in layers.END_TO_END:
        assert printed[name] == unit
    for name, unit in layers.PER_LAYER:
        assert printed[name] == unit
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if workload == "ingest-rw":
        assert all(
            v == 0 for k, v in metrics.items() if k.startswith(("executor.", "loadgen."))
        )
        assert metrics["flush.count"] > 0
        assert metrics["update.visible_p50_ms"] > 0
    if workload == "batch-ladder":
        assert all(
            v == 0 for k, v in metrics.items() if k.startswith(("cache.", "flush."))
        )
        assert metrics["pairs.per_query"] > 0
    if workload == "serve-mixed":
        assert metrics["cache.lookups"] > 0
        assert metrics["executor.phase_ms_p50"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    _, result = _run("serve-mixed", trace=0)
    _assert_result_shape(result, [(name, unit) for name, unit, _, _ in layers.END_TO_END])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
