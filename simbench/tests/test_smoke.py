"""Smoke tests of ``simbench/run.py``, seconds each on short traces.

Run from the repository root with ``python3 -m pytest simbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_bench(
    workload: str, trace: int, *extra: str, cwd: Path = ROOT
) -> tuple[subprocess.CompletedProcess[str], dict[str, Any] | None]:
    command = [
        sys.executable, "simbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--profile", "smoke", *extra,
    ]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert result is not None
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values()), values
        return
    assert values["harness.cache_hit_ratio"] == 1.0
    has_unit = workload == "table3-repair"
    assert (values["core.share"] > 0) == has_unit
    assert (values["core.repair.share"] > 0) == has_unit
    batch = workload == "sizing-sweep"
    assert (values["pipeline.batch.share"] > 0) == batch
    assert (values["workloads.share"] > 0) == batch
    assert (values["predictors.share"] > 0) == (not batch)


def test_corrupted_golden_counts_failed_jobs(tmp_path: Path) -> None:
    golden = json.loads((BENCH / "golden.json").read_text())
    golden["smoke"]["table3-repair"][3]["mispredictions"] += 1
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    proc, result = run_bench("table3-repair", 0, "--golden", str(corrupted))
    assert proc.returncode == 1
    assert result is not None and result["correct"] is False
    # The corrupted job fails in every simulating and cached pass.
    assert result["failed"] >= 2
    assert result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "simbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("tage-steady", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
