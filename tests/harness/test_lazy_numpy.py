"""Exact-engine processes never import NumPy; the batch kernel still does."""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """\
import sys

import repro.cli
import repro.harness
from repro.harness import TABLE3_SYSTEMS, run_matrix, run_single
from repro.harness.scale import Scale
from repro.harness.systems import resolve_system
from repro.workloads.suite import get_workload

spec = get_workload("hpc-fft")
scale = Scale(name="guard", branches_per_workload=600, workloads_per_category=1)
for cache in (True, True, False):
    run_single(spec, TABLE3_SYSTEMS[0], 600, use_result_cache=cache)
    run_matrix([spec], TABLE3_SYSTEMS[:3], scale, workers=1, use_result_cache=cache)
run_matrix([spec], TABLE3_SYSTEMS[:3], scale, workers=2, parallel=True, use_result_cache=False)
assert "numpy" not in sys.modules, "an exact run imported numpy"
[result] = run_matrix([spec], [resolve_system("gshare:12:10")], scale, batch=True)
assert result.manifest["engine"] == "batch"
assert "numpy" in sys.modules, "the batch kernel ran without numpy"
"""


def test_exact_runs_never_import_numpy(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    env["REPRO_RESULT_CACHE"] = str(tmp_path / "results")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
