"""Simulator throughput measurement: the repo's tracked perf baseline.

Model fidelity is checked by the test suite; *throughput* — simulated
branches per second, and how fast a repeated sweep returns — is what
bounds the workload coverage every figure can afford.  This module
measures both on fixed workloads and writes ``BENCH_perf.json`` so each
PR leaves a perf trajectory the next one can be compared against:

* :func:`measure_throughput` — cold single-run branches/sec per system
  (trace pre-decoded, result cache off: pure simulation speed);
* :func:`measure_warm_sweep` — wall-clock of an identical repeated
  :func:`~repro.harness.runner.run_matrix` sweep with the persistent
  result cache enabled (cold fill vs warm reuse);
* :func:`measure_batch` — the columnar batch sweep kernel
  (:mod:`repro.pipeline.batch`) vs the exact scalar engine on a
  16-config table-predictor sizing grid sharing one workload trace.

Entry points: ``repro perf`` (CLI) and ``benchmarks/bench_perf.py``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Sequence

import repro
from repro.errors import ExperimentError
from repro.harness.result_cache import code_fingerprint
from repro.harness.runner import load_trace, run_matrix, run_single
from repro.harness.sampling import SamplingConfig
from repro.harness.scale import Scale
from repro.harness.systems import TABLE3_SYSTEMS, SystemConfig
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import get_workload

__all__ = [
    "ThroughputSample",
    "BATCH_SWEEP_SPECS",
    "DEFAULT_SYSTEMS",
    "SAMPLING_BRANCHES",
    "resolve_systems",
    "measure_throughput",
    "measure_warm_sweep",
    "measure_sampling",
    "measure_batch",
    "run_perf",
]

_RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"
_SCHEMA_VERSION = 4

#: Systems the default perf run covers: the pure-TAGE hot loop, and the
#: paper's headline local-unit configuration (TAGE + loop predictor +
#: forward-walk-coalesce repair), whose per-branch work is the largest.
DEFAULT_SYSTEMS: tuple[str, ...] = ("baseline-tage", "forward-walk-coalesce")

_PERF_WORKLOAD = "hpc-fft"


@dataclass(frozen=True)
class ThroughputSample:
    """Best-of-N cold single-run measurement for one system."""

    system: str
    workload: str
    branches: int
    wall_s: float
    branches_per_s: float


def resolve_systems(names: Sequence[str]) -> list[SystemConfig]:
    """Map system names to their Table 3 configs (ExperimentError on unknown)."""
    by_name = {cfg.name: cfg for cfg in TABLE3_SYSTEMS}
    configs: list[SystemConfig] = []
    for name in names:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise ExperimentError(f"unknown system {name!r}; choose from: {known}")
        configs.append(by_name[name])
    return configs


@contextmanager
def _result_cache_env(value: str) -> Iterator[None]:
    """Temporarily point ``REPRO_RESULT_CACHE`` at ``value``."""
    old = os.environ.get(_RESULT_CACHE_ENV)
    os.environ[_RESULT_CACHE_ENV] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(_RESULT_CACHE_ENV, None)
        else:
            os.environ[_RESULT_CACHE_ENV] = old


def measure_throughput(
    spec: WorkloadSpec,
    systems: Sequence[SystemConfig],
    n_branches: int,
    repeats: int = 3,
) -> list[ThroughputSample]:
    """Cold single-run branches/sec per system (best of ``repeats``).

    "Cold" means no persistent result cache — every repeat simulates
    for real.  The trace is decoded once up front so the number
    isolates the simulation loop, which is what the hot-loop work
    targets.
    """
    load_trace(spec, n_branches)
    samples: list[ThroughputSample] = []
    for system in systems:
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = perf_counter()
            run_single(spec, system, n_branches, use_result_cache=False)
            best = min(best, perf_counter() - t0)
        samples.append(
            ThroughputSample(
                system=system.name,
                workload=spec.name,
                branches=n_branches,
                wall_s=best,
                branches_per_s=n_branches / best if best else 0.0,
            )
        )
    return samples


def measure_warm_sweep(
    spec: WorkloadSpec,
    systems: Sequence[SystemConfig],
    n_branches: int,
    cache_dir: str | Path | None = None,
) -> dict[str, float]:
    """Cold-fill vs warm-reuse wall-clock of one repeated sweep.

    Runs the same sequential :func:`run_matrix` twice against a fresh
    result-cache directory: the first pass simulates and fills the
    cache, the second is served from it.  Returns ``cold_wall_s``,
    ``warm_wall_s`` and their ratio ``speedup``.
    """
    scale = Scale(
        name="perf", branches_per_workload=n_branches, workloads_per_category=1
    )
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        root = Path(cache_dir) if cache_dir is not None else Path(tmp) / "results"
        with _result_cache_env(str(root)):
            t0 = perf_counter()
            run_matrix([spec], systems, scale, workers=1)
            cold = perf_counter() - t0
            t0 = perf_counter()
            run_matrix([spec], systems, scale, workers=1)
            warm = perf_counter() - t0
    return {
        "cold_wall_s": cold,
        "warm_wall_s": warm,
        "speedup": cold / warm if warm else 0.0,
    }


#: Trace length for the sampling benchmark.  Long enough that the
#: sampled engine's fixed costs (proxy pass, warmup windows) amortise
#: to their steady-state share, matching how sampling is used in
#: practice; the acceptance bar (≥5x at 10% coverage, MPKI within 2%,
#: IPC within 1%) is measured at this length.
SAMPLING_BRANCHES = 200_000


def measure_sampling(
    spec: WorkloadSpec,
    systems: Sequence[SystemConfig],
    n_branches: int = SAMPLING_BRANCHES,
    repeats: int = 3,
    config: SamplingConfig | None = None,
) -> dict[str, Any]:
    """Exact vs sampled wall-clock and accuracy per system.

    Runs each system both ways (cold, best of ``repeats``) and reports
    the speedup alongside the sampled estimate's relative MPKI/IPC
    error against the exact run — speed claims about sampling are
    meaningless without the accuracy they were bought at.
    """
    sampling = config if config is not None else SamplingConfig(mode="periodic")
    load_trace(spec, n_branches)
    rows: dict[str, Any] = {}
    for system in systems:
        exact_wall = sampled_wall = float("inf")
        exact = sampled = None
        for _ in range(max(1, repeats)):
            t0 = perf_counter()
            exact = run_single(spec, system, n_branches, use_result_cache=False)
            exact_wall = min(exact_wall, perf_counter() - t0)
            t0 = perf_counter()
            sampled = run_single(
                spec, system, n_branches, use_result_cache=False, sampling=sampling
            )
            sampled_wall = min(sampled_wall, perf_counter() - t0)
        assert exact is not None and sampled is not None
        info = sampled.extra.get("sampling", {})
        rows[system.name] = {
            "exact_wall_s": round(exact_wall, 6),
            "sampled_wall_s": round(sampled_wall, 6),
            "speedup": round(exact_wall / sampled_wall, 3) if sampled_wall else 0.0,
            "exact_branches_per_s": round(n_branches / exact_wall, 1),
            "sampled_branches_per_s": round(n_branches / sampled_wall, 1),
            "mpki_exact": round(exact.mpki, 6),
            "mpki_sampled": round(sampled.mpki, 6),
            "mpki_rel_err": round(sampled.mpki / exact.mpki - 1.0, 6)
            if exact.mpki
            else 0.0,
            "ipc_exact": round(exact.ipc, 6),
            "ipc_sampled": round(sampled.ipc, 6),
            "ipc_rel_err": round(sampled.ipc / exact.ipc - 1.0, 6)
            if exact.ipc
            else 0.0,
            "detailed_fraction": info.get("detailed_fraction"),
            "ci95_mpki": info.get("ci95_mpki"),
            "ci95_ipc": info.get("ci95_ipc"),
        }
    return {
        "workload": spec.name,
        "branches": n_branches,
        "config": dict(sampling.to_payload()),
        "systems": rows,
    }


#: The 16-config grid the batch perf section sweeps: a sizing curve per
#: table-indexed predictor kind (the paper's capacity-sweep shape) plus
#: a few off-grid points so the kernel's per-config state planes are not
#: all the same size.  Every spec shares one workload trace, which is
#: exactly the shape the batch kernel amortises.
BATCH_SWEEP_SPECS: tuple[str, ...] = (
    "bimodal:8",
    "bimodal:10",
    "bimodal:12",
    "bimodal:14",
    "gshare:10:8",
    "gshare:12:10",
    "gshare:14:12",
    "gshare:14:14",
    "local2l:8:6:10",
    "local2l:10:8:12",
    "local2l:12:10:14",
    "local2l:10:12:14",
    "bimodal:13:3",
    "gshare:13:9",
    "local2l:9:7:11",
    "bimodal:9:2",
)


def measure_batch(
    spec: WorkloadSpec,
    n_branches: int,
    config_specs: Sequence[str] = BATCH_SWEEP_SPECS,
    repeats: int = 3,
) -> dict[str, Any]:
    """Batch kernel vs exact scalar engine on one shared-trace sweep.

    Runs the same (1 workload x ``config_specs``) matrix twice — once
    with ``batch=False`` (the exact scalar engine, measured once: it is
    the slow side) and once with ``batch=True`` (best of ``repeats``) —
    and reports the wall-clock ratio together with ``mpki_identical``,
    which asserts the kernel's whole point: identical MPKI and
    misprediction counts, only faster.
    """
    from repro.harness.systems import resolve_system

    systems = [resolve_system(name) for name in config_specs]
    scale = Scale(
        name="perf-batch", branches_per_workload=n_branches, workloads_per_category=1
    )
    load_trace(spec, n_branches)
    t0 = perf_counter()
    scalar = run_matrix(
        [spec], systems, scale, workers=1, use_result_cache=False, batch=False
    )
    scalar_wall = perf_counter() - t0
    batch_wall = float("inf")
    batch = scalar
    for _ in range(max(1, repeats)):
        t0 = perf_counter()
        batch = run_matrix(
            [spec], systems, scale, workers=1, use_result_cache=False, batch=True
        )
        batch_wall = min(batch_wall, perf_counter() - t0)
    identical = all(
        s.mpki == b.mpki and s.mispredictions == b.mispredictions
        for s, b in zip(scalar, batch)
    )
    return {
        "workload": spec.name,
        "branches": n_branches,
        "configs": len(config_specs),
        "specs": list(config_specs),
        "scalar_wall_s": round(scalar_wall, 6),
        "batch_wall_s": round(batch_wall, 6),
        "speedup": round(scalar_wall / batch_wall, 3) if batch_wall else 0.0,
        "scalar_configs_per_s": round(len(config_specs) / scalar_wall, 3)
        if scalar_wall
        else 0.0,
        "batch_configs_per_s": round(len(config_specs) / batch_wall, 3)
        if batch_wall
        else 0.0,
        "mpki_identical": identical,
    }


def run_perf(
    workload: str = _PERF_WORKLOAD,
    branches: int = 30_000,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    repeats: int = 3,
    out: str | Path | None = "BENCH_perf.json",
    sampling_branches: int | None = SAMPLING_BRANCHES,
    batch: bool = True,
) -> dict[str, Any]:
    """Measure throughput + warm-sweep reuse and write ``BENCH_perf.json``.

    Returns the written payload.  ``out=None`` skips the file write
    (used by the CI smoke path's dry invocations and by tests);
    ``sampling_branches=None`` skips the (comparatively slow) sampled
    vs exact section; ``batch=False`` skips the batch-kernel section.
    """
    spec = get_workload(workload)
    configs = resolve_systems(systems)
    samples = measure_throughput(spec, configs, branches, repeats=repeats)
    warm = measure_warm_sweep(spec, configs, branches)
    sampling = (
        measure_sampling(spec, configs, sampling_branches, repeats=repeats)
        if sampling_branches is not None
        else None
    )
    batch_section = measure_batch(spec, branches, repeats=repeats) if batch else None
    throughput = {
        sample.system: {
            "wall_s": round(sample.wall_s, 6),
            "branches_per_s": round(sample.branches_per_s, 1),
        }
        for sample in samples
    }
    payload: dict[str, Any] = {
        "bench": "perf",
        "schema_version": _SCHEMA_VERSION,
        "workload": workload,
        "branches": branches,
        "repeats": repeats,
        "throughput": throughput,
        "warm_sweep": {key: round(value, 6) for key, value in warm.items()},
        "sampling": sampling,
        "batch": batch_section,
        "env": {
            "python": platform.python_version(),
            "platform": f"{sys.platform}-{platform.machine()}",
            "repro_version": repro.__version__,
            "code_fingerprint": code_fingerprint(),
        },
    }
    if out is not None:
        target = Path(out)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        tmp.replace(target)
    return payload
