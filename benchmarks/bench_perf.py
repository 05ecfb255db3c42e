"""Perf bench: simulator throughput and warm-sweep reuse.

Measures cold single-run branches/sec per system and the wall-clock of
a repeated ``run_matrix`` sweep served by the persistent result cache,
then writes ``BENCH_perf.json`` at the repo root.  Run it under
pytest-benchmark with the rest of this directory::

    REPRO_SCALE=smoke python -m pytest benchmarks/bench_perf.py

The command-line entry is ``repro perf`` (CI perf-smoke runs
``repro perf --branches 4000 --repeats 1 --no-sampling``).

The assertions only sanity-check structure (throughput positive, warm
pass faster than cold) — absolute numbers are machine-dependent and
belong in the JSON, not in a gate.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.perf import DEFAULT_SYSTEMS, run_perf

_REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bench_perf(benchmark, scale):
    """pytest-benchmark entry: one full perf measurement at ``scale``.

    Skips the sampled-vs-exact section — its locked accuracy config
    needs a 200k-branch trace, far past any pytest scale tier.
    ``repro perf`` measures it.
    """
    payload = benchmark.pedantic(
        run_perf,
        kwargs={
            "branches": scale.branches_per_workload,
            "repeats": 1,
            "out": _REPO_ROOT / "BENCH_perf.json",
            "sampling_branches": None,
        },
        iterations=1,
        rounds=1,
    )
    print()
    for name, row in payload["throughput"].items():
        print(f"{name:24s} {row['branches_per_s']:>12,.0f} branches/s")
    warm = payload["warm_sweep"]
    print(f"warm sweep speedup: {warm['speedup']:.0f}x")
    batch = payload["batch"]
    print(f"batch kernel speedup: {batch['speedup']:.1f}x")
    assert set(payload["throughput"]) == set(DEFAULT_SYSTEMS)
    assert all(row["branches_per_s"] > 0 for row in payload["throughput"].values())
    assert warm["warm_wall_s"] < warm["cold_wall_s"]
    assert batch["mpki_identical"], "batch kernel diverged from the exact engine"

