"""Perf bench: simulator throughput and warm-sweep reuse.

Measures cold single-run branches/sec per system and the wall-clock of
a repeated ``run_matrix`` sweep served by the persistent result cache,
then writes ``BENCH_perf.json`` at the repo root — the tracked perf
trajectory CI uploads as an artifact.

Run standalone (CI perf-smoke job, tiny scale)::

    python benchmarks/bench_perf.py --branches 4000 --repeats 1

or under pytest-benchmark with the rest of this directory::

    REPRO_SCALE=smoke python -m pytest benchmarks/bench_perf.py

The assertions only sanity-check structure (throughput positive, warm
pass faster than cold) — absolute numbers are machine-dependent and
belong in the JSON, not in a gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.perf import DEFAULT_SYSTEMS, SAMPLING_BRANCHES, run_perf

_REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bench_perf(benchmark, scale):
    """pytest-benchmark entry: one full perf measurement at ``scale``.

    Skips the sampled-vs-exact section — its locked accuracy config
    needs a 200k-branch trace, far past any pytest scale tier.  The
    standalone ``main`` below (and ``repro perf``) measure it.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hpc-fft")
    parser.add_argument("--branches", type=int, default=30_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", default=str(_REPO_ROOT / "BENCH_perf.json"), help="report path"
    )
    parser.add_argument(
        "--sampling-branches",
        type=int,
        default=None,
        help="trace length for the sampled-vs-exact section "
        "(default: the locked benchmark length)",
    )
    parser.add_argument(
        "--no-sampling",
        action="store_true",
        help="skip the sampled-vs-exact section (CI smoke scale)",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="skip the batch-kernel-vs-scalar section",
    )
    args = parser.parse_args(argv)
    sampling_branches: int | None
    if args.no_sampling:
        sampling_branches = None
    elif args.sampling_branches is not None:
        sampling_branches = args.sampling_branches
    else:
        sampling_branches = SAMPLING_BRANCHES
    payload = run_perf(
        workload=args.workload,
        branches=args.branches,
        repeats=args.repeats,
        out=args.out,
        sampling_branches=sampling_branches,
        batch=not args.no_batch,
    )
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
