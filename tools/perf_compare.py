#!/usr/bin/env python3
"""Non-gating perf-trajectory comparison for CI.

Compares a freshly measured ``BENCH_perf.json`` against the committed
baseline and prints GitHub workflow-command warnings (``::warning::``)
for every metric that moved past its tolerance.  The exit code is
always 0: shared CI runners are far too noisy for wall-clock numbers
to gate a merge — the annotations exist so a human notices a trend,
not so a flaky runner blocks a PR.

Usage (the CI perf-smoke job)::

    python benchmarks/bench_perf.py --branches 4000 --repeats 1 \
        --out fresh_perf.json --no-sampling
    python tools/perf_compare.py BENCH_perf.json fresh_perf.json

Throughput and warm-sweep ratios are compared whenever both files
carry them; the sampled-vs-exact and batch-kernel sections are compared
only when both files measured them (older baselines predate them, and
the smoke job can skip either with ``--no-sampling`` / ``--no-batch``).
A section present in only one file is skipped with a printed note —
never a KeyError.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

#: Fractional slowdown in branches/sec that earns an annotation.  Wide
#: on purpose: run-to-run noise on shared runners is routinely 15%.
THROUGHPUT_TOLERANCE = 0.25

#: Fractional loss of sampled-engine speedup that earns an annotation.
SPEEDUP_TOLERANCE = 0.25

#: Fractional loss of batch-kernel speedup that earns an annotation.
#: Wider than the others: the denominator is a scalar sweep measured
#: once, so the ratio inherits two runs' worth of runner noise.
BATCH_SPEEDUP_TOLERANCE = 0.40

#: Absolute relative-error ceilings for the sampled estimates — these
#: are accuracy claims, not timings, so they are compared against the
#: documented bounds rather than against the baseline's exact values.
MPKI_ERROR_BOUND = 0.02
IPC_ERROR_BOUND = 0.01


def _load(path: Path) -> dict[str, Any] | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"::warning::perf-compare: cannot read {path}: {exc}")
        return None
    if not isinstance(payload, dict):
        print(f"::warning::perf-compare: {path} is not a perf payload")
        return None
    return payload


def _warn(message: str) -> None:
    print(f"::warning::{message}")


def _sections_present(
    name: str, baseline: dict[str, Any], fresh: dict[str, Any]
) -> bool:
    """Whether both payloads carry section ``name`` as a mapping.

    Absence is normal (older baselines predate newer sections, smoke
    jobs skip slow ones), so it is reported as a plain skip note rather
    than a warning annotation.
    """
    base_section = baseline.get(name)
    fresh_section = fresh.get(name)
    if isinstance(base_section, dict) and isinstance(fresh_section, dict):
        return True
    missing = []
    if not isinstance(base_section, dict):
        missing.append("baseline")
    if not isinstance(fresh_section, dict):
        missing.append("fresh")
    print(
        f"perf-compare: skipping {name!r} section "
        f"(not measured in {' and '.join(missing)})"
    )
    return False


def _compare_throughput(
    baseline: dict[str, Any], fresh: dict[str, Any]
) -> int:
    warned = 0
    base_rows = baseline.get("throughput") or {}
    fresh_rows = fresh.get("throughput") or {}
    for system, base_row in base_rows.items():
        fresh_row = fresh_rows.get(system)
        if not isinstance(base_row, dict) or not isinstance(fresh_row, dict):
            continue
        base_bps = base_row.get("branches_per_s")
        fresh_bps = fresh_row.get("branches_per_s")
        if not base_bps or not fresh_bps:
            continue
        change = fresh_bps / base_bps - 1.0
        if change < -THROUGHPUT_TOLERANCE:
            _warn(
                f"perf-smoke: {system} throughput {fresh_bps:,.0f} branches/s "
                f"is {-change:.0%} below the committed baseline "
                f"({base_bps:,.0f}); noisy runners are expected, a trend "
                "across PRs is not"
            )
            warned += 1
    return warned


def _compare_sampling(baseline: dict[str, Any], fresh: dict[str, Any]) -> int:
    if not _sections_present("sampling", baseline, fresh):
        return 0
    base_section = baseline["sampling"]
    fresh_section = fresh["sampling"]
    warned = 0
    base_rows = base_section.get("systems") or {}
    fresh_rows = fresh_section.get("systems") or {}
    for system, fresh_row in fresh_rows.items():
        if not isinstance(fresh_row, dict):
            continue
        base_row = base_rows.get(system)
        speedup = fresh_row.get("speedup")
        base_speedup = (
            base_row.get("speedup") if isinstance(base_row, dict) else None
        )
        if speedup and base_speedup:
            change = speedup / base_speedup - 1.0
            if change < -SPEEDUP_TOLERANCE:
                _warn(
                    f"perf-smoke: {system} sampled-engine speedup {speedup:.2f}x "
                    f"is {-change:.0%} below the committed baseline "
                    f"({base_speedup:.2f}x)"
                )
                warned += 1
        mpki_err = fresh_row.get("mpki_rel_err")
        if mpki_err is not None and abs(mpki_err) > MPKI_ERROR_BOUND:
            _warn(
                f"perf-smoke: {system} sampled MPKI error {mpki_err:+.2%} "
                f"exceeds the documented ±{MPKI_ERROR_BOUND:.0%} bound"
            )
            warned += 1
        ipc_err = fresh_row.get("ipc_rel_err")
        if ipc_err is not None and abs(ipc_err) > IPC_ERROR_BOUND:
            _warn(
                f"perf-smoke: {system} sampled IPC error {ipc_err:+.2%} "
                f"exceeds the documented ±{IPC_ERROR_BOUND:.0%} bound"
            )
            warned += 1
    return warned


def _compare_batch(baseline: dict[str, Any], fresh: dict[str, Any]) -> int:
    if not _sections_present("batch", baseline, fresh):
        return 0
    base_section = baseline["batch"]
    fresh_section = fresh["batch"]
    warned = 0
    if fresh_section.get("mpki_identical") is False:
        _warn(
            "perf-smoke: batch kernel MPKI diverged from the exact scalar "
            "engine — this is a correctness regression, not noise"
        )
        warned += 1
    speedup = fresh_section.get("speedup")
    base_speedup = base_section.get("speedup")
    if speedup and base_speedup:
        change = speedup / base_speedup - 1.0
        if change < -BATCH_SPEEDUP_TOLERANCE:
            _warn(
                f"perf-smoke: batch-kernel speedup {speedup:.1f}x is "
                f"{-change:.0%} below the committed baseline "
                f"({base_speedup:.1f}x)"
            )
            warned += 1
    return warned


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_perf.json")
    parser.add_argument("fresh", type=Path, help="freshly measured payload")
    args = parser.parse_args(argv)
    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    if baseline is None or fresh is None:
        return 0
    warned = _compare_throughput(baseline, fresh)
    warned += _compare_sampling(baseline, fresh)
    warned += _compare_batch(baseline, fresh)
    if warned:
        print(f"perf-compare: {warned} warning(s) — non-gating, exit 0")
    else:
        print("perf-compare: within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
