"""Unit tests for the perf ledger's bit-identity check."""

from dataclasses import replace

from repro.harness.perf import _stats_identical
from repro.harness.runner import RunResult


def _result(**extra: object) -> RunResult:
    return RunResult(
        workload="hpc-fft",
        category="hpc",
        system="forward-walk-coalesce",
        ipc=1.5,
        mpki=2.5,
        instructions=90_000,
        cycles=60_000,
        mispredictions=225,
        extra={"btb_miss_rate": 0.01, "repair": {"events": 40, **extra}},
        manifest={"engine": "exact"},
    )


def test_identical_results_ignore_manifest():
    a = _result()
    b = replace(_result(), manifest={"engine": "specialize-v2"})
    assert _stats_identical(a, b)


def test_results_differing_only_in_repair_counters_are_not_identical():
    assert not _stats_identical(_result(), _result(events=41))
