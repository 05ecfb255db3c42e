"""Batch jobs on the kernel: one pass per workload trace.

The kernel itself (:mod:`repro.pipeline.batch`) is pure — it takes a
columnar trace and predictor specs and returns predictions.  Which jobs
run on it is decided per job by
:func:`~repro.harness.scheduler.select_engine` (a table-indexed
predictor under a ``batch`` request), and
:meth:`~repro.harness.scheduler.Scheduler.run` sends its batch misses
here, in the calling process.  :class:`BatchExecutor` only simulates:
the scheduler checks and fills the result cache.

Batch results are *functional*: exact predictions, mispredictions and
MPKI, but no pipeline timing — ``ipc`` is 0.0 and ``cycles`` 0, and the
manifest (and therefore the result-cache key) carries ``engine:
"batch"`` so they can never masquerade as exact-timing results.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError
from repro.harness.systems import table_predictor_spec
from repro.pipeline.batch import DEFAULT_INTERVAL, BatchResult, run_batch
from repro.telemetry import TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult
    from repro.harness.scheduler import SimJob

__all__ = ["BatchExecutor"]


# A class with an ``execute`` method, not a function: simbench's traced
# run wraps ``BatchExecutor.execute`` by name.
class BatchExecutor:
    """Runs batch jobs through the kernel, one group per workload trace.

    Each group pays one trace materialisation and one kernel pass for
    *all* its configs.
    """

    def execute(self, jobs: "Sequence[SimJob]") -> "list[RunResult]":
        """Every job's result, in job order."""
        groups: "OrderedDict[tuple[str, int, int], list[int]]" = OrderedDict()
        for index, job in enumerate(jobs):
            key = (job.spec.name, job.spec.seed, job.n_branches)
            groups.setdefault(key, []).append(index)
        results: "list[RunResult | None]" = [None] * len(jobs)
        for indices in groups.values():
            group = [jobs[index] for index in indices]
            for index, result in zip(indices, self._run_group(group)):
                results[index] = result
        return [result for result in results if result is not None]

    def _run_group(self, jobs: "list[SimJob]") -> "list[RunResult]":
        """Kernel-evaluate one workload's batch jobs."""
        from repro.harness.runner import load_trace_columns

        specs = []
        for job in jobs:
            spec = table_predictor_spec(job.system)
            if spec is None:
                raise ConfigError(
                    f"batch engine needs a table predictor, got {job.system.name!r}"
                )
            specs.append(spec)
        trace = load_trace_columns(jobs[0].spec, jobs[0].n_branches)
        t0 = perf_counter()
        batch = run_batch(trace, specs)
        wall = perf_counter() - t0
        registry = TELEMETRY.registry
        registry.counter("sched.batch_groups").inc()
        registry.counter("sched.batch_configs").inc(len(jobs))
        return [
            _lane_result(job, batch, lane, wall) for lane, job in enumerate(jobs)
        ]


def _lane_result(
    job: "SimJob", batch: BatchResult, lane: int, wall: float
) -> "RunResult":
    """One config's :class:`RunResult` from the group evaluation."""
    from repro.harness.runner import RunResult

    manifest = job.manifest()
    manifest["wall_s"] = wall / len(batch.specs)
    return RunResult(
        workload=job.spec.name,
        category=job.spec.category,
        system=job.system.name,
        ipc=0.0,
        mpki=batch.mpki(lane),
        instructions=batch.instructions,
        cycles=0,
        mispredictions=batch.mispredictions(lane),
        extra={
            "batch": {
                "engine": "columnar",
                "interval": DEFAULT_INTERVAL,
                "cond_branches": batch.cond_branches,
                "taken_branches": batch.taken_branches,
                "accuracy": batch.accuracy(lane),
            }
        },
        manifest=manifest,
    )
