"""Batch-sweep executor: how batch jobs reach the kernel.

The kernel itself (:mod:`repro.pipeline.batch`) is pure — it takes a
columnar trace and predictor specs and returns predictions.  Which jobs
run on it is decided per job by
:func:`~repro.harness.scheduler.select_engine` (a table-indexed
predictor under a ``batch`` request).  :class:`BatchExecutor` is an
:class:`~repro.harness.executors.Executor` wrapper that runs each
workload's batch jobs through the kernel once (one trace
materialisation, one pass) and forwards every other job to its inner
executor unchanged, preserving result order.

Batch results are *functional*: exact predictions, mispredictions and
MPKI, but no pipeline timing — ``ipc`` is 0.0 and ``cycles`` 0, and the
manifest (and therefore the result-cache key) carries ``engine:
"batch"`` so they can never masquerade as exact-timing results.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ConfigError
from repro.harness.executors import Executor, InlineExecutor
from repro.harness.result_cache import active_cache
from repro.harness.systems import table_predictor_spec
from repro.pipeline.batch import DEFAULT_INTERVAL, BatchResult, run_batch
from repro.telemetry import TELEMETRY
from repro.trace.columns import ColumnarTrace, SharedTrace, load_columnar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult
    from repro.harness.scheduler import SimJob

__all__ = ["BatchExecutor"]


class BatchExecutor(Executor):
    """Routes batch jobs through the kernel, the rest inward.

    Batch jobs are grouped by workload trace; each group pays one
    trace materialisation and one kernel pass for *all* its configs,
    with per-job result-cache load/store exactly like the scalar path
    (cached jobs are answered without touching the trace at all).
    Other jobs go to ``inner`` — so one sweep can batch its
    table-predictor sizings while its TAGE rows fan out over the
    process pool, composing with shared-memory traces and sharding.
    """

    def __init__(
        self, inner: Executor | None = None, interval: int = DEFAULT_INTERVAL
    ) -> None:
        self.inner = inner if inner is not None else InlineExecutor()
        self.interval = interval
        # Delegate the scheduler's shm pre-generation decision to the
        # inner executor: batch groups run in this process and read the
        # published segments directly when present.
        self.wants_shared_traces = self.inner.wants_shared_traces

    def execute(self, jobs: "Sequence[SimJob]") -> "list[RunResult]":
        results: "list[RunResult | None]" = [None] * len(jobs)
        groups: "OrderedDict[tuple[str, int, int], list[tuple[int, SimJob]]]" = (
            OrderedDict()
        )
        forwarded: "list[tuple[int, SimJob]]" = []
        for index, job in enumerate(jobs):
            if job.engine.kind == "batch":
                key = (job.spec.name, job.spec.seed, job.n_branches)
                groups.setdefault(key, []).append((index, job))
            else:
                forwarded.append((index, job))
        for group in groups.values():
            group_results = self._run_group([job for _, job in group])
            for (index, _), result in zip(group, group_results):
                results[index] = result
        if forwarded:
            inner_results = self.inner.execute([job for _, job in forwarded])
            for (index, _), result in zip(forwarded, inner_results):
                results[index] = result
        return [result for result in results if result is not None]

    # ------------------------------------------------------------- #
    # one workload group

    def _materialise_trace(self, job: "SimJob") -> ColumnarTrace:
        """The group's trace as columns, cheapest available source.

        Preference order: the scheduler's shared-memory segment (zero
        decode — the kernel copies the two columns it needs before the
        handle closes), the on-disk trace cache via the memoized
        columnar loader, and finally record generation.
        """
        from repro.harness.runner import load_trace, trace_cache_path

        if job.shm_ref is not None:
            name, count = job.shm_ref
            shared = SharedTrace.attach(name, count)
            try:
                # Copy out of the segment: the scheduler unlinks it
                # when execute() returns, results must not dangle.
                return ColumnarTrace(shared.trace().array.copy())
            finally:
                shared.close()
        path = trace_cache_path(job.spec, job.n_branches)
        if path is not None and path.exists():
            return load_columnar(path)
        return ColumnarTrace.from_records(load_trace(job.spec, job.n_branches))

    def _run_group(self, jobs: "list[SimJob]") -> "list[RunResult]":
        """Kernel-evaluate one workload's batch jobs, cache-aware."""
        manifests = [job.manifest() for job in jobs]
        cache = active_cache(jobs[0].use_result_cache)
        results: "dict[int, RunResult]" = {}
        misses: "list[int]" = []
        for index, manifest in enumerate(manifests):
            cached = cache.load(manifest) if cache is not None else None
            if cached is not None:
                results[index] = cached
            else:
                misses.append(index)
        if misses:
            trace = self._materialise_trace(jobs[misses[0]])
            specs = []
            for index in misses:
                spec = table_predictor_spec(jobs[index].system)
                if spec is None:
                    raise ConfigError(
                        f"batch engine needs a table predictor, got "
                        f"{jobs[index].system.name!r}"
                    )
                specs.append(spec)
            t0 = perf_counter()
            batch = run_batch(trace, specs, self.interval)
            wall = perf_counter() - t0
            registry = TELEMETRY.registry
            registry.counter("sched.batch_groups").inc()
            registry.counter("sched.batch_configs").inc(len(misses))
            for lane, index in enumerate(misses):
                result = self._lane_result(jobs[index], manifests[index], batch, lane, wall)
                results[index] = result
                if cache is not None:
                    cache.store(result)
        return [results[index] for index in range(len(jobs))]

    def _lane_result(
        self,
        job: "SimJob",
        manifest: dict[str, Any],
        batch: BatchResult,
        lane: int,
        wall: float,
    ) -> "RunResult":
        """One config's :class:`RunResult` from the group evaluation."""
        from repro.harness.runner import RunResult

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
                    "interval": self.interval,
                    "cond_branches": batch.cond_branches,
                    "taken_branches": batch.taken_branches,
                    "accuracy": batch.accuracy(lane),
                }
            },
            manifest=manifest,
        )
