"""Pluggable sweep executors: where scheduled jobs actually run.

The :class:`~repro.harness.scheduler.Scheduler` plans *what* to
simulate (a list of :class:`~repro.harness.scheduler.SimJob`); an
executor decides *where*.  Two strategies ship:

* :class:`InlineExecutor` — sequential, in this process.  Identical to
  a hand-written ``run_single`` loop: same trace memoization, same
  result-cache behaviour, bit-identical outputs.  The CLI's small runs
  and the service's default worker path use this.
* :class:`ProcessPoolExecutorBackend` — fan-out across local worker
  processes.  Jobs carry optional shared-memory trace refs published by
  the scheduler so workers do zero trace decodes (see
  :mod:`repro.trace.columns`).

Executors are deliberately dumb: no cache checks, no trace
pre-generation, no telemetry policy — the scheduler owns all of that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult
    from repro.harness.scheduler import SimJob

__all__ = ["Executor", "InlineExecutor", "ProcessPoolExecutorBackend"]


class Executor(ABC):
    """One strategy for executing a planned list of jobs, in order."""

    #: Whether the scheduler should pre-generate traces and publish
    #: them to shared memory before calling :meth:`execute`.  Only the
    #: local process pool benefits; inline runs memoize in-process.
    wants_shared_traces: bool = False

    @abstractmethod
    def execute(self, jobs: "Sequence[SimJob]") -> "list[RunResult]":
        """Run every job, returning results in job order."""


class InlineExecutor(Executor):
    """Sequential execution in the calling process."""

    def execute(self, jobs: "Sequence[SimJob]") -> "list[RunResult]":
        from repro.harness.scheduler import execute_job

        return [execute_job(job) for job in jobs]


class ProcessPoolExecutorBackend(Executor):
    """Local multi-process fan-out over a :class:`ProcessPoolExecutor`.

    ``chunksize`` groups consecutive jobs onto one worker; the
    scheduler sizes it so a single worker handles all systems of a
    workload back to back and its trace memo pays one decode per trace.
    """

    wants_shared_traces = True

    def __init__(self, workers: int, chunksize: int = 1) -> None:
        self.workers = max(1, workers)
        self.chunksize = max(1, chunksize)

    def execute(self, jobs: "Sequence[SimJob]") -> "list[RunResult]":
        # Imported here: single runs reach this module through the
        # scheduler and should not pay for the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        from repro.harness.scheduler import execute_job

        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(execute_job, jobs, chunksize=self.chunksize))

