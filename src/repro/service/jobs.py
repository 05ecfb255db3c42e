"""Job lifecycle: states, records, and the thread-safe job store.

A *job* is one accepted :class:`~repro.service.api.ServiceRequest`
moving through ``queued → running → done`` (or ``failed`` /
``cancelled``).  The :class:`JobStore` is the single source of truth
the HTTP handlers, the worker pool, and the shutdown path all consult;
every mutation happens under one lock and signals a per-store
condition so long-polling clients wake immediately on state changes.

Dedup bookkeeping lives here too: the store indexes *active* (queued
or running) and *completed* jobs by their request key, so an identical
submission attaches to the in-flight execution or is answered from the
finished one instead of simulating again.
"""

from __future__ import annotations

import enum
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ServiceError
from repro.service.api import ServiceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult

__all__ = ["JobState", "ServiceJob", "JobStore", "result_row"]


class JobState(enum.Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def result_row(result: "RunResult") -> dict[str, Any]:
    """The JSON row the API returns for one simulation result."""
    return {
        "workload": result.workload,
        "category": result.category,
        "system": result.system,
        "ipc": result.ipc,
        "mpki": result.mpki,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "mispredictions": result.mispredictions,
    }


@dataclass
class ServiceJob:
    """One accepted request and everything that happened to it."""

    job_id: str
    request: ServiceRequest
    client: str
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    results: "list[RunResult] | None" = None
    error: str | None = None
    #: Set by cancel; the worker checks it between simulation jobs.
    cancel_requested: bool = False
    #: How many of the request's jobs the result cache answered.
    cache_hits: int = 0
    #: How many the cache missed and ``Scheduler.run`` was sent to
    #: simulate.
    sim_runs: int = 0

    def snapshot(self, include_results: bool = False) -> dict[str, Any]:
        """JSON-able status view (optionally with result rows)."""
        body: dict[str, Any] = {
            "id": self.job_id,
            "kind": self.request.kind,
            "state": self.state.value,
            "request": self.request.payload,
            "jobs": len(self.request.jobs),
            "cache_hits": self.cache_hits,
            "sim_runs": self.sim_runs,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_results and self.results is not None:
            body["results"] = [result_row(r) for r in self.results]
        return body


class JobStore:
    """Thread-safe registry of every job the server has seen.

    ``max_completed`` bounds memory: terminal jobs beyond the limit are
    evicted oldest-first (their results live on in the persistent
    result cache, so an evicted-then-resubmitted query still costs zero
    simulations).
    """

    def __init__(self, max_completed: int = 512) -> None:
        # Reentrant: holders of ``changed`` may call query methods.
        self._lock = threading.RLock()
        #: Signalled on every state change; long-polls wait on it.
        self.changed = threading.Condition(self._lock)
        self._jobs: dict[str, ServiceJob] = {}
        self._active_by_key: dict[str, str] = {}
        self._completed_by_key: dict[str, str] = {}
        self._completed_order: list[str] = []
        self._max_completed = max_completed

    # ------------------------------------------------------------- #
    # intake / dedup

    def submit(self, request: ServiceRequest, client: str) -> tuple[ServiceJob, str]:
        """Register a request, deduplicating by request key.

        Returns ``(job, disposition)`` where disposition is ``"new"``
        (caller must enqueue the job), ``"inflight"`` (an identical job
        is already queued or running), or ``"completed"`` (an identical
        job already finished successfully).
        """
        with self._lock:
            active_id = self._active_by_key.get(request.key)
            if active_id is not None:
                return self._jobs[active_id], "inflight"
            done_id = self._completed_by_key.get(request.key)
            if done_id is not None:
                done = self._jobs[done_id]
                if done.state is JobState.DONE:
                    return done, "completed"
            job = ServiceJob(
                job_id=uuid.uuid4().hex[:16], request=request, client=client
            )
            self._jobs[job.job_id] = job
            self._active_by_key[request.key] = job.job_id
            self.changed.notify_all()
            return job, "new"

    # ------------------------------------------------------------- #
    # lookups

    def get(self, job_id: str) -> ServiceJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def require(self, job_id: str) -> ServiceJob:
        job = self.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def list_jobs(self) -> list[ServiceJob]:
        """Jobs in submission order (oldest first)."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def counts(self) -> dict[str, int]:
        """Jobs per state (for /healthz and the queue-depth gauge)."""
        with self._lock:
            tally = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                tally[job.state.value] += 1
            return tally

    def queued_jobs(self) -> list[ServiceJob]:
        with self._lock:
            return [
                job for job in self._jobs.values() if job.state is JobState.QUEUED
            ]

    # ------------------------------------------------------------- #
    # transitions (worker / cancel / shutdown paths)

    def mark_running(self, job_id: str) -> ServiceJob:
        with self._lock:
            job = self._jobs[job_id]
            job.state = JobState.RUNNING
            job.started_at = time.time()
            self.changed.notify_all()
            return job

    def finish(
        self,
        job_id: str,
        state: JobState,
        results: "list[RunResult] | None" = None,
        error: str | None = None,
    ) -> ServiceJob:
        """Move a job to a terminal state and reindex dedup maps."""
        if not state.terminal:
            raise ServiceError(f"finish() needs a terminal state, got {state.value}")
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.finished_at = time.time()
            job.results = results
            job.error = error
            key = job.request.key
            if self._active_by_key.get(key) == job_id:
                del self._active_by_key[key]
            if state is JobState.DONE:
                self._completed_by_key[key] = job_id
            self._completed_order.append(job_id)
            self._evict_locked()
            self.changed.notify_all()
            return job

    def request_cancel(self, job_id: str) -> ServiceJob:
        """Cancel a queued job now; flag a running one for the worker.

        Cancelling an already-terminal job is an error (409 upstream).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            if job.state.terminal:
                raise ServiceError(
                    f"job {job_id} already {job.state.value}; cannot cancel"
                )
            job.cancel_requested = True
            self.changed.notify_all()
            return job

    # ------------------------------------------------------------- #
    # waiting

    def wait(self, job_id: str, timeout: float) -> ServiceJob:
        """Block until the job reaches a terminal state or timeout."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ServiceError(f"unknown job id {job_id!r}")
                remaining = deadline - time.monotonic()
                if job.state.terminal or remaining <= 0:
                    return job
                self.changed.wait(remaining)

    # ------------------------------------------------------------- #
    # internals

    def _evict_locked(self) -> None:
        while len(self._completed_order) > self._max_completed:
            victim_id = self._completed_order.pop(0)
            victim = self._jobs.pop(victim_id, None)
            if victim is not None:
                key = victim.request.key
                if self._completed_by_key.get(key) == victim_id:
                    del self._completed_by_key[key]
