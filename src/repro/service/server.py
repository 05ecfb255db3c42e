"""``repro serve``: the simulation-as-a-service HTTP server.

Architecture (all stdlib, no new dependencies)::

    client ──HTTP──▶ ThreadingHTTPServer ──▶ admission (rate limit,
                                              backpressure, dedup)
                                                  │ enqueue
                                                  ▼
                                           queue.Queue of job ids
                                                  │
                               worker threads ◀───┘
                                    │
                                    ▼
                 Scheduler.split_cached  ──▶ count cache hits
                 Scheduler.run           ──▶ results (cache, then
                                             inline or pool runs)

The HTTP layer is deliberately thin: every route resolves to a method
on :class:`ReproService`, which owns the job store, the worker pool,
the admission gates, and a private
:class:`~repro.telemetry.registry.MetricsRegistry` exported at
``/metrics`` in Prometheus text format.  The service keeps the global
:data:`~repro.telemetry.TELEMETRY` handle *disabled* on purpose: an
enabled telemetry pipeline turns off the persistent result cache (its
artifacts must come from real runs), and the cache is what lets the
service answer repeat queries with zero re-simulation.

Lifecycle: :meth:`ReproService.start` binds the socket (port 0 picks an
ephemeral port) and spawns workers; :meth:`ReproService.stop` drains —
submissions get 503, in-flight jobs finish, still-queued jobs are
persisted to ``<state_dir>/queue.json`` and resubmitted on the next
start, so a SIGTERM loses nothing.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Empty, Queue
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError, ServiceError
from repro.harness.scheduler import Scheduler
from repro.service.api import parse_request
from repro.service.jobs import JobState, JobStore, ServiceJob
from repro.service.limits import QueueGovernor, RateLimiter
from repro.telemetry.export import prometheus_text
from repro.telemetry.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult

__all__ = ["ServiceConfig", "ReproService", "serve"]

#: Largest accepted request body; simulation submissions are tiny.
_MAX_BODY = 1 << 20

#: Upper bound on ``?wait=`` long-polls and /events streams (seconds).
_MAX_WAIT = 60.0

_EXECUTORS = ("inline", "pool")

_QUEUE_FILE = "queue.json"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (all have sane defaults)."""

    host: str = "127.0.0.1"
    port: int = 8321
    #: Worker threads pulling jobs off the queue.
    workers: int = 2
    #: Max queued-but-not-started jobs before 429 backpressure.
    queue_limit: int = 64
    #: Per-client submissions per second (token-bucket refill rate).
    rate: float = 20.0
    #: Per-client burst allowance.
    burst: int = 40
    #: Where fresh simulations run: ``inline`` in the worker thread, or
    #: ``pool`` on a process pool.
    executor: str = "inline"
    #: Process count for ``executor="pool"`` (None = CPUs - 1); a
    #: one-process pool runs inline.
    pool_workers: int | None = None
    #: Tri-state persistent result cache override (True = on, the
    #: service default: dedup of completed work depends on it).
    use_result_cache: bool | None = True
    #: Where the shutdown path persists the still-queued backlog;
    #: None disables persistence.
    state_dir: str | None = ".repro-cache/service"
    #: Seconds :meth:`ReproService.stop` waits for in-flight work.
    drain_timeout: float = 30.0
    #: Terminal jobs retained in memory for status queries.
    max_completed: int = 512

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.executor not in _EXECUTORS:
            raise ServiceError(
                f"executor must be one of {list(_EXECUTORS)}, got {self.executor!r}"
            )


class ReproService:
    """The service core: store + queue + workers + admission + metrics."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.store = JobStore(max_completed=self.config.max_completed)
        self.scheduler = Scheduler(use_result_cache=self.config.use_result_cache)
        self.registry = MetricsRegistry()
        self.limiter = RateLimiter(rate=self.config.rate, burst=self.config.burst)
        self.governor = QueueGovernor(limit=self.config.queue_limit)
        self._queue: "Queue[str | None]" = Queue()
        self._workers: list[threading.Thread] = []
        self._httpd: _Server | None = None
        self._http_thread: threading.Thread | None = None
        self._draining = False
        self._halted = False
        self._stopped = False
        self.registry.gauge("service.workers").set(self.config.workers)

    # ------------------------------------------------------------- #
    # lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port); port is resolved after :meth:`start`."""
        if self._httpd is None:
            return (self.config.host, self.config.port)
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    def start(self) -> None:
        """Bind the socket, spawn workers, restore a persisted queue."""
        if self._httpd is not None:
            raise ServiceError("service already started")
        self._httpd = _Server((self.config.host, self.config.port), _Handler, self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._http_thread.start()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._restore_queue()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Graceful shutdown: refuse new work, drain, persist leftovers."""
        if self._stopped:
            return
        self._draining = True
        self.registry.gauge("service.draining").set(1)
        limit = self.config.drain_timeout if timeout is None else timeout
        if drain:
            self._await_drain(limit)
        # Past this point workers must not start new jobs — anything
        # still queued belongs to the persisted backlog, not to a
        # worker racing the sentinel.
        self._halted = True
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)
        # Workers are stopped: whatever is still QUEUED now is exactly
        # the backlog a restart must pick up.
        self._persist_queue()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self._stopped = True

    def _await_drain(self, timeout: float) -> None:
        with self.store.changed:
            deadline = _monotonic() + timeout
            while True:
                tally = {state.value: 0 for state in JobState}
                for job in self.store.list_jobs():
                    tally[job.state.value] += 1
                if tally["queued"] == 0 and tally["running"] == 0:
                    return
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    return
                self.store.changed.wait(min(remaining, 0.25))

    # ------------------------------------------------------------- #
    # queue persistence

    def _state_path(self) -> Path | None:
        if self.config.state_dir is None:
            return None
        return Path(self.config.state_dir) / _QUEUE_FILE

    def _persist_queue(self) -> None:
        path = self._state_path()
        if path is None:
            return
        pending = [
            {"client": job.client, "payload": job.request.payload}
            for job in self.store.queued_jobs()
        ]
        if not pending:
            path.unlink(missing_ok=True)
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"version": 1, "jobs": pending}, sort_keys=True))
        tmp.replace(path)
        self.registry.counter("service.queue_persisted").inc(len(pending))

    def _restore_queue(self) -> None:
        path = self._state_path()
        if path is None or not path.exists():
            return
        try:
            payload = json.loads(path.read_text())
            entries = payload.get("jobs", []) if isinstance(payload, dict) else []
        except (OSError, json.JSONDecodeError):
            entries = []
        path.unlink(missing_ok=True)
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            try:
                request = parse_request(entry.get("payload"))
            except ReproError:
                continue  # stale schema or removed workload: drop it
            client = str(entry.get("client", "restored"))
            job, disposition = self.store.submit(request, client)
            if disposition == "new":
                self._enqueue(job)
                self.registry.counter("service.queue_restored").inc()

    # ------------------------------------------------------------- #
    # admission / submission

    def submit(
        self, body: bytes, client: str
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Process one POST /v1/jobs; returns (status, body, headers)."""
        self.registry.counter("service.requests").inc()
        if self._draining:
            return 503, {"error": "server is draining; resubmit later"}, {}
        decision = self.limiter.check(client)
        if not decision.allowed:
            self.registry.counter("service.rate_limited").inc()
            return (
                429,
                {"error": "rate limit exceeded", "retry_after": decision.retry_after},
                {"Retry-After": decision.retry_after_header},
            )
        backlog = self.store.counts()["queued"]
        wall = self.registry.timer("service.job_wall")
        decision = self.governor.check(backlog, wall.mean, self.config.workers)
        if not decision.allowed:
            self.registry.counter("service.backpressure").inc()
            return (
                429,
                {
                    "error": f"queue full ({backlog} jobs waiting)",
                    "retry_after": decision.retry_after,
                },
                {"Retry-After": decision.retry_after_header},
            )
        try:
            request = parse_request(json.loads(body.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}, {}
        except ReproError as exc:
            return 400, {"error": str(exc)}, {}
        job, disposition = self.store.submit(request, client)
        headers = {"Location": f"/v1/jobs/{job.job_id}"}
        if disposition == "inflight":
            self.registry.counter("service.dedup_inflight").inc()
            return 202, {"job": job.snapshot(), "deduplicated": True}, headers
        if disposition == "completed":
            self.registry.counter("service.dedup_completed").inc()
            return 200, {"job": job.snapshot(), "deduplicated": True}, headers
        self.registry.counter("service.submitted").inc()
        self._enqueue(job)
        return 202, {"job": job.snapshot(), "deduplicated": False}, headers

    def _enqueue(self, job: ServiceJob) -> None:
        self._queue.put(job.job_id)
        self._update_depth()

    def _update_depth(self) -> None:
        self.registry.gauge("service.queue_depth").set(
            self.store.counts()["queued"]
        )

    # ------------------------------------------------------------- #
    # execution

    def _pool_workers(self) -> int:
        """Processes for a request's fresh simulations; 1 runs them inline."""
        if self.config.executor == "pool":
            return self.config.pool_workers or max(1, (os.cpu_count() or 2) - 1)
        return 1

    def _worker_loop(self) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=0.5)
            except Empty:
                continue
            if job_id is None:
                return
            if self._halted:
                continue  # leave the job QUEUED for queue persistence
            job = self.store.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue
            if job.cancel_requested:
                self._finish(job_id, JobState.CANCELLED, error="cancelled while queued")
                continue
            self.store.mark_running(job_id)
            self._update_depth()
            self.registry.gauge("service.running").set(
                self.store.counts()["running"]
            )
            if job.started_at is not None:
                self.registry.timer("service.queue_wait").observe(
                    max(0.0, job.started_at - job.submitted_at)
                )
            try:
                with self.registry.timer("service.job_wall"):
                    self._execute(job)
            except ReproError as exc:
                self._finish(job_id, JobState.FAILED, error=str(exc))
            except Exception as exc:  # simlint: ignore[ERR001] -- worker survives any job
                traceback.print_exc(file=sys.stderr)
                self._finish(
                    job_id, JobState.FAILED, error=f"internal error: {exc}"
                )

    def _execute(self, job: ServiceJob) -> None:
        """Run one accepted request: count cache hits, then answer the rest."""
        sim_jobs = list(job.request.jobs)
        hits, misses = self.scheduler.split_cached(sim_jobs)
        job.cache_hits = len(hits)
        self.registry.counter("service.cache_hits").inc(len(hits))
        by_index: "dict[int, RunResult]" = dict(hits)
        miss_indices = [i for i in range(len(sim_jobs)) if i not in hits]
        workers = self._pool_workers()
        if workers == 1:
            # Per-job runs so a cancel lands between simulations.
            for index, sim_job in zip(miss_indices, misses):
                if job.cancel_requested:
                    self._finish(
                        job.job_id,
                        JobState.CANCELLED,
                        error="cancelled while running",
                    )
                    return
                by_index[index] = self.scheduler.run([sim_job])[0]
                job.sim_runs += 1
                self.registry.counter("service.sim_runs").inc()
        elif misses:
            fresh = self.scheduler.run(misses, workers)
            for index, result in zip(miss_indices, fresh):
                by_index[index] = result
            job.sim_runs += len(misses)
            self.registry.counter("service.sim_runs").inc(len(misses))
        if job.cancel_requested:
            self._finish(
                job.job_id, JobState.CANCELLED, error="cancelled while running"
            )
            return
        results = [by_index[i] for i in range(len(sim_jobs))]
        self._finish(job.job_id, JobState.DONE, results=results)

    def _finish(
        self,
        job_id: str,
        state: JobState,
        results: "list[RunResult] | None" = None,
        error: str | None = None,
    ) -> None:
        self.store.finish(job_id, state, results=results, error=error)
        name = {
            JobState.DONE: "service.jobs_done",
            JobState.FAILED: "service.jobs_failed",
            JobState.CANCELLED: "service.jobs_cancelled",
        }[state]
        self.registry.counter(name).inc()
        self._update_depth()
        self.registry.gauge("service.running").set(self.store.counts()["running"])

    # ------------------------------------------------------------- #
    # read-side endpoints

    def metrics_text(self) -> str:
        """Prometheus exposition of the service registry."""
        return prometheus_text(self.registry)

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "jobs": self.store.counts(),
            "workers": self.config.workers,
            "executor": self.config.executor,
        }


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its owning service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        handler: type[BaseHTTPRequestHandler],
        service: ReproService,
    ) -> None:
        super().__init__(address, handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    """Route table for the JSON API (see docs/service.md)."""

    server: _Server

    # ------------------------------------------------------------- #
    # plumbing

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging (metrics cover ops)."""

    def _client(self) -> str:
        return self.headers.get("X-Client-Id") or str(self.client_address[0])

    def _send_json(
        self, status: int, body: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> bytes | None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            self._send_json(413, {"error": f"body over {_MAX_BODY} bytes"})
            return None
        return self.rfile.read(length)

    def _wait_seconds(self, query: dict[str, list[str]]) -> float:
        values = query.get("wait")
        if not values:
            return 0.0
        try:
            return min(_MAX_WAIT, max(0.0, float(values[0])))
        except ValueError:
            return 0.0

    # ------------------------------------------------------------- #
    # routes

    def do_POST(self) -> None:
        path, _ = _split_path(self.path)
        if path == "/v1/jobs":
            body = self._read_body()
            if body is None:
                return
            status, payload, headers = self.server.service.submit(
                body, self._client()
            )
            self._send_json(status, payload, headers)
            return
        self._send_json(404, {"error": f"no such route: POST {path}"})

    def do_GET(self) -> None:
        service = self.server.service
        path, query = _split_path(self.path)
        if path == "/metrics":
            self._send_text(200, service.metrics_text(), "text/plain; version=0.0.4")
            return
        if path == "/healthz":
            self._send_json(200, service.health())
            return
        if path == "/v1/jobs":
            jobs = [job.snapshot() for job in service.store.list_jobs()]
            self._send_json(200, {"jobs": jobs})
            return
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._get_job(parts[2], query)
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            self._get_result(parts[2])
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "events":
            self._stream_events(parts[2])
            return
        self._send_json(404, {"error": f"no such route: GET {path}"})

    def do_DELETE(self) -> None:
        service = self.server.service
        path, _ = _split_path(self.path)
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            job = service.store.get(parts[2])
            if job is None:
                self._send_json(404, {"error": f"unknown job id {parts[2]!r}"})
                return
            try:
                job = service.store.request_cancel(parts[2])
            except ServiceError as exc:
                self._send_json(409, {"error": str(exc)})
                return
            self._send_json(200, {"job": job.snapshot()})
            return
        self._send_json(404, {"error": f"no such route: DELETE {path}"})

    # ------------------------------------------------------------- #
    # job views

    def _get_job(self, job_id: str, query: dict[str, list[str]]) -> None:
        service = self.server.service
        job = service.store.get(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job id {job_id!r}"})
            return
        wait = self._wait_seconds(query)
        if wait > 0 and not job.state.terminal:
            job = service.store.wait(job_id, wait)
        include = query.get("results", ["0"])[0] in ("1", "true") and job.state.terminal
        self._send_json(200, {"job": job.snapshot(include_results=include)})

    def _get_result(self, job_id: str) -> None:
        service = self.server.service
        job = service.store.get(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job id {job_id!r}"})
            return
        if job.state is not JobState.DONE:
            self._send_json(
                409,
                {
                    "error": f"job {job_id} is {job.state.value}, not done",
                    "state": job.state.value,
                    "job_error": job.error,
                },
            )
            return
        self._send_json(200, {"job": job.snapshot(include_results=True)})

    def _stream_events(self, job_id: str) -> None:
        """NDJSON stream of status snapshots until the job is terminal."""
        service = self.server.service
        job = service.store.get(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job id {job_id!r}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        deadline = _monotonic() + _MAX_WAIT
        last: dict[str, Any] | None = None
        try:
            while True:
                snapshot = job.snapshot()
                if snapshot != last:
                    self.wfile.write((json.dumps(snapshot) + "\n").encode("utf-8"))
                    self.wfile.flush()
                    last = snapshot
                if job.state.terminal or _monotonic() >= deadline:
                    return
                job = service.store.wait(job_id, 0.5)
        except OSError:
            return  # client went away mid-stream; nothing to clean up


def _split_path(raw: str) -> tuple[str, dict[str, list[str]]]:
    """Path + parsed query string (tiny urllib.parse wrapper)."""
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(raw)
    return parts.path, parse_qs(parts.query)


def _monotonic() -> float:
    from time import monotonic

    return monotonic()


def serve(config: ServiceConfig | None = None) -> int:
    """Run a service until SIGTERM/SIGINT, then drain and exit.

    This is the blocking entry point behind ``repro serve``; tests
    drive :class:`ReproService` directly instead.
    """
    service = ReproService(config)
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    try:
        service.start()
        host, port = service.address
        print(f"repro serve listening on http://{host}:{port}")
        print("POST /v1/jobs, GET /v1/jobs/<id>, GET /metrics; SIGTERM drains")
        stop.wait()
        print("draining ...")
        service.stop(drain=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("stopped")
    return 0
