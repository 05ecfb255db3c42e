"""End-to-end tests against a real in-process server on an ephemeral port.

Two server flavours:

* ``live`` — real simulations (tiny branch counts) with a private
  result-cache directory, for the submit/poll/fetch/dedup paths;
* ``gated`` — job execution replaced by an event-gated stub, so tests
  control exactly when "work" finishes (backpressure, cancel, drain).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.harness.executors import ProcessPoolExecutorBackend
from repro.service.api import parse_request
from repro.service.jobs import JobState
from repro.service.server import ReproService, ServiceConfig

_RUN = {"kind": "run", "workload": "hpc-fft", "branches": 1500}


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))


def _post(base, payload, client="tests"):
    req = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"X-Client-Id": client},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}"), dict(exc.headers)


def _get(base, path):
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


def _delete(base, path):
    req = urllib.request.Request(f"{base}{path}", method="DELETE")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


@pytest.fixture
def live(tmp_path):
    service = ReproService(
        ServiceConfig(port=0, workers=2, state_dir=str(tmp_path / "state"))
    )
    service.start()
    host, port = service.address
    yield service, f"http://{host}:{port}"
    service.stop(drain=False, timeout=0.0)


@pytest.fixture
def gated(tmp_path, monkeypatch):
    """A server whose job execution blocks until the test releases it."""
    gate = threading.Event()

    def fake_execute(self: ReproService, job) -> None:
        assert gate.wait(timeout=30), "test never released the gate"
        self._finish(job.job_id, JobState.DONE, results=[])

    monkeypatch.setattr(ReproService, "_execute", fake_execute)
    service = ReproService(
        ServiceConfig(
            port=0,
            workers=1,
            queue_limit=1,
            state_dir=str(tmp_path / "state"),
            drain_timeout=5.0,
        )
    )
    service.start()
    host, port = service.address
    yield service, f"http://{host}:{port}", gate
    gate.set()
    service.stop(drain=False, timeout=0.0)


def _wait_state(base, job_id, *states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = _get(base, f"/v1/jobs/{job_id}?wait=2")
        if body["job"]["state"] in states:
            return body["job"]
    raise AssertionError(f"job {job_id} never reached {states}")


class TestSubmitPollFetch:
    def test_full_round_trip(self, live):
        _, base = live
        status, body, headers = _post(base, _RUN)
        assert status == 202 and not body["deduplicated"]
        job_id = body["job"]["id"]
        assert headers["Location"].endswith(job_id)

        job = _wait_state(base, job_id, "done")
        assert job["cache_hits"] == 0 and job["sim_runs"] == 1

        status, body = _get(base, f"/v1/jobs/{job_id}/result")
        assert status == 200
        rows = body["job"]["results"]
        assert len(rows) == 1
        assert rows[0]["system"] == "forward-walk-coalesce"
        assert rows[0]["ipc"] > 0 and rows[0]["cycles"] > 0

    def test_compare_returns_one_row_per_system(self, live):
        _, base = live
        payload = {
            "kind": "compare",
            "workload": "hpc-fft",
            "branches": 1200,
            "systems": ["baseline-tage", "no-repair"],
        }
        _, body, _ = _post(base, payload)
        job_id = body["job"]["id"]
        _wait_state(base, job_id, "done")
        _, body = _get(base, f"/v1/jobs/{job_id}/result")
        assert [r["system"] for r in body["job"]["results"]] == [
            "baseline-tage",
            "no-repair",
        ]

    def test_job_listing(self, live):
        _, base = live
        _, body, _ = _post(base, _RUN)
        status, listing = _get(base, "/v1/jobs")
        assert status == 200
        assert body["job"]["id"] in [job["id"] for job in listing["jobs"]]

    def test_validation_error_maps_to_400(self, live):
        _, base = live
        status, body, _ = _post(base, {"kind": "run", "workload": "no-such"})
        assert status == 400 and "unknown workload" in body["error"]

    def test_malformed_json_maps_to_400(self, live):
        _, base = live
        req = urllib.request.Request(
            f"{base}/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_unknown_job_and_route_are_404(self, live):
        _, base = live
        assert _get(base, "/v1/jobs/ffffffffffffffff")[0] == 404
        assert _get(base, "/v1/nothing")[0] == 404

    def test_result_of_unfinished_job_is_409(self, gated):
        _, base, _gate = gated
        _, body, _ = _post(base, _RUN)
        status, body = _get(base, f"/v1/jobs/{body['job']['id']}/result")
        assert status == 409 and body["state"] in ("queued", "running")

    def test_healthz(self, live):
        _, base = live
        status, body = _get(base, "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["workers"] == 2

    def test_events_stream_ends_with_terminal_state(self, live):
        _, base = live
        _, body, _ = _post(base, _RUN)
        job_id = body["job"]["id"]
        _wait_state(base, job_id, "done")
        with urllib.request.urlopen(
            f"{base}/v1/jobs/{job_id}/events", timeout=30
        ) as resp:
            lines = [json.loads(line) for line in resp.read().splitlines()]
        assert lines and lines[-1]["state"] == "done"


class TestDedup:
    def test_concurrent_identical_submissions_run_once(self, live):
        service, base = live
        results = []
        barrier = threading.Barrier(8)

        def submit() -> None:
            barrier.wait()
            results.append(_post(base, _RUN, client=threading.current_thread().name))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        job_ids = {body["job"]["id"] for _, body, _ in results}
        assert len(job_ids) == 1, "identical submissions must share one job"
        deduplicated = [body["deduplicated"] for _, body, _ in results]
        assert deduplicated.count(False) == 1 and deduplicated.count(True) == 7

        job = _wait_state(base, job_ids.pop(), "done")
        assert job["sim_runs"] == 1  # exactly one simulation happened
        assert service.registry.counter("service.submitted").value == 1
        assert service.registry.counter("service.dedup_inflight").value >= 1

    def test_warm_resubmission_served_without_simulation(self, live):
        service, base = live
        _, body, _ = _post(base, _RUN)
        first_id = body["job"]["id"]
        _wait_state(base, first_id, "done")

        status, body, _ = _post(base, _RUN)
        assert status == 200 and body["deduplicated"]
        assert body["job"]["id"] == first_id
        assert service.registry.counter("service.dedup_completed").value == 1
        assert service.registry.counter("service.sim_runs").value == 1

    def test_result_cache_answers_after_store_eviction(self, live):
        service, base = live
        _, body, _ = _post(base, _RUN)
        job_id = body["job"]["id"]
        _wait_state(base, job_id, "done")
        # Drop the completed job from the in-memory store: the service
        # must fall back to the persistent result cache, not re-simulate.
        with service.store._lock:
            service.store._jobs.pop(job_id)
            service.store._completed_by_key.clear()
            service.store._completed_order.clear()
        _, body, _ = _post(base, _RUN)
        job = _wait_state(base, body["job"]["id"], "done")
        assert job["cache_hits"] == 1 and job["sim_runs"] == 0


_SWEEP = {
    "kind": "sweep",
    "branches": 500,
    "per_category": 1,
    "systems": ["baseline-tage", "no-repair"],
}


class TestPoolExecutor:
    def test_chunks_hold_one_workloads_systems(self):
        """A pool worker runs all systems of a workload: one trace load each."""
        service = ReproService(
            ServiceConfig(executor="pool", pool_workers=2, state_dir=None)
        )
        jobs = parse_request(_SWEEP).jobs
        executor = service._build_executor(jobs)
        assert isinstance(executor, ProcessPoolExecutorBackend)
        assert (executor.workers, executor.chunksize) == (2, 2)

    def test_pool_sweep_matches_inline(self):
        rows = {}
        for executor in ("inline", "pool"):
            service = ReproService(
                ServiceConfig(
                    port=0,
                    executor=executor,
                    pool_workers=2,
                    use_result_cache=False,
                    state_dir=None,
                )
            )
            service.start()
            try:
                host, port = service.address
                base = f"http://{host}:{port}"
                _, body, _ = _post(base, _SWEEP)
                job_id = body["job"]["id"]
                _wait_state(base, job_id, "done", timeout=120.0)
                _, body = _get(base, f"/v1/jobs/{job_id}/result")
                rows[executor] = body["job"]["results"]
            finally:
                service.stop(drain=False, timeout=0.0)
        assert len(rows["pool"]) == 14
        assert rows["pool"] == rows["inline"]


class TestAdmission:
    def test_sharded_executor_rejected(self):
        with pytest.raises(ServiceError, match="executor"):
            ServiceConfig(executor="sharded")

    def test_rate_limit_429_with_retry_after(self, tmp_path):
        service = ReproService(
            ServiceConfig(port=0, workers=1, rate=0.001, burst=2, state_dir=None)
        )
        service.start()
        try:
            host, port = service.address
            base = f"http://{host}:{port}"
            assert _post(base, _RUN, client="hog")[0] in (200, 202)
            assert _post(base, _RUN, client="hog")[0] in (200, 202)
            status, body, headers = _post(base, _RUN, client="hog")
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after"] > 0
            assert service.registry.counter("service.rate_limited").value == 1
            # Other clients have their own bucket.
            assert _post(base, _RUN, client="polite")[0] in (200, 202)
        finally:
            service.stop(drain=False, timeout=0.0)

    def test_queue_backpressure_429(self, gated):
        service, base, gate = gated
        _, body, _ = _post(base, _RUN)
        running_id = body["job"]["id"]
        _wait_state(base, running_id, "running")
        queued = dict(_RUN, branches=1501)
        assert _post(base, queued)[0] == 202  # depth 1 == limit boundary
        status, body, headers = _post(base, dict(_RUN, branches=1502))
        assert status == 429 and "queue full" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        assert service.registry.counter("service.backpressure").value == 1
        gate.set()
        _wait_state(base, running_id, "done")


class TestCancel:
    def test_cancel_queued_job(self, gated):
        _, base, gate = gated
        _, body, _ = _post(base, _RUN)
        running_id = body["job"]["id"]
        _wait_state(base, running_id, "running")
        _, body, _ = _post(base, dict(_RUN, branches=1501))
        queued_id = body["job"]["id"]

        status, _ = _delete(base, f"/v1/jobs/{queued_id}")
        assert status == 200
        gate.set()
        job = _wait_state(base, queued_id, "cancelled")
        assert "cancelled" in job["error"]

    def test_cancel_finished_job_is_409(self, gated):
        _, base, gate = gated
        _, body, _ = _post(base, _RUN)
        gate.set()
        job_id = body["job"]["id"]
        _wait_state(base, job_id, "done")
        status, body = _delete(base, f"/v1/jobs/{job_id}")
        assert status == 409 and "cannot cancel" in body["error"]

    def test_cancel_unknown_job_is_404(self, live):
        _, base = live
        assert _delete(base, "/v1/jobs/ffffffffffffffff")[0] == 404


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, live):
        _, base = live
        _, body, _ = _post(base, _RUN)
        _wait_state(base, body["job"]["id"], "done")
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
            text = resp.read().decode()
        assert "# TYPE repro_service_submitted counter" in text
        assert "repro_service_submitted_total 1" in text
        assert "repro_service_queue_depth 0" in text
        assert "repro_service_job_wall_seconds_count 1" in text


class TestShutdown:
    def test_drain_finishes_inflight_work(self, live):
        service, base = live
        ids = []
        for i in range(4):
            _, body, _ = _post(base, dict(_RUN, branches=1500 + i))
            ids.append(body["job"]["id"])
        service.stop(drain=True, timeout=60.0)
        for job_id in ids:
            job = service.store.require(job_id)
            assert job.state is JobState.DONE
            assert job.results is not None

    def test_draining_server_refuses_submissions(self, live):
        service, base = live
        service._draining = True
        status, body, _ = _post(base, _RUN)
        assert status == 503 and "draining" in body["error"]

    def test_queue_persists_and_restores(self, gated, tmp_path, monkeypatch):
        service, base, gate = gated
        _, body, _ = _post(base, _RUN)
        running_id = body["job"]["id"]
        _wait_state(base, running_id, "running")
        _, body, _ = _post(base, dict(_RUN, branches=1501))
        queued_id = body["job"]["id"]

        # Drain times out (the gate is closed), the running job is
        # released late, and the still-queued job must hit disk.
        stopper = threading.Thread(
            target=service.stop, kwargs={"drain": True, "timeout": 0.2}
        )
        stopper.start()
        time.sleep(0.5)
        gate.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        state_file = tmp_path / "state" / "queue.json"
        assert state_file.exists()
        persisted = json.loads(state_file.read_text())
        assert [j["payload"]["branches"] for j in persisted["jobs"]] == [1501]

        restored = ReproService(
            ServiceConfig(port=0, workers=1, state_dir=str(tmp_path / "state"))
        )
        restored.start()
        try:
            assert not state_file.exists()
            jobs = restored.store.list_jobs()
            assert len(jobs) == 1
            host, port = restored.address
            job = _wait_state(
                f"http://{host}:{port}", jobs[0].job_id, "done"
            )
            assert job["request"]["branches"] == 1501
        finally:
            restored.stop(drain=False, timeout=0.0)
        assert queued_id  # silence unused warning; ids differ after restore
