"""Tests for the persistent result cache (src/repro/harness/result_cache.py)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.harness import result_cache as rc
from repro.harness import scheduler as scheduler_module
from repro.harness.runner import RunResult, _worker_count, run_single
from repro.harness.systems import SystemConfig
from repro.pipeline.config import PipelineConfig
from repro.telemetry import TELEMETRY
from repro.telemetry import manifest as manifest_module

_SYSTEM = SystemConfig(name="baseline-tage", local_entries=None, scheme=None)
_LOCAL = SystemConfig(
    name="forward-walk-coalesce", scheme="forward", ports="32-4-2", coalesce=True
)
_BRANCHES = 1500


@pytest.fixture(autouse=True)
def _cache_env(tmp_path, monkeypatch):
    """Every test gets its own cache dir; traces stay off disk."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))


def _entry_paths() -> list:
    cache = rc.active_cache()
    assert cache is not None
    return sorted(cache.root.glob("*.json"))


class TestCacheHitAndMiss:
    def test_hit_on_identical_rerun(self, tiny_spec):
        first = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        entries = _entry_paths()
        assert len(entries) == 1
        # Poison the stored IPC: a second run must come from the cache,
        # not a re-simulation, to observe the poisoned value.
        payload = json.loads(entries[0].read_text())
        payload["result"]["ipc"] = 123.456
        entries[0].write_text(json.dumps(payload))
        second = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        assert second.ipc == 123.456

    def test_miss_on_system_change(self, tiny_spec):
        run_single(tiny_spec, _SYSTEM, _BRANCHES)
        run_single(tiny_spec, _LOCAL, _BRANCHES)
        assert len(_entry_paths()) == 2

    def test_miss_on_workload_change(self, tiny_spec):
        run_single(tiny_spec, _SYSTEM, _BRANCHES)
        run_single(tiny_spec, _SYSTEM, _BRANCHES + 1)
        reseeded = dataclasses.replace(tiny_spec, seed=tiny_spec.seed + 1)
        run_single(reseeded, _SYSTEM, _BRANCHES)
        assert len(_entry_paths()) == 3

    def test_miss_on_pipeline_change(self, tiny_spec):
        run_single(tiny_spec, _SYSTEM, _BRANCHES)
        run_single(tiny_spec, _SYSTEM, _BRANCHES, pipeline=PipelineConfig(rob_entries=128))
        assert len(_entry_paths()) == 2

    def test_miss_on_code_fingerprint_change(self, tiny_spec, monkeypatch):
        first = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        monkeypatch.setattr(rc, "_FINGERPRINT", "0" * 16)
        second = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        assert len(_entry_paths()) == 2
        assert (first.ipc, first.cycles) == (second.ipc, second.cycles)

    def test_hit_captures_no_environment(self, tiny_spec, monkeypatch):
        first = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        captures = []
        real_capture = manifest_module.capture_env

        def counting_capture():
            captures.append(1)
            return real_capture()

        monkeypatch.setattr(manifest_module, "capture_env", counting_capture)
        monkeypatch.setattr(scheduler_module, "capture_env", counting_capture)
        second = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        assert captures == []
        assert second == first
        assert second.manifest == first.manifest

    def test_corrupt_entry_is_a_miss(self, tiny_spec):
        first = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        entries = _entry_paths()
        entries[0].write_text("{not json")
        second = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        assert (first.ipc, first.cycles) == (second.ipc, second.cycles)


class TestCachedEqualsUncached:
    def test_field_for_field(self, tiny_spec):
        uncached = run_single(tiny_spec, _LOCAL, _BRANCHES, use_result_cache=False)
        run_single(tiny_spec, _LOCAL, _BRANCHES)  # fills the cache
        cached = run_single(tiny_spec, _LOCAL, _BRANCHES)  # served from it
        for field in dataclasses.fields(RunResult):
            if field.name == "manifest":
                continue  # wall_s legitimately differs between runs
            assert getattr(cached, field.name) == getattr(uncached, field.name), (
                field.name
            )
        assert cached.manifest is not None and uncached.manifest is not None
        for key in ("config_hash", "workload_hash", "workload", "system", "branches"):
            assert cached.manifest[key] == uncached.manifest[key]


class TestDisabling:
    def test_disabled_when_telemetry_enabled(self, tiny_spec):
        real = run_single(tiny_spec, _SYSTEM, _BRANCHES)  # fill while disabled
        entries = _entry_paths()
        payload = json.loads(entries[0].read_text())
        payload["result"]["ipc"] = 123.456  # a hit would surface this
        entries[0].write_text(json.dumps(payload))
        was_enabled = TELEMETRY.enabled
        TELEMETRY.enable()
        try:
            assert rc.active_cache() is None
            result = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        finally:
            if not was_enabled:
                TELEMETRY.disable()
        # Simulated for real, neither served from nor stored to the cache.
        assert result.ipc == real.ipc != 123.456
        poisoned = json.loads(entries[0].read_text())
        assert poisoned["result"]["ipc"] == 123.456

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert rc.active_cache() is None

    def test_env_values(self, tmp_path, monkeypatch):
        for value in ("", "0", "off", "none", "false"):
            monkeypatch.setenv("REPRO_RESULT_CACHE", value)
            assert rc.active_cache() is None
        for value in ("1", "on", "true"):
            monkeypatch.setenv("REPRO_RESULT_CACHE", value)
            cache = rc.active_cache()
            assert cache is not None
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "elsewhere"))
        cache = rc.active_cache()
        assert cache is not None and cache.root == tmp_path / "elsewhere"

    def test_explicit_override_beats_env(self, tiny_spec):
        assert rc.active_cache(use_result_cache=False) is None

    def test_explicit_on_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        cache = rc.active_cache(use_result_cache=True)
        assert cache is not None


class TestConcurrentWriters:
    def test_parallel_stores_never_corrupt_an_entry(self, tiny_spec):
        """Regression: concurrent same-key writers must stay atomic.

        Before temp names carried thread ids, two server worker threads
        storing the same entry could collide on one temp file and rename
        a partially rewritten document into place.
        """
        import threading

        result = run_single(tiny_spec, _SYSTEM, _BRANCHES)
        cache = rc.active_cache()
        assert cache is not None and result.manifest is not None
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def writer() -> None:
            try:
                barrier.wait()
                for _ in range(25):
                    cache.store(result)
                    loaded = cache.load(result.manifest)
                    assert loaded is not None, "reader saw a torn entry"
                    assert loaded.cycles == result.cycles
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(_entry_paths()) == 1
        # No temp-file litter: every writer's rename (or cleanup) ran.
        assert list(cache.root.glob("*.tmp")) == []
        reloaded = cache.load(result.manifest)
        assert reloaded is not None and reloaded.ipc == result.ipc


class TestWorkerCountEnv:
    def test_malformed_env_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        with pytest.raises(ConfigError, match="REPRO_WORKERS"):
            _worker_count(4)

    def test_valid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _worker_count(8) == 3
