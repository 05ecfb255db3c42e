"""Unit tests for sweep sharding, stale-tmp sweeping, pool-sweep trace
loading, and corrupt trace-cache repair."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.harness import runner
from repro.harness.runner import (
    _sweep_stale_tmp,
    load_trace,
    run_matrix,
    shard_bounds,
)
from repro.harness.scale import Scale
from repro.harness.systems import TABLE3_SYSTEMS, SystemConfig, resolve_system

_BY_NAME = {cfg.name: cfg for cfg in TABLE3_SYSTEMS}


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Isolate the worker-local trace memo per test."""
    monkeypatch.setattr(runner, "_TRACE_MEMO", type(runner._TRACE_MEMO)())


class TestShardBounds:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 22, 100])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_disjoint_and_covering(self, count, n):
        spans = [shard_bounds(count, (k, n)) for k in range(1, n + 1)]
        # Contiguous in shard order, covering [0, count) exactly once.
        assert spans[0][0] == 0
        assert spans[-1][1] == count
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start == prev_end
        # Balanced: sizes differ by at most one.
        sizes = [end - start for start, end in spans]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        for bad in [(0, 4), (5, 4), (1, 0), (-1, 3)]:
            with pytest.raises(ConfigError):
                shard_bounds(10, bad)

    def test_single_shard_is_identity(self):
        assert shard_bounds(13, (1, 1)) == (0, 13)

    def test_matrix_sharding_partitions_results(self, tiny_spec):
        scale = Scale(name="t", branches_per_workload=1200, workloads_per_category=1)
        systems = [_BY_NAME["baseline-tage"], _BY_NAME["no-repair"],
                   _BY_NAME["forward-walk-coalesce"]]
        full = run_matrix([tiny_spec], systems, scale, workers=1)
        sharded = [
            result
            for k in (1, 2)
            for result in run_matrix(
                [tiny_spec], systems, scale, workers=1, shard=(k, 2)
            )
        ]
        assert sharded == full


class TestStaleTmpSweep:
    def _dead_pid(self) -> int:
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_dead_writer_tmp_removed(self, tmp_path):
        stale = tmp_path / f"w-1-100.trace.{self._dead_pid()}.tmp"
        stale.write_bytes(b"partial")
        _sweep_stale_tmp(tmp_path)
        assert not stale.exists()

    def test_live_and_own_tmp_kept(self, tmp_path):
        own = tmp_path / f"w-1-100.trace.{os.getpid()}.tmp"
        own.write_bytes(b"mine")
        live = tmp_path / "w-2-100.trace.1.tmp"  # PID 1 is always alive
        live.write_bytes(b"theirs")
        _sweep_stale_tmp(tmp_path)
        assert own.exists()
        assert live.exists()

    def test_malformed_names_kept(self, tmp_path):
        odd = tmp_path / "not-a-writer.tmp"
        odd.write_bytes(b"?")
        noise = tmp_path / "w.trace.notapid.tmp"
        noise.write_bytes(b"?")
        _sweep_stale_tmp(tmp_path)
        assert odd.exists()
        assert noise.exists()

    def test_swept_before_cache_write(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        stale = tmp_path / f"x-1-1.trace.{self._dead_pid()}.tmp"
        stale.write_bytes(b"partial")
        load_trace(tiny_spec, 500)
        assert not stale.exists()
        assert (tmp_path / f"{tiny_spec.name}-{tiny_spec.seed}-500.trace").exists()


class TestPoolTraces:
    def test_parallel_matches_serial(self, tiny_spec):
        scale = Scale(name="t", branches_per_workload=1200, workloads_per_category=1)
        systems = [_BY_NAME["baseline-tage"], _BY_NAME["no-repair"]]
        serial = run_matrix([tiny_spec], systems, scale, workers=1)
        parallel = run_matrix([tiny_spec], systems, scale, workers=2, parallel=True)
        assert parallel == serial

    def test_cold_cache_pool_sweep_writes_one_trace(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        """Workers sharing a workload may generate its trace concurrently.

        Three jobs on two workers chunk as 2 + 1, so both workers can
        load the one trace from an empty cache at once; the PID-unique
        tmp file and atomic rename leave one intact file behind.
        """
        cache = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
        scale = Scale(name="t", branches_per_workload=900, workloads_per_category=1)
        systems = [_BY_NAME["baseline-tage"], _BY_NAME["no-repair"],
                   _BY_NAME["forward-walk-coalesce"]]
        parallel = run_matrix([tiny_spec], systems, scale, workers=2,
                              parallel=True, use_result_cache=False)
        assert [path.name for path in cache.iterdir()] == [
            f"{tiny_spec.name}-{tiny_spec.seed}-900.trace"
        ]
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        serial = run_matrix([tiny_spec], systems, scale, workers=1,
                            use_result_cache=False)
        assert parallel == serial

    def test_no_tmp_left_on_worker_failure(self, tiny_spec, tmp_path, monkeypatch):
        """A job that raises in a worker waits out the sweep's trace writes.

        Both jobs fail at model construction, after their trace is
        loaded.  The second workload's write is slowed, so the first
        job's ConfigError reaches the caller while that write is still
        going (or not yet started): the sweep must not return before
        the tmp file is renamed into place.  Forked workers inherit the
        slowed writer.
        """
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        slow = replace(tiny_spec, name=f"{tiny_spec.name}-slow")
        write = runner.write_trace

        def slow_write(path, records):
            if path.name.startswith(slow.name):
                path.write_bytes(b"partial")
                time.sleep(1.0)
            write(path, records)

        monkeypatch.setattr(runner, "write_trace", slow_write)
        scale = Scale(name="t", branches_per_workload=600, workloads_per_category=1)
        bad = SystemConfig(name="doomed", tage="no-such-preset")
        with pytest.raises(ConfigError):
            run_matrix(
                [tiny_spec, slow],
                [bad],
                scale,
                workers=2,
                parallel=True,
                use_result_cache=False,
            )
        assert (tmp_path / f"{slow.name}-{slow.seed}-600.trace").exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptTraceCache:
    def test_corrupt_cached_file_regenerated(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        fresh = load_trace(tiny_spec, 500)
        path = tmp_path / f"{tiny_spec.name}-{tiny_spec.seed}-500.trace"
        assert path.exists()
        path.write_bytes(path.read_bytes()[:-7])  # truncate the cached file
        runner._TRACE_MEMO.clear()
        again = load_trace(tiny_spec, 500)
        assert again == fresh
        assert path.exists()  # rewritten intact

    @pytest.mark.parametrize("memo_hit", [False, True])
    def test_corrupt_cached_file_regenerated_by_batch(
        self, tiny_spec, tmp_path, monkeypatch, memo_hit
    ):
        """The batch path repairs a corrupt cache file as the exact path does."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        scale = Scale(name="t", branches_per_workload=500, workloads_per_category=1)
        systems = [resolve_system("gshare:12:10")]
        fresh = run_matrix([tiny_spec], systems, scale, batch=True,
                           use_result_cache=False)
        path = tmp_path / f"{tiny_spec.name}-{tiny_spec.seed}-500.trace"
        intact = path.read_bytes()
        path.write_bytes(intact[:-7])  # truncate the cached file
        if not memo_hit:
            runner._TRACE_MEMO.clear()
        again = run_matrix([tiny_spec], systems, scale, batch=True,
                           use_result_cache=False)
        assert again == fresh
        assert again[0].manifest["engine"] == "batch"
        assert path.read_bytes() == intact  # rewritten intact
