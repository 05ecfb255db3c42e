"""Tests for the scheduler/executor split behind run_matrix and serve."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import ConfigError
from repro.harness.executors import InlineExecutor, ProcessPoolExecutorBackend
from repro.harness.runner import run_single, validate_shard
from repro.harness.scheduler import (
    Scheduler,
    SimJob,
    default_executor,
    execute_job,
)
from repro.harness.sampling import SamplingConfig
from repro.harness.systems import SystemConfig

_BASE = SystemConfig(name="baseline-tage", local_entries=None, scheme=None)
_LOCAL = SystemConfig(
    name="forward-walk-coalesce", scheme="forward", ports="32-4-2", coalesce=True
)
_BRANCHES = 1200


@pytest.fixture(autouse=True)
def _no_disk(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


class TestValidateShard:
    def test_accepts_valid(self):
        assert validate_shard((1, 1)) == (1, 1)
        assert validate_shard((3, 8)) == (3, 8)
        assert validate_shard((8, 8)) == (8, 8)

    @pytest.mark.parametrize("shard", [(0, 4), (5, 4), (-1, 4), (1, 0), (2, -3)])
    def test_rejects_out_of_range(self, shard):
        with pytest.raises(ConfigError, match="shard"):
            validate_shard(shard)


class TestPlanning:
    def test_workload_major_order(self, tiny_spec):
        other = dataclasses.replace(tiny_spec, name="tiny-b", seed=8)
        jobs = Scheduler().plan([tiny_spec, other], [_BASE, _LOCAL], _BRANCHES)
        assert [(j.spec.name, j.system.name) for j in jobs] == [
            ("tiny", "baseline-tage"),
            ("tiny", "forward-walk-coalesce"),
            ("tiny-b", "baseline-tage"),
            ("tiny-b", "forward-walk-coalesce"),
        ]

    def test_shards_partition_the_plan(self, tiny_spec):
        specs = [
            dataclasses.replace(tiny_spec, name=f"tiny-{i}", seed=10 + i)
            for i in range(5)
        ]
        scheduler = Scheduler()
        full = scheduler.plan(specs, [_BASE, _LOCAL], _BRANCHES)
        recombined = []
        for k in (1, 2, 3):
            recombined.extend(
                scheduler.plan(specs, [_BASE, _LOCAL], _BRANCHES, shard=(k, 3))
            )
        assert recombined == full

    def test_plan_carries_cache_override(self, tiny_spec):
        jobs = Scheduler(use_result_cache=False).plan([tiny_spec], [_BASE], 500)
        assert jobs[0].use_result_cache is False

    def test_jobs_are_picklable(self, tiny_spec):
        job = SimJob(spec=tiny_spec, system=_BASE, n_branches=500)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_manifest_matches_run_manifest(self, tiny_spec):
        job = SimJob(spec=tiny_spec, system=_BASE, n_branches=_BRANCHES)
        planned = job.manifest()
        ran = run_single(tiny_spec, _BASE, _BRANCHES).manifest
        assert ran is not None
        assert planned["config_hash"] == ran["config_hash"]
        assert planned["workload_hash"] == ran["workload_hash"]


class TestPlanTimeEnvironment:
    def test_variable_set_between_plans_reaches_only_the_second(
        self, tiny_spec, monkeypatch
    ):
        monkeypatch.delenv("REPRO_PLAN_PROBE", raising=False)
        scheduler = Scheduler()
        before = scheduler.plan([tiny_spec], [_BASE, _LOCAL], _BRANCHES)
        monkeypatch.setenv("REPRO_PLAN_PROBE", "on")
        after = scheduler.plan([tiny_spec], [_BASE, _LOCAL], _BRANCHES)
        for old, new in zip(before, after):
            old_manifest, new_manifest = old.manifest(), new.manifest()
            assert "REPRO_PLAN_PROBE" not in old_manifest["env"]
            assert new_manifest["env"]["REPRO_PLAN_PROBE"] == "on"
            assert old_manifest["env"]["REPRO_TRACE_CACHE"] == "off"
            for key in ("config_hash", "workload_hash"):
                assert old_manifest[key] == new_manifest[key]

    def test_run_keeps_the_plan_time_env(self, tiny_spec, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_PROBE", "planned")
        scheduler = Scheduler()
        [job] = scheduler.plan([tiny_spec], [_BASE], 800)
        monkeypatch.setenv("REPRO_PLAN_PROBE", "changed")
        [result] = scheduler.run([job])
        assert result.manifest["env"]["REPRO_PLAN_PROBE"] == "planned"

    def test_unplanned_job_captures_at_manifest_time(self, tiny_spec, monkeypatch):
        job = SimJob(spec=tiny_spec, system=_BASE, n_branches=800)
        monkeypatch.setenv("REPRO_PLAN_PROBE", "late")
        assert job.manifest()["env"]["REPRO_PLAN_PROBE"] == "late"

    def test_edits_to_one_manifest_leave_the_next_unchanged(self, tiny_spec, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_PROBE", "planned")
        sampling = SamplingConfig(mode="periodic")
        [job] = Scheduler().plan([tiny_spec], [_BASE], 800, sampling=sampling)
        first = job.manifest()
        pristine = job.manifest()
        first["env"]["REPRO_PLAN_PROBE"] = "edited"
        first["env"]["REPRO_EXTRA"] = "1"
        first["sampling"]["interval"] = 1
        first["declined"] = {"batch": "edited"}
        first["wall_s"] = 2.0
        assert job.manifest() == pristine
        assert pristine["env"]["REPRO_PLAN_PROBE"] == "planned"
        assert pristine["sampling"] == sampling.to_payload()
        assert "declined" not in pristine and pristine["wall_s"] is None


class TestDefaultExecutor:
    def test_small_job_lists_run_inline(self):
        assert isinstance(default_executor(4, 2), InlineExecutor)

    def test_eight_jobs_fan_out(self):
        executor = default_executor(8, 2)
        assert isinstance(executor, ProcessPoolExecutorBackend)

    def test_workers_one_forces_inline(self):
        assert isinstance(default_executor(100, 10, workers=1), InlineExecutor)

    def test_workers_pin_pool_size(self):
        executor = default_executor(16, 4, workers=2)
        assert isinstance(executor, ProcessPoolExecutorBackend)
        assert executor.workers == 2
        assert executor.chunksize == 4  # one workload's systems

    def test_explicit_parallel_false(self):
        assert isinstance(
            default_executor(100, 10, parallel=False), InlineExecutor
        )


class TestExecution:
    def test_inline_matches_run_single(self, tiny_spec):
        direct = run_single(tiny_spec, _LOCAL, _BRANCHES)
        [scheduled] = Scheduler().run(
            [SimJob(spec=tiny_spec, system=_LOCAL, n_branches=_BRANCHES)]
        )
        assert (scheduled.ipc, scheduled.mpki, scheduled.cycles) == (
            direct.ipc,
            direct.mpki,
            direct.cycles,
        )

    def test_execute_job_runs_one(self, tiny_spec):
        result = execute_job(SimJob(spec=tiny_spec, system=_BASE, n_branches=800))
        assert result.workload == "tiny" and result.cycles > 0


class TestCacheSplit:
    def test_no_cache_means_all_misses(self, tiny_spec):
        jobs = Scheduler().plan([tiny_spec], [_BASE, _LOCAL], 700)
        hits, misses = Scheduler().split_cached(jobs)
        assert hits == {} and misses == jobs

    def test_split_after_warm_run(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        scheduler = Scheduler()
        jobs = scheduler.plan([tiny_spec], [_BASE, _LOCAL], 700)
        first = scheduler.run(jobs)
        hits, misses = scheduler.split_cached(jobs)
        assert misses == [] and sorted(hits) == [0, 1]
        assert [hits[i].cycles for i in (0, 1)] == [r.cycles for r in first]

    def test_cache_hits_carry_declined(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        scheduler = Scheduler()
        jobs = scheduler.plan([tiny_spec], [_LOCAL], 700, batch=True)
        [fresh] = scheduler.run(jobs)
        hits, misses = scheduler.split_cached(jobs)
        assert misses == []
        for result in (fresh, hits[0]):
            assert result.manifest["declined"] == {"batch": "not a table predictor"}

    def test_partial_split(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        scheduler = Scheduler()
        jobs = scheduler.plan([tiny_spec], [_BASE, _LOCAL], 700)
        scheduler.run(jobs[:1])
        hits, misses = scheduler.split_cached(jobs)
        assert sorted(hits) == [0]
        assert misses == [jobs[1]]
