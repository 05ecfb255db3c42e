"""Tests for the scheduler: the one job path behind run_single,
run_matrix and serve."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import pickle

import pytest

from repro.errors import ConfigError
from repro.harness.result_cache import ResultCache
from repro.harness.runner import run_matrix, run_single, validate_shard
from repro.harness.scale import Scale
from repro.harness.scheduler import Scheduler, SimJob, _chunksize
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


class _RecordingPool:
    """A stand-in ``ProcessPoolExecutor`` that records its sizing and runs
    the map in this process."""

    created: list["_RecordingPool"] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.chunksize = None
        _RecordingPool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksize = chunksize
        return map(fn, iterable)


@pytest.fixture
def pools(monkeypatch):
    """Every pool ``Scheduler.run`` builds, run in-process and recorded."""
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool.created


def _specs(tiny_spec, count):
    return [
        dataclasses.replace(tiny_spec, name=f"tiny-{i}", seed=20 + i)
        for i in range(count)
    ]


_SCALE = Scale(name="t", branches_per_workload=300, workloads_per_category=1)
_FOUR = [
    _BASE,
    _LOCAL,
    SystemConfig(name="no-repair", scheme="none"),
    SystemConfig(name="perfect-repair", scheme="perfect"),
]


class TestDefaultExecutor:
    """Where ``run_matrix`` runs its jobs: inline, or on a pool of what size."""

    def test_small_job_lists_run_inline(self, tiny_spec, pools):
        run_matrix(_specs(tiny_spec, 2), [_BASE, _LOCAL], _SCALE)
        assert pools == []

    def test_eight_jobs_fan_out(self, tiny_spec, pools, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        run_matrix(_specs(tiny_spec, 4), [_BASE, _LOCAL], _SCALE)
        assert [pool.max_workers for pool in pools] == [3]

    def test_workers_one_forces_inline(self, tiny_spec, pools):
        run_matrix(_specs(tiny_spec, 4), _FOUR, _SCALE, workers=1)
        assert pools == []

    def test_repro_workers_one_runs_inline(self, tiny_spec, pools, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        run_matrix(_specs(tiny_spec, 4), [_BASE, _LOCAL], _SCALE)
        assert pools == []

    def test_workers_pin_pool_size(self, tiny_spec, pools):
        results = run_matrix(_specs(tiny_spec, 4), _FOUR, _SCALE, workers=2)
        assert len(results) == 16
        [pool] = pools
        assert (pool.max_workers, pool.chunksize) == (2, 4)  # one workload's systems

    def test_chunks_hold_at_most_one_workloads_systems(self, tiny_spec):
        jobs = Scheduler().plan(_specs(tiny_spec, 4), _FOUR, 300)
        assert _chunksize(jobs, 2) == 4
        assert _chunksize(jobs, 8) == 2
        assert _chunksize(jobs[:3], 2) == 2


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

    def test_cache_off_neither_reads_nor_writes(self, tiny_spec, tmp_path, monkeypatch):
        root = tmp_path / "results"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(root))
        jobs = Scheduler().plan([tiny_spec], [_BASE], 700)
        [uncached] = Scheduler(use_result_cache=False).run(jobs)
        assert not root.exists()
        Scheduler().run(jobs)
        [entry] = root.glob("*.json")
        payload = json.loads(entry.read_text())
        payload["result"]["cycles"] += 1
        entry.write_text(json.dumps(payload))
        assert Scheduler().run(jobs)[0].cycles == uncached.cycles + 1
        assert Scheduler(use_result_cache=False).run(jobs)[0].cycles == uncached.cycles
        assert list(root.iterdir()) == [entry]


class TestPoolCache:
    """The calling process reads and writes the cache; workers only simulate."""

    @pytest.fixture
    def cache_root(self, tmp_path, monkeypatch):
        root = tmp_path / "results"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(root))
        return root

    def test_calling_process_writes_every_entry(self, tiny_spec, cache_root, monkeypatch):
        stored = []
        store = ResultCache.store

        def spy(self, result):
            # Forked workers would append to their own copy of the list.
            stored.append(result.system)
            store(self, result)

        monkeypatch.setattr(ResultCache, "store", spy)
        jobs = Scheduler().plan(_specs(tiny_spec, 2), [_BASE, _LOCAL], 600, batch=True)
        first = Scheduler().run(jobs, workers=2)
        assert len(stored) == len(jobs)
        entries = sorted(cache_root.glob("*.json"))
        assert len(entries) == len(jobs)
        assert list(cache_root.glob("*.tmp")) == []
        hits, misses = Scheduler().split_cached(jobs)
        assert misses == [] and sorted(hits) == list(range(len(jobs)))
        second = Scheduler().run(jobs, workers=2)
        assert len(stored) == len(jobs)
        assert [(r.system, r.ipc, r.mpki, r.cycles) for r in second] == [
            (r.system, r.ipc, r.mpki, r.cycles) for r in first
        ]
        declined = {"batch": "not a table predictor"}
        for result in first + second:
            assert result.manifest["declined"] == declined
        for entry in entries:
            assert "declined" not in json.loads(entry.read_text())["result"]["manifest"]

    def test_failed_sweep_keeps_earlier_results(self, tiny_spec, cache_root):
        first, second = _specs(tiny_spec, 2)
        doomed = SystemConfig(name="doomed", tage="no-such-preset")
        scheduler = Scheduler()
        jobs = scheduler.plan([first], [_BASE, _LOCAL], 600)
        jobs += scheduler.plan([second], [_BASE, doomed], 600)
        with pytest.raises(ConfigError, match="TAGE preset"):
            scheduler.run(jobs, workers=2)
        hits, misses = scheduler.split_cached(jobs)
        assert sorted(hits)[:2] == [0, 1]
        assert jobs[3] in misses


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
