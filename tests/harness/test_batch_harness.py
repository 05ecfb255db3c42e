"""Harness integration of the batch sweep kernel: engine planning,
scheduler routing, cache keys, and the CLI surface."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.harness.batch import BatchExecutor
from repro.harness.runner import run_matrix
from repro.harness.sampling import SamplingConfig
from repro.harness.scale import Scale
from repro.harness.scheduler import BATCH, Scheduler
from repro.harness.systems import TABLE3_SYSTEMS, resolve_system
from repro.workloads.suite import get_workload

SPEC_NAMES = ["bimodal:6", "bimodal:8", "gshare:6:4", "local2l:5:4:7"]


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


def _scale(branches=2000):
    return Scale(name="t", branches_per_workload=branches, workloads_per_category=1)


def _plan(systems, batch=True, sampling=None):
    return Scheduler().plan(
        [get_workload("hpc-fft")], systems, 2000, sampling=sampling, batch=batch
    )


class TestMarking:
    def test_group_of_table_specs_is_marked(self):
        jobs = _plan([resolve_system(name) for name in SPEC_NAMES])
        assert all(job.engine == BATCH for job in jobs)

    def test_one_table_config_runs_on_the_kernel(self):
        jobs = _plan([resolve_system(SPEC_NAMES[0])])
        assert [job.engine for job in jobs] == [BATCH]
        [result] = run_matrix(
            [get_workload("hpc-fft")], [resolve_system(SPEC_NAMES[0])],
            _scale(), batch=True,
        )
        assert result.manifest["engine"] == "batch"
        assert result.cycles == 0 and result.extra["batch"]["engine"] == "columnar"

    def test_table3_systems_never_marked(self):
        jobs = _plan(list(TABLE3_SYSTEMS))
        assert not any(job.engine == BATCH for job in jobs)

    def test_batch_with_sampling_is_config_error(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            _plan(
                [resolve_system(name) for name in SPEC_NAMES],
                sampling=SamplingConfig(mode="periodic"),
            )

    def test_marking_preserves_job_count_and_order(self):
        systems = [resolve_system(name) for name in SPEC_NAMES] + [
            resolve_system("baseline-tage")
        ]
        jobs = _plan(systems)
        assert [job.system.name for job in jobs] == [s.name for s in systems]
        assert [job.engine == BATCH for job in jobs] == [True] * 4 + [False]


class TestManifests:
    def test_batch_results_get_distinct_cache_keys(self):
        jobs = _plan([resolve_system(name) for name in SPEC_NAMES])
        scalar_jobs = _plan(
            [resolve_system(name) for name in SPEC_NAMES], batch=False
        )
        for batch_job, scalar_job in zip(jobs, scalar_jobs):
            batch_manifest = batch_job.manifest()
            scalar_manifest = scalar_job.manifest()
            assert batch_manifest["engine"] == "batch"
            assert "engine" not in scalar_manifest
            assert (
                batch_manifest["config_hash"] != scalar_manifest["config_hash"]
            )


class TestExecution:
    def test_matrix_identical_to_exact_engine(self):
        workloads = [get_workload("hpc-fft")]
        systems = [resolve_system(name) for name in SPEC_NAMES]
        exact = run_matrix(workloads, systems, _scale(), batch=False)
        batch = run_matrix(workloads, systems, _scale(), batch=True)
        assert [(r.workload, r.system) for r in exact] == [
            (r.workload, r.system) for r in batch
        ]
        for e, b in zip(exact, batch):
            assert e.mpki == b.mpki
            assert e.mispredictions == b.mispredictions
            assert e.instructions == b.instructions
            assert b.ipc == 0.0 and b.cycles == 0
            assert b.extra["batch"]["engine"] == "columnar"

    def test_result_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        workloads = [get_workload("hpc-fft")]
        systems = [resolve_system(name) for name in SPEC_NAMES]
        first = run_matrix(workloads, systems, _scale(), batch=True)
        second = run_matrix(workloads, systems, _scale(), batch=True)
        for a, b in zip(first, second):
            assert a.mpki == b.mpki
            assert a.manifest["engine"] == "batch"

    def test_run_answers_mixed_jobs_in_order(self):
        systems = [resolve_system(name) for name in SPEC_NAMES] + [
            resolve_system("baseline-tage")
        ]
        jobs = _plan(systems)
        results = Scheduler().run(jobs)
        assert [r.system for r in results] == [s.name for s in systems]
        assert [r.manifest.get("engine") for r in results] == ["batch"] * 4 + [None]
        tage = results[-1]
        assert tage.ipc > 0.0 and tage.cycles > 0
        assert Scheduler().run(jobs, workers=2) == results

    def test_sharded_sweep_equals_unsharded(self):
        workloads = [get_workload("hpc-fft")]
        systems = [
            resolve_system(name)
            for name in (
                "bimodal:10", "bimodal:12", "gshare:12:10", "gshare:14:12",
                "local2l:10:8:12",
            )
        ]
        full = run_matrix(workloads, systems, _scale(), workers=1, batch=True)
        sharded = [
            result
            for k in (1, 2)
            for result in run_matrix(
                workloads, systems, _scale(), workers=1, batch=True, shard=(k, 2)
            )
        ]
        assert sharded == full
        assert [
            (r.manifest["engine"], r.manifest["config_hash"]) for r in sharded
        ] == [(r.manifest["engine"], r.manifest["config_hash"]) for r in full]
        assert {r.manifest["engine"] for r in full} == {"batch"}

    def test_column_cache_hits_counted(self):
        from repro.telemetry import TELEMETRY

        workloads = [get_workload("hpc-fft")]
        systems = [resolve_system(name) for name in SPEC_NAMES]
        # The first batch sweep generates and writes the trace file;
        # later sweeps decode it once and then hit the columnar cache.
        run_matrix(workloads, systems, _scale(), batch=True)
        # Telemetry plans every job on the exact engine, so plan first
        # and drive the kernel directly: the first execute decodes
        # (miss), the second is served by the decode cache (hit).
        jobs = _plan(systems)
        TELEMETRY.enable()
        try:
            before = TELEMETRY.registry.counter("trace.column_cache_hits").value
            BatchExecutor().execute(jobs)
            BatchExecutor().execute(jobs)
            after = TELEMETRY.registry.counter("trace.column_cache_hits").value
        finally:
            TELEMETRY.disable()
        assert after > before


class TestCli:
    def test_sweep_batch_flag_runs(self, capsys):
        code = main(
            ["sweep", "--branches", "1500", "--per-category", "1",
             "--systems", ",".join(SPEC_NAMES), "--batch"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bimodal:6:2" in out
        # Functional-only rows render IPC as "-".
        assert " -  " in out

    def test_sweep_batch_with_sampling_is_config_error(self, capsys):
        code = main(
            ["sweep", "--branches", "1500", "--systems", "bimodal:6",
             "--batch", "--sample"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "mutually exclusive" in err

    def test_run_accepts_spec_strings(self, capsys):
        code = main(
            ["run", "--workload", "hpc-fft", "--system", "gshare:8:6",
             "--branches", "1500"]
        )
        assert code == 0
        assert "gshare:8:6" in capsys.readouterr().out

    def test_unknown_system_exits_one(self, capsys):
        code = main(
            ["run", "--workload", "hpc-fft", "--system", "no-such-system"]
        )
        assert code == 1
        assert "unknown system" in capsys.readouterr().err

    def test_perf_batch_section(self, tmp_path, capsys):
        out_path = tmp_path / "perf.json"
        code = main(
            ["perf", "--branches", "600", "--repeats", "1",
             "--systems", "baseline-tage", "--no-sampling",
             "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        batch = payload["batch"]
        assert batch["configs"] == 16
        assert batch["mpki_identical"] is True
        assert "batch kernel" in capsys.readouterr().out
