"""Harness integration of the specialized engines: manifests,
scheduler/service plumbing, and the CLI surface."""

import pytest

from repro.cli import _print_engine_note, main
from repro.errors import ServiceError
from repro.harness.runner import RunResult, run_matrix, run_single
from repro.harness.sampling import SamplingConfig
from repro.harness.scale import Scale
from repro.harness.scheduler import SPECIALIZED, Scheduler
from repro.harness.systems import resolve_system
from repro.pipeline.specialize import SPECIALIZE_VERSION
from repro.service.api import parse_request
from repro.workloads.suite import get_workload

_SYSTEM = resolve_system("baseline-tage")


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


def _scale(branches=4000):
    return Scale(name="t", branches_per_workload=branches, workloads_per_category=1)


class TestManifests:
    def test_engine_tag_carries_version(self):
        assert SPECIALIZED.tag == f"specialize-v{SPECIALIZE_VERSION}"

    def test_specialized_run_tags_engine_and_changes_config_hash(self):
        spec = get_workload("hpc-fft")
        plain = run_single(spec, _SYSTEM, 4000, use_result_cache=False)
        fast = run_single(
            spec, _SYSTEM, 4000, use_result_cache=False, specialize=True
        )
        assert fast.manifest["engine"] == SPECIALIZED.tag
        assert "engine" not in plain.manifest
        assert fast.manifest["config_hash"] != plain.manifest["config_hash"]
        assert fast.manifest["specialize"]["engine"] == "specialized"
        # The stats themselves stay bit-identical.
        assert (fast.ipc, fast.mpki, fast.cycles) == (
            plain.ipc,
            plain.mpki,
            plain.cycles,
        )

    def test_telemetry_forces_generic(self):
        from repro.telemetry import TELEMETRY

        spec = get_workload("hpc-fft")
        TELEMETRY.enable()
        try:
            result = run_single(
                spec, _SYSTEM, 4000, use_result_cache=False, specialize=True
            )
        finally:
            TELEMETRY.disable()
        assert "engine" not in result.manifest
        assert "specialize" not in result.manifest

    def test_sampling_forces_generic(self):
        spec = get_workload("hpc-fft")
        result = run_single(
            spec,
            _SYSTEM,
            6000,
            use_result_cache=False,
            specialize=True,
            sampling=SamplingConfig(mode="periodic"),
        )
        assert "engine" not in result.manifest
        assert "specialize" not in result.manifest

    def test_scheduler_marks_jobs_and_manifests_match(self):
        jobs = Scheduler().plan(
            [get_workload("hpc-fft")], [_SYSTEM], 4000, specialize=True
        )
        assert all(job.engine == SPECIALIZED for job in jobs)
        assert jobs[0].manifest()["engine"] == SPECIALIZED.tag
        plain = Scheduler().plan([get_workload("hpc-fft")], [_SYSTEM], 4000)
        assert "engine" not in plain[0].manifest()

    def test_sampled_jobs_drop_the_tag(self):
        jobs = Scheduler().plan(
            [get_workload("hpc-fft")],
            [_SYSTEM],
            4000,
            sampling=SamplingConfig(mode="periodic"),
            specialize=True,
        )
        assert "engine" not in jobs[0].manifest()


class TestMatrix:
    def test_matrix_identical_to_plain(self):
        plain = run_matrix([get_workload("hpc-fft")], [_SYSTEM], _scale())
        fast = run_matrix(
            [get_workload("hpc-fft")], [_SYSTEM], _scale(), specialize=True
        )
        assert plain[0].mpki == fast[0].mpki
        assert plain[0].ipc == fast[0].ipc
        assert plain[0].mispredictions == fast[0].mispredictions


class TestService:
    def test_specialize_field_accepted_and_echoed(self):
        request = parse_request(
            {
                "kind": "run",
                "workload": "hpc-fft",
                "system": "baseline-tage",
                "branches": 4000,
                "specialize": True,
            }
        )
        assert request.payload["specialize"] is True
        assert all(job.engine == SPECIALIZED for job in request.jobs)

    def test_non_boolean_field_rejected(self):
        with pytest.raises(ServiceError):
            parse_request(
                {"kind": "run", "workload": "hpc-fft", "specialize": "yes"}
            )


class TestCli:
    def test_run_specialize_prints_note(self, capsys):
        code = main(
            ["run", "--workload", "hpc-fft", "--system", "baseline-tage",
             "--branches", "4000", "--specialize"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "specialized: tage template" in out
        assert "2000 of 4000 branches" in out

    def test_run_without_flag_prints_no_note(self, capsys):
        code = main(
            ["run", "--workload", "hpc-fft", "--system", "baseline-tage",
             "--branches", "4000"]
        )
        assert code == 0
        assert "specialized:" not in capsys.readouterr().out

    def test_abort_note_rendered_from_manifest(self, capsys):
        result = RunResult(
            workload="hpc-fft", category="hpc", system="baseline-tage",
            ipc=1.0, mpki=2.0, instructions=10, cycles=10, mispredictions=0,
            extra={},
            manifest={
                "specialize": {
                    "engine": "specialized", "template": "tage",
                    "specialized_branches": 1000, "total_branches": 4000,
                    "aborted": True, "guard": "forced",
                },
            },
        )
        _print_engine_note(result)
        out = capsys.readouterr().out
        assert "specialized: tage template, 1000 of 4000 branches" in out
        assert "aborted on guard 'forced'" in out
