"""Unit tests for run manifests and content hashes."""

import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import repro
from repro.harness import tracestore
from repro.harness.sampling import SamplingConfig
from repro.harness.scheduler import BATCH
from repro.harness.systems import TABLE3_SYSTEMS, resolve_system
from repro.pipeline.config import PipelineConfig
from repro.telemetry import manifest as manifest_module
from repro.telemetry.manifest import RunManifest, build_manifest, stable_hash
from repro.workloads.suite import get_workload

_SYSTEM = TABLE3_SYSTEMS[0]
_FIXTURES = Path(__file__).resolve().parents[1] / "data" / "traces"
_DIGEST_SYSTEMS = [
    *TABLE3_SYSTEMS,
    replace(_SYSTEM, name="tage-9kb", tage="kb9"),
    replace(_SYSTEM, name="tage-57kb", tage="kb64"),
    replace(resolve_system("forward-walk"), name="tage57+forward-walk", tage="kb64"),
]
_SAMPLINGS = {
    "none": None,
    "off": SamplingConfig(mode="off"),
    "periodic": SamplingConfig(mode="periodic"),
}
_ENGINE_TAGS = {"none": None, "batch": BATCH.tag}

_HASH_SCRIPT = """\
from repro.harness.systems import TABLE3_SYSTEMS
from repro.pipeline.config import PipelineConfig
from repro.telemetry.manifest import build_manifest
from repro.workloads.suite import get_workload

m = build_manifest(
    get_workload("hpc-fft"), TABLE3_SYSTEMS[0], 5000, PipelineConfig()
)
print(m.config_hash, m.workload_hash)
"""


def _manifest(branches: int = 5000) -> RunManifest:
    return build_manifest(
        get_workload("hpc-fft"), _SYSTEM, branches, PipelineConfig()
    )


class TestStableHash:
    def test_insensitive_to_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_short_hex(self):
        h = stable_hash({"x": 1})
        assert len(h) == 16
        int(h, 16)  # valid hex


class TestManifest:
    def test_identity_fields(self):
        m = _manifest()
        assert m.workload == "hpc-fft"
        assert m.system == _SYSTEM.name
        assert m.branches == 5000
        assert m.repro_version
        assert m.python
        assert m.manifest_version == 1
        assert m.wall_s is None  # stamped by the runner, not here

    def test_same_inputs_same_hashes(self):
        a, b = _manifest(), _manifest()
        assert a.config_hash == b.config_hash
        assert a.workload_hash == b.workload_hash

    def test_workload_hash_tracks_branch_count(self):
        assert _manifest(5000).workload_hash != _manifest(6000).workload_hash

    def test_config_hash_tracks_system(self):
        other = build_manifest(
            get_workload("hpc-fft"), TABLE3_SYSTEMS[1], 5000, PipelineConfig()
        )
        assert other.config_hash != _manifest().config_hash

    def test_env_capture_only_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("UNRELATED_VAR", "nope")
        env = _manifest().env
        assert env.get("REPRO_SCALE") == "smoke"
        assert "UNRELATED_VAR" not in env

    def test_dict_round_trip(self):
        m = _manifest()
        assert RunManifest.from_dict(m.as_dict()) == m

    def test_from_dict_ignores_unknown_keys(self):
        payload = _manifest().as_dict()
        payload["future_field"] = "whatever"
        assert RunManifest.from_dict(payload).workload == "hpc-fft"

    def test_hashes_stable_across_processes(self):
        """The hashes must not depend on PYTHONHASHSEED or process state."""
        m = _manifest()
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            src_dir = str(Path(repro.__file__).resolve().parents[1])
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), src_dir) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout.split())
        assert outputs[0] == outputs[1] == [m.config_hash, m.workload_hash]


def _fresh_config_hash(system, pipeline, sampling, engine):
    """``config_hash`` of the full payload, computed without any memo."""
    payload = {"system": asdict(system), "pipeline": asdict(pipeline)}
    if sampling is not None and sampling.enabled:
        payload["sampling"] = sampling.to_payload()
    if engine is not None:
        payload["engine"] = engine
    return stable_hash(payload)


def _fresh_workload_hash(spec, branches):
    hook = getattr(spec, "workload_hash_payload", None)
    return stable_hash(
        {"spec": hook() if hook else asdict(spec), "branches": branches}
    )


@pytest.fixture
def cold_memo():
    manifest_module._config_hash.cache_clear()
    manifest_module._workload_hash.cache_clear()


class TestMemoizedDigests:
    @pytest.mark.parametrize("engine", sorted(_ENGINE_TAGS))
    @pytest.mark.parametrize("sampling", sorted(_SAMPLINGS))
    def test_config_hash_equals_full_payload_hash(self, cold_memo, sampling, engine):
        spec = get_workload("hpc-fft")
        config, tag = _SAMPLINGS[sampling], _ENGINE_TAGS[engine]
        for system in _DIGEST_SYSTEMS:
            want = _fresh_config_hash(system, PipelineConfig(), config, tag)
            for _ in ("cold", "warm"):
                # A fresh PipelineConfig per call, as SimJob.manifest() builds it.
                got = build_manifest(
                    spec, system, 5000, PipelineConfig(), sampling=config, engine=tag
                )
                assert got.config_hash == want, system.name
        info = manifest_module._config_hash.cache_info()
        assert info.misses == len(_DIGEST_SYSTEMS) and info.hits == len(_DIGEST_SYSTEMS)

    def test_workload_hash_equals_full_payload_hash(self, cold_memo, tmp_path):
        specs = [
            get_workload("hpc-fft"),
            get_workload("bp-sysmark-office"),
            tracestore.import_trace(
                _FIXTURES / "quicksort.champsim.gz", name="public-quicksort", store=tmp_path
            ),
            tracestore.import_trace(
                _FIXTURES / "dijkstra.bt9", name="public-dijkstra", store=tmp_path
            ),
        ]
        for spec in specs:
            for branches in (2000, 5000):
                want = _fresh_workload_hash(spec, branches)
                for _ in ("cold", "warm"):
                    got = build_manifest(spec, _SYSTEM, branches, PipelineConfig())
                    assert got.workload_hash == want, spec.name

    def test_equal_values_of_other_types_keep_their_own_digests(self, cold_memo):
        """``1 == 1.0 == True``, but their canonical JSON differs."""
        spec = get_workload("hpc-fft")
        as_float = SamplingConfig(mode="periodic", coverage=1.0)
        as_int = SamplingConfig(mode="periodic", coverage=1)
        assert as_float == as_int
        for sampling in (as_float, as_int):
            got = build_manifest(spec, _SYSTEM, 5000, PipelineConfig(), sampling=sampling)
            assert got.config_hash == _fresh_config_hash(
                _SYSTEM, PipelineConfig(), sampling, None
            )
        flag = replace(resolve_system("forward-walk"), coalesce=True)
        number = replace(resolve_system("forward-walk"), coalesce=1)
        assert flag == number
        hashes = {
            build_manifest(spec, system, 5000, PipelineConfig()).config_hash
            for system in (flag, number)
        }
        assert hashes == {
            _fresh_config_hash(system, PipelineConfig(), None, None)
            for system in (flag, number)
        }
        assert len(hashes) == 2
        workload_hashes = {
            build_manifest(spec, _SYSTEM, branches, PipelineConfig()).workload_hash
            for branches in (5000, 5000.0)
        }
        assert workload_hashes == {_fresh_workload_hash(spec, b) for b in (5000, 5000.0)}
        assert len(workload_hashes) == 2

    def test_memos_are_bounded(self):
        for memo in (manifest_module._config_hash, manifest_module._workload_hash):
            assert memo.cache_info().maxsize == 4096

    def test_env_argument_replaces_capture(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        m = build_manifest(
            get_workload("hpc-fft"), _SYSTEM, 5000, PipelineConfig(),
            env=(("REPRO_PLANNED", "1"),),
        )
        assert m.env == {"REPRO_PLANNED": "1"}


class TestAsDict:
    def test_matches_dataclass_asdict(self):
        sampled = build_manifest(
            get_workload("hpc-fft"), _SYSTEM, 5000, PipelineConfig(),
            sampling=SamplingConfig(mode="periodic"), engine="x",
        )
        for m in (_manifest(), sampled):
            want = asdict(m)
            for key in ("sampling", "engine"):
                if want[key] is None:
                    del want[key]
            assert m.as_dict() == want

    def test_each_dict_is_independent(self):
        m = build_manifest(
            get_workload("hpc-fft"), _SYSTEM, 5000, PipelineConfig(),
            sampling=SamplingConfig(mode="periodic"), env=(("REPRO_X", "1"),),
        )
        first = m.as_dict()
        first["env"]["REPRO_X"] = "edited"
        first["sampling"]["interval"] = -1
        first["wall_s"] = 1.0
        second = m.as_dict()
        assert second["env"] == {"REPRO_X": "1"}
        assert second["sampling"]["interval"] == SamplingConfig().interval
        assert second["wall_s"] is None
