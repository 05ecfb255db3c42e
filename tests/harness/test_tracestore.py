"""Tests for the imported-trace store and its composition with the stack.

Runs entirely offline on the committed fixture traces — an autouse
fixture sets ``REPRO_OFFLINE`` so any attempted network fetch fails
loudly, which is also how the CI adapters job runs this module.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import TraceError, WorkloadError
from repro.harness import runner, tracestore
from repro.harness.runner import run_matrix, run_single, trace_cache_path
from repro.harness.scale import Scale
from repro.harness.systems import SystemConfig, resolve_system
from repro.telemetry.manifest import build_manifest, stable_hash
from repro.pipeline.config import PipelineConfig
from repro.workloads.public import PUBLIC_CATEGORY, ImportedTraceSpec

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "traces"
CHAMPSIM_FIXTURE = FIXTURES / "quicksort.champsim.gz"
BT9_FIXTURE = FIXTURES / "dijkstra.bt9"
MANIFEST = FIXTURES.parent.parent.parent / "traces" / "public-traces.json"

_SYSTEM = SystemConfig(name="baseline-tage", local_entries=None, scheme=None)


@pytest.fixture(autouse=True)
def _isolated_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_OFFLINE", "1")
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.setattr(runner, "_TRACE_MEMO", type(runner._TRACE_MEMO)())


def _import_fixture(fixture=CHAMPSIM_FIXTURE, name="public-quicksort", **kw):
    return tracestore.import_trace(fixture, name=name, **kw)


class TestImport:
    def test_import_champsim_fixture(self):
        spec = _import_fixture()
        assert isinstance(spec, ImportedTraceSpec)
        assert spec.category == PUBLIC_CATEGORY
        assert spec.source_format == "champsim"
        assert spec.trace_records > 1000
        assert Path(spec.path).exists()

    def test_import_bt9_fixture(self):
        spec = _import_fixture(BT9_FIXTURE, name="public-dijkstra")
        assert spec.source_format == "bt9"
        assert spec.trace_records > 5000

    def test_reimport_is_idempotent(self):
        first = _import_fixture()
        second = _import_fixture()
        assert first == second

    def test_meta_sidecar_contents(self):
        spec = _import_fixture()
        meta = json.loads(
            (tracestore.store_dir() / "public-quicksort.meta.json").read_text()
        )
        assert meta["content_hash"] == spec.content_hash
        assert meta["records"] == spec.trace_records
        assert meta["source_format"] == "champsim"
        assert meta["compression"] == "gzip"
        assert 0.0 < meta["taken_rate"] < 1.0
        assert meta["static_sites"] > 0

    def test_list_imported(self):
        _import_fixture()
        _import_fixture(BT9_FIXTURE, name="public-dijkstra")
        names = [meta["name"] for meta in tracestore.list_imported()]
        assert names == ["public-dijkstra", "public-quicksort"]

    def test_missing_source_rejected(self):
        with pytest.raises(TraceError, match="not found"):
            tracestore.import_trace(FIXTURES / "nope.trace")


class TestResolve:
    def test_synthetic_name_still_resolves(self):
        spec = tracestore.resolve_workload("hpc-fft")
        assert spec.name == "hpc-fft"
        assert not isinstance(spec, ImportedTraceSpec)

    def test_imported_name_resolves(self):
        _import_fixture()
        spec = tracestore.resolve_workload("public-quicksort")
        assert isinstance(spec, ImportedTraceSpec)

    def test_unknown_name_mentions_both_sources(self):
        with pytest.raises(WorkloadError, match="trace store"):
            tracestore.resolve_workload("no-such-workload")


class TestHashing:
    def test_workload_hash_excludes_local_path(self, tmp_path):
        a = _import_fixture(store=tmp_path / "store-a")
        b = _import_fixture(store=tmp_path / "store-b")
        assert a.path != b.path
        pipeline = PipelineConfig()
        hash_a = build_manifest(a, _SYSTEM, 1000, pipeline).workload_hash
        hash_b = build_manifest(b, _SYSTEM, 1000, pipeline).workload_hash
        assert hash_a == hash_b

    def test_content_change_changes_hash(self, tmp_path):
        a = _import_fixture(store=tmp_path / "store-a")
        b = _import_fixture(
            BT9_FIXTURE, name="public-quicksort", store=tmp_path / "store-b"
        )
        pipeline = PipelineConfig()
        assert (
            build_manifest(a, _SYSTEM, 1000, pipeline).workload_hash
            != build_manifest(b, _SYSTEM, 1000, pipeline).workload_hash
        )

    def test_synthetic_hashes_unchanged_by_hook(self, tiny_spec):
        manifest = build_manifest(tiny_spec, _SYSTEM, 1000, PipelineConfig())
        historical = stable_hash({"spec": asdict(tiny_spec), "branches": 1000})
        assert manifest.workload_hash == historical


class TestRunning:
    def test_bit_identical_across_two_runs(self):
        spec = _import_fixture()
        first = run_single(spec, _SYSTEM, 5000, use_result_cache=False)
        runner._TRACE_MEMO.clear()
        second = run_single(spec, _SYSTEM, 5000, use_result_cache=False)
        assert (first.ipc, first.mpki, first.instructions, first.cycles,
                first.mispredictions) == (
            second.ipc, second.mpki, second.instructions, second.cycles,
            second.mispredictions,
        )

    def test_truncation_to_requested_length(self):
        spec = _import_fixture()
        records = runner.load_trace(spec, 100)
        assert len(records) == 100
        full = runner.load_trace(spec, spec.trace_records + 500)
        assert len(full) == spec.trace_records

    def test_trace_cache_path_contract(self):
        spec = _import_fixture()
        # Full-length runs may decode the store file columnar-ly...
        assert trace_cache_path(spec, spec.trace_records) == Path(spec.path)
        # ...truncating runs must not (the file holds too many records).
        assert trace_cache_path(spec, 100) is None

    def test_missing_store_file_is_actionable(self, tmp_path):
        spec = _import_fixture()
        Path(spec.path).unlink()
        runner._TRACE_MEMO.clear()
        with pytest.raises(TraceError, match="repro trace import"):
            runner.load_trace(spec, 1000)

    def test_result_cache_dedup_on_content_hash(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        spec_a = _import_fixture(store=tmp_path / "store-a")
        run_single(spec_a, _SYSTEM, 1200)
        entries = sorted((tmp_path / "results").glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        payload["result"]["ipc"] = 123.456
        entries[0].write_text(json.dumps(payload))
        # Same content imported into a different store (different local
        # path) must hit the same cache entry.
        spec_b = _import_fixture(store=tmp_path / "store-b")
        runner._TRACE_MEMO.clear()
        cached = run_single(spec_b, _SYSTEM, 1200)
        assert cached.ipc == 123.456

    def test_parallel_matrix_matches_serial(self):
        spec = _import_fixture()
        scale = Scale(name="t", branches_per_workload=1500,
                      workloads_per_category=1)
        systems = [_SYSTEM, SystemConfig(
            name="forward-walk-coalesce", scheme="forward", ports="32-4-2",
            coalesce=True,
        )]
        serial = run_matrix([spec], systems, scale, parallel=False,
                            use_result_cache=False)
        runner._TRACE_MEMO.clear()
        parallel = run_matrix([spec], systems, scale, parallel=True,
                              workers=2, use_result_cache=False)
        assert [(r.system, r.ipc, r.mpki) for r in serial] == [
            (r.system, r.ipc, r.mpki) for r in parallel
        ]

    def test_batch_sweep_corrupt_store_raises(self):
        """An imported store file is the source of truth: never repaired."""
        spec = _import_fixture()
        path = Path(spec.path)
        path.write_bytes(path.read_bytes()[:-7])
        scale = Scale(name="t", branches_per_workload=spec.trace_records,
                      workloads_per_category=1)
        with pytest.raises(TraceError, match="truncated"):
            run_matrix([spec], [resolve_system("gshare:12:8")], scale,
                       parallel=False, use_result_cache=False, batch=True)
        assert path.exists()

    def test_batch_sweep_on_imported_trace(self):
        spec = _import_fixture()
        systems = [resolve_system(s) for s in
                   ("bimodal:10", "bimodal:12", "gshare:12:8", "gshare:14:10")]
        scale = Scale(name="t", branches_per_workload=spec.trace_records,
                      workloads_per_category=1)
        exact = run_matrix([spec], systems, scale, parallel=False,
                           use_result_cache=False, batch=False)
        runner._TRACE_MEMO.clear()
        batched = run_matrix([spec], systems, scale, parallel=False,
                             use_result_cache=False, batch=True)
        assert [r.mpki for r in exact] == [r.mpki for r in batched]
        assert all(r.manifest["engine"] == "batch" for r in batched)


class TestFetch:
    def test_fetch_from_committed_manifest(self):
        spec = tracestore.fetch_trace("public-quicksort", MANIFEST)
        assert spec.source_format == "champsim"
        assert tracestore.resolve_workload("public-quicksort") == spec

    def test_unknown_manifest_name(self):
        with pytest.raises(WorkloadError, match="not in manifest"):
            tracestore.fetch_trace("public-nope", MANIFEST)

    def test_checksum_mismatch_rejected(self, tmp_path):
        manifest = {
            "version": 1,
            "traces": {
                "bad": {
                    "url": str(CHAMPSIM_FIXTURE),
                    "sha256": "0" * 64,
                    "format": "champsim",
                }
            },
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(TraceError, match="checksum mismatch"):
            tracestore.fetch_trace("bad", path)

    def test_offline_guard_blocks_network(self, tmp_path):
        manifest = {
            "version": 1,
            "traces": {
                "remote": {
                    "url": "https://example.invalid/trace.gz",
                    "sha256": "0" * 64,
                }
            },
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(WorkloadError, match="REPRO_OFFLINE"):
            tracestore.fetch_trace("remote", path)
