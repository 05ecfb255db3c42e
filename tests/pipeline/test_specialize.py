"""Trace-guided specialization: bit-identity, guards, aborts, caching.

The specialized engines' one contract is *bit-identical SimStats,
only faster* — so nearly every test here runs the same (model, trace)
pair through ``model.run`` and :func:`run_specialized` and requires
exact equality, including through forced aborts, real guard trips and
every Table 3 system.  Speed is benchmarked by ``repro perf``, never
asserted here.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import repro.pipeline.specialize as sp
from repro.harness.runner import load_trace
from repro.harness.systems import TABLE3_SYSTEMS, build_system, resolve_system
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelineModel
from repro.pipeline.specialize import (
    SPECIALIZE_VERSION,
    engine_cache_key,
    generate_engine_source,
    load_engine,
    plan_specialization,
    run_specialized,
)
from repro.trace.records import BranchKind, BranchRecord
from repro.workloads.suite import get_workload


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


def _model(system_name: str) -> PipelineModel:
    baseline, unit = build_system(resolve_system(system_name))
    return PipelineModel(
        baseline, unit=unit, config=PipelineConfig(), hierarchy=CacheHierarchy()
    )


def _records(workload: str = "hpc-fft", n: int = 3000) -> list[BranchRecord]:
    return list(load_trace(get_workload(workload), n))


def _run_both(system_name, records, **kw):
    generic = _model(system_name).run(records)
    specialized, info = run_specialized(
        _model(system_name), records, profile_branches=1000, **kw
    )
    return generic, specialized, info


def _synthetic_trace(rng: random.Random, n: int) -> list[BranchRecord]:
    """A mixed synthetic trace: loops, calls, loads, varied gaps."""
    records = []
    pcs = [0x1000 + 8 * i for i in range(24)]
    for i in range(n):
        pc = rng.choice(pcs)
        kind = rng.choice(
            [BranchKind.COND] * 8
            + [BranchKind.UNCOND, BranchKind.CALL, BranchKind.RET, BranchKind.INDIRECT]
        )
        has_load = rng.random() < 0.3
        records.append(
            BranchRecord(
                pc=pc,
                target=pc + rng.choice([16, 64, -32 & 0xFFFF]),
                taken=bool(kind is not BranchKind.COND or (pc // 8 + i) % 3),
                kind=kind,
                inst_gap=rng.randrange(0, 9),
                load_addr=rng.randrange(0x2000, 0x8000, 8) if has_load else 0,
                depends_on_load=bool(has_load and rng.random() < 0.5),
            )
        )
    return records


class TestBitIdentity:
    @pytest.mark.parametrize("system", [cfg.name for cfg in TABLE3_SYSTEMS])
    def test_every_table3_system_identical(self, system):
        records = _records(n=3000)
        generic, specialized, info = _run_both(system, records)
        assert specialized == generic
        if system == "baseline-tage":
            assert info["engine"] == "specialized"
            assert info["specialized_branches"] == 2000
        else:
            # Local-unit systems have no template: they decline with a
            # reason and finish on the generic engine.
            assert info["engine"] == "generic"
            assert info["reason"] == "local unit present"
            assert info["specialized_branches"] == 0

    def test_random_systems_on_synthetic_traces(self):
        # Property-style sweep: seeded random (system, trace) pairings,
        # including spec-string systems outside Table 3.
        rng = random.Random(0xC0FFEE)
        names = [cfg.name for cfg in TABLE3_SYSTEMS] + [
            "gshare:12:10",
            "local2l:10:8:12",
            "bimodal:12",
        ]
        for trial in range(4):
            system = rng.choice(names)
            records = _synthetic_trace(rng, 2500)
            generic, specialized, info = _run_both(system, records)
            assert specialized == generic, f"trial {trial}: {system} diverged"

    def test_imported_public_traces_identical(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.harness import tracestore

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_OFFLINE", "1")
        fixtures = Path(__file__).resolve().parent.parent / "data" / "traces"
        for fixture, name in [
            (fixtures / "quicksort.champsim.gz", "public-quicksort"),
            (fixtures / "dijkstra.bt9", "public-dijkstra"),
        ]:
            spec = tracestore.import_trace(fixture, name=name)
            records = load_trace(spec, min(spec.trace_records, 4000))
            for system in ("baseline-tage", "forward-walk-coalesce"):
                generic, specialized, _ = _run_both(system, records)
                assert specialized == generic, f"{name} on {system} diverged"

    def test_short_trace_stays_generic(self):
        records = _records(n=500)
        generic, specialized, info = _run_both("baseline-tage", records)
        assert specialized == generic
        assert info["engine"] == "generic"
        assert info["reason"] == "trace shorter than profile prefix"


class TestGuardsAndAborts:
    def test_forced_abort_is_identical_and_counted(self):
        records = _records(n=3000)
        generic, specialized, info = _run_both(
            "baseline-tage", records, force_abort_at=1800, checkpoint_interval=400
        )
        assert specialized == generic
        assert info["aborted"] is True
        assert info["guard"] == "forced"
        assert info["guards_failed"] == 1
        assert info["aborts"] == 1
        # Branches committed before the abort stay specialized.
        assert 0 < info["specialized_branches"] < 2000
        assert info["checkpoints"] >= 1

    def test_forced_abort_at_zero_runs_fully_generic(self):
        records = _records(n=3000)
        generic, specialized, info = _run_both(
            "baseline-tage", records, force_abort_at=0
        )
        assert specialized == generic
        assert info["aborted"] is True
        assert info["specialized_branches"] == 0

    def test_real_guard_trip_falls_back_bit_identically(self):
        # Profile sees no loads -> the loads path is compiled to a
        # guard; a load after the profile must abort, finish generic,
        # and still match the generic run exactly.
        base = [
            replace(r, load_addr=0, depends_on_load=False) for r in _records(n=3000)
        ]
        base[2400] = replace(base[2400], load_addr=0x4000, depends_on_load=True)
        generic, specialized, info = _run_both(
            "baseline-tage", base, checkpoint_interval=500
        )
        assert specialized == generic
        assert info["aborted"] is True
        assert info["guard"] == "loads"
        assert info["guards_failed"] == 1


class TestPlanning:
    def test_stock_tage_gets_deep_template(self):
        records = _records(n=1200)
        decision, reason = plan_specialization(
            _model("baseline-tage"), records, 1000
        )
        assert reason is None
        assert decision.template == "tage"
        assert decision.tage is not None

    def test_unit_system_declines(self):
        records = _records(n=1200)
        decision, reason = plan_specialization(
            _model("forward-walk-coalesce"), records, 1000
        )
        assert decision is None
        assert reason == "local unit present"

    def test_impure_lookup_predictor_declines(self):
        # Spec-string table predictors train inside lookup; the planner
        # must refuse rather than risk drift, and run_specialized then
        # falls back to the generic engine (covered by the bit-identity
        # property test above).
        records = _records(n=1200)
        decision, reason = plan_specialization(
            _model("gshare:12:10"), records, 1000
        )
        assert decision is None
        assert reason == "predictor lookup is not pure"

    def test_telemetry_tracing_declines(self):
        from repro.telemetry import TELEMETRY

        model = _model("baseline-tage")
        records = _records(n=1200)
        TELEMETRY.enable()
        TELEMETRY.tracing = True
        try:
            # The model captured the telemetry handle at construction;
            # rebuild so it sees the tracing state.
            model = _model("baseline-tage")
            decision, reason = plan_specialization(model, records, 1000)
        finally:
            TELEMETRY.disable()
        assert decision is None
        assert reason == "telemetry tracing active"


class TestEngineCache:
    def _decision(self):
        decision, reason = plan_specialization(
            _model("baseline-tage"), _records(n=1200), 1000
        )
        assert reason is None
        return decision

    def test_memo_returns_same_engine(self, monkeypatch):
        monkeypatch.setattr(sp, "_ENGINE_MEMO", {})
        decision = self._decision()
        first = load_engine(decision, "cfg")
        second = load_engine(decision, "cfg")
        assert first is second

    def test_version_bump_invalidates_key(self, monkeypatch):
        decision = self._decision()
        old = engine_cache_key(decision, "cfg")
        monkeypatch.setattr(sp, "SPECIALIZE_VERSION", SPECIALIZE_VERSION + 1)
        assert engine_cache_key(decision, "cfg") != old

    def test_config_hash_in_key(self):
        decision = self._decision()
        assert engine_cache_key(decision, "a") != engine_cache_key(decision, "b")


class TestGeneratedSource:
    def _decisions(self):
        records = _records(n=1200)
        tage, _ = plan_specialization(_model("baseline-tage"), records, 1000)
        no_loads = replace(tage, has_loads=False)
        return [tage, no_loads]

    def test_all_templates_generate_parseable_source(self):
        import ast

        for decision in self._decisions():
            source = ast.parse(generate_engine_source(decision))
            names = [
                node.name
                for node in ast.walk(source)
                if isinstance(node, ast.FunctionDef)
            ]
            assert "specialized_step" in names

    def test_no_placeholders_survive_generation(self):
        for decision in self._decisions():
            assert "__" not in generate_engine_source(decision).replace(
                "__dict__", ""
            )
