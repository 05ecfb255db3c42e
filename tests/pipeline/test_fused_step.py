"""The generic engine's fused correct-path step: gate, binding, exactness.

``PipelineModel`` resolves each correctly predicted conditional of a
no-unit, pure-lookup system through
``TagePredictor.spec_resolve_correct`` and builds no per-branch objects
for it.  The reference for every comparison is the same system on a
``TagePredictor`` subclass that declares its lookup impure, which keeps
the full lookup/checkpoint/push/train path.  Both predictors count their
full lookups, so each test also shows which path actually ran.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.harness.runner import load_trace
from repro.harness.sampling import SamplingConfig, run_sampled
from repro.harness.systems import build_system, resolve_system
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelineModel
from repro.predictors.base import Prediction
from repro.predictors.tage import TageConfig, TagePredictor
from repro.telemetry import TELEMETRY, PredictEvent
from repro.telemetry.sink import EventSink
from repro.trace.records import BranchRecord
from repro.workloads.suite import get_workload
from tests.pipeline.test_specialize import _synthetic_trace

_FIXTURES = Path(__file__).resolve().parent.parent / "data" / "traces"


class _CountingTage(TagePredictor):
    """Stock TAGE that counts full lookups (the fused step makes none)."""

    lookups = 0

    def lookup(self, pc: int) -> Prediction:
        self.lookups += 1
        return super().lookup(pc)


class _UnfusedTage(_CountingTage):
    """The same predictor, barred from the fused step by its gate."""

    pure_lookup = False


class _ListSink(EventSink):
    def __init__(self) -> None:
        self.events: list[object] = []

    def emit(self, event: object) -> None:
        self.events.append(event)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_OFFLINE", "1")


def _model(predictor: type[_CountingTage], config: TageConfig, unit=None):
    return PipelineModel(
        predictor(config),
        unit=unit,
        config=PipelineConfig(),
        hierarchy=CacheHierarchy(),
    )


def _workload(name: str = "hpc-fft", n: int = 3000) -> list[BranchRecord]:
    return list(load_trace(get_workload(name), n))


def _imported(fixture: str, name: str) -> list[BranchRecord]:
    from repro.harness import tracestore

    spec = tracestore.import_trace(_FIXTURES / fixture, name=name)
    return list(load_trace(spec, min(spec.trace_records, 4000)))


_CASES = {
    "baseline-tage": (TageConfig.kb8, lambda: _workload()),
    "kb9": (TageConfig.kb9, lambda: _workload()),
    "kb64": (TageConfig.kb64, lambda: _workload(n=2000)),
    "synthetic": (TageConfig.kb8, lambda: _synthetic_trace(random.Random(0xF05E), 3000)),
    "public-quicksort": (
        TageConfig.kb8,
        lambda: _imported("quicksort.champsim.gz", "public-quicksort"),
    ),
    "public-dijkstra": (
        TageConfig.kb8,
        lambda: _imported("dijkstra.bt9", "public-dijkstra"),
    ),
}


class TestFusedEqualsFullPath:
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_stats_identical_and_fused_path_engaged(self, case):
        preset, make_records = _CASES[case]
        records = make_records()
        fused = _model(_CountingTage, preset())
        reference = _model(_UnfusedTage, preset())
        stats = fused.run(records)
        expected = reference.run(records)
        assert stats == expected  # every field, ``extra`` included
        # Only mispredicted and wrong-path conditionals took a full
        # lookup on the fused side; the reference looked up every one.
        assert fused.baseline.lookups == stats.base_wrong + stats.wrong_path_branches
        assert (
            reference.baseline.lookups
            == expected.cond_branches + expected.wrong_path_branches
        )
        assert stats.base_wrong < stats.cond_branches

    def test_sampled_run_identical(self):
        records = _workload(n=6000)
        config = SamplingConfig(
            mode="periodic", interval=500, coverage=0.25, warmup=600
        )
        fused = _model(_CountingTage, TageConfig.kb8())
        reference = _model(_UnfusedTage, TageConfig.kb8())
        stats = run_sampled(fused, records, config)
        assert "sampling" in stats.extra
        assert stats == run_sampled(reference, records, config)
        assert fused.baseline.lookups < reference.baseline.lookups

    def test_rebinding_follows_a_replaced_baseline(self):
        # The specialize driver swaps in a restored baseline and calls
        # _bind_hot_paths; the fused step must then train the new one.
        records = _workload()
        model = _model(_CountingTage, TageConfig.kb8())
        old = model.baseline
        model.baseline = _CountingTage(TageConfig.kb8())
        model._bind_hot_paths()
        stats = model.run(records)
        assert stats == _model(_UnfusedTage, TageConfig.kb8()).run(records)
        assert old.history.ghist == 0 and old.lookups == 0

    def test_local_unit_system_takes_full_path(self):
        records = _workload()
        _, unit = build_system(resolve_system("forward-walk-coalesce"))
        model = _model(_CountingTage, TageConfig.kb8(), unit=unit)
        stats = model.run(records)
        assert model.baseline.lookups == stats.cond_branches + stats.wrong_path_branches


def test_traced_run_emits_one_predict_event_per_conditional():
    records = _workload()
    baseline, unit = build_system(resolve_system("baseline-tage"))
    model = PipelineModel(baseline, unit=unit, hierarchy=CacheHierarchy())
    # Tracing starts after the model is built: the engine must notice
    # at run time, not only when it binds its hot paths.
    was_enabled = TELEMETRY.enabled
    sink = _ListSink()
    TELEMETRY.attach_sink(sink)
    try:
        stats = model.run(records)
    finally:
        TELEMETRY.detach_sink()
        if not was_enabled:
            TELEMETRY.disable()
    predicts = [e for e in sink.events if isinstance(e, PredictEvent)]
    assert sum(not e.wrong_path for e in predicts) == stats.cond_branches
    assert len(predicts) == stats.cond_branches + stats.wrong_path_branches
