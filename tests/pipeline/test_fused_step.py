"""The generic engine's fused correct-path step: gate, binding, exactness.

``PipelineModel`` resolves each correctly predicted conditional of a
no-unit, pure-lookup system through
``TagePredictor.spec_resolve_correct`` and builds no per-branch objects
for it.  The reference for every comparison is the same system on a
``TagePredictor`` subclass that declares its lookup impure, which keeps
the full lookup/checkpoint/push/train path.  Both predictors count their
full lookups, so each test also shows which path actually ran.

The full path itself is pinned too: every Table 3 system's ``SimStats``
on both imported fixtures and a synthetic trace (plus one sampled run)
against digests taken before the path took history checkpoints only for
wrongly predicted branches, and a check that it now does exactly that.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.harness.runner import build_model, load_trace
from repro.harness.sampling import SamplingConfig, run_sampled
from repro.harness.systems import TABLE3_SYSTEMS, build_system, resolve_system
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelineModel
from repro.predictors.base import Prediction
from repro.predictors.history import GlobalHistory
from repro.predictors.tage import TageConfig, TagePredictor
from repro.telemetry import TELEMETRY, PredictEvent
from repro.telemetry.sink import EventSink
from repro.trace.records import BranchKind, BranchRecord
from repro.workloads.suite import get_workload

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

    def test_local_unit_system_takes_full_path(self):
        records = _workload()
        _, unit = build_system(resolve_system("forward-walk-coalesce"))
        model = _model(_CountingTage, TageConfig.kb8(), unit=unit)
        stats = model.run(records)
        assert model.baseline.lookups == stats.cond_branches + stats.wrong_path_branches


class _RecordingModel(PipelineModel):
    """The generic engine, keeping every in-flight branch it issues."""

    def __init__(self, *args, **kwargs) -> None:
        self.issued: list = []
        super().__init__(*args, **kwargs)

    def _issue(self, record, wrong_path, fused=None):
        branch = super()._issue(record, wrong_path, fused)
        if branch is not None:
            self.issued.append(branch)
        return branch


@pytest.mark.parametrize("system", ["forward-walk-coalesce", "split-bht"])
def test_history_checkpoints_only_for_wrong_final_directions(system, monkeypatch):
    taken = []
    checkpoint = GlobalHistory.checkpoint

    def counting_checkpoint(history):
        ckpt = checkpoint(history)
        taken.append(ckpt)
        return ckpt

    monkeypatch.setattr(GlobalHistory, "checkpoint", counting_checkpoint)
    baseline, unit = build_system(resolve_system(system))
    model = _RecordingModel(baseline, unit=unit, hierarchy=CacheHierarchy())
    stats = model.run(_workload())
    owners = {id(b.hist_ckpt): b for b in model.issued if b.hist_ckpt is not None}
    assert len(owners) == len(taken)
    for ckpt in taken:
        owner = owners[id(ckpt)]
        assert owner.predicted_taken != owner.record.taken
    # Every branch an episode recovers from carries its checkpoint.
    wrong = [b for b in model.issued if b.predicted_taken != b.record.taken]
    assert all(b.hist_ckpt is not None for b in wrong)
    assert 0 < len(taken) < stats.cond_branches + stats.wrong_path_branches


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


# --------------------------------------------------------------------- #
# Table 3 systems against pinned digests

def _stats_digest(stats) -> str:
    """Content hash of every ``SimStats`` field, ``extra`` included.

    A superset of what a ``RunResult`` reports (``simbench/child.py``'s
    ``result_digest``): the counters ``ipc``/``mpki`` derive from, plus
    the wrong-path, early-resteer and baseline-only counts.
    """
    text = json.dumps(asdict(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_DIGEST_TRACES = {
    "public-quicksort": lambda: _imported("quicksort.champsim.gz", "public-quicksort")[:2000],
    "public-dijkstra": lambda: _imported("dijkstra.bt9", "public-dijkstra")[:2000],
    "synthetic": lambda: _synthetic_trace(random.Random(0xF05E), 2000),
}

#: ``(system, trace) -> digest``, pinned from the engine that still took
#: a history checkpoint for every conditional and built a ``TageLookup``
#: per lookup.  A change here is a model change, never a refactor.
_PINNED: dict[tuple[str, str], str] = {
    ("baseline-tage", "public-quicksort"): "b229c43c9b26a03c",
    ("baseline-tage", "public-dijkstra"): "d2f1a7d77222d91f",
    ("baseline-tage", "synthetic"): "72c91b012aa72da1",
    ("no-repair", "public-quicksort"): "1f008d4acffbb293",
    ("no-repair", "public-dijkstra"): "470bf2996c8f114c",
    ("no-repair", "synthetic"): "16e464f0abd61fff",
    ("snapshot", "public-quicksort"): "5835a8e0ddb3c0d1",
    ("snapshot", "public-dijkstra"): "82eff608b632e15a",
    ("snapshot", "synthetic"): "a8e698e59341d46d",
    ("retire-update", "public-quicksort"): "ca5bb9d13cf35269",
    ("retire-update", "public-dijkstra"): "eb3b7ab5d46cd759",
    ("retire-update", "synthetic"): "34109105b842f922",
    ("backward-walk", "public-quicksort"): "53be53c282de68be",
    ("backward-walk", "public-dijkstra"): "2bcb454926706a7a",
    ("backward-walk", "synthetic"): "8a829a0d07776e18",
    ("limited-2pc", "public-quicksort"): "1734816ae912e530",
    ("limited-2pc", "public-dijkstra"): "24f5c8b063d4967c",
    ("limited-2pc", "synthetic"): "b395eab23a20e828",
    ("split-bht", "public-quicksort"): "1dbf64824dab3114",
    ("split-bht", "public-dijkstra"): "bdc4ed97decbfa4d",
    ("split-bht", "synthetic"): "f0e517fc469467dd",
    ("limited-4pc", "public-quicksort"): "c2fef6a640d540b7",
    ("limited-4pc", "public-dijkstra"): "fd0c72bed7a6d7a7",
    ("limited-4pc", "synthetic"): "7c83278f510a9e0f",
    ("forward-walk", "public-quicksort"): "a984047eda4782fe",
    ("forward-walk", "public-dijkstra"): "bbde2767a7648eff",
    ("forward-walk", "synthetic"): "f859fde35c3b338a",
    ("forward-walk-coalesce", "public-quicksort"): "611be797626b6079",
    ("forward-walk-coalesce", "public-dijkstra"): "b132ff6dd4207167",
    ("forward-walk-coalesce", "synthetic"): "ac3b56cb6865be93",
    ("perfect-repair", "public-quicksort"): "7b2687e001e262cf",
    ("perfect-repair", "public-dijkstra"): "334bd128cad06903",
    ("perfect-repair", "synthetic"): "0b0f95be4fcdd041",
}

#: ``forward-walk-coalesce`` sampled on hpc-fft (6,000 branches).
_PINNED_SAMPLED = "ccaf4e3896c6b963"


@pytest.fixture(scope="module")
def _digest_traces(tmp_path_factory):
    """The three traces, imported once into a module-scoped store."""
    root = tmp_path_factory.mktemp("digest-traces")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_CACHE", str(root / "traces"))
        patch.setenv("REPRO_TRACE_STORE", str(root / "store"))
        patch.setenv("REPRO_OFFLINE", "1")
        return {name: make() for name, make in _DIGEST_TRACES.items()}


@pytest.mark.parametrize("system", [config.name for config in TABLE3_SYSTEMS])
def test_table3_system_matches_pinned_digests(system, _digest_traces):
    config = resolve_system(system)
    got = {
        trace: _stats_digest(build_model(config).run(records))
        for trace, records in _digest_traces.items()
    }
    assert got == {trace: _PINNED[(system, trace)] for trace in _digest_traces}


def test_sampled_forward_walk_coalesce_matches_pinned_digest():
    config = SamplingConfig(mode="periodic", interval=500, coverage=0.25, warmup=600)
    model = build_model(resolve_system("forward-walk-coalesce"))
    stats = run_sampled(model, _workload(n=6000), config)
    assert _stats_digest(stats) == _PINNED_SAMPLED
