"""Span tracing for the traced run, and the per-layer analysis of its spans.

A layer is a module under ``src/repro``.  :data:`ENTRY_POINTS` names the
public entry points whose calls are timed for each layer.  The tracer wraps
them from outside the program: methods at class level, module functions at
every module-level binding in ``repro`` (``from x import f`` copies the
binding, so patching only the defining module would miss callers).  Wrappers
must go in before any system is built, because ``PipelineModel`` binds
``lookup``/``checkpoint``/``push`` when it is constructed.

Each span records its entry point, start, end, parent span and job id in flat
arrays kept in memory; :meth:`Tracer.write` stores them when the run ends and
:func:`summarize` turns them into per-layer self times.  A layer's self time
is its span time minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (layer, module, entry point).  ``RepairScheme.*`` stands for the same
#: method on every concrete ``RepairScheme`` subclass.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("predictors", "repro.predictors.tage", "TagePredictor.lookup"),
    ("predictors", "repro.predictors.tage", "TagePredictor.train"),
    ("predictors", "repro.predictors.tage", "TagePredictor.recover"),
    ("predictors", "repro.predictors.history", "GlobalHistory.checkpoint"),
    ("predictors", "repro.predictors.history", "GlobalHistory.push"),
    ("predictors", "repro.predictors.history", "GlobalHistory.restore"),
    *(
        ("core", module, f"{cls}.{method}")
        for module, cls in (
            ("repro.core.unit", "StandardLocalUnit"),
            ("repro.core.repair.multistage", "MultiStageUnit"),
        )
        for method in ("predict", "at_alloc", "resolve", "retire")
    ),
    *(
        ("core.repair", "repro.core.repair", f"RepairScheme.{method}")
        for method in (
            "can_predict",
            "can_update",
            "before_update",
            "on_spec_update",
            "note_resolution",
            "on_mispredict",
            "on_retire",
        )
    ),
    ("pipeline", "repro.pipeline.core", "PipelineModel.run"),
    ("memory", "repro.memory.hierarchy", "CacheHierarchy.load_latency"),
    ("pipeline.batch", "repro.pipeline.batch", "run_batch"),
    ("workloads", "repro.workloads.generators.engine", "generate_trace"),
    ("trace", "repro.trace.io", "read_trace"),
    ("trace", "repro.trace.io", "write_trace"),
    ("trace", "repro.trace.columns", "load_columnar"),
    ("trace", "repro.trace.columns", "ColumnarTrace.from_records"),
    ("harness", "repro.harness.scheduler", "Scheduler.plan"),
    ("harness", "repro.harness.scheduler", "Scheduler.run"),
    ("harness", "repro.harness.runner", "run_single"),
    ("harness", "repro.harness.batch", "BatchExecutor.execute"),
    ("harness", "repro.harness.result_cache", "ResultCache.load"),
    ("harness", "repro.harness.result_cache", "ResultCache.store"),
    ("telemetry", "repro.telemetry.manifest", "build_manifest"),
)

#: Every layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


def _count_pipeline(counts: Counter[str], args: tuple[Any, ...], stats: Any) -> None:
    counts["pipeline.branches"] += stats.branches
    counts["pipeline.wrong_path_branches"] += stats.wrong_path_branches


def _count_batch(counts: Counter[str], args: tuple[Any, ...], result: Any) -> None:
    trace, specs = args[0], args[1]
    counts["pipeline.batch.branch_configs"] += len(trace) * len(specs)


def _count_cache_load(counts: Counter[str], args: tuple[Any, ...], result: Any) -> None:
    counts["harness.cache_loads"] += 1
    counts["harness.cache_hits"] += result is not None


#: Counts taken at an entry point's return, where the work happened.
_HOOKS: dict[str, Callable[[Counter[str], tuple[Any, ...], Any], None]] = {
    "PipelineModel.run": _count_pipeline,
    "run_batch": _count_batch,
    "ResultCache.load": _count_cache_load,
}


class Tracer:
    """In-memory span recorder; inactive until :attr:`active` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        #: Phase of each job id; job 0 is "outside any job".
        self.job_phases: list[str] = ["none"]
        self.counts: dict[str, Counter[str]] = {}
        self.active = False
        self.job = 0
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._job = array("i")
        self._stack: list[int] = []

    def begin_job(self, phase: str) -> None:
        """Start the next job; spans until the next call carry its id."""
        self.job = len(self.job_phases)
        self.job_phases.append(phase)

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` recording one span per call while the tracer is active."""
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        hook = _HOOKS.get(name)
        names, starts, ends = self._name, self._start, self._end
        parents, jobs, stack = self._parent, self._job, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                phase = tracer.job_phases[tracer.job]
                hook(tracer.counts.setdefault(phase, Counter()), args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`.

        All originals are looked up before any wrapper is set, so a
        subclass never picks up its base class's wrapper and no call is
        recorded twice.
        """
        patches: list[tuple[Any, str, Any]] = []
        functions: list[tuple[Any, Any]] = []
        for layer, module_name, entry in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = entry.rpartition(".")
            if not owner_name:
                fn = getattr(module, attr)
                functions.append((fn, self.wrap(fn, entry, layer)))
                continue
            owner = getattr(module, owner_name)
            classes = _concrete_subclasses(owner) if owner_name == "RepairScheme" else [owner]
            for cls in classes:
                raw = _static_lookup(cls, attr)
                name = f"{cls.__name__}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self.wrap(raw.__func__, name, layer))
                else:
                    wrapped = self.wrap(raw, name, layer)
                patches.append((cls, attr, wrapped))
        for cls, attr, wrapped in patches:
            setattr(cls, attr, wrapped)
        modules = [
            module
            for module_name, module in list(sys.modules.items())
            if module is not None and module_name.split(".")[0] == "repro"
        ]
        for fn, wrapped in functions:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def write(self, path: Path, window_s: float) -> None:
        """Store every span plus the names, phases and counts next to them."""
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in (self._name, self._start, self._end, self._parent, self._job):
                column.tofile(handle)
        meta = {
            "spans": len(self._start),
            "names": self.names,
            "layers": self.layers,
            "job_phases": self.job_phases,
            "counts": {phase: dict(counts) for phase, counts in self.counts.items()},
            "window_s": window_s,
        }
        path.with_suffix(".json").write_text(json.dumps(meta))


def _concrete_subclasses(base: type) -> list[type]:
    found: list[type] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if not getattr(cls, "__abstractmethods__", None):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def _static_lookup(cls: type, attr: str) -> Any:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return vars(klass)[attr]
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def summarize(path: Path) -> dict[str, Any]:
    """Per-layer self time and calls, plus inclusive time per entry point.

    Returns ``{"window_s", "layers": {layer: {"self_s", "calls"}},
    "entries": {name: inclusive seconds}, "counts"}``.
    """
    import numpy as np

    meta = json.loads(path.with_suffix(".json").read_text())
    n = meta["spans"]
    raw = path.with_suffix(".bin").read_bytes()
    offset = 0
    columns = []
    for dtype in ("i4", "f8", "f8", "i4", "i4"):
        size = np.dtype(dtype).itemsize * n
        columns.append(np.frombuffer(raw, dtype=dtype, count=n, offset=offset))
        offset += size
    names, starts, ends, parents, _jobs = columns
    durations = ends - starts
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested], minlength=n)
    self_times = durations - covered
    name_self = np.bincount(names, weights=self_times, minlength=len(meta["names"]))
    name_total = np.bincount(names, weights=durations, minlength=len(meta["names"]))
    name_calls = np.bincount(names, minlength=len(meta["names"]))
    layers: dict[str, dict[str, float]] = {
        layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS
    }
    entries: dict[str, float] = {}
    for index, (name, layer) in enumerate(zip(meta["names"], meta["layers"])):
        layers[layer]["self_s"] += float(name_self[index])
        layers[layer]["calls"] += int(name_calls[index])
        entries[name] = float(name_total[index])
    return {
        "window_s": meta["window_s"],
        "layers": layers,
        "entries": entries,
        "counts": meta["counts"],
    }
