"""Experiment runner: (workload x system) sweeps with caching.

The runner generates each workload's trace once (disk-cached under
``.repro-cache/``), simulates every requested system against it, and
returns per-run measurements.  Sweeps fan out across processes when
more than a handful of runs are requested.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

from repro.errors import ConfigError, TraceError
from repro.harness.result_cache import active_cache
from repro.harness.sampling import SamplingConfig, run_sampled
from repro.harness.scale import Scale
from repro.harness.scheduler import SimJob, select_engine
from repro.harness.systems import SystemConfig, build_system
from repro.memory.hierarchy import CacheHierarchy
from repro.metrics.aggregate import WorkloadResult
from repro.pipeline.config import DEFAULT_PIPELINE, PipelineConfig
from repro.pipeline.core import PipelineModel
from repro.telemetry import TELEMETRY
from repro.trace.io import read_trace, write_trace
from repro.trace.records import BranchRecord
from repro.workloads.generators.engine import generate_trace
from repro.workloads.public import ImportedTraceSpec
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import suite_by_category

__all__ = [
    "RunResult",
    "run_single",
    "run_matrix",
    "select_workloads",
    "shard_bounds",
    "trace_cache_path",
    "validate_shard",
    "pair_results",
]

_CACHE_ENV = "REPRO_TRACE_CACHE"
_WORKERS_ENV = "REPRO_WORKERS"


@dataclass(frozen=True)
class RunResult:
    """One (workload, system) measurement."""

    workload: str
    category: str
    system: str
    ipc: float
    mpki: float
    instructions: int
    cycles: int
    mispredictions: int
    extra: dict[str, Any]
    #: Provenance record (config/workload hashes, versions, env, wall
    #: time) — see :mod:`repro.telemetry.manifest`.  None only for
    #: results loaded from pre-manifest files.
    manifest: dict[str, Any] | None = field(default=None, compare=False)


def _cache_dir() -> Path | None:
    """Trace cache directory, or None when caching is disabled."""
    value = os.environ.get(_CACHE_ENV, ".repro-cache")
    if value in ("", "off", "none"):
        return None
    return Path(value)


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a writer PID on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - pid out of range etc.
        return False
    return True


def _sweep_stale_tmp(cache: Path) -> None:
    """Remove ``*.<pid>.tmp`` files whose writer process is gone.

    Crashed or killed sweeps leave their PID-unique temp files behind;
    because the PID is embedded in the name, any tmp file whose writer
    no longer exists is garbage by construction and safe to delete.
    Files of live writers (including our own) are left alone.
    """
    for tmp in cache.glob("*.tmp"):
        parts = tmp.name.split(".")
        if len(parts) < 3 or not parts[-2].isdigit():
            continue
        pid = int(parts[-2])
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - already gone / perms
            pass


#: Worker-local memo of decoded traces.  A sweep hands each worker all
#: systems of one workload back to back (see the ``chunksize`` grouping
#: in :func:`~repro.harness.scheduler.pool_executor`), so a tiny LRU
#: means each process decodes a given trace once instead of once per
#: system.  Entries are shared lists of frozen records — callers must
#: treat them as immutable.
_TRACE_MEMO: OrderedDict[tuple[str, int, int], list[BranchRecord]] = OrderedDict()
_TRACE_MEMO_MAX = 8


def _memo_put(key: tuple[str, int, int], records: list[BranchRecord]) -> None:
    _TRACE_MEMO[key] = records
    if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
        _TRACE_MEMO.popitem(last=False)


def trace_cache_path(spec: WorkloadSpec, n_branches: int) -> Path | None:
    """The on-disk cache file for a workload's trace, or None when off.

    The file is not guaranteed to exist — this is the *name* contract
    shared by :func:`load_trace` (which writes it) and
    :func:`load_trace_columns` (which decodes it columnar-ly, skipping
    record objects).

    Imported traces (:class:`~repro.workloads.public.ImportedTraceSpec`)
    are their own cache: the store file is the whole trace, so it is
    usable whenever the run replays the full trace.  A truncating run
    (``n_branches`` below the stored length) returns None — whole-file
    columnar decoding would silently simulate too many records.
    """
    if isinstance(spec, ImportedTraceSpec):
        path = Path(spec.path)
        if n_branches >= spec.trace_records and path.exists():
            return path
        return None
    cache = _cache_dir()
    if cache is None:
        return None
    return cache / f"{spec.name}-{spec.seed}-{n_branches}.trace"


def _load_imported(spec: ImportedTraceSpec, n_branches: int) -> list[BranchRecord]:
    """Read an imported trace from the store, truncated to the run length.

    The store file is the source of truth — nothing is regenerated and
    nothing is written back.  Memoized under the same key scheme as
    synthetic traces so sweeps decode each imported trace once per
    process.
    """
    key = (spec.name, spec.seed, n_branches)
    records = _TRACE_MEMO.get(key)
    if records is not None:
        _TRACE_MEMO.move_to_end(key)
        return records
    TELEMETRY.registry.counter("trace.decodes").inc()
    path = Path(spec.path)
    if not path.exists():
        raise TraceError(
            f"imported trace {spec.name!r} is missing its store file {path}; "
            "re-run 'repro trace import' or 'repro trace fetch'"
        )
    records = read_trace(path)
    if n_branches < len(records):
        records = records[:n_branches]
    _memo_put(key, records)
    return records


def load_trace(spec: WorkloadSpec, n_branches: int) -> list[BranchRecord]:
    """Generate (or load from cache) the trace for ``spec``.

    Returns a memoized list shared across calls in this process — do
    not mutate it.  The disk cache is still populated on memo hits, so
    enabling ``REPRO_TRACE_CACHE`` mid-process behaves as if the memo
    did not exist.

    Imported traces skip the generator/cache machinery entirely and
    read their store file (see :func:`_load_imported`).
    """
    if isinstance(spec, ImportedTraceSpec):
        return _load_imported(spec, n_branches)
    key = (spec.name, spec.seed, n_branches)
    records = _TRACE_MEMO.get(key)
    if records is not None:
        _TRACE_MEMO.move_to_end(key)
    cache = _cache_dir()
    path = trace_cache_path(spec, n_branches)
    if cache is None or path is None:
        if records is None:
            TELEMETRY.registry.counter("trace.decodes").inc()
            records = generate_trace(spec, n_branches)
            _memo_put(key, records)
        return records
    if records is None:
        TELEMETRY.registry.counter("trace.decodes").inc()
        if path.exists():
            try:
                records = read_trace(path)
            except TraceError:
                # A truncated or corrupt cache file (interrupted writer,
                # disk trouble) is a cache miss, not a fatal error: drop
                # it and regenerate below.
                path.unlink(missing_ok=True)
            else:
                _memo_put(key, records)
                return records
        records = generate_trace(spec, n_branches)
        _memo_put(key, records)
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        _sweep_stale_tmp(cache)
        # PID-unique tmp name: two uncoordinated processes generating
        # the same workload must not interleave writes into one tmp
        # file; the final rename stays atomic and the contents are
        # identical either way.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        write_trace(tmp, records)
        tmp.replace(path)
    return records


def load_trace_columns(spec: WorkloadSpec, n_branches: int) -> Any:
    """The trace for ``spec`` as a :class:`~repro.trace.columns.ColumnarTrace`.

    The batch kernel's loader; typed ``Any`` because the columns module,
    and NumPy with it, is imported only here.  Decodes the trace-cache
    file with the memoized columnar loader (no record objects), else
    converts :func:`load_trace`'s records.  A corrupt cache file of a
    synthetic workload is a miss here too: it is dropped, and
    ``load_trace`` regenerates the trace and rewrites the file.  An
    imported trace's store file is the source of truth, so its errors
    propagate.
    """
    from repro.trace.columns import ColumnarTrace, load_columnar

    path = trace_cache_path(spec, n_branches)
    if path is not None and path.exists():
        try:
            return load_columnar(path)
        except TraceError:
            if isinstance(spec, ImportedTraceSpec):
                raise
            # Unlink first: on a memo hit load_trace rewrites the cache
            # file only when it is missing.
            path.unlink(missing_ok=True)
    return ColumnarTrace.from_records(load_trace(spec, n_branches))


def build_model(
    system: SystemConfig, pipeline: PipelineConfig | None = None
) -> PipelineModel:
    """A fresh detailed model of ``system``, as every scalar engine runs it."""
    baseline, unit = build_system(system)
    return PipelineModel(
        baseline,
        unit=unit,
        config=pipeline if pipeline is not None else DEFAULT_PIPELINE,
        hierarchy=CacheHierarchy(),
    )


def run_single(
    spec: WorkloadSpec,
    system: SystemConfig,
    n_branches: int,
    pipeline: PipelineConfig | None = None,
    use_result_cache: bool | None = None,
    sampling: SamplingConfig | None = None,
) -> RunResult:
    """Simulate one system on one workload.

    When the persistent result cache is active (``REPRO_RESULT_CACHE``,
    or ``use_result_cache=True``) and holds a result for this exact
    (system, pipeline, workload recipe, trace length, code version,
    engine), that result is returned without loading the trace or
    simulating.

    ``sampling`` selects the sampled two-speed engine
    (:func:`repro.harness.sampling.run_sampled`); ``None`` or a config
    with ``mode="off"`` runs the exact simulation.  The engine is chosen
    by :func:`~repro.harness.scheduler.select_engine`.
    """
    engine, declined = select_engine(
        system, sampling=sampling, batch=False, telemetry=TELEMETRY.enabled
    )
    return _simulate_job(
        SimJob(
            spec=spec,
            system=system,
            n_branches=n_branches,
            pipeline=pipeline,
            use_result_cache=use_result_cache,
            engine=engine,
            declined=declined,
        )
    )


def _simulate_job(job: SimJob) -> RunResult:
    """Run one planned job on its exact or sampled engine.

    The job's manifest is its result-cache key; a fresh result is stored
    under it.  Batch jobs never come here: :func:`execute_job
    <repro.harness.scheduler.execute_job>` sends them to the kernel.
    """
    spec, system, engine = job.spec, job.system, job.engine
    manifest = job.manifest()
    result_cache = active_cache(job.use_result_cache)
    result = result_cache.load(manifest) if result_cache is not None else None
    if result is None:
        records = load_trace(spec, job.n_branches)
        model = build_model(system, job.pipeline)
        if TELEMETRY.enabled:
            TELEMETRY.begin_run(spec.name, system.name, job.n_branches, manifest)
        t0 = perf_counter()
        if engine.sampling is not None:
            stats = run_sampled(model, records, engine.sampling)
        else:
            stats = model.run(records)
        manifest["wall_s"] = perf_counter() - t0
        if TELEMETRY.enabled:
            TELEMETRY.end_run(stats)
        result = RunResult(
            workload=spec.name,
            category=spec.category,
            system=system.name,
            ipc=stats.ipc,
            mpki=stats.mpki,
            instructions=stats.instructions,
            cycles=stats.cycles,
            mispredictions=stats.mispredictions,
            extra=stats.extra,
            manifest=manifest,
        )
        if result_cache is not None:
            result_cache.store(result)
    return job.attach_declined(result)


def _worker_count(n_jobs: int, override: int | None = None) -> int:
    """Worker processes to use: explicit arg > REPRO_WORKERS env > CPUs."""
    if override is not None:
        return max(1, override)
    env = os.environ.get(_WORKERS_ENV)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"{_WORKERS_ENV} must be an integer worker count, got {env!r}"
            ) from None
    cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_jobs, 16))


def select_workloads(scale: Scale) -> list[WorkloadSpec]:
    """The workloads a scale simulates: first N of every category."""
    selected: list[WorkloadSpec] = []
    for specs in suite_by_category().values():
        selected.extend(specs[: scale.workload_count(len(specs))])
    return selected


def validate_shard(shard: tuple[int, int]) -> tuple[int, int]:
    """Check ``(k, n)`` shard coordinates, rejecting out-of-range pairs.

    Every consumer of ``--shard K/N`` — the CLI parser, the matrix
    runner, and the service's sweep requests — funnels through this
    check, so ``K > N``, ``K < 1`` and ``N < 1`` all fail loudly with a
    :class:`ConfigError` instead of silently selecting an empty or
    wrong partition.
    """
    k, n = shard
    if n < 1 or not 1 <= k <= n:
        raise ConfigError(f"shard must be K/N with 1 <= K <= N, got {k}/{n}")
    return k, n


def shard_bounds(count: int, shard: tuple[int, int]) -> tuple[int, int]:
    """[start, end) of 1-based shard ``(k, n)`` over ``count`` items.

    Contiguous balanced partition: sizes differ by at most one, every
    item lands in exactly one shard, and the split depends only on
    ``count`` and ``(k, n)`` — so N uncoordinated processes running
    ``--shard 1/N .. N/N`` cover the matrix exactly once.  Contiguity
    preserves the workload-major job order, keeping each workload's
    systems (and therefore its trace) on as few shards as possible.
    """
    k, n = validate_shard(shard)
    base, rem = divmod(count, n)
    start = (k - 1) * base + min(k - 1, rem)
    return start, start + base + (1 if k - 1 < rem else 0)


def run_matrix(
    workloads: Sequence[WorkloadSpec],
    systems: Sequence[SystemConfig],
    scale: Scale,
    pipeline: PipelineConfig | None = None,
    parallel: bool | None = None,
    workers: int | None = None,
    use_result_cache: bool | None = None,
    sampling: SamplingConfig | None = None,
    shard: tuple[int, int] | None = None,
    batch: bool = False,
) -> list[RunResult]:
    """Run every system against every workload.

    Results come back grouped by workload then system, in input order.
    ``parallel=None`` auto-enables process fan-out for larger sweeps;
    ``workers`` pins the process count (overriding ``REPRO_WORKERS``),
    with ``workers=1`` forcing a sequential in-process sweep.
    ``use_result_cache`` is the tri-state persistent-cache override.
    ``shard=(k, n)`` runs only the k-th of n contiguous balanced
    partitions of the job list (see :func:`shard_bounds`).

    ``sampling`` and ``batch`` request engines; each job's engine is
    chosen by
    :func:`~repro.harness.scheduler.select_engine`.  Batch jobs
    (table-indexed predictor configs) sharing a workload are evaluated
    in one vectorised kernel pass (:mod:`repro.pipeline.batch`: exact
    predictions and MPKI, no pipeline timing); the other jobs run on
    the normal executor.

    This is a thin wrapper over :class:`repro.harness.scheduler.Scheduler`
    — the same planning/dispatch path the ``repro serve`` service uses.
    """
    from repro.harness.scheduler import Scheduler, default_executor

    scheduler = Scheduler(use_result_cache=use_result_cache)
    jobs = scheduler.plan(
        workloads,
        systems,
        scale.branches_per_workload,
        pipeline=pipeline,
        sampling=sampling,
        shard=shard,
        batch=batch,
    )
    executor = default_executor(
        len(jobs), len(systems), parallel=parallel, workers=workers
    )
    if any(job.engine.kind == "batch" for job in jobs):
        from repro.harness.batch import BatchExecutor

        executor = BatchExecutor(inner=executor)
    return scheduler.run(jobs, executor)


def pair_results(
    results: Sequence[RunResult], baseline_system: str
) -> dict[str, list[WorkloadResult]]:
    """Pair each system's runs with the baseline runs per workload.

    Returns {system name: [WorkloadResult...]} for every non-baseline
    system present in ``results``.
    """
    baselines = {r.workload: r for r in results if r.system == baseline_system}
    paired: dict[str, list[WorkloadResult]] = {}
    for result in results:
        if result.system == baseline_system:
            continue
        base = baselines.get(result.workload)
        if base is None:
            continue
        paired.setdefault(result.system, []).append(
            WorkloadResult(
                workload=result.workload,
                category=result.category,
                baseline_mpki=base.mpki,
                system_mpki=result.mpki,
                baseline_ipc=base.ipc,
                system_ipc=result.ipc,
            )
        )
    return paired
