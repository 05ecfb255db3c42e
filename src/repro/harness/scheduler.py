"""Sweep scheduling: one planning/dispatch path for CLI and service.

Historically :func:`repro.harness.runner.run_matrix` mixed four
concerns — enumerating the (workload x system) job list, consulting the
persistent result cache, pre-generating traces into shared memory, and
driving a process pool.  The simulation service needs the same
behaviour behind a concurrent API, so those concerns now live here:

* :class:`Engine` and :func:`select_engine` — the engine a job runs
  on, chosen in exactly one place from the user's request (``batch``,
  ``specialize``, ``sampling``) and the telemetry state;
* :class:`SimJob` — one declarative, picklable (workload, system)
  simulation unit carrying its engine, with its provenance manifest
  available *before* the run (that manifest is the result-cache key and
  the service's dedup key);
* :class:`Scheduler` — plans job lists (including ``--shard K/N``
  slicing), splits off jobs answerable from the persistent result
  cache, prepares shared-memory traces for pool executors, and
  dispatches the rest to a pluggable
  :class:`~repro.harness.executors.Executor`.

``run_matrix`` is a thin wrapper over this module; the service submits
the same :class:`SimJob` lists through the same :meth:`Scheduler.run`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.errors import ConfigError
from repro.harness.executors import (
    Executor,
    InlineExecutor,
    ProcessPoolExecutorBackend,
)
from repro.harness.result_cache import ResultCache, active_cache
from repro.harness.sampling import SamplingConfig
from repro.harness.systems import SystemConfig, table_predictor_spec
from repro.pipeline.config import PipelineConfig
from repro.telemetry import TELEMETRY
from repro.telemetry.manifest import build_manifest
from repro.trace.columns import ColumnarTrace, SharedTrace
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "Engine",
    "EXACT",
    "SPECIALIZED",
    "BATCH",
    "select_engine",
    "SimJob",
    "Scheduler",
    "execute_job",
    "default_executor",
]

_ENGINE_KINDS = ("exact", "specialized", "batch", "sampled")


@dataclass(frozen=True)
class Engine:
    """The engine one job runs on: exact, specialized, batch or sampled.

    * ``exact`` — the generic detailed engine;
    * ``specialized`` — trace-guided codegen
      (:mod:`repro.pipeline.specialize`), bit-identical to exact;
    * ``batch`` — the columnar kernel (:mod:`repro.pipeline.batch`):
      exact predictions and MPKI, no pipeline timing;
    * ``sampled`` — interval sampling under ``sampling``, an estimate.

    Only :func:`select_engine` decides which one a request gets.
    """

    kind: str = "exact"
    sampling: SamplingConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ENGINE_KINDS or (self.kind == "sampled") != (
            self.sampling is not None
        ):
            raise ConfigError(f"invalid engine: {self!r}")

    @property
    def tag(self) -> str | None:
        """The manifest ``engine`` tag, folded into ``config_hash``.

        Exact and sampled runs carry none (a sampled run's config hash
        covers its ``sampling`` payload instead).  The specialized tag
        carries :data:`~repro.pipeline.specialize.SPECIALIZE_VERSION`,
        so a codegen change invalidates cached specialized results.
        """
        if self.kind == "batch":
            return "batch"
        if self.kind == "specialized":
            from repro.pipeline.specialize import SPECIALIZE_VERSION

            return f"specialize-v{SPECIALIZE_VERSION}"
        return None


EXACT = Engine()
SPECIALIZED = Engine("specialized")
BATCH = Engine("batch")

#: Requests ``select_engine`` did not honour: ``(request, why)`` pairs.
Declined = tuple[tuple[str, str], ...]


def select_engine(
    system: SystemConfig,
    *,
    sampling: SamplingConfig | None,
    batch: bool,
    specialize: bool,
    telemetry: bool,
) -> tuple[Engine, Declined]:
    """Choose the engine for one (system, request); the only place that does.

    Rules, in order:

    1. ``batch`` with an enabled ``sampling`` raises :class:`ConfigError`.
    2. Enabled sampling runs sampled; ``specialize`` is declined.
    3. Active ``telemetry`` runs exact; ``batch`` and ``specialize`` are
       declined (batch results carry no event stream, and specialized
       code elides the telemetry hooks).
    4. ``batch`` on a table-indexed predictor runs on the batch kernel;
       on any other system it is declined.
    5. ``specialize`` runs specialized (the run-time planner may still
       fall back to generic code, recorded in ``manifest["specialize"]``).
    6. Otherwise exact.

    Returns the engine and the declined ``(request, why)`` pairs, which
    the run copies into ``manifest["declined"]`` after hashing.
    """
    sampled = sampling is not None and sampling.enabled
    if batch and sampled:
        raise ConfigError(
            "batch and sampling are mutually exclusive: the batch sweep "
            "kernel computes exact predictions over the full trace, while "
            "sampling simulates only selected intervals — pick one"
        )
    if sampled:
        return Engine("sampled", sampling), (
            (("specialize", "sampled run"),) if specialize else ()
        )
    if telemetry:
        return EXACT, tuple(
            (request, "telemetry active")
            for request, asked in (("batch", batch), ("specialize", specialize))
            if asked
        )
    if batch and table_predictor_spec(system) is not None:
        return BATCH, ()
    declined: Declined = (("batch", "not a table predictor"),) if batch else ()
    return (SPECIALIZED if specialize else EXACT), declined


@dataclass(frozen=True)
class SimJob:
    """One schedulable (workload, system) simulation.

    Frozen and picklable so any executor — inline or process pool — can
    carry it unchanged.  ``engine`` is chosen at *plan* time by
    :func:`select_engine`, so the manifest a job is planned with (its
    cache and dedup key) is the manifest its run carries.  ``shm_ref``
    is ``(segment name, record count)`` when the scheduler published the
    workload's trace to shared memory, else None.
    """

    spec: WorkloadSpec
    system: SystemConfig
    n_branches: int
    pipeline: PipelineConfig | None = None
    use_result_cache: bool | None = None
    engine: Engine = EXACT
    #: ``select_engine``'s declined requests for this job.
    declined: Declined = ()
    shm_ref: tuple[str, int] | None = None

    def manifest(self) -> dict[str, Any]:
        """The provenance manifest this job's run would carry."""
        pipeline_cfg = self.pipeline if self.pipeline is not None else PipelineConfig()
        return build_manifest(
            self.spec,
            self.system,
            self.n_branches,
            pipeline_cfg,
            sampling=self.engine.sampling,
            engine=self.engine.tag,
        ).as_dict()


def execute_job(job: SimJob) -> Any:
    """Run one job in the current process (the executor entry point).

    Module-level (not a method) so :class:`ProcessPoolExecutorBackend`
    can pickle it to workers.  Dispatches on ``job.engine``: a batch job
    runs through the kernel as a one-config group, every other engine
    through the runner's scalar path, after seeding the worker-local
    trace memo from the job's shared-memory ref.
    """
    if job.engine.kind == "batch":
        from repro.harness.batch import BatchExecutor

        return BatchExecutor().execute([job])[0]
    from repro.harness.runner import _seed_memo_from_shm, _simulate_job

    if job.shm_ref is not None:
        _seed_memo_from_shm(job.spec, job.n_branches, job.shm_ref)
    return _simulate_job(job)


def default_executor(
    n_jobs: int,
    n_systems: int,
    parallel: bool | None = None,
    workers: int | None = None,
) -> Executor:
    """The executor ``run_matrix`` historically picked.

    ``workers`` pins the process count (1 forces inline), ``parallel``
    is the explicit toggle, and ``None`` auto-enables fan-out at 8+
    jobs — exactly the pre-refactor thresholds.
    """
    from repro.harness.runner import _worker_count

    if workers is not None:
        parallel = workers > 1
    elif parallel is None:
        parallel = n_jobs >= 8
    if not parallel or n_jobs <= 1:
        return InlineExecutor()
    n_workers = _worker_count(n_jobs, override=workers)
    # Chunk so one worker handles all systems of a workload in
    # sequence: its worker-local trace memo then materialises each
    # trace exactly once.
    chunksize = max(1, min(n_systems, -(-n_jobs // n_workers)))
    return ProcessPoolExecutorBackend(workers=n_workers, chunksize=chunksize)


class Scheduler:
    """Plans and dispatches simulation jobs against an executor."""

    def __init__(self, use_result_cache: bool | None = None) -> None:
        #: Tri-state persistent-cache override applied to every job
        #: this scheduler plans (None = defer to ``REPRO_RESULT_CACHE``).
        self.use_result_cache = use_result_cache

    # ------------------------------------------------------------- #
    # planning

    def plan(
        self,
        workloads: Sequence[WorkloadSpec],
        systems: Sequence[SystemConfig],
        n_branches: int,
        pipeline: PipelineConfig | None = None,
        sampling: SamplingConfig | None = None,
        shard: tuple[int, int] | None = None,
        batch: bool = False,
        specialize: bool = False,
    ) -> list[SimJob]:
        """The workload-major job list, optionally shard-sliced.

        Each system's engine comes from :func:`select_engine` under the
        current telemetry state.  The choice depends on the job alone,
        never on which other jobs share the plan or the shard.
        """
        from repro.harness.runner import shard_bounds

        telemetry = TELEMETRY.enabled
        choices = [
            select_engine(
                system,
                sampling=sampling,
                batch=batch,
                specialize=specialize,
                telemetry=telemetry,
            )
            for system in systems
        ]
        jobs = [
            SimJob(
                spec=spec,
                system=system,
                n_branches=n_branches,
                pipeline=pipeline,
                use_result_cache=self.use_result_cache,
                engine=engine,
                declined=declined,
            )
            for spec in workloads
            for system, (engine, declined) in zip(systems, choices)
        ]
        if shard is not None:
            start, end = shard_bounds(len(jobs), shard)
            jobs = jobs[start:end]
        return jobs

    # ------------------------------------------------------------- #
    # cache interaction

    def cache(self) -> ResultCache | None:
        """The persistent result cache in effect, or None."""
        return active_cache(self.use_result_cache)

    def split_cached(
        self, jobs: Sequence[SimJob]
    ) -> tuple[dict[int, Any], list[SimJob]]:
        """Partition jobs into cache-answered results and work to run.

        Returns ``(hits, misses)`` where ``hits`` maps each job's index
        in ``jobs`` to its cached
        :class:`~repro.harness.runner.RunResult` and ``misses`` is the
        remaining jobs in order.  With no active cache every job is a
        miss.  This is how the service answers repeat queries without
        re-simulation while still counting exactly what it skipped.
        """
        cache = self.cache()
        hits: dict[int, Any] = {}
        misses: list[SimJob] = []
        if cache is None:
            return hits, list(jobs)
        for index, job in enumerate(jobs):
            cached = cache.load(job.manifest())
            if cached is not None:
                hits[index] = cached
            else:
                misses.append(job)
        return hits, misses

    # ------------------------------------------------------------- #
    # dispatch

    def run(
        self,
        jobs: Sequence[SimJob],
        executor: Executor | None = None,
        shm: bool = True,
    ) -> list[Any]:
        """Execute ``jobs`` on ``executor`` (default inline), in order.

        For executors that want shared traces (the local process pool),
        each workload's trace is generated once in this process and
        published to a shared-memory segment that workers attach
        instead of decoding; workloads whose every job will be answered
        by the persistent result cache skip generation entirely.
        Segments are unlinked on the way out even when a worker dies.
        """
        if executor is None:
            executor = InlineExecutor()
        if not jobs:
            return []
        if not (shm and executor.wants_shared_traces):
            return executor.execute(list(jobs))
        prepared, segments = self._prepare_shared_traces(jobs)
        try:
            return executor.execute(prepared)
        finally:
            for shared in segments:
                shared.unlink()

    def _prepare_shared_traces(
        self, jobs: Sequence[SimJob]
    ) -> tuple[list[SimJob], list[SharedTrace]]:
        """Pre-generate traces serially and publish them to shm.

        Serial generation means workers never race on producing the
        same trace (they would all write identical files, but the work
        would be duplicated).  Returns the jobs with ``shm_ref`` filled
        in plus the live segments the caller must unlink.
        """
        from repro.harness.runner import _shm_enabled, load_trace

        cache = self.cache()
        by_spec: OrderedDict[str, tuple[WorkloadSpec, list[SimJob]]] = OrderedDict()
        for job in jobs:
            by_spec.setdefault(job.spec.name, (job.spec, []))[1].append(job)
        shm_refs: dict[str, tuple[str, int]] = {}
        segments: list[SharedTrace] = []
        use_shm = _shm_enabled()
        try:
            for spec, spec_jobs in by_spec.values():
                if cache is not None and all(
                    cache.has(job.manifest()) for job in spec_jobs
                ):
                    continue
                records = load_trace(spec, spec_jobs[0].n_branches)
                if use_shm:
                    shared = ColumnarTrace.from_records(records).publish()
                    segments.append(shared)
                    shm_refs[spec.name] = (shared.name, len(records))
        except BaseException:
            for shared in segments:
                shared.unlink()
            raise
        prepared = [
            replace(job, shm_ref=shm_refs.get(job.spec.name)) for job in jobs
        ]
        return prepared, segments
