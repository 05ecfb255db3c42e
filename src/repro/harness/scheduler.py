"""Sweep scheduling: one planning/dispatch path for CLI and service.

Historically :func:`repro.harness.runner.run_matrix` mixed three
concerns — enumerating the (workload x system) job list, consulting the
persistent result cache, and driving a process pool.  The simulation
service needs the same behaviour behind a concurrent API, so those
concerns now live here:

* :class:`Engine` and :func:`select_engine` — the engine a job runs
  on, chosen in exactly one place from the user's request (``batch``,
  ``sampling``) and the telemetry state;
* :class:`SimJob` — one declarative, picklable (workload, system)
  simulation unit carrying its engine, with its provenance manifest
  available *before* the run (that manifest is the result-cache key and
  the service's dedup key);
* :class:`Scheduler` — plans job lists (including ``--shard K/N``
  slicing), splits off jobs answerable from the persistent result
  cache, and dispatches the rest to a pluggable
  :class:`~repro.harness.executors.Executor`.

Every job gets its trace from :func:`~repro.harness.runner.load_trace`
in whichever process runs it (a batch group decodes the trace-cache
file with :func:`~repro.trace.columns.load_columnar`); nothing is
prepared ahead of the executor.

``run_matrix`` is a thin wrapper over this module; the service submits
the same :class:`SimJob` lists through the same :meth:`Scheduler.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ConfigError
from repro.harness.executors import (
    Executor,
    InlineExecutor,
    ProcessPoolExecutorBackend,
)
from repro.harness.result_cache import ResultCache, active_cache
from repro.harness.sampling import SamplingConfig
from repro.harness.systems import SystemConfig, table_predictor_spec
from repro.pipeline.config import DEFAULT_PIPELINE, PipelineConfig
from repro.telemetry import TELEMETRY
from repro.telemetry.manifest import EnvPairs, build_manifest, capture_env
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import RunResult

__all__ = [
    "Engine",
    "EXACT",
    "BATCH",
    "select_engine",
    "SimJob",
    "Scheduler",
    "execute_job",
    "default_executor",
    "pool_executor",
]

_ENGINE_KINDS = ("exact", "batch", "sampled")


@dataclass(frozen=True)
class Engine:
    """The engine one job runs on: exact, batch or sampled.

    * ``exact`` — the generic detailed engine;
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
        covers its ``sampling`` payload instead).
        """
        return "batch" if self.kind == "batch" else None


EXACT = Engine()
BATCH = Engine("batch")

#: Requests ``select_engine`` did not honour: ``(request, why)`` pairs.
Declined = tuple[tuple[str, str], ...]


def select_engine(
    system: SystemConfig,
    *,
    sampling: SamplingConfig | None,
    batch: bool,
    telemetry: bool,
) -> tuple[Engine, Declined]:
    """Choose the engine for one (system, request); the only place that does.

    Rules, in order:

    1. ``batch`` with an enabled ``sampling`` raises :class:`ConfigError`.
    2. Enabled sampling runs sampled.
    3. Active ``telemetry`` runs exact; ``batch`` is declined (batch
       results carry no event stream).
    4. ``batch`` on a table-indexed predictor runs on the batch kernel;
       on any other system it is declined.
    5. Otherwise exact.

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
        return Engine("sampled", sampling), ()
    if not batch:
        return EXACT, ()
    if telemetry:
        return EXACT, (("batch", "telemetry active"),)
    if table_predictor_spec(system) is not None:
        return BATCH, ()
    return EXACT, (("batch", "not a table predictor"),)


@dataclass(frozen=True)
class SimJob:
    """One schedulable (workload, system) simulation.

    Frozen and picklable so any executor — inline or process pool — can
    carry it unchanged.  ``engine`` is chosen at *plan* time by
    :func:`select_engine`, so the manifest a job is planned with (its
    cache and dedup key) is the manifest its run carries.  ``env`` is
    the ``REPRO_*`` environment :meth:`Scheduler.plan` captured (None:
    capture it when the manifest is built).
    """

    spec: WorkloadSpec
    system: SystemConfig
    n_branches: int
    pipeline: PipelineConfig | None = None
    use_result_cache: bool | None = None
    engine: Engine = EXACT
    #: ``select_engine``'s declined requests for this job.
    declined: Declined = ()
    env: EnvPairs | None = None

    def manifest(self) -> dict[str, Any]:
        """The provenance manifest this job's run would carry."""
        return build_manifest(
            self.spec,
            self.system,
            self.n_branches,
            self.pipeline if self.pipeline is not None else DEFAULT_PIPELINE,
            sampling=self.engine.sampling,
            engine=self.engine.tag,
            env=self.env,
        ).as_dict()

    def attach_declined(self, result: "RunResult") -> "RunResult":
        """``result`` with this job's declined requests in its manifest.

        They describe this request, not the run that filled the cache,
        so every path that answers a job (fresh run or cache hit)
        attaches them last.
        """
        if self.declined and result.manifest is not None:
            result.manifest["declined"] = dict(self.declined)
        return result


def execute_job(job: SimJob) -> Any:
    """Run one job in the current process (the executor entry point).

    Module-level (not a method) so :class:`ProcessPoolExecutorBackend`
    can pickle it to workers.  Dispatches on ``job.engine``: a batch job
    runs through the kernel as a one-config group, every other engine
    through the runner's scalar path, which loads the trace itself.
    """
    if job.engine.kind == "batch":
        from repro.harness.batch import BatchExecutor

        return BatchExecutor().execute([job])[0]
    from repro.harness.runner import _simulate_job

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
    return pool_executor(n_jobs, n_systems, _worker_count(n_jobs, override=workers))


def pool_executor(
    n_jobs: int, n_systems: int, workers: int
) -> ProcessPoolExecutorBackend:
    """A ``workers``-process pool whose chunks follow the workload-major order.

    A chunk holds at most one workload's ``n_systems`` jobs, so with at
    least as many workloads as workers one worker runs all systems of a
    workload in sequence: its worker-local trace memo then loads (or
    generates) each trace exactly once.
    """
    chunksize = max(1, min(n_systems, -(-n_jobs // workers)))
    return ProcessPoolExecutorBackend(workers=workers, chunksize=chunksize)


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
    ) -> list[SimJob]:
        """The workload-major job list, optionally shard-sliced.

        Each system's engine comes from :func:`select_engine` under the
        current telemetry state.  The choice depends on the job alone,
        never on which other jobs share the plan or the shard.  The
        ``REPRO_*`` environment is captured once, here, for every job's
        manifest.
        """
        from repro.harness.runner import shard_bounds

        telemetry = TELEMETRY.enabled
        env = capture_env()
        choices = [
            select_engine(system, sampling=sampling, batch=batch, telemetry=telemetry)
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
                env=env,
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
                hits[index] = job.attach_declined(cached)
            else:
                misses.append(job)
        return hits, misses

    # ------------------------------------------------------------- #
    # dispatch

    # simbench's traced run wraps this method by name (the ``harness``
    # span); it goes when the next benchmark change drops that entry.
    def run(
        self, jobs: Sequence[SimJob], executor: Executor | None = None
    ) -> list[Any]:
        """Execute ``jobs`` on ``executor`` (default inline), in order."""
        if executor is None:
            executor = InlineExecutor()
        return executor.execute(list(jobs))
