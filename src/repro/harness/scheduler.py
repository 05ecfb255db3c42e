"""Sweep scheduling: the one path that answers a simulation job.

Every result — a ``run_single`` call, a ``run_matrix`` sweep, a
``repro serve`` request — comes from :meth:`Scheduler.run`.  This
module holds:

* :class:`Engine` and :func:`select_engine` — the engine a job runs
  on, chosen in exactly one place from the user's request (``batch``,
  ``sampling``) and the telemetry state;
* :class:`SimJob` — one declarative, picklable (workload, system)
  simulation unit carrying its engine, with its provenance manifest
  available *before* the run (that manifest is the result-cache key and
  the service's dedup key);
* :class:`Scheduler` — plans job lists (including ``--shard K/N``
  slicing) and answers them: :meth:`Scheduler.run` checks each job
  against the persistent result cache, runs batch misses through the
  kernel (:class:`~repro.harness.batch.BatchExecutor`) and the other
  misses with :func:`~repro.harness.runner._simulate_job`, inline or on
  a process pool, and stores every fresh result in the calling process.

Every job gets its trace from :func:`~repro.harness.runner.load_trace`
in whichever process runs it (a batch group decodes the trace-cache
file with :func:`~repro.trace.columns.load_columnar`); nothing is
prepared ahead of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import ConfigError
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

    Frozen and picklable so a pool worker can run it unchanged.
    ``engine`` is chosen at *plan* time by
    :func:`select_engine`, so the manifest a job is planned with (its
    cache and dedup key) is the manifest its run carries.  ``env`` is
    the ``REPRO_*`` environment :meth:`Scheduler.plan` captured (None:
    capture it when the manifest is built).
    """

    spec: WorkloadSpec
    system: SystemConfig
    n_branches: int
    pipeline: PipelineConfig | None = None
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
        so :meth:`Scheduler.run` attaches them to a cache hit, and to a
        fresh result only after storing it.
        """
        if self.declined and result.manifest is not None:
            result.manifest["declined"] = dict(self.declined)
        return result


def _chunksize(jobs: Sequence[SimJob], workers: int) -> int:
    """Pool chunk size for ``jobs``: at most one workload's systems.

    Jobs are workload-major, so with at least as many workloads as
    workers one worker runs all systems of a workload back to back: its
    worker-local trace memo then loads (or generates) each trace once.
    """
    systems = len({job.system.name for job in jobs})
    return max(1, min(systems, -(-len(jobs) // workers)))


class Scheduler:
    """Plans simulation jobs and answers them, cache first."""

    def __init__(self, use_result_cache: bool | None = None) -> None:
        #: Tri-state persistent-cache override for every job this
        #: scheduler answers (None = defer to ``REPRO_RESULT_CACHE``).
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
    # answering

    def split_cached(
        self, jobs: Sequence[SimJob]
    ) -> "tuple[dict[int, RunResult], list[SimJob]]":
        """Partition jobs into cache-answered results and work to run.

        Returns ``(hits, misses)`` where ``hits`` maps each job's index
        in ``jobs`` to its cached
        :class:`~repro.harness.runner.RunResult` and ``misses`` is the
        remaining jobs in order.  With no active cache every job is a
        miss.  The service counts its cache hits with this.
        """
        found = _lookup(jobs, active_cache(self.use_result_cache))
        hits = {index: result for index, result in enumerate(found) if result is not None}
        misses = [job for job, result in zip(jobs, found) if result is None]
        return hits, misses

    def run(self, jobs: Sequence[SimJob], workers: int = 1) -> "list[RunResult]":
        """Answer ``jobs`` in order: from the result cache, else by simulating.

        Batch misses run through the kernel in this process.  The other
        misses run inline when ``workers`` is 1 or only one is left,
        and otherwise on a ``workers``-process pool whose chunks hold
        at most one workload's systems each.  This process stores every
        fresh result as it arrives (pool workers only simulate), so a
        sweep that raises part-way keeps each result that came back
        before the failure.
        """
        cache = active_cache(self.use_result_cache)
        results: "list[Any]" = _lookup(jobs, cache)
        misses = [index for index, result in enumerate(results) if result is None]
        if not misses:
            return results
        batch = [index for index in misses if jobs[index].engine.kind == "batch"]
        scalar = [index for index in misses if jobs[index].engine.kind != "batch"]
        if batch:
            from repro.harness.batch import BatchExecutor

            fresh = BatchExecutor().execute([jobs[index] for index in batch])
            _store_fresh(jobs, batch, fresh, cache, results)
        if scalar:
            from repro.harness.runner import _simulate_job

            todo = [jobs[index] for index in scalar]
            if workers <= 1 or len(todo) == 1:
                _store_fresh(jobs, scalar, map(_simulate_job, todo), cache, results)
            else:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    chunksize = _chunksize(todo, workers)
                    simulated = pool.map(_simulate_job, todo, chunksize=chunksize)
                    _store_fresh(jobs, scalar, simulated, cache, results)
        return results


def _lookup(
    jobs: Sequence[SimJob], cache: ResultCache | None
) -> "list[RunResult | None]":
    """Each job's cached result (its declined requests attached), or None."""
    if cache is None:
        return [None] * len(jobs)
    found: "list[RunResult | None]" = []
    for job in jobs:
        cached = cache.load(job.manifest())
        found.append(None if cached is None else job.attach_declined(cached))
    return found


def _store_fresh(
    jobs: Sequence[SimJob],
    indices: Sequence[int],
    fresh: "Iterable[RunResult]",
    cache: ResultCache | None,
    results: "list[Any]",
) -> None:
    """Store each fresh result as it arrives, then slot it into ``results``.

    Declined requests are attached after the store: they describe the
    request, not the run, so cache entries never carry them.
    """
    for index, result in zip(indices, fresh):
        if cache is not None:
            cache.store(result)
        results[index] = jobs[index].attach_declined(result)
