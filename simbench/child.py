"""One benchmark process: set a workload up, run it one job at a time, check it.

``run.py`` starts this script fresh for every measurement, with no ``REPRO_*``
variable set except the trace and result cache directories it chose, and the
run's temp directory as working directory.  The script writes one JSON report
to ``--out`` and nothing to standard output.

Modes:

* ``prep`` fills the trace cache (the warm cache of the exact workloads);
* ``setup`` times process start to every trace in memory, then exits;
* ``measure`` sets up, then repeats rounds for ``--seconds``: one simulating
  pass over the workload's job list, then passes served by the result cache;
* ``fixed`` sets up and runs one round (one simulating pass, a fixed number of
  cached passes), optionally under the span tracer (``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("tage-steady", "table3-repair", "sizing-sweep")
#: Workloads whose processes each start with an empty trace cache; the others
#: start with the traces already written.
COLD_TRACE_CACHE = ("sizing-sweep",)
DEFAULT_SEED = 1
GOLDEN = HERE / "golden.json"

#: Branches per trace.  ``smoke`` keeps the same job lists on short traces so
#: the benchmark's own tests finish in seconds.
PROFILES: dict[str, dict[str, int]] = {
    "full": {"tage-steady": 30_000, "table3-repair": 3_000, "sizing-sweep": 20_000},
    "smoke": {"tage-steady": 2_000, "table3-repair": 400, "sizing-sweep": 2_000},
}

#: Time spent on cached passes after each simulating pass, as a share of
#: that pass's time.  A measuring run makes at least ``MIN_ROUNDS`` rounds.
CACHED_SHARE = {"tage-steady": 0.3, "table3-repair": 0.3, "sizing-sweep": 0.7}
MIN_ROUNDS = 3
#: Cached passes in the one round of a fixed (traced or reference) run.
FIXED_CACHED_PASSES = 5

_CACHE_VARS = ("REPRO_TRACE_CACHE", "REPRO_RESULT_CACHE")


@dataclass
class Workload:
    """A job list and how to run one pass of it through the public API."""

    specs: list[Any]
    branches: int
    #: Runs every job once; the argument is the result-cache override.
    run_pass: Callable[[bool | None], list[Any]]
    #: Expected manifest engine tag: None for the exact engine.
    engine: str | None
    #: Branches simulated per pass, as ``sim_branches_per_s`` counts them.
    pass_branches: int
    #: Jobs (results) per pass.
    jobs: int


def build_workload(name: str, seed: int, profile: str) -> Workload:
    """The named workload with every ``WorkloadSpec`` reseeded to ``seed``."""
    from repro.harness import TABLE3_SYSTEMS, run_matrix, run_single
    from repro.harness.perf import BATCH_SWEEP_SPECS
    from repro.harness.runner import select_workloads
    from repro.harness.scale import SCALES, Scale
    from repro.harness.systems import resolve_system
    from repro.workloads import get_workload

    branches = PROFILES[profile][name]
    scale = Scale(name="simbench", branches_per_workload=branches, workloads_per_category=1)
    if name == "tage-steady":
        spec = replace(get_workload("hpc-fft"), seed=seed)
        system = TABLE3_SYSTEMS[0]
        return Workload(
            [spec],
            branches,
            lambda cache: [run_single(spec, system, branches, use_result_cache=cache)],
            None,
            branches,
            1,
        )
    if name == "table3-repair":
        spec = replace(get_workload("bp-sysmark-office"), seed=seed)
        return Workload(
            [spec],
            branches,
            lambda cache: run_matrix(
                [spec], TABLE3_SYSTEMS, scale, workers=1, use_result_cache=cache
            ),
            None,
            branches * len(TABLE3_SYSTEMS),
            len(TABLE3_SYSTEMS),
        )
    if name == "sizing-sweep":
        specs = [replace(spec, seed=seed) for spec in select_workloads(SCALES["smoke"])]
        systems = [resolve_system(text) for text in BATCH_SWEEP_SPECS]
        return Workload(
            specs,
            branches,
            lambda cache: run_matrix(
                specs, systems, scale, workers=1, batch=True, use_result_cache=cache
            ),
            "batch",
            branches * len(specs) * len(systems),
            len(specs) * len(systems),
        )
    raise SystemExit(f"unknown workload {name!r}")


def result_row(result: Any) -> dict[str, Any]:
    """The golden-checked fields of one job's result."""
    return {
        "workload": result.workload,
        "system": result.system,
        "ipc": result.ipc,
        "mpki": result.mpki,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "mispredictions": result.mispredictions,
        "unit": result.extra.get("unit"),
        "repair": result.extra.get("repair"),
    }


def result_digest(result: Any) -> str:
    """Content hash of everything a result reports except its manifest."""
    payload = {**result_row(result), "extra": result.extra}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows_equal(got: dict[str, Any], want: dict[str, Any]) -> bool:
    for key, expected in want.items():
        value = got.get(key)
        if isinstance(expected, float) and isinstance(value, float):
            if abs(value - expected) > 1e-9 * max(1.0, abs(expected)):
                return False
        elif value != expected:
            return False
    return set(got) == set(want)


class Checker:
    """Counts jobs attempted and failed against a reference per job."""

    def __init__(self, workload: Workload, golden: list[dict[str, Any]] | None) -> None:
        self.workload = workload
        self.reference: list[dict[str, Any]] | None = golden
        self.first_digests: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str, jobs: int = 1) -> None:
        self.failed += jobs
        if len(self.failures) < 20:
            self.failures.append(message)

    def check_pass(self, phase: str, results: list[Any]) -> None:
        """Each job must match the golden row (or the first pass) and engine."""
        self.attempted += len(results)
        rows = [result_row(result) for result in results]
        digests = [result_digest(result) for result in results]
        if self.first_digests is None:
            self.first_digests = digests
            if self.reference is None:
                self.reference = rows
        if len(rows) != len(self.reference):
            self.fail(f"{phase}: {len(rows)} results, expected {len(self.reference)}", len(rows))
            return
        for index, (result, row, want) in enumerate(zip(results, rows, self.reference)):
            engine = (result.manifest or {}).get("engine")
            if engine != self.workload.engine:
                self.fail(f"{phase}: {row['workload']}/{row['system']} ran on engine {engine!r}")
            elif not _rows_equal(row, want):
                self.fail(f"{phase}: {row['workload']}/{row['system']} differs from reference")
            elif digests[index] != self.first_digests[index]:
                self.fail(f"{phase}: {row['workload']}/{row['system']} differs from first pass")

    def check_functional(self, results: list[Any], seed: int) -> None:
        """Batch mispredictions against the scalar reference, one spec per trace."""
        from repro.harness.perf import BATCH_SWEEP_SPECS
        from repro.harness.runner import load_trace
        from repro.pipeline.batch import functional_predictions
        from repro.predictors.table import parse_table_predictor
        from repro.trace.records import BranchKind

        spec_text = BATCH_SWEEP_SPECS[seed % len(BATCH_SWEEP_SPECS)]
        system = parse_table_predictor(spec_text).spec_string
        by_job = {(r.workload, r.system): r for r in results}
        for spec in self.workload.specs:
            records = load_trace(spec, self.workload.branches)
            predictions = functional_predictions(
                parse_table_predictor(spec_text).build(), records
            )
            outcomes = [r.taken for r in records if r.kind is BranchKind.COND]
            expected = sum(p != t for p, t in zip(predictions, outcomes))
            result = by_job.get((spec.name, system))
            if result is None or result.mispredictions != expected:
                got = None if result is None else result.mispredictions
                self.fail(f"functional: {spec.name}/{system} {got} != {expected}")


def _cache_dirs_only() -> None:
    extra = sorted(k for k in os.environ if k.startswith("REPRO_") and k not in _CACHE_VARS)
    if extra:
        raise SystemExit(f"non-hermetic environment: {', '.join(extra)} set")


def _load_golden(path: Path, profile: str, workload: str) -> list[dict[str, Any]] | None:
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    return golden.get(profile, {}).get(workload)


def _store_golden(path: Path, profile: str, workload: str, rows: list[dict[str, Any]]) -> None:
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden.setdefault(profile, {})[workload] = rows
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("prep", "setup", "measure", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    _cache_dirs_only()

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")
    from repro.harness.runner import load_trace

    tracer = None
    if args.trace:
        from spans import Tracer

        # Before build_workload binds the API functions it calls.
        tracer = Tracer()
        tracer.install()
    workload = build_workload(args.workload, args.seed, args.profile)

    report: dict[str, Any] = {}
    window_start = perf_counter()
    if tracer is not None:
        tracer.active = True
        tracer.begin_job("setup")
    for spec in workload.specs:
        load_trace(spec, workload.branches)
    report["setup_s"] = perf_counter() - args.t0
    if args.mode in ("prep", "setup"):
        args.out.write_text(json.dumps(report))
        return 0

    golden = None
    if args.seed == DEFAULT_SEED and not args.update_golden:
        golden = _load_golden(args.golden, args.profile, args.workload)
    checker = Checker(workload, golden)
    result_root = Path(os.environ["REPRO_RESULT_CACHE"])
    sim_times: list[float] = []
    cached_times: list[float] = []
    cached_results = 0
    first_results: list[Any] = []
    measure = args.mode == "measure"
    # The traced run checks after its window closes, so checking costs no
    # unattributed time; the measuring run checks as it goes.
    pending: list[tuple[str, list[Any]]] = []

    def timed_pass(phase: str, cache: bool | None) -> list[Any] | None:
        """One pass over the job list; None when it raised."""
        if tracer is not None:
            tracer.begin_job(phase)
        start = process_time()
        try:
            results = workload.run_pass(cache)
        except Exception:  # every job of a pass that raises counts as failed
            checker.attempted += workload.jobs
            checker.fail(f"{phase}: {traceback.format_exc(limit=3)}", workload.jobs)
            return None
        (sim_times if phase == "sim" else cached_times).append(process_time() - start)
        if measure:
            checker.check_pass(phase, results)
        else:
            pending.append((phase, results))
        return results

    # Rounds interleave simulating and cached passes, so both metrics sample
    # the whole run rather than one end of it.  Passes are timed in CPU time
    # of this single-threaded process: on a shared host, wall time would also
    # count the time spent waiting for a CPU.
    start = perf_counter()
    rounds = 0
    while rounds < (MIN_ROUNDS if measure else 1) or (
        measure and perf_counter() - start < args.seconds
    ):
        if workload.engine == "batch":
            # Every sizing-sweep round starts cold: a fresh result cache,
            # filled by its simulating pass.
            os.environ["REPRO_RESULT_CACHE"] = str(result_root / f"cold-{rounds}")
        # The first exact pass stores its results for the cached passes;
        # later exact passes simulate again.
        cache = None if rounds == 0 or workload.engine == "batch" else False
        results = timed_pass("sim", cache)
        if results is None:
            break
        first_results = first_results or results
        budget = sim_times[-1] * CACHED_SHARE[args.workload]
        cached_start = perf_counter()
        passes = 0
        while passes < (1 if measure else FIXED_CACHED_PASSES) or (
            measure and perf_counter() - cached_start < budget
        ):
            cached = timed_pass("cached", None)
            if cached is None:
                break
            cached_results = len(cached)
            passes += 1
        rounds += 1
    window_s = perf_counter() - window_start
    if tracer is not None:
        tracer.active = False
    for phase, results in pending:
        checker.check_pass(phase, results)
    if first_results and workload.engine == "batch":
        checker.check_functional(first_results, args.seed)
    if args.update_golden and first_results and checker.failed == 0:
        _store_golden(
            args.golden, args.profile, args.workload, [result_row(r) for r in first_results]
        )

    report.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures,
        sim_times=sim_times,
        cached_times=cached_times,
        pass_branches=workload.pass_branches,
        cached_results=cached_results,
        window_s=window_s,
        digests=checker.first_digests or [],
        model=_model_counts(first_results),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if len(sim_times) >= 2:
        report["sim_branches_per_s"] = workload.pass_branches / _p90(sim_times)
    if len(cached_times) >= 2:
        report["cached_results_per_s"] = cached_results / _p90(cached_times)
    if tracer is not None:
        tracer.write(args.out.with_name(args.out.stem + "-spans"), window_s)
    args.out.write_text(json.dumps(report))
    return 0


def _p90(times: list[float]) -> float:
    """The pass time nine passes in ten stay within.

    Rates come from this slow-side percentile rather than the median: the
    shared host has stretches of tens of seconds in which everything runs
    15-60% faster, and a run that lands in one would otherwise read fast.
    """
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def _model_counts(results: list[Any]) -> dict[str, float]:
    """Simulated-model counters summed over one pass's jobs."""
    counts = dict.fromkeys(
        ("repair_events", "entries_walked", "bht_writes", "l1_accesses", "l1_misses"), 0.0
    )
    for result in results:
        repair = result.extra.get("repair") or {}
        counts["repair_events"] += repair.get("events", 0)
        counts["entries_walked"] += repair.get("entries_walked", 0)
        counts["bht_writes"] += repair.get("bht_writes", 0)
        memory = result.extra.get("memory") or {}
        counts["l1_accesses"] += memory.get("l1_accesses", 0)
        counts["l1_misses"] += memory.get("l1_accesses", 0) * memory.get("l1_miss_rate", 0.0)
    return counts


if __name__ == "__main__":
    sys.exit(main())
