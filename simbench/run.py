"""Layered simulator benchmark: the command that runs one measurement.

Usage::

    python3 simbench/run.py --workload tage-steady --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
single-threaded Python process (``child.py``) that calls the public ``repro``
API one job at a time, inside a temp directory under ``.simbench/runs`` that is
removed afterwards.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed.  See
``simbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".simbench"

from child import COLD_TRACE_CACHE, DEFAULT_SEED, GOLDEN, PROFILES, WORKLOADS  # noqa: E402
from spans import LAYERS, summarize  # noqa: E402

#: End-to-end metric -> unit, printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "sim_branches_per_s": "branches/s",
    "cached_results_per_s": "results/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit, printed with ``--trace 1``.
PER_LAYER = {
    **{
        f"{layer}.{metric}": unit
        for layer in LAYERS
        for metric, unit in (("self_s", "s"), ("calls", "count"), ("share", "fraction"))
    },
    "core.repair.events": "count",
    "core.repair.entries_walked": "count",
    "core.repair.write_ratio": "ratio",
    "pipeline.ns_per_event": "ns",
    "pipeline.wrong_path_ratio": "ratio",
    "memory.l1_miss_rate": "ratio",
    "pipeline.batch.ns_per_branch_config": "ns",
    "harness.cache_load_s": "s",
    "harness.cache_store_s": "s",
    "harness.cache_hit_ratio": "ratio",
    "tracing_overhead": "ratio",
    "unattributed_share": "fraction",
}

#: Set-up is timed in this many processes per run (the measuring one
#: included); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Every process of a run must have ended by then.
RUN_TIMEOUT_S = 170
#: Directories at the checkout root that runs may write: this benchmark's
#: work directory and the build directory the caller may set up.
OWN_DIRS = (".simbench", ".bench_build")


class ChildFailed(Exception):
    """A benchmark process exited non-zero or timed out."""


def _tree_state() -> dict[str, tuple[int, int]]:
    """Size and mtime of every file in the checkout outside :data:`OWN_DIRS`."""
    state: dict[str, tuple[int, int]] = {}
    for directory, subdirs, files in os.walk(ROOT):
        if Path(directory) == ROOT:
            subdirs[:] = [name for name in subdirs if name not in OWN_DIRS]
        for name in files:
            path = os.path.join(directory, name)
            try:
                info = os.stat(path)
            except FileNotFoundError:
                continue
            state[os.path.relpath(path, ROOT)] = (info.st_size, info.st_mtime_ns)
    return state


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


class Run:
    """One invocation's temp directory and the benchmark processes it starts."""

    def __init__(self, args: argparse.Namespace, tmp: Path) -> None:
        self.args = args
        self.tmp = tmp
        self.count = 0
        self.deadline = perf_counter() + RUN_TIMEOUT_S
        self.cold = args.workload in COLD_TRACE_CACHE
        if not self.cold:
            # The warm trace cache every timed process of the run starts with.
            self.child("prep")

    def child(self, mode: str, trace: int = 0, seconds: float = 0.0) -> dict[str, Any]:
        """Start one benchmark process, wait for it, and return its report."""
        self.count += 1
        home = self.tmp / f"{mode}-{self.count}"
        (home / "tmp").mkdir(parents=True)
        out = home / "report.json"
        trace_cache = home / "traces" if self.cold else self.tmp / "traces"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        # The checkout's sources only, with bytecode cached under .simbench
        # whatever the caller's environment says.
        env.pop("PYTHONPATH", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            REPRO_TRACE_CACHE=str(trace_cache),
            REPRO_RESULT_CACHE=str(home / "results"),
            HOME=str(home),
            TMPDIR=str(home / "tmp"),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        )
        args = self.args
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--mode", mode,
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--profile", args.profile,
            "--golden", str(args.golden),
            "--out", str(out),
        ]
        if args.update_golden:
            command.append("--update-golden")
        start = perf_counter()
        command += ["--t0", repr(start)]
        try:
            proc = subprocess.run(
                command,
                env=env,
                cwd=home,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} process timed out after {exc.timeout:.0f}s") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"{mode} process exited with {proc.returncode}")
        report: dict[str, Any] = json.loads(out.read_text())
        report["home"] = str(home)
        return report


def measure(run: Run) -> tuple[dict[str, float], int, int, list[str]]:
    """``--trace 0``: end-to-end metrics from untraced processes."""
    setups = [run.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = run.child("measure", seconds=run.args.seconds)
    setups.append(main["setup_s"])
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": main["peak_rss_mb"]}
    # Missing when every pass of a kind failed; main() then reports the run
    # as incorrect.
    for name in ("sim_branches_per_s", "cached_results_per_s"):
        if name in main:
            metrics[name] = main[name]
    return metrics, main["attempted"], main["failed"], main["failures"]


def traced(run: Run) -> tuple[dict[str, float], int, int, list[str]]:
    """``--trace 1``: the same fixed work untraced and traced; per-layer metrics."""
    plain = run.child("fixed")
    spanned = run.child("fixed", trace=1)
    failures = plain["failures"] + spanned["failures"]
    failed = plain["failed"] + spanned["failed"]
    if plain["digests"] != spanned["digests"]:
        failures.append("traced results differ from untraced results")
        failed += max(1, len(plain["digests"]))
    summary = summarize(Path(spanned["home"]) / "report-spans")
    window = summary["window_s"]
    metrics: dict[str, float] = {}
    attributed = 0.0
    for layer, times in summary["layers"].items():
        metrics[f"{layer}.self_s"] = times["self_s"]
        metrics[f"{layer}.calls"] = times["calls"]
        metrics[f"{layer}.share"] = times["self_s"] / window
        attributed += times["self_s"]
    model = plain["model"]
    counts = summary["counts"]
    sim = counts.get("sim", {})
    cached = counts.get("cached", {})
    branches = sim.get("pipeline.branches", 0)
    wrong = sim.get("pipeline.wrong_path_branches", 0)
    branch_configs = sim.get("pipeline.batch.branch_configs", 0)
    entries = summary["entries"]
    loads = cached.get("harness.cache_loads", 0)
    metrics.update(
        {
            "core.repair.events": model["repair_events"],
            "core.repair.entries_walked": model["entries_walked"],
            "core.repair.write_ratio": _ratio(model["bht_writes"], model["entries_walked"]),
            "pipeline.ns_per_event": _ratio(sum(plain["sim_times"]) * 1e9, branches + wrong),
            "pipeline.wrong_path_ratio": _ratio(wrong, branches),
            "memory.l1_miss_rate": _ratio(model["l1_misses"], model["l1_accesses"]),
            "pipeline.batch.ns_per_branch_config": _ratio(
                metrics["pipeline.batch.self_s"] * 1e9, branch_configs
            ),
            "harness.cache_load_s": entries.get("ResultCache.load", 0.0),
            "harness.cache_store_s": entries.get("ResultCache.store", 0.0),
            "harness.cache_hit_ratio": _ratio(cached.get("harness.cache_hits", 0), loads),
            "tracing_overhead": window / plain["window_s"] - 1.0,
            "unattributed_share": 1.0 - attributed / window,
        }
    )
    attempted = plain["attempted"] + spanned["attempted"]
    return metrics, attempted, failed, failures


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered simulator benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="full",
        help="trace lengths; 'smoke' is for the benchmark's own tests",
    )
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="golden results file")
    parser.add_argument(
        "--update-golden", action="store_true",
        help=f"rewrite this workload's golden rows (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.update_golden and args.seed != DEFAULT_SEED:
        print(f"error: goldens are for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    args.golden = args.golden.resolve()

    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "runs"))
    tree_before = _tree_state()
    shm_before = _shm_segments()
    try:
        run = Run(args, tmp)
        metrics, attempted, failed, failures = (traced if args.trace else measure)(run)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    leaked = sorted(
        path
        for path, state in _tree_state().items()
        if tree_before.get(path) != state
        and not (args.update_golden and ROOT / path == args.golden)
    )
    leaked += sorted(f"/dev/shm/{name}" for name in _shm_segments() - shm_before)
    if leaked:
        failures.append(f"run left files outside its temp directory: {', '.join(leaked[:10])}")
    names = PER_LAYER if args.trace else END_TO_END
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = failed == 0 and not failures and set(metrics) == set(names)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
