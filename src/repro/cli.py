"""Command-line interface for single simulations and discovery.

Complements the figure harness (``python -m repro.harness.figures``)
with direct, single-run access:

    repro list-workloads [--category hpc]
    repro list-systems
    repro run --workload hpc-fft --system forward-walk --branches 20000
    repro run --workload hpc-fft --telemetry out.jsonl
    repro compare --workload hpc-fft --branches 20000 --workers 4
    repro telemetry out.jsonl
    repro serve --port 8321 --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import ReproError
from repro.harness.report import format_table
from repro.harness.runner import (
    RunResult,
    parse_shard,
    run_matrix,
    run_single,
    select_workloads,
)
from repro.harness.sampling import SamplingConfig
from repro.harness.systems import TABLE3_SYSTEMS, resolve_system
from repro.harness.tracestore import resolve_workload
from repro.workloads.categories import CATEGORIES
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import build_suite

__all__ = ["main"]


@contextmanager
def _telemetry_session(path: str | None) -> Iterator[None]:
    """Enable telemetry + JSONL tracing for the wrapped commands."""
    if path is None:
        yield
        return
    from repro.telemetry import TELEMETRY, JsonlSink

    sink = JsonlSink(path)
    was_enabled = TELEMETRY.enabled
    TELEMETRY.attach_sink(sink)
    try:
        yield
    finally:
        TELEMETRY.detach_sink()
        sink.close()
        if not was_enabled:
            TELEMETRY.disable()
        note = f"telemetry: {sink.emitted} events -> {path}"
        if sink.truncated:
            note += f" ({sink.truncated} truncated)"
        if sink.error is not None:
            note += f" (write error: {sink.error})"
        print(note)


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    rows = [
        (spec.name, spec.category, spec.seed)
        for spec in build_suite()
        if args.category is None or spec.category == args.category
    ]
    print(format_table(["workload", "category", "seed"], rows))
    print(f"\n{len(rows)} workloads")
    return 0


def _cmd_list_systems(_args: argparse.Namespace) -> int:
    rows = [
        (
            cfg.name,
            cfg.tage,
            cfg.local_entries if cfg.local_entries is not None else "-",
            cfg.scheme or "-",
            cfg.ports if cfg.scheme in ("backward", "snapshot", "forward", "multistage") else "-",
        )
        for cfg in TABLE3_SYSTEMS
    ]
    print(format_table(["system", "tage", "BHT entries", "scheme", "M-N-P"], rows))
    return 0


def _print_run(label: str, result: RunResult) -> None:
    print(
        f"{label:24s} IPC {result.ipc:7.3f}   MPKI {result.mpki:7.2f}   "
        f"({result.instructions} instructions, {result.cycles} cycles)"
    )


def _cache_override(args: argparse.Namespace) -> bool | None:
    """--no-result-cache forces the cache off; otherwise env decides."""
    return False if getattr(args, "no_result_cache", False) else None


#: Where the --sample-* flags take their defaults.
_SAMPLING_DEFAULTS = SamplingConfig()


def _add_sampling_args(parser: argparse.ArgumentParser) -> None:
    """The shared --sample* flag group (run, compare, sweep)."""
    parser.add_argument(
        "--sample",
        action="store_true",
        help="sampled two-speed simulation (shortcut for "
        "--sample-mode periodic)",
    )
    parser.add_argument(
        "--sample-mode",
        choices=("off", "periodic", "simpoint"),
        default=None,
        help="interval selection: off (exact), periodic (SMARTS) or "
        "simpoint (phase clustering)",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=_SAMPLING_DEFAULTS.interval,
        metavar="N",
        help="detailed-interval length in trace records (default %(default)s)",
    )
    parser.add_argument(
        "--sample-coverage",
        type=float,
        default=_SAMPLING_DEFAULTS.coverage,
        metavar="F",
        help="fraction of records simulated in detail (default %(default)s)",
    )
    parser.add_argument(
        "--sample-warmup",
        type=int,
        default=_SAMPLING_DEFAULTS.warmup,
        metavar="N",
        help="full-functional warmup records before each interval "
        "(default %(default)s)",
    )


def _sampling_config(args: argparse.Namespace) -> SamplingConfig | None:
    """SamplingConfig from the --sample* flags, or None when exact."""
    mode = args.sample_mode
    if mode is None:
        mode = "periodic" if args.sample else "off"
    if mode == "off":
        return None
    return SamplingConfig(
        mode=mode,
        interval=args.sample_interval,
        coverage=args.sample_coverage,
        warmup=args.sample_warmup,
    )


def _print_sampling_note(result: RunResult) -> None:
    info = result.extra.get("sampling")
    if not info:
        return
    ci_mpki = info.get("ci95_mpki")
    ci_ipc = info.get("ci95_ipc")
    note = (
        f"{'':24s} sampled: {info['mode']}, {info['intervals']} intervals, "
        f"{info['detailed_fraction']:.1%} detailed"
    )
    if ci_mpki is not None and ci_ipc is not None:
        note += f", 95% CI ±{ci_mpki:.2f} MPKI / ±{ci_ipc:.3f} IPC"
    print(note)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = resolve_workload(args.workload)
    system = resolve_system(args.system)
    with _telemetry_session(args.telemetry):
        result = run_single(
            spec,
            system,
            args.branches,
            use_result_cache=_cache_override(args),
            sampling=_sampling_config(args),
        )
    _print_run(system.name, result)
    _print_sampling_note(result)
    repair = result.extra.get("repair")
    if repair:
        print(
            f"{'':24s} repair events {repair['events']}, "
            f"avg writes/event {repair['mean_writes_per_event']:.1f}, "
            f"busy cycles {repair['busy_cycles']}"
        )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.analysis import diagnose

    spec = resolve_workload(args.workload)
    system = resolve_system(args.system)
    result = run_single(spec, system, args.branches)
    print(diagnose(result).render())
    return 0


def _compare_results(
    args: argparse.Namespace, spec: WorkloadSpec
) -> list[RunResult]:
    """One run per Table 3 system, fanning out when --workers asks.

    Sequential by default, and always under --telemetry: the trace sink
    lives in this process.
    """
    from repro.harness.scale import Scale

    scale = Scale(
        name="cli", branches_per_workload=args.branches, workloads_per_category=1
    )
    return run_matrix(
        [spec],
        TABLE3_SYSTEMS,
        scale,
        workers=1 if args.telemetry or args.workers is None else args.workers,
        use_result_cache=_cache_override(args),
        sampling=_sampling_config(args),
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = resolve_workload(args.workload)
    print(f"workload {spec.name}, {args.branches} branches\n")
    with _telemetry_session(args.telemetry):
        results = _compare_results(args, spec)
    base = None
    for system, result in zip(TABLE3_SYSTEMS, results):
        if system.name == "baseline-tage":
            base = result
            _print_run(system.name, result)
            continue
        gain = result.ipc / base.ipc - 1 if base and base.ipc else 0.0
        red = (base.mpki - result.mpki) / base.mpki if base and base.mpki else 0.0
        print(
            f"{system.name:24s} IPC {result.ipc:7.3f} ({gain:+6.2%})   "
            f"MPKI {result.mpki:7.2f} ({red:+6.1%})"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.scale import Scale

    sampling = _sampling_config(args)
    scale = Scale(
        name="cli-sweep",
        branches_per_workload=args.branches,
        workloads_per_category=args.per_category,
    )
    if args.workloads:
        workloads = [
            resolve_workload(name.strip())
            for name in args.workloads.split(",")
            if name.strip()
        ]
    else:
        workloads = select_workloads(scale)
    systems = (
        [resolve_system(name.strip()) for name in args.systems.split(",")]
        if args.systems
        else list(TABLE3_SYSTEMS)
    )
    shard = parse_shard(args.shard) if args.shard else None
    results = run_matrix(
        workloads,
        systems,
        scale,
        workers=args.workers,
        use_result_cache=_cache_override(args),
        sampling=sampling,
        shard=shard,
        batch=args.batch,
    )
    # Batch-kernel results are functional-only: no cycles, so no IPC.
    rows = [
        (
            r.workload,
            r.system,
            f"{r.ipc:.3f}" if r.cycles else "-",
            f"{r.mpki:.2f}",
        )
        for r in results
    ]
    print(format_table(["workload", "system", "IPC", "MPKI"], rows))
    label = f"shard {args.shard} of " if shard else ""
    print(f"\n{len(results)} runs ({label}{len(workloads)}x{len(systems)} matrix)")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry.export import json_summary, prometheus_text
    from repro.telemetry.summary import summarize_trace

    summary = summarize_trace(args.trace)
    if args.export == "json":
        print(json_summary(summary.metrics))
    elif args.export == "prom":
        print(prometheus_text(summary.metrics), end="")
    else:
        print(summary.render())
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.harness.perf import DEFAULT_SYSTEMS, run_perf

    systems = (
        [name.strip() for name in args.systems.split(",") if name.strip()]
        if args.systems
        else list(DEFAULT_SYSTEMS)
    )
    payload = run_perf(
        workload=args.workload,
        branches=args.branches,
        systems=systems,
        repeats=args.repeats,
        out=args.out,
        sampling_branches=None if args.no_sampling else args.sampling_branches,
        batch=not args.no_batch,
    )
    print(f"workload {args.workload}, {args.branches} branches, "
          f"best of {args.repeats}\n")
    for name, row in payload["throughput"].items():
        print(f"{name:24s} {row['branches_per_s']:>12,.0f} branches/s")
    warm = payload["warm_sweep"]
    print(
        f"\nwarm sweep: cold {warm['cold_wall_s']:.2f}s -> "
        f"warm {warm['warm_wall_s']:.2f}s ({warm['speedup']:.0f}x)"
    )
    sampling = payload.get("sampling")
    if sampling:
        print(f"\nsampling ({sampling['branches']} branches, "
              f"{sampling['config']['coverage']:.0%} detailed):")
        for name, row in sampling["systems"].items():
            print(
                f"{name:24s} {row['speedup']:.2f}x   "
                f"MPKI err {row['mpki_rel_err']:+.2%}   "
                f"IPC err {row['ipc_rel_err']:+.2%}"
            )
    batch = payload.get("batch")
    if batch:
        check = "identical MPKI" if batch["mpki_identical"] else "MPKI MISMATCH"
        print(
            f"\nbatch kernel ({batch['configs']} configs, "
            f"{batch['branches']} branches): scalar "
            f"{batch['scalar_wall_s']:.2f}s -> batch "
            f"{batch['batch_wall_s']:.2f}s ({batch['speedup']:.0f}x, {check})"
        )
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _format_trace_info(info: dict[str, object]) -> str:
    """The pinned human-readable layout of ``repro trace info``."""
    kinds = info.get("kind_counts") or {}
    kinds_text = " ".join(f"{k}={v}" for k, v in kinds.items()) or "-"
    compression = info.get("compression") or "none"
    lines = [
        f"path:          {info['path']}",
        f"format:        {info['format']} (adapter v{info['adapter_version']})",
        f"compression:   {compression}",
        f"records:       {info['records']}",
        f"instructions:  {info['instructions']}",
        f"conditional:   {info['conditional_branches']}",
        f"static sites:  {info['static_sites']}",
        f"taken rate:    {info['taken_rate']:.4f}",
        f"pc range:      {info['pc_min']:#x}..{info['pc_max']:#x}",
        f"target range:  {info['target_min']:#x}..{info['target_max']:#x}",
        f"kinds:         {kinds_text}",
    ]
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.harness import tracestore

    if args.trace_command == "info":
        info = tracestore.inspect_trace(args.path, fmt=args.format)
        if args.json:
            print(_json.dumps(info, indent=2, sort_keys=True))
        else:
            print(_format_trace_info(info))
        return 0
    if args.trace_command == "import":
        spec = tracestore.import_trace(
            args.path, name=args.name, fmt=args.format, store=args.store
        )
        print(
            f"imported {spec.name}: {spec.trace_records} records "
            f"({spec.source_format}, adapter v{spec.adapter_version})"
        )
        print(f"  store:   {spec.path}")
        print(f"  sha256:  {spec.content_hash}")
        print(f"  run it:  repro compare --workload {spec.name}")
        return 0
    if args.trace_command == "list":
        metas = tracestore.list_imported(args.store)
        if not metas:
            print(f"no imported traces in {tracestore.store_dir(args.store)}")
            return 0
        rows = [
            (
                meta["name"],
                meta["source_format"],
                meta["records"],
                meta["static_sites"],
                f"{meta['taken_rate']:.3f}",
                str(meta["content_hash"])[:12],
            )
            for meta in metas
        ]
        print(
            format_table(
                ["name", "format", "records", "sites", "taken", "sha256"], rows
            )
        )
        return 0
    # fetch
    spec = tracestore.fetch_trace(args.name, args.manifest, store=args.store)
    print(
        f"fetched {spec.name}: {spec.trace_records} records "
        f"({spec.source_format}, verified sha256)"
    )
    print(f"  store:   {spec.path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.simlint.cli import run_lint

    return run_lint(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        rate=args.rate,
        burst=args.burst,
        executor=args.executor,
        state_dir=args.state_dir,
        drain_timeout=args.drain_timeout,
        use_result_cache=not args.no_result_cache,
    )
    return serve(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Local branch predictor repair simulations."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lw = sub.add_parser("list-workloads", help="list the 202-workload suite")
    p_lw.add_argument("--category", choices=CATEGORIES, default=None)
    p_lw.set_defaults(func=_cmd_list_workloads)

    p_ls = sub.add_parser("list-systems", help="list Table 3 system configs")
    p_ls.set_defaults(func=_cmd_list_systems)

    p_run = sub.add_parser("run", help="simulate one (workload, system) pair")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--system", default="forward-walk-coalesce")
    p_run.add_argument("--branches", type=int, default=20_000)
    p_run.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="enable telemetry and stream a JSONL event trace to PATH",
    )
    p_run.add_argument(
        "--no-result-cache",
        action="store_true",
        help="force a real simulation even when REPRO_RESULT_CACHE is set",
    )
    _add_sampling_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="all Table 3 systems on one workload")
    p_cmp.add_argument("--workload", required=True)
    p_cmp.add_argument("--branches", type=int, default=15_000)
    p_cmp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweep (default: sequential)",
    )
    p_cmp.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="enable telemetry and stream a JSONL event trace to PATH "
        "(forces a sequential sweep)",
    )
    p_cmp.add_argument(
        "--no-result-cache",
        action="store_true",
        help="force real simulations even when REPRO_RESULT_CACHE is set",
    )
    _add_sampling_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="run a (workload x system) matrix, optionally sharded"
    )
    p_sweep.add_argument("--branches", type=int, default=15_000)
    p_sweep.add_argument(
        "--per-category",
        type=int,
        default=1,
        metavar="N",
        help="workloads simulated per category (default 1)",
    )
    p_sweep.add_argument(
        "--systems",
        default=None,
        help="comma-separated system names (default: all Table 3 systems)",
    )
    p_sweep.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (synthetic or imported); "
        "overrides --per-category selection",
    )
    p_sweep.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="run only the K-th of N deterministic partitions of the "
        "job matrix; the N shards are disjoint and cover it exactly",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweep (1 = sequential; default: "
        "REPRO_WORKERS or the CPU count, from 8 jobs up)",
    )
    p_sweep.add_argument(
        "--no-result-cache",
        action="store_true",
        help="force real simulations even when REPRO_RESULT_CACHE is set",
    )
    p_sweep.add_argument(
        "--batch",
        action="store_true",
        help="evaluate table-indexed predictor configs (bimodal:N, "
        "gshare:N:H, local2l:B:H:P) with the vectorised batch kernel; "
        "exact MPKI, no pipeline timing",
    )
    _add_sampling_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_trace = sub.add_parser(
        "trace", help="import, inspect, and fetch external branch traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_timport = trace_sub.add_parser(
        "import",
        help="normalise a ChampSim/BT9/RPTR trace into the local store",
    )
    p_timport.add_argument("path", help="trace file (gzip/xz accepted)")
    p_timport.add_argument(
        "--name", default=None, help="workload name (default: from filename)"
    )
    p_timport.add_argument(
        "--format",
        choices=("auto", "champsim", "bt9", "rptr"),
        default=None,
        help="source format (default: auto-detect)",
    )
    p_timport.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="trace store directory (default: REPRO_TRACE_STORE or "
        ".repro-traces)",
    )
    p_timport.set_defaults(func=_cmd_trace)

    p_tinfo = trace_sub.add_parser(
        "info", help="inspect a trace file without importing it"
    )
    p_tinfo.add_argument("path", help="trace file (gzip/xz accepted)")
    p_tinfo.add_argument(
        "--format",
        choices=("auto", "champsim", "bt9", "rptr"),
        default=None,
        help="source format (default: auto-detect)",
    )
    p_tinfo.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_tinfo.set_defaults(func=_cmd_trace)

    p_tlist = trace_sub.add_parser("list", help="list imported traces")
    p_tlist.add_argument("--store", default=None, metavar="DIR")
    p_tlist.set_defaults(func=_cmd_trace)

    p_tfetch = trace_sub.add_parser(
        "fetch",
        help="download, checksum-verify, and import a manifest-listed trace",
    )
    p_tfetch.add_argument("name", help="trace name in the manifest")
    p_tfetch.add_argument(
        "--manifest",
        default="traces/public-traces.json",
        help="trace manifest path (default: traces/public-traces.json)",
    )
    p_tfetch.add_argument("--store", default=None, metavar="DIR")
    p_tfetch.set_defaults(func=_cmd_trace)

    from repro.harness.perf import SAMPLING_BRANCHES

    p_perf = sub.add_parser(
        "perf", help="measure simulator throughput and write BENCH_perf.json"
    )
    p_perf.add_argument("--workload", default="hpc-fft")
    p_perf.add_argument("--branches", type=int, default=30_000)
    p_perf.add_argument(
        "--systems",
        default=None,
        help="comma-separated system names (default: baseline-tage,"
        "forward-walk-coalesce)",
    )
    p_perf.add_argument("--repeats", type=int, default=3)
    p_perf.add_argument(
        "--sampling-branches",
        type=int,
        default=SAMPLING_BRANCHES,
        metavar="N",
        help="trace length for the sampled-vs-exact section "
        "(default %(default)s)",
    )
    p_perf.add_argument(
        "--no-sampling",
        action="store_true",
        help="skip the sampled-vs-exact benchmark section",
    )
    p_perf.add_argument(
        "--no-batch",
        action="store_true",
        help="skip the batch-kernel-vs-scalar benchmark section",
    )
    p_perf.add_argument(
        "--out",
        default="BENCH_perf.json",
        help="output path for the perf report (default: BENCH_perf.json)",
    )
    p_perf.set_defaults(func=_cmd_perf)

    p_tel = sub.add_parser(
        "telemetry", help="summarize a JSONL telemetry trace"
    )
    p_tel.add_argument("trace", help="trace written by --telemetry PATH")
    p_tel.add_argument(
        "--export",
        choices=("json", "prom"),
        default=None,
        help="dump the trace's final metrics snapshot instead of the "
        "drilldown table",
    )
    p_tel.set_defaults(func=_cmd_telemetry)

    p_lint = sub.add_parser(
        "lint",
        help="run the simlint invariant checker over source trees",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (e.g. src tests tools)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="violation report format (default: text)",
    )
    p_lint.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule IDs to report (default: all)",
    )
    p_lint.add_argument(
        "--no-suppress",
        action="store_true",
        help="report violations even where suppression comments cover them",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="run the simulation-as-a-service HTTP job server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 picks an ephemeral port; default 8321)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads executing queued jobs (default 2)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="queued-job cap before 429 backpressure (default 64)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=20.0,
        help="per-client submissions/second refill rate (default 20)",
    )
    p_serve.add_argument(
        "--burst",
        type=int,
        default=40,
        help="per-client burst allowance (default 40)",
    )
    p_serve.add_argument(
        "--executor",
        choices=("inline", "pool"),
        default="inline",
        help="execution strategy for fresh simulations (default inline)",
    )
    p_serve.add_argument(
        "--state-dir",
        default=".repro-cache/service",
        help="where SIGTERM persists the still-queued backlog "
        "(default .repro-cache/service)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight jobs on shutdown (default 30)",
    )
    p_serve.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the persistent result cache (disables completed-"
        "request dedup)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_diag = sub.add_parser(
        "diagnose", help="explain one (workload, system) run's behaviour"
    )
    p_diag.add_argument("--workload", required=True)
    p_diag.add_argument("--system", default="forward-walk-coalesce")
    p_diag.add_argument("--branches", type=int, default=20_000)
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        # Bad trace path, corrupt file, unwritable sink: a message, not
        # a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
