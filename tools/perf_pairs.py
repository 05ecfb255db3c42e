#!/usr/bin/env python3
"""Alternating parent/change simbench pairs, summarised per metric.

Runs the benchmark command of ``BENCHMARK.json`` (``python3
simbench/run.py``) in two checkouts, one pair of runs per seed, and
alternates which checkout goes first (the parent on even pairs), so a
slow stretch of a shared host lands on both sides.  Per workload and
metric it prints the median [Q1, Q3] of each side, the change ÷ parent
ratio of the medians, the pairs the change won (by the metric's
``better`` direction) and a verdict: ``gain`` by the claim rule, else
judged against the metric's bound.  Runs that exit non-zero are listed
and left out of the pairs.

Usage::

    python3 tools/perf_pairs.py ../parent . --workloads sizing-sweep \\
        --seeds 2-6 --seconds 20 --trace 0
    python3 tools/perf_pairs.py ../parent . --workloads tage-steady \\
        --seeds 4242,4242 --json pairs.json

Only the benchmark runs; nothing under either checkout is changed by
this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

#: One benchmark run gives up after this long.
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """``"2-6"``, ``"11,12"`` or ``"4242,4242"`` as a list of seeds."""
    seeds: list[int] = []
    for item in text.split(","):
        first, _, last = item.strip().partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_once(
    checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int
) -> dict[str, Any]:
    """One benchmark run: exit code, metric values, and its stderr tail."""
    args = [
        *command,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        args, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    try:
        metrics = {
            name: entry["value"]
            for name, entry in json.loads(lines[-1])["metrics"].items()
        }
    except (IndexError, KeyError, TypeError, ValueError):
        metrics = {}
    return {
        "checkout": str(checkout),
        "workload": workload,
        "seed": seed,
        "returncode": proc.returncode,
        "metrics": metrics,
        "stderr": proc.stderr.strip().splitlines()[-3:],
    }


def summarise(
    pairs: list[tuple[dict[str, Any], dict[str, Any]]], contract: dict[str, dict[str, Any]]
) -> list[dict[str, Any]]:
    """Per-metric rows over the (parent, change) pairs that both succeeded.

    Verdicts, first match wins:

    * ``worse`` — the change's median is worse than the parent's by
      more than the metric's bound;
    * ``gain`` — the change won at least nine tenths of the pairs (a
      tie counts for neither side) and its median beats the parent's by
      more than the parent's IQR;
    * ``unresolved`` — either side's spread (IQR ÷ median) exceeds the
      bound, unless every change run beats every parent run;
    * ``ok``.

    Metrics without a bound (per-layer ones) get no verdict.
    """
    good = [
        (parent, change)
        for parent, change in pairs
        if parent["returncode"] == 0 and change["returncode"] == 0
    ]
    rows: list[dict[str, Any]] = []
    if not good:
        return rows
    for name in good[0][0]["metrics"]:
        if any(name not in p["metrics"] or name not in c["metrics"] for p, c in good):
            continue
        better = contract.get(name, {}).get("better", "higher")
        bound = contract.get(name, {}).get("bound")
        parent = [float(p["metrics"][name]) for p, _ in good]
        change = [float(c["metrics"][name]) for _, c in good]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratio = c_med / p_med if p_med else float("nan")
        verdict = ""
        if bound is not None and p_med:
            spread = max(
                (p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med) if c_med else 0.0
            )
            loss = (p_med - c_med) / abs(p_med) * sign
            separated = min(sign * c for c in change) > max(sign * p for p in parent)
            if loss > bound:
                verdict = "worse"
            elif 10 * wins >= 9 * len(good) and sign * (c_med - p_med) > p_q3 - p_q1:
                verdict = "gain"
            elif spread > bound and not separated:
                verdict = "unresolved"
            else:
                verdict = "ok"
        rows.append(
            {
                "metric": name,
                "better": better,
                "parent": (p_med, p_q1, p_q3),
                "change": (c_med, c_q1, c_q3),
                "ratio": ratio,
                "wins": wins,
                "pairs": len(good),
                "verdict": verdict,
            }
        )
    return rows


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.4g}"


def print_table(workload: str, rows: list[dict[str, Any]]) -> None:
    print(f"\n## {workload}\n")
    print("| metric | parent | change | change ÷ parent | change better | verdict |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        cells = [
            f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"
            for med, q1, q3 in (row["parent"], row["change"])
        ]
        print(
            f"| `{row['metric']}` | {cells[0]} | {cells[1]} | {row['ratio']:.3f}× "
            f"| {row['wins']} of {row['pairs']} | {row['verdict']} |"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="e.g. 2-6, or 4242,4242")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every run here")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    benchmark = json.loads((parent / "BENCHMARK.json").read_text())
    contract = {
        entry["name"]: entry
        for entry in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])
    }
    runs: list[dict[str, Any]] = []
    for workload in args.workloads.split(","):
        pairs = []
        for index, seed in enumerate(parse_seeds(args.seeds)):
            sides = {"parent": parent, "change": change}
            order = list(sides) if index % 2 == 0 else list(reversed(sides))
            done = {}
            for side in order:
                run = run_once(
                    sides[side], benchmark["command"], workload, seed, args.seconds, args.trace
                )
                done[side] = run
                runs.append(run)
                print(f"{workload} seed {seed} {side}: exit {run['returncode']}", file=sys.stderr)
            pairs.append((done["parent"], done["change"]))
        print_table(workload, summarise(pairs, contract))
    failed = [run for run in runs if run["returncode"] != 0]
    if failed:
        print("\nruns that exited non-zero:")
        for run in failed:
            tail = " / ".join(run["stderr"])
            print(f"- {run['checkout']} {run['workload']} seed {run['seed']}: "
                  f"exit {run['returncode']}: {tail}")
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
