"""``repro lint``: run simlint over source trees and report.

``repro.cli`` defines the flags and imports this module only when the
``lint`` subcommand runs, so the other commands never pay for it.

Exit codes are part of the contract (CI keys off them):

* ``0`` — all files parsed and no violations,
* ``1`` — at least one violation (including unparseable files),
* ``2`` — internal error: bad invocation, unknown rule, checker crash.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.devtools.simlint.engine import lint_paths
from repro.devtools.simlint.model import LintError, all_rules
from repro.devtools.simlint.rules import load as _load_rules

__all__ = ["run_lint"]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_INTERNAL = 2


def _print_rules() -> None:
    _load_rules()
    for rule in all_rules():
        roles = ",".join(sorted(role.value for role in rule.roles))
        print(f"{rule.rule_id}  {rule.summary}")
        print(f"         invariant: {rule.invariant}")
        print(f"         applies to: {roles}  [{rule.kind.value}]")


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return EXIT_CLEAN
    if not args.paths:
        print("error: no paths given (try: repro lint src tests tools)", file=sys.stderr)
        return EXIT_INTERNAL
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        report = lint_paths(
            args.paths,
            select=select,
            respect_suppressions=not args.no_suppress,
        )
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # simlint: ignore[ERR001] -- checker crash -> exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.devtools.simlint.sarif import render_sarif

        print(render_sarif(report))
    else:
        for violation in report.violations:
            print(violation.render())
        counts = ", ".join(f"{k}:{v}" for k, v in report.counts().items())
        status = "clean" if report.clean else f"violations ({counts})"
        print(f"simlint: {report.files} files, {status}")
    return EXIT_CLEAN if report.clean else EXIT_VIOLATIONS
