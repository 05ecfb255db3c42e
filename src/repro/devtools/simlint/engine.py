"""simlint engine: discovery, the local and project passes, filtering.

A lint run reads and parses each file once.  The **local pass** runs
every :class:`~repro.devtools.simlint.model.RuleKind.LOCAL` rule that
applies to the file's role.  The **project pass** assembles a
:class:`~repro.devtools.simlint.program.ProgramModel` from the same
parse trees and runs the whole-program rules (lock order, determinism
taint, write-path purity), with the stale-suppression check last so it
can see every other rule's raw findings.  Suppressions and ``--select``
are applied at the end, over raw findings.

All simulator knowledge lives in the rule modules; the engine only
orchestrates.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.devtools.simlint.model import (
    PARSE_RULE_ID,
    REGISTRY,
    STALE_RULE_ID,
    FileContext,
    LintError,
    ModuleRole,
    Rule,
    Violation,
    local_rules,
    project_rules,
)
from repro.devtools.simlint.program import build_program
from repro.devtools.simlint.rules import load as _load_rules
from repro.devtools.simlint.suppress import Suppressions, parse_suppressions

__all__ = [
    "LintReport",
    "infer_role",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: Subpackages of ``repro`` with simulation semantics: bit-determinism
#: and speculative-state rules apply here.
SIM_PACKAGES = frozenset(
    {"core", "pipeline", "predictors", "memory", "workloads", "trace", "metrics"}
)

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache"})


def _normalise(path: str) -> tuple[str, ...]:
    return tuple(part for part in os.path.normpath(path).split(os.sep) if part)


def infer_role(path: str) -> ModuleRole:
    """Classify a file by its repo-relative location."""
    parts = _normalise(path)
    name = parts[-1] if parts else ""
    if "tests" in parts or "benchmarks" in parts or name == "conftest.py":
        return ModuleRole.TEST
    if "tools" in parts or "examples" in parts or name == "setup.py":
        return ModuleRole.TOOL
    if "repro" in parts:
        index = parts.index("repro")
        sub = parts[index + 1] if index + 1 < len(parts) else ""
        if sub in SIM_PACKAGES:
            return ModuleRole.SIM
        if sub == "telemetry":
            return ModuleRole.TELEMETRY
        if sub == "service":
            return ModuleRole.SERVICE
        if sub == "cli.py":
            return ModuleRole.CLI
        return ModuleRole.LIB
    return ModuleRole.UNKNOWN


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                found.extend(
                    os.path.join(root, f) for f in sorted(files) if f.endswith(".py")
                )
        else:
            raise LintError(f"no such file or directory: {path!r}")
    return sorted(dict.fromkeys(found))


def _resolve_select(select: Iterable[str] | None) -> frozenset[str]:
    _load_rules()
    if select is None:
        return frozenset(REGISTRY)
    chosen = frozenset(select)
    unknown = chosen - set(REGISTRY)
    if unknown:
        known = ", ".join(sorted(REGISTRY))
        raise LintError(
            f"unknown rule id(s) {sorted(unknown)}; known rules: {known}"
        )
    return chosen


# ----------------------------------------------------------------- #
# per-file pass


def _check_file(
    path: str, source: str, role: ModuleRole, rules: Iterable[Rule]
) -> tuple[ast.Module | None, list[Violation]]:
    """Parse one file and run the given local rules over it.

    Returns the parse tree (None when the file does not parse, whose
    only finding is then ``PARSE001``) and the raw, unfiltered findings.
    """
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        detail = exc.args[0] if exc.args else exc
        return None, [
            Violation(
                path=path,
                line=line,
                col=col,
                rule=PARSE_RULE_ID,
                message=f"file does not parse: {detail}",
            )
        ]
    ctx = FileContext(
        path=path,
        role=role,
        source=source,
        tree=tree,
        parts=_normalise(path),
    )
    found = [
        violation
        for rule in rules
        if rule.applies(role)
        for violation in rule.check(ctx)
    ]
    return tree, found


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise LintError(f"cannot read {path!r}: {exc}") from exc


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    role: ModuleRole | None = None,
    select: Iterable[str] | None = None,
    respect_suppressions: bool = True,
) -> list[Violation]:
    """Lint raw source text as if it lived at ``path``.

    Runs the per-file rules only: whole-program rules need the module
    graph and are reached through :func:`lint_paths`.
    """
    chosen = _resolve_select(select)
    rules = [rule for rule in local_rules() if rule.rule_id in chosen]
    file_role = role if role is not None else infer_role(path)
    _, violations = _check_file(path, source, file_role, rules)
    if respect_suppressions and violations:
        suppressions = parse_suppressions(source)
        violations = [v for v in violations if not suppressions.covers(v)]
    return sorted(violations, key=Violation.sort_key)


def lint_file(
    path: str,
    *,
    role: ModuleRole | None = None,
    select: Iterable[str] | None = None,
    respect_suppressions: bool = True,
) -> list[Violation]:
    """Lint one file from disk (per-file rules only)."""
    return lint_source(
        _read(path),
        path,
        role=role,
        select=select,
        respect_suppressions=respect_suppressions,
    )


# ----------------------------------------------------------------- #
# project pass


def _project_pass(
    entries: list[tuple[str, ModuleRole, str, ast.Module, tuple[str, ...]]],
    raw: dict[str, list[Violation]],
    suppressions: dict[str, Suppressions],
) -> list[Violation]:
    """Build the program model and run every whole-program rule."""
    model = build_program(entries)
    model.raw_violations = {path: list(found) for path, found in raw.items()}
    model.suppressions = suppressions
    rules = project_rules()
    ordered = [rule for rule in rules if rule.rule_id != STALE_RULE_ID] + [
        rule for rule in rules if rule.rule_id == STALE_RULE_ID
    ]
    found: list[Violation] = []
    for rule in ordered:
        produced = list(rule.check(model))
        for violation in produced:
            model.raw_violations.setdefault(violation.path, []).append(violation)
        found.extend(produced)
    return found


# ----------------------------------------------------------------- #
# the full pipeline


@dataclass(frozen=True, slots=True)
class LintReport:
    """Outcome of linting a path set."""

    files: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        """Violation count per rule ID, sorted by ID."""
        tally: dict[str, int] = {}
        for violation in self.violations:
            tally[violation.rule] = tally.get(violation.rule, 0) + 1
        return dict(sorted(tally.items()))

    def as_dict(self) -> dict[str, object]:
        return {
            "version": 3,
            "files": self.files,
            "counts": self.counts(),
            "violations": [v.as_dict() for v in self.violations],
        }


def lint_paths(
    paths: Sequence[str],
    *,
    select: Iterable[str] | None = None,
    respect_suppressions: bool = True,
) -> LintReport:
    """Lint files and directories; the core entry point behind ``repro lint``.

    Every rule always runs, because STALE001 audits each suppression
    against every rule's raw findings; ``select`` filters the report
    afterwards.
    """
    chosen = _resolve_select(select)
    files = iter_python_files(paths)
    rules = local_rules()
    raw: dict[str, list[Violation]] = {}
    suppressions: dict[str, Suppressions] = {}
    entries: list[tuple[str, ModuleRole, str, ast.Module, tuple[str, ...]]] = []
    for path in files:
        source = _read(path)
        role = infer_role(path)
        tree, raw[path] = _check_file(path, source, role, rules)
        suppressions[path] = parse_suppressions(source)
        if tree is not None:
            entries.append((path, role, source, tree, _normalise(path)))

    found = [violation for file_found in raw.values() for violation in file_found]
    found.extend(_project_pass(entries, raw, suppressions))
    violations = [
        violation
        for violation in found
        if violation.rule in chosen or violation.rule == PARSE_RULE_ID
    ]
    if respect_suppressions:
        violations = [
            violation
            for violation in violations
            if not (
                (supp := suppressions.get(violation.path)) is not None
                and supp.covers(violation)
            )
        ]
    violations.sort(key=Violation.sort_key)
    return LintReport(files=len(files), violations=violations)
