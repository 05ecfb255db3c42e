"""simlint: project-wide invariant checker for the simulator.

One lint run reads and parses each file once, runs the per-file
**local** rules over it, then runs the whole-program **project** rules
over a program model built from the same trees (module graph, symbol
table, call graph — see :mod:`repro.devtools.simlint.program`).

Shipped rules (full catalogue in ``docs/static-analysis.md``):

========  ==========================================================
rule      invariant protected
========  ==========================================================
API001    public functions carry complete type annotations
DET001    simulations are bit-deterministic under a seed (local)
DET002    nothing nondeterministic is reachable from the core (taint)
ERR001    intentional library failures derive from ``ReproError``
IMP001    every import binding is used
LOCK001   lock-guarded attributes are only touched under their lock
LOCK002   nested lock acquisitions follow one global order
PURE001   the telemetry/metrics write path never mutates sim state
SPEC001   speculative BHT/PT/OBQ state mutates only via update/repair
STALE001  every suppression still silences a real finding
TEL001    telemetry off means bit-identical ``SimStats``
PARSE001  (pseudo-rule) every linted file parses
========  ==========================================================

Suppress with a trailing ``# simlint: ignore[RULE] -- reason`` comment
or a column-0 ``# simlint: ignore-file[RULE] -- reason`` line
(``PARSE001``/``STALE001`` cannot be suppressed).

Programmatic use::

    from repro.devtools.simlint import lint_paths

    report = lint_paths(["src", "tests", "tools"])
    assert report.clean, report.violations

The command line is ``repro lint``, which adds text, JSON and SARIF
reports and the exit-code contract (:mod:`repro.devtools.simlint.cli`).
"""

from __future__ import annotations

from repro.devtools.simlint.engine import (
    LintReport,
    infer_role,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.devtools.simlint.model import (
    PARSE_RULE_ID,
    STALE_RULE_ID,
    FileContext,
    LintError,
    ModuleRole,
    Rule,
    RuleKind,
    Violation,
    all_rules,
    register,
)
from repro.devtools.simlint.program import ProgramModel, build_program

__all__ = [
    "LintReport",
    "LintError",
    "FileContext",
    "ModuleRole",
    "ProgramModel",
    "Rule",
    "RuleKind",
    "Violation",
    "PARSE_RULE_ID",
    "STALE_RULE_ID",
    "all_rules",
    "build_program",
    "register",
    "infer_role",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
]
