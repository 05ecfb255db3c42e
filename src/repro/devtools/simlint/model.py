"""Core data model for simlint: rules, violations, file context.

A *rule* is a stable identifier plus a checker; checkers register
themselves into :data:`REGISTRY` at import time (see
:mod:`repro.devtools.simlint.rules`).  Rule IDs are part of the
project's public contract — suppression comments, ``--select`` filters
and the JSON output all refer to them — so IDs are never reused or
renamed once shipped.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "LintError",
    "ModuleRole",
    "RuleKind",
    "FileContext",
    "Violation",
    "Rule",
    "Checker",
    "REGISTRY",
    "register",
    "all_rules",
    "local_rules",
    "project_rules",
    "PARSE_RULE_ID",
    "STALE_RULE_ID",
    "UNSUPPRESSABLE_RULES",
]

#: Pseudo-rule reported when a target file does not parse.  It cannot be
#: suppressed (an unparseable file cannot carry trustworthy comments).
PARSE_RULE_ID = "PARSE001"

#: Stale-suppression rule: a directive that silences nothing is itself a
#: violation.  Computed by the engine from every other rule's raw output
#: (see ``rules/stale.py`` for the registry entry), and unsuppressable —
#: a suppression of a stale-suppression finding could never match.
STALE_RULE_ID = "STALE001"

#: Rules suppression comments can never silence.
UNSUPPRESSABLE_RULES = frozenset({PARSE_RULE_ID, STALE_RULE_ID})


class LintError(ReproError):
    """simlint was invoked incorrectly (bad rule id, missing path)."""


class RuleKind(enum.Enum):
    """How a rule's checker is driven by the engine.

    ``LOCAL`` checkers see one :class:`FileContext` at a time.
    ``PROJECT`` checkers run once per lint invocation against the whole
    :class:`~repro.devtools.simlint.program.ProgramModel`, built from
    the same parse trees, so they may follow the call graph across
    modules.
    """

    LOCAL = "local"
    PROJECT = "project"


class ModuleRole(enum.Enum):
    """What kind of module a file is, deciding which rules apply.

    Roles are inferred from the path (see ``engine.infer_role``) and can
    be forced per call, which is how the test-suite fixtures exercise
    simulation-only rules from files living under ``tests/``.
    """

    SIM = "sim"  #: simulation semantics (core, pipeline, predictors, ...)
    LIB = "lib"  #: library infrastructure inside src/repro
    CLI = "cli"  #: user-facing entry points
    TELEMETRY = "telemetry"  #: observability subsystem (may read env/clock)
    SERVICE = "service"  #: the repro serve HTTP layer (threads/clock OK)
    TOOL = "tool"  #: developer scripts (tools/, examples/, setup.py)
    TEST = "test"  #: tests/ and benchmarks/ — white-box by design
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class FileContext:
    """Everything a checker may look at for one file."""

    path: str
    role: ModuleRole
    source: str
    tree: ast.Module
    #: Normalised, repo-relative path parts (``("src","repro","core","bht.py")``).
    parts: tuple[str, ...]

    def under(self, *prefix: str) -> bool:
        """True when the file lives under the given path prefix.

        The prefix is matched at any position so callers can write
        ``ctx.under("repro", "core")`` without caring whether the tree
        is addressed as ``src/repro`` or an installed ``repro``.
        """
        n = len(prefix)
        return any(
            self.parts[i : i + n] == prefix for i in range(len(self.parts) - n + 1)
        )


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True, slots=True)
class Rule:
    """Metadata and checker for one stable rule ID."""

    rule_id: str
    summary: str
    #: The invariant this rule protects, shown by ``--list-rules``.
    invariant: str
    #: Roles the rule applies to; other files are skipped silently.
    #: Project rules use this to scope which files they *report into*.
    roles: frozenset[ModuleRole]
    #: Local checkers take a FileContext, project checkers a ProgramModel.
    check: Callable[..., Iterator[Violation]] = field(compare=False)
    kind: RuleKind = RuleKind.LOCAL

    def applies(self, role: ModuleRole) -> bool:
        return role in self.roles


Checker = Callable[[FileContext], Iterator[Violation]]

#: Rule ID → rule.  Populated by :func:`register` at rules-import time.
REGISTRY: dict[str, Rule] = {}


def register(
    rule_id: str,
    summary: str,
    invariant: str,
    roles: Iterable[ModuleRole],
    kind: RuleKind = RuleKind.LOCAL,
) -> Callable[[Callable[..., Iterator[Violation]]], Callable[..., Iterator[Violation]]]:
    """Class/function decorator adding a checker to :data:`REGISTRY`."""

    def deco(
        check: Callable[..., Iterator[Violation]],
    ) -> Callable[..., Iterator[Violation]]:
        if rule_id in REGISTRY:
            raise LintError(f"duplicate simlint rule id {rule_id!r}")
        REGISTRY[rule_id] = Rule(
            rule_id=rule_id,
            summary=summary,
            invariant=invariant,
            roles=frozenset(roles),
            check=check,
            kind=kind,
        )
        return check

    return deco


def all_rules() -> list[Rule]:
    """Registered rules in stable (ID) order."""
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


def local_rules() -> list[Rule]:
    """Per-file rules in stable order."""
    return [rule for rule in all_rules() if rule.kind is RuleKind.LOCAL]


def project_rules() -> list[Rule]:
    """Whole-program rules in stable order."""
    return [rule for rule in all_rules() if rule.kind is RuleKind.PROJECT]
