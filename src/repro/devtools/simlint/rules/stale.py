"""STALE001 — suppression comments must still suppress something.

A suppression is a standing exception to an invariant; once the code it
excused is fixed (or the directive was wrong to begin with) it becomes
a silent hole the next regression walks through.  This pass runs last:
the engine attaches every file's *raw* (pre-suppression) findings and
its parsed directives to the program model, and each directive is
checked against them:

* a line ``simlint: ignore[RULE]`` is stale when no raw finding of
  ``RULE`` sits on its line (``*`` matches any suppressable finding);
* a file-level ``simlint: ignore-file[RULE]`` is stale when the file
  has no raw finding of ``RULE`` at all;
* rule ids that are not in the registry, entries that do not even look
  like rule ids, and directives naming no rules are always flagged —
  they can never have matched anything.

Findings are reported against the directive's own line.  TEST-role
files are exempt: the suppression-parser fixtures *are* directives, by
design.  The rule itself is unsuppressable — a suppression of a
stale-suppression finding could never match.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.devtools.simlint.model import (
    REGISTRY,
    STALE_RULE_ID,
    UNSUPPRESSABLE_RULES,
    ModuleRole,
    RuleKind,
    Violation,
    register,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simlint.program import ProgramModel
    from repro.devtools.simlint.suppress import Directive

__all__ = ["check_stale_suppressions", "stale_rule_ids"]

_ROLES = tuple(role for role in ModuleRole if role is not ModuleRole.TEST)


def stale_rule_ids(
    directive: "Directive", raw: "list[Violation]"
) -> list[tuple[str, str]]:
    """(rule id or entry, reason) for each dead part of one directive."""
    matchable = [
        violation
        for violation in raw
        if violation.rule not in UNSUPPRESSABLE_RULES
        and (directive.file_scoped or violation.line == directive.line)
    ]
    present = {violation.rule for violation in matchable}
    dead: list[tuple[str, str]] = []
    for entry in directive.malformed:
        dead.append((entry, f"{entry!r} is not a rule id"))
    if not directive.rules and not directive.malformed:
        dead.append(("", "the directive names no rules"))
    for rule_id in directive.rules:
        if rule_id == "*":
            if not matchable:
                dead.append(("*", "no finding here for '*' to silence"))
        elif rule_id not in REGISTRY:
            dead.append((rule_id, f"unknown rule id {rule_id!r}"))
        elif rule_id not in present:
            scope = "this file" if directive.file_scoped else "this line"
            dead.append(
                (rule_id, f"no {rule_id} finding in {scope} to silence")
            )
    return dead


@register(
    STALE_RULE_ID,
    summary="suppression comment no longer silences any finding",
    invariant="every standing exception to an invariant is still needed",
    roles=_ROLES,
    kind=RuleKind.PROJECT,
)
def check_stale_suppressions(model: "ProgramModel") -> Iterator[Violation]:
    for path in sorted(model.suppressions):
        info = model.by_path.get(path)
        if info is None or info.role is ModuleRole.TEST:
            continue
        raw = model.raw_violations.get(path, [])
        for directive in model.suppressions[path].directives:
            for _, reason in stale_rule_ids(directive, raw):
                yield Violation(
                    path=path,
                    line=directive.line,
                    col=0,
                    rule=STALE_RULE_ID,
                    message=(
                        f"stale suppression: {reason}; remove or correct "
                        "the directive"
                    ),
                )
