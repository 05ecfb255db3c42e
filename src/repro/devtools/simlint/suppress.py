"""Suppression comments: opt out of a rule with an audit trail.

Two forms are recognised (rule lists are comma-separated; ``*`` matches
every rule):

* line suppression — trailing comment on the violating line, written as
  ``simlint: ignore[RULE] -- reason``;
* file suppression — a comment anywhere in the file (typically the
  header) written as ``simlint: ignore-file[RULE] -- reason``, silencing
  a rule for the whole file.

Everything after ``--`` is a free-form justification; the linter does
not require one, but the project's review convention does (see
``docs/static-analysis.md``).  Violations whose rule cannot be
suppressed (:data:`~repro.devtools.simlint.model.UNSUPPRESSABLE_RULES`)
ignore both forms.

Directives are extracted from real ``COMMENT`` tokens via
:mod:`tokenize`, so a directive *example* inside a docstring or string
literal is inert.  Files that cannot be tokenized (syntax errors —
already a ``PARSE001`` finding) fall back to a line scan, which only
matters for ``--no-suppress`` style audits since ``PARSE001`` is
unsuppressable anyway.

Every parsed directive is kept as a :class:`Directive` record: the
engine's ``STALE001`` pass compares them against the raw findings to
flag suppressions that no longer silence anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.devtools.simlint.model import UNSUPPRESSABLE_RULES, Violation

__all__ = ["Directive", "Suppressions", "from_directives", "parse_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*simlint:\s*(?P<kind>ignore-file|ignore)\[(?P<rules>[^\]]*)\]"
)

#: A rule id inside the brackets must look like one (``DET001``, ``*``);
#: anything else is recorded as malformed so STALE001 can point at it.
_RULE_TOKEN = re.compile(r"^(?:\*|[A-Z][A-Z0-9]{2,15})$")


@dataclass(frozen=True, slots=True)
class Directive:
    """One suppression comment, as written in the source."""

    #: 1-based line the comment sits on (for line directives this is
    #: also the line whose violations it silences).
    line: int
    #: ``"ignore"`` (line scope) or ``"ignore-file"`` (file scope).
    kind: str
    #: Well-formed rule ids named in the brackets (may include ``"*"``).
    rules: tuple[str, ...]
    #: Bracket entries that do not look like rule ids at all.
    malformed: tuple[str, ...] = ()

    @property
    def file_scoped(self) -> bool:
        return self.kind == "ignore-file"


@dataclass(frozen=True, slots=True)
class Suppressions:
    """Parsed suppression directives for one file."""

    #: Rule IDs silenced for the whole file ("*" = every rule).
    file_rules: frozenset[str]
    #: Line number → rule IDs silenced on that line.
    line_rules: dict[int, frozenset[str]]
    #: Every directive in source order (drives STALE001).
    directives: tuple[Directive, ...] = field(default=())

    def covers(self, violation: Violation) -> bool:
        if violation.rule in UNSUPPRESSABLE_RULES:
            return False
        for scope in (self.file_rules, self.line_rules.get(violation.line, frozenset())):
            if "*" in scope or violation.rule in scope:
                return True
        return False


def _comment_lines(source: str) -> list[tuple[int, str]]:
    """(line, text) for every comment token; line-scan fallback on error."""
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
        return comments
    except (tokenize.TokenError, SyntaxError, IndentationError, ValueError):
        return [
            (lineno, text)
            for lineno, text in enumerate(source.splitlines(), start=1)
            if "#" in text
        ]


def from_directives(directives: tuple[Directive, ...]) -> Suppressions:
    """Build the queryable suppression set from parsed directives."""
    file_rules: set[str] = set()
    line_rules: dict[int, frozenset[str]] = {}
    for directive in directives:
        if not directive.rules:
            continue
        if directive.file_scoped:
            file_rules.update(directive.rules)
        else:
            line_rules[directive.line] = line_rules.get(
                directive.line, frozenset()
            ) | frozenset(directive.rules)
    return Suppressions(
        file_rules=frozenset(file_rules),
        line_rules=line_rules,
        directives=directives,
    )


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression directives from raw source text."""
    directives: list[Directive] = []
    if "simlint:" not in source:
        # No directive can match: skip tokenizing (most files).
        return from_directives(())
    for lineno, text in _comment_lines(source):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        named = [part.strip() for part in match.group("rules").split(",")]
        named = [part for part in named if part]
        directives.append(
            Directive(
                line=lineno,
                kind=match.group("kind"),
                rules=tuple(part for part in named if _RULE_TOKEN.match(part)),
                malformed=tuple(
                    part for part in named if not _RULE_TOKEN.match(part)
                ),
            )
        )
    return from_directives(tuple(directives))
