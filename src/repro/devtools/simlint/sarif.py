"""SARIF 2.1.0 output: lint findings as PR annotations.

``repro lint --format sarif`` emits a single-run SARIF log that CI
uploads via ``github/codeql-action/upload-sarif``; GitHub then renders
each finding as an inline annotation on the pull request diff.  Only
the fields code-scanning consumes are emitted — tool metadata with the
full rule catalogue (so the UI shows the invariant a rule protects),
and one ``result`` per violation with a physical location.

Suppressed findings are *absent* by construction: the report passed in
is post-filtering, so annotations only mark findings the gate would
actually fail on.
"""

from __future__ import annotations

import json

from repro.devtools.simlint.engine import LintReport
from repro.devtools.simlint.model import all_rules
from repro.devtools.simlint.rules import load as _load_rules

__all__ = ["to_sarif", "render_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _uri(path: str) -> str:
    """Repo-relative, forward-slash artifact URI."""
    return path.replace("\\", "/").removeprefix("./")


def to_sarif(report: LintReport) -> dict[str, object]:
    """The SARIF log object for one lint run."""
    _load_rules()
    rules = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.invariant},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules()
    ]
    results = [
        {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _uri(violation.path),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
        }
        for violation in report.violations
    ]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "docs/static-analysis.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    """Serialized SARIF log, ready to write to a file or stdout."""
    return json.dumps(to_sarif(report), indent=2, sort_keys=True)
