"""SARIF output: schema shape, rule catalogue, result mapping."""

import json

from repro.devtools.simlint import LintReport, Violation, lint_paths
from repro.devtools.simlint.sarif import render_sarif, to_sarif


def report_for(tmp_path, source: str):
    bad = tmp_path / "src" / "repro" / "core" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(source)
    return lint_paths([str(tmp_path)])


class TestLogShape:
    def test_schema_and_version(self, tmp_path):
        log = to_sarif(report_for(tmp_path, "X = 1\n"))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        assert len(log["runs"]) == 1

    def test_rule_catalogue_includes_v2_rules(self, tmp_path):
        log = to_sarif(report_for(tmp_path, "X = 1\n"))
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "simlint"
        ids = {rule["id"] for rule in driver["rules"]}
        assert {
            "DET001",
            "DET002",
            "ERR001",
            "IMP001",
            "LOCK001",
            "LOCK002",
            "PURE001",
            "STALE001",
        } <= ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"] == {"level": "error"}

    def test_clean_report_has_empty_results(self, tmp_path):
        log = to_sarif(report_for(tmp_path, "X = 1\n"))
        assert log["runs"][0]["results"] == []


class TestResults:
    def test_violation_maps_to_result(self, tmp_path):
        report = report_for(
            tmp_path, "def f(x):\n    raise ValueError(x)\n"
        )
        results = to_sarif(report)["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"API001", "ERR001"}
        err = next(r for r in results if r["ruleId"] == "ERR001")
        location = err["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "src/repro/core/mod.py"
        )
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] >= 1
        assert "ValueError" in err["message"]["text"]

    def test_render_is_valid_json(self, tmp_path):
        report = report_for(tmp_path, "def f(x):\n    raise ValueError(x)\n")
        parsed = json.loads(render_sarif(report))
        assert parsed == to_sarif(report)

    def test_uri_drops_only_a_leading_dot_slash(self):
        report = LintReport(
            files=2,
            violations=[
                Violation(path=path, line=1, col=0, rule="ERR001", message="m")
                for path in ("./.hidden/m.py", "./src/a.py")
            ],
        )
        results = to_sarif(report)["runs"][0]["results"]
        uris = [
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in results
        ]
        assert uris == [".hidden/m.py", "src/a.py"]
