"""Engine-level tests: roles, suppressions, selection, report schema."""

import ast
from pathlib import Path

import pytest

from repro.devtools.simlint import (
    PARSE_RULE_ID,
    LintError,
    ModuleRole,
    infer_role,
    lint_file,
    lint_paths,
    lint_source,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestRoleInference:
    @pytest.mark.parametrize(
        ("path", "role"),
        [
            ("src/repro/core/bht.py", ModuleRole.SIM),
            ("src/repro/pipeline/core.py", ModuleRole.SIM),
            ("src/repro/predictors/tage.py", ModuleRole.SIM),
            ("src/repro/telemetry/registry.py", ModuleRole.TELEMETRY),
            ("src/repro/cli.py", ModuleRole.CLI),
            ("src/repro/service/server.py", ModuleRole.SERVICE),
            ("src/repro/service/api.py", ModuleRole.SERVICE),
            ("src/repro/harness/runner.py", ModuleRole.LIB),
            ("src/repro/devtools/simlint/engine.py", ModuleRole.LIB),
            ("tests/core/test_bht.py", ModuleRole.TEST),
            ("benchmarks/bench_tab01_workloads.py", ModuleRole.TEST),
            ("tools/regression.py", ModuleRole.TOOL),
            ("examples/quickstart.py", ModuleRole.TOOL),
            ("setup.py", ModuleRole.TOOL),
            ("somewhere/else.py", ModuleRole.UNKNOWN),
        ],
    )
    def test_paths(self, path, role):
        assert infer_role(path) is role

    def test_absolute_paths_classify_the_same(self):
        assert infer_role("/root/repo/src/repro/core/bht.py") is ModuleRole.SIM


class TestSuppressions:
    def test_line_and_file_directives(self):
        found = lint_file(str(FIXTURES / "suppressed.py"), role=ModuleRole.LIB)
        assert [(v.rule, v.line) for v in found] == [("ERR001", 13)]

    def test_no_suppress_reports_everything(self):
        found = lint_file(
            str(FIXTURES / "suppressed.py"),
            role=ModuleRole.LIB,
            respect_suppressions=False,
        )
        rules = sorted({v.rule for v in found})
        assert rules == ["API001", "ERR001"]
        assert len([v for v in found if v.rule == "ERR001"]) == 2

    def test_wildcard_suppresses_all_rules(self):
        source = (
            "# simlint: ignore-file[*] -- generated file\n"
            "def f(x):\n"
            "    raise ValueError(x)\n"
        )
        assert lint_source(source, "x.py", role=ModuleRole.LIB) == []


class TestSelection:
    def test_select_limits_rules(self):
        found = lint_file(
            str(FIXTURES / "err001.py"), role=ModuleRole.LIB, select=["API001"]
        )
        assert found and all(v.rule == "API001" for v in found)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            lint_source("x = 1\n", "x.py", select=["NOPE999"])


class TestParseErrors:
    def test_syntax_error_becomes_violation(self):
        found = lint_source("def f(:\n", "broken.py")
        assert [v.rule for v in found] == [PARSE_RULE_ID]

    def test_parse_rule_cannot_be_suppressed(self):
        source = "# simlint: ignore-file[*]\ndef f(:\n"
        assert [v.rule for v in lint_source(source, "broken.py")] == [PARSE_RULE_ID]


class TestReport:
    def test_json_schema(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x):\n    raise ValueError(x)\n")
        report = lint_paths([str(tmp_path)])
        payload = report.as_dict()
        assert payload["version"] == 3
        assert payload["files"] == 1
        assert set(payload["counts"]) == {"API001", "ERR001"}
        for violation in payload["violations"]:
            assert set(violation) == {"path", "line", "col", "rule", "message"}
        assert not report.clean

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths(["does/not/exist"])

    def test_violations_sorted_and_counted(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def b(x):\n    raise ValueError(x)\n\n\ndef a(y):\n    return y\n"
        )
        report = lint_paths([str(tmp_path)])
        lines = [v.line for v in report.violations]
        assert lines == sorted(lines)
        assert report.counts() == {"API001": 2, "ERR001": 1}


class TestSinglePass:
    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "a.py").write_text("def f(x: int) -> int:\n    return x\n")
        (core / "b.py").write_text(
            "from repro.core.a import f\n\n\ndef g(y: int) -> int:\n    return f(y)\n"
        )
        (core / "c.py").write_text("X = 1\n")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = lint_paths([str(tmp_path)])
        assert report.files == 3
        assert sorted(parsed) == [str(core / name) for name in ("a.py", "b.py", "c.py")]
