"""CLI contract tests: exit codes, output formats, repro integration."""

import dataclasses
import json

import pytest

from repro.cli import main as repro_main
from repro.devtools.simlint.cli import EXIT_CLEAN, EXIT_INTERNAL, EXIT_VIOLATIONS
from repro.devtools.simlint.model import REGISTRY


@pytest.fixture
def dirty_tree(tmp_path):
    """A fake source tree with one ERR001 violation in a sim module."""
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(x: int) -> None:\n    raise ValueError(x)\n")
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("X = 1\n")
        assert repro_main(["lint", str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, dirty_tree, capsys):
        assert repro_main(["lint", str(dirty_tree)]) == EXIT_VIOLATIONS
        assert "ERR001" in capsys.readouterr().out

    def test_unparseable_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert repro_main(["lint", str(tmp_path)]) == EXIT_VIOLATIONS
        assert "PARSE001" in capsys.readouterr().out

    def test_no_paths_exits_two(self, capsys):
        assert repro_main(["lint"]) == EXIT_INTERNAL
        assert "no paths" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert repro_main(["lint", "--select", "NOPE999", str(tmp_path)]) == EXIT_INTERNAL
        assert "unknown rule" in capsys.readouterr().err

    def test_checker_crash_exits_two(self, dirty_tree, capsys, monkeypatch):
        def boom(ctx):
            raise RuntimeError("checker exploded")
            yield  # pragma: no cover - keeps this a generator like real checkers

        broken = dataclasses.replace(REGISTRY["ERR001"], check=boom)
        monkeypatch.setitem(REGISTRY, "ERR001", broken)
        assert repro_main(["lint", str(dirty_tree)]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestOutput:
    def test_json_format(self, dirty_tree, capsys):
        assert repro_main(["lint", "--format", "json", str(dirty_tree)]) == EXIT_VIOLATIONS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 3
        assert payload["counts"] == {"ERR001": 1}
        assert payload["violations"][0]["rule"] == "ERR001"

    def test_select_filter(self, dirty_tree, capsys):
        assert (
            repro_main(["lint", "--select", "API001", str(dirty_tree)]) == EXIT_CLEAN
        )

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in (
            "API001",
            "DET001",
            "DET002",
            "ERR001",
            "IMP001",
            "LOCK001",
            "LOCK002",
            "PURE001",
            "SPEC001",
            "STALE001",
            "TEL001",
        ):
            assert rule_id in out
        # The rule kind is part of the listing.
        assert "project" in out and "local" in out

    def test_sarif_format(self, dirty_tree, capsys):
        assert repro_main(["lint", "--format", "sarif", str(dirty_tree)]) == EXIT_VIOLATIONS
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["ERR001"]


class TestReproIntegration:
    def test_repro_lint_subcommand(self, dirty_tree, capsys):
        assert repro_main(["lint", str(dirty_tree)]) == EXIT_VIOLATIONS
        assert "ERR001" in capsys.readouterr().out

    def test_repro_lint_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == EXIT_CLEAN
        assert "DET001" in capsys.readouterr().out
