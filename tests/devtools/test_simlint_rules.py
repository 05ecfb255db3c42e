"""Per-rule tests: each fixture file demonstrates its rule firing.

Fixtures live under ``tests/devtools/fixtures`` and are linted with a
*forced* module role, exactly as documented in the fixtures README —
their on-disk role (test code) exempts them from the simulator rules,
which is what keeps ``repro lint tests`` clean.
"""

from pathlib import Path

from repro.devtools.simlint import ModuleRole, lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_violations(name: str, role: ModuleRole, rule: str) -> list:
    found = lint_file(str(FIXTURES / name), role=role, select=[rule])
    assert all(v.rule == rule for v in found)
    return found


class TestDet001:
    def test_fixture_lines(self):
        found = fixture_violations("det001.py", ModuleRole.SIM, "DET001")
        assert [v.line for v in found] == [9, 13, 17, 18, 19, 25, 27, 31]

    def test_each_source_kind_reported(self):
        messages = " ".join(
            v.message
            for v in fixture_violations("det001.py", ModuleRole.SIM, "DET001")
        )
        for needle in ("random", "wall-clock", "environment", "set", "hash"):
            assert needle in messages

    def test_not_applied_outside_simulation_modules(self):
        source = "import time\n\n\ndef f() -> float:\n    return time.time()\n"
        for role in (ModuleRole.LIB, ModuleRole.TELEMETRY, ModuleRole.TEST):
            assert lint_source(source, "x.py", role=role, select=["DET001"]) == []
        assert lint_source(source, "x.py", role=ModuleRole.SIM, select=["DET001"])


class TestSpec001:
    def test_fixture_lines(self):
        found = fixture_violations("spec001.py", ModuleRole.SIM, "SPEC001")
        assert [v.line for v in found] == [5, 6, 7]

    def test_trusted_directories_exempt(self):
        source = "def f(unit, slot: int) -> None:\n    unit.bht._state[slot] = 0\n"
        for trusted in ("src/repro/core/x.py", "src/repro/predictors/x.py"):
            assert lint_source(source, trusted, select=["SPEC001"]) == []
        assert lint_source(
            source, "src/repro/pipeline/x.py", select=["SPEC001"]
        )


class TestTel001:
    def test_fixture_lines(self):
        found = fixture_violations("tel001.py", ModuleRole.SIM, "TEL001")
        assert {v.line for v in found} == {5, 6, 7, 12, 13}

    def test_plain_emit_is_clean(self):
        source = (
            "def f(tel, n: int) -> None:\n"
            "    if tel.enabled:\n"
            "        tel.registry.counter('bht.writes').inc(n)\n"
        )
        assert lint_source(source, "x.py", role=ModuleRole.SIM, select=["TEL001"]) == []


class TestErr001:
    def test_fixture_lines(self):
        found = fixture_violations("err001.py", ModuleRole.LIB, "ERR001")
        assert [v.line for v in found] == [8, 14, 18]

    def test_system_exit_allowed_only_in_cli_and_tools(self):
        source = "def f() -> None:\n    raise SystemExit(2)\n"
        for role in (ModuleRole.CLI, ModuleRole.TOOL):
            assert lint_source(source, "x.py", role=role, select=["ERR001"]) == []
        assert lint_source(source, "x.py", role=ModuleRole.SIM, select=["ERR001"])


class TestLock001:
    def test_fixture_lines(self):
        found = fixture_violations("lock001.py", ModuleRole.SERVICE, "LOCK001")
        assert [v.line for v in found] == [24, 27, 28]

    def test_read_and_write_both_reported(self):
        found = fixture_violations("lock001.py", ModuleRole.SERVICE, "LOCK001")
        kinds = [v.message.split(" ", 2)[1] for v in found]
        assert kinds == ["read", "write", "write"]

    def test_class_without_lock_attribute_not_analysed(self):
        source = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self._jobs = {}\n"
            "\n"
            "    def get(self, key):\n"
            "        return self._jobs.get(key)\n"
        )
        assert (
            lint_source(source, "x.py", role=ModuleRole.SERVICE, select=["LOCK001"])
            == []
        )

    def test_locked_suffix_methods_are_trusted(self):
        source = (
            "import threading\n"
            "\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._jobs = {}\n"
            "\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self._jobs[k] = v\n"
            "\n"
            "    def evict_locked(self, k):\n"
            "        self._jobs.pop(k, None)\n"
        )
        assert (
            lint_source(source, "x.py", role=ModuleRole.SERVICE, select=["LOCK001"])
            == []
        )


class TestImp001:
    def test_unused_import_flagged(self):
        source = "import os\nimport sys\n\nARGS = sys.argv\n"
        found = lint_source(source, "x.py", role=ModuleRole.LIB, select=["IMP001"])
        assert [(v.line, v.rule) for v in found] == [(1, "IMP001")]
        assert "'os'" in found[0].message

    def test_string_reference_counts_as_use(self):
        source = 'import os\n\n__all__ = ["os"]\n'
        assert lint_source(source, "x.py", role=ModuleRole.LIB, select=["IMP001"]) == []

    def test_init_files_exempt(self):
        source = "from os import path\n"
        assert (
            lint_source(
                source, "src/repro/x/__init__.py", role=ModuleRole.LIB, select=["IMP001"]
            )
            == []
        )


class TestApi001:
    def test_fixture_lines(self):
        found = fixture_violations("api001.py", ModuleRole.LIB, "API001")
        assert [v.line for v in found] == [4, 13, 16]

    def test_message_names_missing_pieces(self):
        found = fixture_violations("api001.py", ModuleRole.LIB, "API001")
        assert "parameter 'trace'" in found[0].message
        assert "return type" in found[0].message
