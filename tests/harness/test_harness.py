"""Unit tests for the experiment harness (scale, systems, runner, report)."""

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.harness.report import Figure, format_bars, format_table, pct
from repro.harness.runner import (
    load_trace,
    pair_results,
    run_matrix,
    run_single,
    select_workloads,
)
from repro.harness.scale import SCALES, Scale, current_scale, resolve_scale
from repro.harness.systems import (
    PAPER_TABLE3,
    TABLE3_SYSTEMS,
    SystemConfig,
    build_system,
    table3_rows,
)


class TestScale:
    def test_known_scales(self):
        for name in ("smoke", "small", "medium", "full"):
            assert resolve_scale(name).name == name

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError):
            resolve_scale("gigantic")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.delenv("REPRO_SCALE")
        assert current_scale(default="medium").name == "medium"

    def test_workload_count(self):
        smoke = SCALES["smoke"]
        assert smoke.workload_count(29) == 1
        full = SCALES["full"]
        assert full.workload_count(29) == 29


class TestSystems:
    def test_table3_covers_paper_rows(self):
        names = {cfg.name for cfg in TABLE3_SYSTEMS}
        assert names == set(PAPER_TABLE3)

    def test_build_baseline(self):
        baseline, unit = build_system(
            SystemConfig(name="base", local_entries=None, scheme=None)
        )
        assert unit is None
        assert baseline.name == "tage-7.1kb"

    def test_build_every_table3_system(self):
        for config in table3_rows():
            baseline, unit = build_system(config)
            assert unit is not None
            assert unit.storage_bits() > 0

    def test_build_multistage(self):
        _, unit = build_system(SystemConfig(name="ms", scheme="multistage"))
        from repro.core.repair.multistage import MultiStageUnit

        assert isinstance(unit, MultiStageUnit)

    def test_build_generic_local(self):
        _, unit = build_system(
            SystemConfig(name="g", scheme="forward", generic_local=True)
        )
        from repro.core.two_level_local import TwoLevelLocalPredictor

        assert isinstance(unit.local, TwoLevelLocalPredictor)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            build_system(SystemConfig(name="x", scheme="magic"))

    def test_unknown_tage(self):
        with pytest.raises(ConfigError):
            build_system(SystemConfig(name="x", tage="kb1024", scheme="perfect"))

    def test_tage_presets(self):
        for preset in ("kb8", "kb9", "kb64"):
            baseline, _ = build_system(
                SystemConfig(name="b", tage=preset, local_entries=None, scheme=None)
            )
            assert baseline.storage_bits() > 0


class TestRunner:
    @pytest.fixture(autouse=True)
    def no_disk_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")

    @pytest.fixture
    def scale(self):
        return Scale(name="test", branches_per_workload=800, workloads_per_category=1)

    def test_run_single(self, tiny_spec):
        result = run_single(
            tiny_spec, SystemConfig(name="p", scheme="perfect"), n_branches=800
        )
        assert result.workload == "tiny"
        assert result.ipc > 0
        assert result.instructions > 0

    def test_run_matrix_serial(self, tiny_spec, scale):
        systems = [
            SystemConfig(name="baseline-tage", local_entries=None, scheme=None),
            SystemConfig(name="p", scheme="perfect"),
        ]
        results = run_matrix([tiny_spec], systems, scale, workers=1)
        assert len(results) == 2
        assert {r.system for r in results} == {"baseline-tage", "p"}

    def test_pair_results(self, tiny_spec, scale):
        systems = [
            SystemConfig(name="baseline-tage", local_entries=None, scheme=None),
            SystemConfig(name="p", scheme="perfect"),
            SystemConfig(name="n", scheme="none"),
        ]
        results = run_matrix([tiny_spec], systems, scale, workers=1)
        paired = pair_results(results, "baseline-tage")
        assert set(paired) == {"p", "n"}
        assert paired["p"][0].baseline_ipc > 0

    def test_select_workloads_covers_categories(self, scale):
        workloads = select_workloads(scale)
        assert len(workloads) == 7

    def test_trace_disk_cache(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        first = load_trace(tiny_spec, 300)
        assert (tmp_path / "cache").exists()
        second = load_trace(tiny_spec, 300)
        assert first == second


class TestReport:
    def test_pct(self):
        assert pct(0.123) == "+12.3%"
        assert pct(-0.05) == "-5.0%"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_format_bars_signs(self):
        text = format_bars(["up", "down"], [0.5, -0.25])
        assert "#" in text
        assert "-" in text

    def test_format_bars_validation(self):
        with pytest.raises(ConfigError):
            format_bars(["a"], [1.0, 2.0])

    def test_figure_render(self):
        figure = Figure("figX", "demo")
        figure.add_table(["a"], [(1,)])
        figure.add_bars(["x"], [0.1])
        text = figure.render()
        assert "figX" in text and "demo" in text
