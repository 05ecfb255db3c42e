"""Unit tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "hpc-fft"])
        assert args.system == "forward-walk-coalesce"
        assert args.branches == 20_000

    def test_run_rejects_specialize(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--workload", "hpc-fft", "--specialize"])
        assert exc.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8321
        assert args.workers == 2
        assert args.executor == "inline"
        assert args.queue_limit == 64
        assert not args.no_result_cache


class TestPerfCommand:
    def test_perf_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_perf.json"
        code = main(
            ["perf", "--branches", "800", "--repeats", "1",
             "--systems", "baseline-tage", "--no-sampling",
             "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "branches/s" in out and "warm sweep" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["throughput"]["baseline-tage"]["branches_per_s"] > 0
        assert payload["warm_sweep"]["speedup"] > 1.0
        assert payload["env"]["code_fingerprint"]

    def test_run_no_result_cache_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
        code = main(
            ["run", "--workload", "hpc-fft", "--branches", "900",
             "--no-result-cache"]
        )
        assert code == 0
        assert not (tmp_path / "results").exists()


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "202 workloads" in out
        assert "hpc-fft" in out

    def test_list_workloads_filtered(self, capsys):
        assert main(["list-workloads", "--category", "hpc"]) == 0
        out = capsys.readouterr().out
        assert "8 workloads" in out
        assert "server-" not in out

    def test_list_systems(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out
        assert "forward-walk" in out and "perfect-repair" in out

    def test_run(self, capsys):
        code = main(
            ["run", "--workload", "hpc-fft", "--system", "perfect-repair",
             "--branches", "1200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "MPKI" in out
        assert "repair events" in out

    def test_run_baseline_has_no_repair_line(self, capsys):
        main(["run", "--workload", "hpc-fft", "--system", "baseline-tage",
              "--branches", "1200"])
        out = capsys.readouterr().out
        assert "repair events" not in out

    def test_run_unknown_system(self, capsys):
        # Unknown systems are a ConfigError (exit 1 + stderr message),
        # not a bare SystemExit: the name may now also be a
        # table-predictor spec string, and both failures share the
        # CLI's ReproError path.
        code = main(["run", "--workload", "hpc-fft", "--system", "quantum"])
        assert code == 1
        assert "unknown system" in capsys.readouterr().err

    def test_compare_smoke(self, capsys):
        code = main(["compare", "--workload", "mm-animation", "--branches", "900"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline-tage" in out
        assert "forward-walk-coalesce" in out

    def test_compare_workers_one_is_sequential(self, capsys):
        code = main(
            ["compare", "--workload", "mm-animation", "--branches", "900",
             "--workers", "1"]
        )
        assert code == 0
        assert "baseline-tage" in capsys.readouterr().out

    def test_diagnose(self, capsys):
        code = main(
            ["diagnose", "--workload", "mm-animation", "--system",
             "forward-walk", "--branches", "1500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "override precision" in out
        assert "repairs/event" in out


class TestTelemetryCommands:
    def test_run_telemetry_then_summarize(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(
            ["run", "--workload", "hpc-fft", "--system", "forward-walk",
             "--branches", "1200", "--telemetry", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and str(trace) in out
        assert trace.exists()

        assert main(["telemetry", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "hpc-fft" in out
        assert "misprediction episodes" in out
        assert "cycle breakdown" in out

    def test_telemetry_export_prom(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["run", "--workload", "hpc-fft", "--branches", "1200",
              "--telemetry", str(trace)])
        capsys.readouterr()
        assert main(["telemetry", str(trace), "--export", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_pipeline_episodes counter" in out

    def test_telemetry_export_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.jsonl"
        main(["run", "--workload", "hpc-fft", "--branches", "1200",
              "--telemetry", str(trace)])
        capsys.readouterr()
        assert main(["telemetry", str(trace), "--export", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["pipeline.episodes"] > 0

    def test_run_telemetry_leaves_global_state_off(self, tmp_path, capsys):
        from repro.telemetry import TELEMETRY

        was_enabled = TELEMETRY.enabled
        main(["run", "--workload", "hpc-fft", "--branches", "1200",
              "--telemetry", str(tmp_path / "t.jsonl")])
        assert TELEMETRY.enabled == was_enabled
        assert not TELEMETRY.tracing


class TestSamplingFlags:
    def test_run_defaults_to_exact(self):
        from repro.cli import _sampling_config

        args = build_parser().parse_args(["run", "--workload", "hpc-fft"])
        assert _sampling_config(args) is None

    def test_sample_shortcut_means_periodic(self):
        from repro.cli import _sampling_config

        args = build_parser().parse_args(
            ["run", "--workload", "hpc-fft", "--sample"]
        )
        config = _sampling_config(args)
        assert config is not None and config.mode == "periodic"
        assert config.interval == 4000 and config.warmup == 6000

    def test_explicit_mode_and_knobs(self):
        from repro.cli import _sampling_config

        args = build_parser().parse_args(
            ["compare", "--workload", "hpc-fft", "--sample-mode", "simpoint",
             "--sample-interval", "512", "--sample-coverage", "0.25",
             "--sample-warmup", "1024"]
        )
        config = _sampling_config(args)
        assert config is not None
        assert config.mode == "simpoint"
        assert config.interval == 512
        assert config.coverage == 0.25
        assert config.warmup == 1024

    def test_mode_off_beats_sample_flag(self):
        from repro.cli import _sampling_config

        args = build_parser().parse_args(
            ["run", "--workload", "hpc-fft", "--sample", "--sample-mode", "off"]
        )
        assert _sampling_config(args) is None

    def test_sampled_run_prints_confidence(self, capsys):
        code = main(
            ["run", "--workload", "hpc-fft", "--branches", "2500",
             "--sample", "--sample-interval", "200", "--sample-warmup", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "detailed" in out


class TestSweepCommand:
    def test_parse_shard(self):
        from repro.cli import _parse_shard

        assert _parse_shard("2/8") == (2, 8)
        for bad in ("2", "a/b", "1/2/3", ""):
            with pytest.raises(SystemExit):
                _parse_shard(bad)

    def test_parse_shard_rejects_out_of_range(self):
        from repro.cli import _parse_shard
        from repro.errors import ConfigError

        for bad in ("5/4", "0/4", "-1/4", "1/0", "2/-3"):
            with pytest.raises(ConfigError, match="shard"):
                _parse_shard(bad)

    def test_sweep_out_of_range_shard_is_an_error_exit(self, capsys):
        code = main(
            ["sweep", "--branches", "500", "--per-category", "1",
             "--systems", "baseline-tage", "--shard", "9/4"]
        )
        assert code == 1
        assert "shard" in capsys.readouterr().err

    def test_sweep_sharded(self, capsys):
        code = main(
            ["sweep", "--branches", "700", "--per-category", "1",
             "--systems", "baseline-tage,no-repair", "--shard", "1/4",
             "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard 1/4" in out
        assert "IPC" in out and "MPKI" in out

    def test_sweep_shards_partition_matrix(self, capsys):
        argv = ["sweep", "--branches", "700", "--per-category", "1",
                "--systems", "baseline-tage", "--workers", "1"]
        assert main(argv) == 0
        full = capsys.readouterr().out
        total = int(full.rsplit("\n", 2)[-2].split()[0])
        sharded = 0
        for k in (1, 2, 3):
            assert main(argv + ["--shard", f"{k}/3"]) == 0
            out = capsys.readouterr().out
            sharded += int(out.rsplit("\n", 2)[-2].split()[0])
        assert sharded == total

    def test_sweep_unknown_system(self, capsys):
        code = main(["sweep", "--systems", "nope", "--branches", "500"])
        assert code == 1
        assert "unknown system" in capsys.readouterr().err


class TestTraceCommands:
    """The `repro trace` family, exercised offline on committed fixtures."""

    CHAMPSIM = "tests/data/traces/quicksort.champsim.gz"
    BT9 = "tests/data/traces/dijkstra.bt9"

    @pytest.fixture(autouse=True)
    def _trace_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_OFFLINE", "1")

    def test_info_pinned_text(self, capsys):
        assert main(["trace", "info", self.CHAMPSIM]) == 0
        assert capsys.readouterr().out == (
            f"path:          {self.CHAMPSIM}\n"
            "format:        champsim (adapter v1)\n"
            "compression:   gzip\n"
            "records:       1612\n"
            "instructions:  5232\n"
            "conditional:   1486\n"
            "static sites:  6\n"
            "taken rate:    0.7369\n"
            "pc range:      0x40000000..0x400001c0\n"
            "target range:  0x40000020..0x40000240\n"
            "kinds:         COND=1486 CALL=63 RET=63\n"
        )

    def test_info_json_format(self, capsys):
        import json

        assert main(["trace", "info", self.BT9, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "bt9"
        assert info["compression"] is None
        assert info["records"] == 6121
        assert info["static_sites"] == 5
        assert info["kind_counts"] == {"COND": 6072, "RET": 1, "UNCOND": 48}
        assert info["adapter_version"] == 1

    def test_info_bad_file_is_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "junk.trace"
        bad.write_bytes(b"\x01\x02\x03 definitely not a trace")
        assert main(["trace", "info", str(bad)]) == 1
        assert "unrecognised" in capsys.readouterr().err

    def test_import_list_run_round_trip(self, capsys):
        assert main(["trace", "import", self.CHAMPSIM]) == 0
        out = capsys.readouterr().out
        assert "imported quicksort: 1612 records (champsim" in out
        assert "sha256:" in out

        assert main(["trace", "list"]) == 0
        listing = capsys.readouterr().out
        assert "quicksort" in listing and "champsim" in listing

        assert main(
            ["run", "--workload", "quicksort",
             "--system", "baseline-tage", "--branches", "1500"]
        ) == 0
        assert "MPKI" in capsys.readouterr().out

    def test_import_custom_name(self, capsys):
        assert main(
            ["trace", "import", self.BT9, "--name", "my-dijkstra"]
        ) == 0
        assert "imported my-dijkstra: 6121 records (bt9" in (
            capsys.readouterr().out
        )

    def test_fetch_from_committed_manifest(self, capsys):
        assert main(
            ["trace", "fetch", "public-dijkstra",
             "--manifest", "traces/public-traces.json"]
        ) == 0
        out = capsys.readouterr().out
        assert "fetched public-dijkstra: 6121 records (bt9, verified sha256)" in out

    def test_list_empty_store(self, capsys):
        assert main(["trace", "list"]) == 0
        assert "no imported traces" in capsys.readouterr().out

    def test_sweep_workloads_flag_mixes_sources(self, capsys):
        assert main(["trace", "import", self.CHAMPSIM]) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--workloads", "quicksort,hpc-fft",
             "--systems", "baseline-tage", "--branches", "800",
             "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "quicksort" in out and "hpc-fft" in out

    def test_run_unknown_workload_mentions_import(self, capsys):
        assert main(
            ["run", "--workload", "no-such-trace", "--branches", "500"]
        ) == 1
        err = capsys.readouterr().err
        assert "repro trace import" in err or "trace store" in err
