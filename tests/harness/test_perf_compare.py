"""The perf-compare tool: section tolerance and batch annotations."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perf_compare",
    Path(__file__).resolve().parents[2] / "tools" / "perf_compare.py",
)
assert _SPEC is not None and _SPEC.loader is not None
perf_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_compare)


def _payload(**overrides):
    payload = {
        "bench": "perf",
        "schema_version": 4,
        "throughput": {"baseline-tage": {"branches_per_s": 25_000.0}},
        "warm_sweep": {"speedup": 100.0},
        "sampling": None,
        "batch": {
            "configs": 16,
            "speedup": 80.0,
            "mpki_identical": True,
        },
    }
    payload.update(overrides)
    return payload


def _run(tmp_path, baseline, fresh):
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return perf_compare.main([str(base_path), str(fresh_path)])


def test_identical_payloads_clean(tmp_path, capsys):
    assert _run(tmp_path, _payload(), _payload()) == 0
    assert "::warning::" not in capsys.readouterr().out


def test_missing_sections_skip_with_note(tmp_path, capsys):
    # A pre-batch baseline (no key at all) and a smoke run that skipped
    # sampling: both sides must be tolerated without a KeyError.
    baseline = _payload()
    del baseline["batch"]
    del baseline["sampling"]
    assert _run(tmp_path, baseline, _payload()) == 0
    out = capsys.readouterr().out
    assert "skipping 'batch' section" in out
    assert "skipping 'sampling' section" in out
    assert "::warning::" not in out


def test_batch_divergence_warns(tmp_path, capsys):
    fresh = _payload()
    fresh["batch"] = {"configs": 16, "speedup": 80.0, "mpki_identical": False}
    assert _run(tmp_path, _payload(), fresh) == 0
    assert "MPKI diverged" in capsys.readouterr().out


def test_batch_speedup_regression_warns(tmp_path, capsys):
    fresh = _payload()
    fresh["batch"] = {"configs": 16, "speedup": 8.0, "mpki_identical": True}
    assert _run(tmp_path, _payload(), fresh) == 0
    assert "batch-kernel speedup" in capsys.readouterr().out
