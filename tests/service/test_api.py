"""Validation tests for the service request model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ReproError, ServiceError
from repro.service.api import MAX_BRANCHES, parse_request


@pytest.fixture(autouse=True)
def _no_disk(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


class TestShapes:
    def test_run_request(self):
        request = parse_request(
            {"kind": "run", "workload": "hpc-fft", "branches": 2000}
        )
        assert request.kind == "run"
        assert len(request.jobs) == 1
        assert request.jobs[0].spec.name == "hpc-fft"
        assert request.jobs[0].n_branches == 2000
        assert request.payload["system"] == "forward-walk-coalesce"

    def test_compare_request_defaults_to_all_systems(self):
        request = parse_request({"kind": "compare", "workload": "hpc-fft"})
        assert len(request.jobs) >= 5
        assert len({job.system.name for job in request.jobs}) == len(request.jobs)

    def test_compare_with_explicit_systems(self):
        request = parse_request(
            {
                "kind": "compare",
                "workload": "hpc-fft",
                "systems": ["baseline-tage", "no-repair"],
            }
        )
        assert [job.system.name for job in request.jobs] == [
            "baseline-tage",
            "no-repair",
        ]

    def test_sweep_request_with_shard(self):
        full = parse_request(
            {"kind": "sweep", "branches": 1000, "systems": ["baseline-tage"]}
        )
        parts = [
            parse_request(
                {
                    "kind": "sweep",
                    "branches": 1000,
                    "systems": ["baseline-tage"],
                    "shard": f"{k}/3",
                }
            )
            for k in (1, 2, 3)
        ]
        recombined = [job for part in parts for job in part.jobs]
        assert recombined == list(full.jobs)

    def test_sampling_accepted(self):
        request = parse_request(
            {
                "kind": "run",
                "workload": "hpc-fft",
                "sampling": {"mode": "periodic", "interval": 500, "warmup": 800},
            }
        )
        sampling = request.jobs[0].engine.sampling
        assert sampling is not None and sampling.interval == 500
        assert request.payload["sampling"]["mode"] == "periodic"

    def test_sampling_mode_off_means_exact(self):
        request = parse_request(
            {"kind": "run", "workload": "hpc-fft", "sampling": {"mode": "off"}}
        )
        assert request.jobs[0].engine.sampling is None


class TestRejections:
    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {},
            {"kind": "explode"},
            {"kind": "run"},  # missing workload
            {"kind": "run", "workload": "hpc-fft", "shard": "1/2"},  # wrong kind
            {"kind": "run", "workload": "no-such-workload"},
            {"kind": "run", "workload": "hpc-fft", "system": "quantum"},
            {"kind": "run", "workload": "hpc-fft", "branches": 0},
            {"kind": "run", "workload": "hpc-fft", "branches": MAX_BRANCHES + 1},
            {"kind": "run", "workload": "hpc-fft", "branches": "many"},
            {"kind": "run", "workload": "hpc-fft", "branches": True},
            {"kind": "compare", "workload": "hpc-fft", "systems": []},
            {"kind": "compare", "workload": "hpc-fft", "systems": "baseline-tage"},
            {"kind": "sweep", "per_category": 0},
            {"kind": "sweep", "per_category": "all"},
            {"kind": "sweep", "shard": "1-2"},
            {"kind": "sweep", "shard": 12},
            {"kind": "run", "workload": "hpc-fft", "sampling": {"mode": "maybe"}},
            {"kind": "run", "workload": "hpc-fft", "sampling": {"interval": "x"}},
            {"kind": "run", "workload": "hpc-fft", "sampling": {"nope": 1}},
            {"kind": "run", "workload": "hpc-fft", "sampling": "on"},
        ],
    )
    def test_bad_payloads(self, payload):
        with pytest.raises(ReproError):
            parse_request(payload)

    def test_out_of_range_shard_is_config_error(self):
        with pytest.raises(ConfigError, match="shard"):
            parse_request({"kind": "sweep", "shard": "9/4"})

    def test_unknown_field_names_the_kind(self):
        with pytest.raises(ServiceError, match="run"):
            parse_request({"kind": "run", "workload": "hpc-fft", "turbo": True})

    @pytest.mark.parametrize("kind", ["run", "compare", "sweep"])
    def test_specialize_is_an_unknown_field(self, kind):
        with pytest.raises(ServiceError, match=rf"kind '{kind}': \['specialize'\]"):
            parse_request({"kind": kind, "specialize": True})


class TestDedupKeys:
    def test_identical_requests_share_a_key(self):
        a = parse_request({"kind": "run", "workload": "hpc-fft", "branches": 2000})
        b = parse_request({"kind": "run", "workload": "hpc-fft", "branches": 2000})
        assert a.key == b.key

    def test_branches_change_the_key(self):
        a = parse_request({"kind": "run", "workload": "hpc-fft", "branches": 2000})
        b = parse_request({"kind": "run", "workload": "hpc-fft", "branches": 2001})
        assert a.key != b.key

    def test_system_changes_the_key(self):
        a = parse_request({"kind": "run", "workload": "hpc-fft"})
        b = parse_request(
            {"kind": "run", "workload": "hpc-fft", "system": "baseline-tage"}
        )
        assert a.key != b.key

    def test_sampling_changes_the_key(self):
        a = parse_request({"kind": "run", "workload": "hpc-fft"})
        b = parse_request(
            {"kind": "run", "workload": "hpc-fft", "sampling": {"mode": "periodic"}}
        )
        assert a.key != b.key
