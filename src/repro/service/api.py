"""Request model: JSON submissions validated into simulation jobs.

The service accepts the same three shapes the CLI exposes — ``run``
(one workload, one system), ``compare`` (one workload, every Table 3
system), and ``sweep`` (a workload x system matrix, optionally
sharded) — as JSON documents::

    {"kind": "run", "workload": "hpc-fft",
     "system": "forward-walk-coalesce", "branches": 20000}

    {"kind": "compare", "workload": "hpc-fft", "branches": 15000}

    {"kind": "sweep", "branches": 15000, "per_category": 1,
     "systems": ["baseline-tage", "no-repair"], "shard": "1/4"}

Validation happens entirely here, before anything is queued: unknown
fields, workloads, systems, out-of-range branch counts, and malformed
shards all raise :class:`~repro.errors.ServiceError` (or another
:class:`~repro.errors.ReproError`), which the HTTP layer maps to a 400.

A validated request carries its planned
:class:`~repro.harness.scheduler.SimJob` list and a **request key** —
a stable hash over the per-job manifest hashes plus the library's code
fingerprint, i.e. exactly the identity the persistent result cache
keys on.  Two submissions with the same key would simulate the same
thing, so the server dedups them: against in-flight jobs (both wait on
one execution) and against the result cache (answered with zero
re-simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import ServiceError
from repro.harness.result_cache import code_fingerprint
from repro.harness.runner import parse_shard, select_workloads
from repro.harness.sampling import SamplingConfig
from repro.harness.scale import Scale
from repro.harness.scheduler import Scheduler, SimJob
from repro.harness.systems import TABLE3_SYSTEMS, SystemConfig
from repro.telemetry.manifest import stable_hash
from repro.harness.tracestore import resolve_workload

__all__ = [
    "ServiceRequest",
    "parse_request",
    "MAX_BRANCHES",
    "MAX_JOBS_PER_REQUEST",
]

#: Hard ceiling on per-run trace length; protects the shared service
#: from a single request monopolising a worker for hours.
MAX_BRANCHES = 2_000_000

#: Hard ceiling on how many (workload, system) jobs one request may
#: expand to.
MAX_JOBS_PER_REQUEST = 1024

_KINDS = ("run", "compare", "sweep")

#: Where an omitted ``sampling`` field takes its value.
_SAMPLING_DEFAULTS = SamplingConfig()
_DEFAULT_BRANCHES = {"run": 20_000, "compare": 15_000, "sweep": 15_000}

_ALLOWED_FIELDS: dict[str, frozenset[str]] = {
    "run": frozenset({"kind", "workload", "system", "branches", "sampling"}),
    "compare": frozenset({"kind", "workload", "systems", "branches", "sampling"}),
    "sweep": frozenset(
        {"kind", "branches", "per_category", "systems", "shard", "sampling"}
    ),
}


@dataclass(frozen=True)
class ServiceRequest:
    """One validated submission, ready to schedule."""

    kind: str
    #: Canonical JSON-able echo of the validated request fields.
    payload: dict[str, Any]
    #: The planned simulation jobs, workload-major.
    jobs: tuple[SimJob, ...]
    #: Manifest-hash dedup key (see module docstring).
    key: str


def _require_str(payload: Mapping[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value:
        raise ServiceError(f"request field {field!r} must be a non-empty string")
    return value


def _branches(payload: Mapping[str, Any], kind: str) -> int:
    value = payload.get("branches", _DEFAULT_BRANCHES[kind])
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServiceError(f"request field 'branches' must be an integer, got {value!r}")
    if not 1 <= value <= MAX_BRANCHES:
        raise ServiceError(
            f"'branches' must be between 1 and {MAX_BRANCHES}, got {value}"
        )
    return value


def _system_by_name(name: str) -> SystemConfig:
    for config in TABLE3_SYSTEMS:
        if config.name == name:
            return config
    known = ", ".join(cfg.name for cfg in TABLE3_SYSTEMS)
    raise ServiceError(f"unknown system {name!r}; choose from: {known}")


def _systems(payload: Mapping[str, Any]) -> list[SystemConfig]:
    value = payload.get("systems")
    if value is None:
        return list(TABLE3_SYSTEMS)
    if not isinstance(value, list) or not value or not all(
        isinstance(item, str) for item in value
    ):
        raise ServiceError("request field 'systems' must be a non-empty string list")
    return [_system_by_name(name) for name in value]


def _sampling(payload: Mapping[str, Any]) -> SamplingConfig | None:
    value = payload.get("sampling")
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ServiceError("request field 'sampling' must be an object")
    allowed = {"mode", "interval", "coverage", "warmup"}
    unknown = set(value) - allowed
    if unknown:
        raise ServiceError(f"unknown sampling field(s): {sorted(unknown)}")
    mode = value.get("mode", "periodic")
    if mode not in ("off", "periodic", "simpoint"):
        raise ServiceError(f"sampling mode must be off/periodic/simpoint, got {mode!r}")
    if mode == "off":
        return None
    interval = value.get("interval", _SAMPLING_DEFAULTS.interval)
    warmup = value.get("warmup", _SAMPLING_DEFAULTS.warmup)
    coverage = value.get("coverage", _SAMPLING_DEFAULTS.coverage)
    for field, item in (("interval", interval), ("warmup", warmup)):
        if not isinstance(item, int) or isinstance(item, bool):
            raise ServiceError(f"sampling field {field!r} must be an integer")
    if not isinstance(coverage, (int, float)) or isinstance(coverage, bool):
        raise ServiceError("sampling field 'coverage' must be a number")
    return SamplingConfig(
        mode=mode, interval=interval, coverage=float(coverage), warmup=warmup
    )


def _shard(payload: Mapping[str, Any]) -> tuple[int, int] | None:
    value = payload.get("shard")
    if value is None:
        return None
    if not isinstance(value, str):
        raise ServiceError(f"'shard' must be a 'K/N' string, got {value!r}")
    return parse_shard(value)


def _per_category(payload: Mapping[str, Any]) -> int:
    value = payload.get("per_category", 1)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ServiceError(f"'per_category' must be a positive integer, got {value!r}")
    return value


def request_key(jobs: Sequence[SimJob]) -> str:
    """Manifest-hash identity of a job list (order-sensitive)."""
    return stable_hash(
        {
            "jobs": [
                [m["config_hash"], m["workload_hash"]]
                for m in (job.manifest() for job in jobs)
            ],
            "code": code_fingerprint(),
        }
    )


def parse_request(payload: Any) -> ServiceRequest:
    """Validate one JSON submission into a :class:`ServiceRequest`."""
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ServiceError(f"request 'kind' must be one of {list(_KINDS)}, got {kind!r}")
    unknown = set(payload) - _ALLOWED_FIELDS[kind]
    if unknown:
        raise ServiceError(
            f"unknown field(s) for kind {kind!r}: {sorted(unknown)}"
        )
    branches = _branches(payload, kind)
    sampling = _sampling(payload)
    echo: dict[str, Any] = {"kind": kind, "branches": branches}
    if sampling is not None:
        echo["sampling"] = sampling.to_payload()

    shard: tuple[int, int] | None = None
    if kind == "sweep":
        per_category = _per_category(payload)
        systems = _systems(payload)
        shard = _shard(payload)
        scale = Scale(
            name="service-sweep",
            branches_per_workload=branches,
            workloads_per_category=per_category,
        )
        workloads = select_workloads(scale)
        echo.update(
            per_category=per_category,
            systems=[s.name for s in systems],
            shard=f"{shard[0]}/{shard[1]}" if shard else None,
        )
    else:
        spec = resolve_workload(_require_str(payload, "workload"))
        workloads = [spec]
        if kind == "run":
            systems = [
                _system_by_name(payload.get("system", "forward-walk-coalesce"))
            ]
            echo.update(workload=spec.name, system=systems[0].name)
        else:
            systems = _systems(payload)
            echo.update(workload=spec.name, systems=[s.name for s in systems])
    jobs = Scheduler().plan(
        workloads, systems, branches, sampling=sampling, shard=shard
    )

    if not jobs:
        raise ServiceError("request expands to zero simulation jobs")
    if len(jobs) > MAX_JOBS_PER_REQUEST:
        raise ServiceError(
            f"request expands to {len(jobs)} jobs, over the "
            f"{MAX_JOBS_PER_REQUEST}-job limit; shard it with 'shard': 'K/N'"
        )
    return ServiceRequest(
        kind=kind, payload=echo, jobs=tuple(jobs), key=request_key(jobs)
    )
