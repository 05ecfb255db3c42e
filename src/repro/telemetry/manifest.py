"""Run provenance: what exactly produced a persisted result.

A manifest answers "can I trust / reproduce this number?" without
re-running anything: stable content hashes of the system + pipeline
configuration and of the workload recipe, the trace length, the library
version, and the environment knobs that change behaviour (every
``REPRO_*`` variable).  Hashes are SHA-256 over canonical JSON
(sorted keys, no whitespace), so they are stable across processes,
platforms, and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any

import repro

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.sampling import SamplingConfig
    from repro.harness.systems import SystemConfig
    from repro.pipeline.config import PipelineConfig
    from repro.workloads.spec import WorkloadSpec

__all__ = ["RunManifest", "build_manifest", "capture_env", "run_hashes", "stable_hash"]

#: Bump when the hashed payload layout changes.
_MANIFEST_VERSION = 1


def _canonical(payload: Any) -> Any:
    """Reduce dataclasses to plain JSON-able structures."""
    if is_dataclass(payload) and not isinstance(payload, type):
        return asdict(payload)
    return payload


def stable_hash(payload: Any) -> str:
    """Short process-stable content hash (first 16 hex of SHA-256)."""
    canonical = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Provenance attached to every :class:`~repro.harness.runner.RunResult`."""

    config_hash: str
    workload_hash: str
    workload: str
    system: str
    branches: int
    repro_version: str
    manifest_version: int = _MANIFEST_VERSION
    scale: str | None = None
    python: str = ""
    platform: str = ""
    env: dict[str, str] = field(default_factory=dict)
    #: Sampled-simulation parameters, present only when sampling is
    #: enabled — exact runs keep their historical manifest shape (and
    #: therefore their result-cache keys).
    sampling: dict[str, Any] | None = None
    #: Evaluation engine, present only for non-default engines (the
    #: batch sweep kernel records ``"batch"``) — exact scalar runs keep
    #: their historical manifest shape and result-cache keys.
    engine: str | None = None
    #: Filled in by the runner after the simulation finishes.
    wall_s: float | None = None

    def as_dict(self) -> dict[str, Any]:
        """A fresh plain dict: its ``env`` and ``sampling`` are copies."""
        payload = dict(vars(self))
        payload["env"] = dict(self.env)
        if self.sampling is None:
            del payload["sampling"]
        else:
            payload["sampling"] = dict(self.sampling)
        if self.engine is None:
            del payload["engine"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


#: An environment capture: the ``REPRO_*`` variables as sorted pairs.
EnvPairs = tuple[tuple[str, str], ...]


def capture_env() -> EnvPairs:
    """Every ``REPRO_*`` variable, sorted (names filtered before values are read)."""
    environ = os.environ
    return tuple(sorted((key, environ[key]) for key in environ if key.startswith("REPRO_")))


def _types(config: Any) -> tuple[type, ...]:
    """The types of a config's field values.

    Part of every digest memo key (``typed=True`` covers the top-level
    arguments): dataclass equality treats ``1``, ``1.0`` and ``True`` as
    one value where canonical JSON does not, so a key of values alone
    could hand one of them the other's digest.
    """
    return tuple(map(type, vars(config).values()))


@functools.lru_cache(maxsize=4096, typed=True)
def _config_hash(
    system: "SystemConfig",
    pipeline: "PipelineConfig",
    sampling: "SamplingConfig | None",
    engine: str | None,
    types: tuple[Any, ...],
) -> str:
    config_payload: dict[str, Any] = {
        "system": asdict(system),
        "pipeline": asdict(pipeline),
    }
    if sampling is not None:
        config_payload["sampling"] = sampling.to_payload()
    if engine is not None:
        config_payload["engine"] = engine
    return stable_hash(config_payload)


@functools.lru_cache(maxsize=4096, typed=True)
def _workload_hash(
    spec: "WorkloadSpec", n_branches: int, types: tuple[Any, ...]
) -> str:
    # Specs may carry a content-addressed identity hook (imported
    # traces hash their normalised payload, not their local path);
    # synthetic specs keep the historical asdict() payload and hashes.
    payload_fn = getattr(spec, "workload_hash_payload", None)
    spec_payload: Any = payload_fn() if callable(payload_fn) else asdict(spec)
    return stable_hash({"spec": spec_payload, "branches": n_branches})


def run_hashes(
    spec: "WorkloadSpec",
    system: "SystemConfig",
    n_branches: int,
    pipeline: "PipelineConfig",
    sampling: "SamplingConfig | None" = None,
    engine: str | None = None,
) -> tuple[str, str]:
    """``(config_hash, workload_hash)`` of one run, as its manifest holds them.

    Both come from the memoized digests, so a repeated input costs two
    cache probes and no environment capture (see :func:`build_manifest`).
    """
    if sampling is not None and not sampling.enabled:
        sampling = None
    sampling_types = (
        None if sampling is None else tuple(map(type, sampling.to_payload().values()))
    )
    config_types = (_types(system), _types(pipeline), sampling_types)
    spec_types = (_types(spec), _types(spec.params))
    return (
        _config_hash(system, pipeline, sampling, engine, config_types),
        _workload_hash(spec, n_branches, spec_types),
    )


def build_manifest(
    spec: "WorkloadSpec",
    system: "SystemConfig",
    n_branches: int,
    pipeline: "PipelineConfig",
    scale: str | None = None,
    sampling: "SamplingConfig | None" = None,
    engine: str | None = None,
    env: EnvPairs | None = None,
) -> RunManifest:
    """Assemble the provenance record for one (workload, system) run.

    An *enabled* sampling configuration is folded into ``config_hash``
    (a sampled estimate must never alias an exact result, or a cache
    hit could silently swap one for the other) and recorded verbatim in
    the ``sampling`` field.  Sampling off is indistinguishable from the
    pre-sampling manifest — same payload, same hash.  A non-default
    ``engine`` (the batch kernel's functional results carry no timing)
    is folded in the same way, for the same reason: a batch result must
    never be served from the cache for an exact-timing request.

    Both hashes are memoized per distinct frozen input, so a sweep pays
    for each payload once.  ``env`` is an environment captured earlier
    by :func:`capture_env` (the scheduler captures it when it plans a
    job); without it the environment is captured now.
    """
    if sampling is not None and not sampling.enabled:
        sampling = None
    config_hash, workload_hash = run_hashes(
        spec, system, n_branches, pipeline, sampling, engine
    )
    return RunManifest(
        config_hash=config_hash,
        workload_hash=workload_hash,
        workload=spec.name,
        system=system.name,
        branches=n_branches,
        repro_version=repro.__version__,
        scale=scale,
        python=platform.python_version(),
        platform=f"{sys.platform}-{platform.machine()}",
        env=dict(capture_env() if env is None else env),
        sampling=sampling.to_payload() if sampling is not None else None,
        engine=engine,
    )
