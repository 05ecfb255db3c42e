"""The imported-trace store: import, inspect, resolve, fetch.

Policy layer over the pure adapters in :mod:`repro.trace.adapters`:
where imported traces live (``REPRO_TRACE_STORE``, default
``.repro-traces/``), how they are named, what provenance sits next to
them, and how workload names resolve against both the synthetic suite
and the store.  The store layout is one pair of files per trace::

    <store>/<name>.trace       normalised RPTR payload
    <store>/<name>.meta.json   provenance + summary statistics

``fetch`` downloads manifest-listed traces with mandatory SHA-256
verification of the raw payload before conversion.  ``REPRO_OFFLINE``
(any non-empty value) turns every network fetch into an immediate
error — local ``file:``/path sources stay allowed, which is what lets
the CI adapters job exercise the full fetch path against committed
fixtures with no network.
"""

from __future__ import annotations

import hashlib
import json
import os
import urllib.request
from pathlib import Path
from typing import Any
from urllib.parse import urlparse

from repro.errors import TraceError, WorkloadError
from repro.trace.adapters import convert_bytes
from repro.trace.io import dumps_trace
from repro.trace.stats import collect_stats
from repro.workloads.public import PUBLIC_CATEGORY, ImportedTraceSpec
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import get_workload

__all__ = [
    "STORE_ENV",
    "OFFLINE_ENV",
    "store_dir",
    "import_trace",
    "inspect_trace",
    "load_spec",
    "list_imported",
    "resolve_workload",
    "fetch_trace",
]

STORE_ENV = "REPRO_TRACE_STORE"
OFFLINE_ENV = "REPRO_OFFLINE"

#: Extensions stripped when deriving a trace name from its filename.
_STRIP_SUFFIXES = (".gz", ".xz", ".trace", ".bt9", ".champsim", ".champsimtrace", ".bin")


def store_dir(override: str | Path | None = None) -> Path:
    """The imported-trace store directory (not created until needed)."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get(STORE_ENV) or ".repro-traces")


def offline() -> bool:
    """Whether network access is forbidden (``REPRO_OFFLINE`` set)."""
    return bool(os.environ.get(OFFLINE_ENV))


def default_name(source: str | Path) -> str:
    """Derive a store name from a source filename."""
    name = Path(source).name
    changed = True
    while changed:
        changed = False
        for suffix in _STRIP_SUFFIXES:
            if name.lower().endswith(suffix):
                name = name[: -len(suffix)]
                changed = True
    if not name:
        raise WorkloadError(f"cannot derive a trace name from {str(source)!r}")
    return name


def _trace_path(store: Path, name: str) -> Path:
    return store / f"{name}.trace"


def _meta_path(store: Path, name: str) -> Path:
    return store / f"{name}.meta.json"


def _describe(records: list[Any]) -> dict[str, Any]:
    """Summary statistics recorded in metadata and ``trace info``."""
    stats = collect_stats(records)
    pcs = [rec.pc for rec in records]
    targets = [rec.target for rec in records if rec.target]
    return {
        "records": stats.total_branches,
        "instructions": stats.total_instructions,
        "conditional_branches": stats.conditional_branches,
        "static_sites": stats.static_sites,
        "taken_rate": round(stats.taken_rate, 6),
        "kind_counts": {
            kind.name: count for kind, count in sorted(stats.kind_counts.items())
        },
        "pc_min": min(pcs) if pcs else 0,
        "pc_max": max(pcs) if pcs else 0,
        "target_min": min(targets) if targets else 0,
        "target_max": max(targets) if targets else 0,
    }


def inspect_trace(
    source: str | Path, fmt: str | None = None
) -> dict[str, Any]:
    """Convert a trace payload and describe it, without importing it."""
    path = Path(source)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    converted = convert_bytes(path.read_bytes(), fmt=fmt, filename=path.name)
    info: dict[str, Any] = {
        "path": str(path),
        "format": converted.format,
        "adapter_version": converted.adapter_version,
        "compression": converted.compression,
    }
    info.update(_describe(converted.records))
    return info


def import_trace(
    source: str | Path,
    name: str | None = None,
    fmt: str | None = None,
    store: str | Path | None = None,
) -> ImportedTraceSpec:
    """Normalise an external trace into the store.

    Converts ``source`` through the adapter layer, writes the RPTR
    payload and a metadata sidecar atomically, and returns the workload
    spec under which the trace is now runnable.  Re-importing the same
    content under the same name is idempotent.
    """
    path = Path(source)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    return _import_payload(
        path.read_bytes(), path.name, name=name, fmt=fmt, store=store
    )


def _import_payload(
    payload: bytes,
    source_name: str,
    name: str | None = None,
    fmt: str | None = None,
    store: str | Path | None = None,
) -> ImportedTraceSpec:
    converted = convert_bytes(payload, fmt=fmt, filename=source_name)
    if not converted.records:
        raise TraceError(f"trace {source_name!r} contains no branch records")
    trace_name = name if name else default_name(source_name)
    normalised = dumps_trace(converted.records)
    content_hash = hashlib.sha256(normalised).hexdigest()
    store_path = store_dir(store)
    store_path.mkdir(parents=True, exist_ok=True)
    trace_path = _trace_path(store_path, trace_name)
    _write_atomic(trace_path, normalised)
    meta: dict[str, Any] = {
        "name": trace_name,
        "category": PUBLIC_CATEGORY,
        "source": source_name,
        "source_format": converted.format,
        "compression": converted.compression,
        "adapter_version": converted.adapter_version,
        "content_hash": content_hash,
    }
    meta.update(_describe(converted.records))
    meta_path = _meta_path(store_path, trace_name)
    _write_atomic(meta_path, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
    return _spec_from_meta(meta, trace_path)


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a PID-unique tmp file and a rename.

    A failed write or rename removes the tmp file before re-raising.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _spec_from_meta(meta: dict[str, Any], trace_path: Path) -> ImportedTraceSpec:
    return ImportedTraceSpec(
        name=str(meta["name"]),
        category=PUBLIC_CATEGORY,
        seed=0,
        path=str(trace_path.resolve()),
        content_hash=str(meta["content_hash"]),
        source_format=str(meta["source_format"]),
        adapter_version=int(meta["adapter_version"]),
        trace_records=int(meta["records"]),
    )


def load_spec(
    name: str, store: str | Path | None = None
) -> ImportedTraceSpec | None:
    """The stored spec for ``name``, or None when not imported."""
    store_path = store_dir(store)
    meta_path = _meta_path(store_path, name)
    trace_path = _trace_path(store_path, name)
    if not meta_path.exists() or not trace_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceError(f"corrupt trace metadata {meta_path}: {exc}") from exc
    return _spec_from_meta(meta, trace_path)


def list_imported(store: str | Path | None = None) -> list[dict[str, Any]]:
    """Metadata of every imported trace, sorted by name."""
    store_path = store_dir(store)
    if not store_path.is_dir():
        return []
    metas: list[dict[str, Any]] = []
    for meta_path in sorted(store_path.glob("*.meta.json")):
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if _trace_path(store_path, str(meta.get("name", ""))).exists():
            metas.append(meta)
    return metas


def resolve_workload(
    name: str, store: str | Path | None = None
) -> WorkloadSpec:
    """Resolve a workload name: synthetic suite first, then the store.

    This is the single lookup the CLI and service use, so imported
    traces are accepted everywhere a synthetic workload name is.
    """
    try:
        return get_workload(name)
    except WorkloadError:
        pass
    spec = load_spec(name, store)
    if spec is not None:
        return spec
    raise WorkloadError(
        f"unknown workload {name!r}: not in the synthetic suite and not "
        f"imported into the trace store ({store_dir(store)}); see "
        "'repro trace import' / 'repro trace fetch'"
    )


# ------------------------------------------------------------------- #
# fetch: manifest-driven, checksum-verified downloads


def _read_manifest(manifest_path: Path) -> dict[str, Any]:
    if not manifest_path.exists():
        raise WorkloadError(f"trace manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise WorkloadError(
            f"trace manifest {manifest_path} is not valid JSON: {exc}"
        ) from exc
    traces = manifest.get("traces")
    if not isinstance(traces, dict):
        raise WorkloadError(
            f"trace manifest {manifest_path} has no 'traces' table"
        )
    return manifest


def _fetch_payload(url: str, manifest_dir: Path) -> bytes:
    """Fetch a manifest URL: local paths directly, networks guarded."""
    parsed = urlparse(url)
    if parsed.scheme in ("", "file"):
        local = Path(parsed.path if parsed.scheme == "file" else url)
        if not local.is_absolute():
            local = manifest_dir / local
        if not local.exists():
            raise WorkloadError(f"manifest source file not found: {local}")
        return local.read_bytes()
    if parsed.scheme not in ("http", "https"):
        raise WorkloadError(f"unsupported manifest URL scheme: {url!r}")
    if offline():
        raise WorkloadError(
            f"network fetch of {url!r} refused: {OFFLINE_ENV} is set"
        )
    with urllib.request.urlopen(url) as response:  # noqa: S310 - scheme checked
        return bytes(response.read())


def fetch_trace(
    name: str,
    manifest_path: str | Path,
    store: str | Path | None = None,
) -> ImportedTraceSpec:
    """Fetch, verify, and import one manifest-listed trace.

    The raw payload's SHA-256 must match the manifest *before* any
    conversion runs — a tampered or truncated download never reaches
    the parsers.  Already-imported traces whose stored content hash
    still matches are returned without re-downloading.
    """
    manifest_file = Path(manifest_path)
    manifest = _read_manifest(manifest_file)
    entry = manifest["traces"].get(name)
    if entry is None:
        known = ", ".join(sorted(manifest["traces"])) or "<none>"
        raise WorkloadError(
            f"trace {name!r} not in manifest {manifest_file} (has: {known})"
        )
    url = entry.get("url")
    expected = entry.get("sha256")
    if not url or not expected:
        raise WorkloadError(
            f"manifest entry for {name!r} must have 'url' and 'sha256'"
        )
    payload = _fetch_payload(str(url), manifest_file.resolve().parent)
    digest = hashlib.sha256(payload).hexdigest()
    if digest != expected:
        raise TraceError(
            f"checksum mismatch for {name!r}: manifest says {expected}, "
            f"payload is {digest}"
        )
    return _import_payload(
        payload,
        Path(str(url)).name,
        name=name,
        fmt=entry.get("format"),
        store=store,
    )
