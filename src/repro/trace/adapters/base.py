"""The :class:`TraceAdapter` protocol, registry, and format detection.

An adapter turns one external branch-trace format into the repository's
native RPTR record layout (:class:`~repro.trace.records.BranchRecord`).
Everything downstream of the normalisation — the binary cache, the
columnar store, sampling plans, the batch sweep kernel, and the
persistent result cache — consumes RPTR and never sees the source
format again.

Adapters are *pure*: bytes in, records out, no environment reads and no
network.  Fetching, caching, and the imported-trace store live in
:mod:`repro.harness.tracestore` where policy belongs.

Compression is handled here, once, for every adapter: gzip and xz
payloads (the two wrappings public trace distributions actually use)
are transparently decompressed before detection, so ``detect_format``
and every ``read`` always see the raw payload.
"""

from __future__ import annotations

import gzip
import lzma
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import TraceFormatError
from repro.trace.records import BranchRecord

__all__ = [
    "ADAPTER_VERSION",
    "TraceAdapter",
    "ConvertedTrace",
    "register_adapter",
    "registered_adapters",
    "get_adapter",
    "decompress_payload",
    "detect_format",
    "convert_bytes",
]

#: Bump whenever any adapter's normalisation rules change.  Folded into
#: imported-trace workload hashes and the columnar decode-cache key, so
#: a re-converted trace can never be served from stale caches.
ADAPTER_VERSION = 1

_GZIP_MAGIC = b"\x1f\x8b"
_XZ_MAGIC = b"\xfd7zXZ\x00"


@runtime_checkable
class TraceAdapter(Protocol):
    """One external trace format's reader.

    ``sniff`` must be cheap and must not raise on arbitrary bytes — it
    is called with every candidate payload during auto-detection.
    ``read`` may assume the payload is already decompressed and raises
    :class:`~repro.errors.TraceFormatError` on structural violations.
    """

    #: Stable format id (``"champsim"``, ``"bt9"``, ``"rptr"``).
    format: str
    #: Per-adapter normalisation revision.
    version: int

    def sniff(self, payload: bytes, filename: str = "") -> bool:
        """Whether ``payload`` plausibly is this format."""
        ...

    def read(self, payload: bytes) -> list[BranchRecord]:
        """Normalise ``payload`` into RPTR records."""
        ...


@dataclass(frozen=True)
class ConvertedTrace:
    """The outcome of one conversion: records plus provenance."""

    records: list[BranchRecord]
    format: str
    adapter_version: int
    compression: str | None = None


_REGISTRY: dict[str, TraceAdapter] = {}
#: Detection order — first sniff wins, so adapters with unambiguous
#: magic must be registered before heuristic ones.
_DETECT_ORDER: list[TraceAdapter] = []


def register_adapter(adapter: TraceAdapter) -> TraceAdapter:
    """Add an adapter to the registry (and the detection order)."""
    if adapter.format in _REGISTRY:
        raise TraceFormatError(f"adapter {adapter.format!r} already registered")
    _REGISTRY[adapter.format] = adapter
    _DETECT_ORDER.append(adapter)
    return adapter


def registered_adapters() -> tuple[TraceAdapter, ...]:
    """Registered adapters, in detection order."""
    return tuple(_DETECT_ORDER)


def get_adapter(fmt: str) -> TraceAdapter:
    """Adapter for format id ``fmt`` (:class:`TraceFormatError` if none)."""
    adapter = _REGISTRY.get(fmt)
    if adapter is None:
        known = ", ".join(sorted(_REGISTRY))
        raise TraceFormatError(
            f"unknown trace format {fmt!r}; known formats: {known}"
        )
    return adapter


def decompress_payload(payload: bytes) -> tuple[bytes, str | None]:
    """Undo one layer of gzip/xz wrapping, if present.

    Returns ``(raw payload, compression name or None)``.  Truncated or
    corrupt compressed streams surface as :class:`TraceFormatError`
    rather than codec-specific exceptions.
    """
    if payload.startswith(_GZIP_MAGIC):
        try:
            return gzip.decompress(payload), "gzip"
        except (OSError, EOFError) as exc:
            raise TraceFormatError(f"corrupt gzip payload: {exc}") from exc
    if payload.startswith(_XZ_MAGIC):
        try:
            return lzma.decompress(payload), "xz"
        except (lzma.LZMAError, EOFError) as exc:
            raise TraceFormatError(f"corrupt xz payload: {exc}") from exc
    return payload, None


def detect_format(payload: bytes, filename: str = "") -> str:
    """Auto-detect the format of a (decompressed) payload.

    ``filename`` participates only as a tiebreaker hint for adapters
    whose binary layout has no magic (ChampSim); content always wins
    over extension.
    """
    for adapter in _DETECT_ORDER:
        if adapter.sniff(payload, filename):
            return adapter.format
    raise TraceFormatError(
        "unrecognised trace format: payload matches no registered adapter "
        f"(known formats: {', '.join(sorted(_REGISTRY))})"
    )


def convert_bytes(
    payload: bytes, fmt: str | None = None, filename: str = ""
) -> ConvertedTrace:
    """Decompress, detect (unless pinned), and normalise one payload."""
    raw, compression = decompress_payload(payload)
    resolved = fmt if fmt is not None and fmt != "auto" else detect_format(raw, filename)
    adapter = get_adapter(resolved)
    return ConvertedTrace(
        records=adapter.read(raw),
        format=adapter.format,
        adapter_version=adapter.version,
        compression=compression,
    )
