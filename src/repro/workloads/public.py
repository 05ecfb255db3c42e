"""The ``public-trace`` workload category: imported real traces.

Synthetic workloads are *recipes* — a seed and parameters regenerate
the trace anywhere.  An imported trace is *content*: the workload IS
the normalised RPTR file produced by :mod:`repro.trace.adapters` from
a ChampSim/BT9/RPTR payload.  :class:`ImportedTraceSpec` extends
:class:`~repro.workloads.spec.WorkloadSpec` with that content's
location and identity so the runner, scheduler, batch kernel, and
result cache treat it like any other workload.

Identity is content-addressed: :meth:`ImportedTraceSpec.workload_hash_payload`
feeds the manifest's workload hash with the normalised trace's SHA-256
(plus format and adapter revision) and deliberately *excludes* the
local path — the same trace imported on two machines deduplicates to
the same result-cache entries, and a re-converted trace (adapter bump,
different source bytes) can never alias a stale one.

This module is pure (no filesystem or environment access); the store
that materialises these specs lives in :mod:`repro.harness.tracestore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.trace.adapters.base import ADAPTER_VERSION
from repro.workloads.spec import WorkloadSpec

__all__ = ["PUBLIC_CATEGORY", "ImportedTraceSpec"]

#: Category name under which imported traces appear in results,
#: summaries, and category breakdowns.
PUBLIC_CATEGORY = "public-trace"


@dataclass(frozen=True)
class ImportedTraceSpec(WorkloadSpec):
    """A workload backed by an imported, normalised trace file.

    Attributes:
        path: Absolute path of the normalised RPTR file in the local
            trace store.  Machine-specific; excluded from hashing.
        content_hash: Full SHA-256 of the normalised RPTR payload —
            the trace's portable identity.
        source_format: Adapter that produced the normalisation
            (``champsim``, ``bt9``, ``rptr``).
        adapter_version: :data:`~repro.trace.adapters.base.ADAPTER_VERSION`
            at import time; a bumped adapter re-imports under a new
            workload hash.
        trace_records: Branch records in the stored file.  Runs asking
            for more records than exist simply replay the whole trace.
    """

    path: str = ""
    content_hash: str = ""
    source_format: str = "rptr"
    adapter_version: int = ADAPTER_VERSION
    trace_records: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.path:
            raise WorkloadError(
                f"imported workload {self.name!r} has no trace path"
            )
        if not self.content_hash:
            raise WorkloadError(
                f"imported workload {self.name!r} has no content hash"
            )
        if self.trace_records < 1:
            raise WorkloadError(
                f"imported workload {self.name!r} has no records"
            )

    def workload_hash_payload(self) -> dict[str, object]:
        """Portable identity payload for manifest/workload hashing.

        Everything that determines the simulated branch stream — and
        nothing machine-local — so result-cache dedup keys on *what*
        the trace is, not *where* it sits.
        """
        return {
            "kind": "imported-trace",
            "name": self.name,
            "category": self.category,
            "content_hash": self.content_hash,
            "source_format": self.source_format,
            "adapter_version": self.adapter_version,
            "trace_records": self.trace_records,
        }
