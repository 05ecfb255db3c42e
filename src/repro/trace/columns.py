"""Columnar (structure-of-arrays) trace storage.

:mod:`repro.trace.io` decodes a trace by iterating ``struct`` records,
building one :class:`~repro.trace.records.BranchRecord` per branch.
The batch kernel (:mod:`repro.pipeline.batch`) needs columns, not
records.  This module keeps the trace as a single NumPy structured
array over the *exact* RPTR record layout, which buys two things:

* **vectorised decode** — ``ColumnarTrace.decode`` maps the packed
  record body straight into a structured array (one ``frombuffer``, no
  per-record Python), and validation of the format invariants runs as
  whole-column predicates;
* **columnar analysis** — the ``pc``/``taken``/... column views feed
  the batch kernel without building record objects at all.

:meth:`ColumnarTrace.to_records` converts back to record objects
through the same fast path the binary reader uses.

Nothing here reads the environment; where the trace cache lives
belongs to the harness, see :mod:`repro.harness.runner`.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import TraceError, TraceFormatError
from repro.telemetry import TELEMETRY
from repro.trace.adapters.base import ADAPTER_VERSION
from repro.trace.io import dumps_trace
from repro.trace.records import BranchKind, BranchRecord

__all__ = ["TRACE_DTYPE", "ColumnarTrace", "load_columnar"]

_HEADER = struct.Struct("<4sHQ")
_MAGIC = b"RPTR"
_VERSION = 1

#: The RPTR record layout as an unaligned little-endian structured
#: dtype.  Field order, widths, and the 28-byte stride match
#: ``repro.trace.io._RECORD`` (``<QQBBHQ``) exactly, so the packed
#: record body of a trace file *is* a valid buffer for this dtype.
TRACE_DTYPE = np.dtype(
    [
        ("pc", "<u8"),
        ("target", "<u8"),
        ("flags", "u1"),
        ("kind", "u1"),
        ("inst_gap", "<u2"),
        ("load_addr", "<u8"),
    ]
)

_MAX_KIND = max(int(kind) for kind in BranchKind)
_KIND_BY_VALUE = {int(kind): kind for kind in BranchKind}


class ColumnarTrace:
    """A branch trace as one structured NumPy array.

    Construct via :meth:`from_records` or :meth:`decode` (RPTR bytes).
    A decoded trace views the bytes it was decoded from; callers
    treat it as immutable.
    """

    __slots__ = ("array",)

    def __init__(self, array: "np.ndarray[Any, Any]") -> None:
        if array.dtype != TRACE_DTYPE:
            raise TraceError(f"expected {TRACE_DTYPE}, got {array.dtype}")
        self.array = array

    # ------------------------------------------------------------- #
    # construction

    @classmethod
    def from_records(cls, records: Sequence[BranchRecord]) -> "ColumnarTrace":
        """Pack record objects into a freshly owned columnar array."""
        data = dumps_trace(records)
        array = np.frombuffer(data, dtype=TRACE_DTYPE, offset=_HEADER.size).copy()
        return cls(array)

    @classmethod
    def decode(cls, data: bytes | memoryview) -> "ColumnarTrace":
        """Vectorised decode of RPTR bytes (header + packed records).

        The returned trace *views* ``data`` — no per-record copies are
        made.  Raises :class:`TraceError` on a bad header, truncation,
        or column contents that violate the format invariants.
        """
        if len(data) < _HEADER.size:
            raise TraceFormatError(
                "trace data truncated: missing header", offset=len(data)
            )
        magic, version, count = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise TraceFormatError(f"bad trace magic {magic!r}", offset=0)
        if version != _VERSION:
            raise TraceFormatError(f"unsupported trace version {version}", offset=4)
        expected = _HEADER.size + count * TRACE_DTYPE.itemsize
        if len(data) < expected:
            raise TraceFormatError(
                f"trace data truncated: expected {expected} bytes, got {len(data)}",
                offset=len(data),
            )
        array = np.frombuffer(data, dtype=TRACE_DTYPE, count=count, offset=_HEADER.size)
        trace = cls(array)
        trace.validate()
        return trace

    # ------------------------------------------------------------- #
    # columns

    def __len__(self) -> int:
        return int(self.array.shape[0])

    @property
    def pc(self) -> "np.ndarray[Any, Any]":
        return self.array["pc"]

    @property
    def target(self) -> "np.ndarray[Any, Any]":
        return self.array["target"]

    @property
    def taken(self) -> "np.ndarray[Any, Any]":
        return (self.array["flags"] & 1).astype(bool)

    @property
    def depends_on_load(self) -> "np.ndarray[Any, Any]":
        return (self.array["flags"] & 2).astype(bool)

    @property
    def kind(self) -> "np.ndarray[Any, Any]":
        return self.array["kind"]

    @property
    def inst_gap(self) -> "np.ndarray[Any, Any]":
        return self.array["inst_gap"]

    @property
    def load_addr(self) -> "np.ndarray[Any, Any]":
        return self.array["load_addr"]

    # ------------------------------------------------------------- #
    # validation / conversion

    def validate(self) -> None:
        """Whole-column checks of the RPTR format invariants.

        Mirrors what the scalar reader enforces per record: known kind
        codes, no undefined flag bits, and the always-taken rule for
        non-conditional kinds.
        """
        array = self.array
        if len(array) == 0:
            return

        def record_offset(mask: "np.ndarray[Any, Any]") -> int:
            return _HEADER.size + int(np.argmax(mask)) * TRACE_DTYPE.itemsize

        kinds = array["kind"]
        if int(kinds.max()) > _MAX_KIND:
            bad_kinds = kinds > _MAX_KIND
            raise TraceFormatError(
                f"unknown branch kind {int(kinds[bad_kinds][0])}",
                offset=record_offset(bad_kinds),
            )
        flags = array["flags"]
        if int(flags.max()) > 3:
            bad_flags = flags > 3
            raise TraceFormatError(
                f"undefined flag bits 0x{int(flags[bad_flags][0]):02x}",
                offset=record_offset(bad_flags),
            )
        not_taken_noncond = (kinds != int(BranchKind.COND)) & ((flags & 1) == 0)
        if bool(not_taken_noncond.any()):
            bad = int(kinds[not_taken_noncond][0])
            raise TraceFormatError(
                f"{BranchKind(bad).name} branches are always taken",
                offset=record_offset(not_taken_noncond),
            )

    def to_records(self) -> list[BranchRecord]:
        """Materialise one :class:`BranchRecord` per row, losing no field.

        One pass over ``tolist()`` rows through the same ``__new__``
        fast path the binary reader uses; :meth:`validate` is assumed
        to have run (``decode`` always does).
        """
        kinds = _KIND_BY_VALUE
        records: list[BranchRecord] = []
        append = records.append
        new = BranchRecord.__new__
        set_field = object.__setattr__
        for pc, target, flags, kind, inst_gap, load_addr in self.array.tolist():
            record = new(BranchRecord)
            set_field(record, "pc", pc)
            set_field(record, "target", target)
            set_field(record, "taken", bool(flags & 1))
            set_field(record, "kind", kinds[kind])
            set_field(record, "inst_gap", inst_gap)
            set_field(record, "load_addr", load_addr)
            set_field(record, "depends_on_load", bool(flags & 2))
            append(record)
        return records


#: Per-process memo of decoded trace files, keyed by (path, mtime,
#: size, format version, adapter version) so an overwritten file — or
#: a trace re-converted by a newer adapter revision — is a miss, never
#: stale data.  Entries are decode *views* over the file bytes held
#: alive by the arrays — callers must treat them as immutable, like the
#: runner's record memo.
_COLUMN_CACHE: OrderedDict[tuple[str, int, int, int, int], ColumnarTrace] = (
    OrderedDict()
)
_COLUMN_CACHE_MAX = 4


def load_columnar(path: str | Path) -> ColumnarTrace:
    """Decode an RPTR trace file into a :class:`ColumnarTrace`, memoized.

    Repeated loads of an unchanged file in one process (a batch sweep
    touching the same workload from several groups, analysis tools
    re-reading a trace) return the cached decode instead of re-reading
    and re-validating; hits increment the ``trace.column_cache_hits``
    telemetry counter.  The cache key is (path, mtime_ns, size, RPTR
    format version, adapter version): rewriting the file invalidates
    its entry, and so does upgrading the trace format or the external-
    format adapters (a re-converted trace must never be served from a
    pre-conversion decode, even if mtime granularity hides the write).
    """
    target = Path(path)
    stat = os.stat(target)
    key = (str(target), stat.st_mtime_ns, stat.st_size, _VERSION, ADAPTER_VERSION)
    cached = _COLUMN_CACHE.get(key)
    if cached is not None:
        _COLUMN_CACHE.move_to_end(key)
        TELEMETRY.registry.counter("trace.column_cache_hits").inc()
        return cached
    trace = ColumnarTrace.decode(target.read_bytes())
    _COLUMN_CACHE[key] = trace
    if len(_COLUMN_CACHE) > _COLUMN_CACHE_MAX:
        _COLUMN_CACHE.popitem(last=False)
    return trace
