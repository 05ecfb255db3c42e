"""Trace streams and replay windows.

A :class:`TraceStream` holds the committed sequence of
:class:`~repro.trace.records.BranchRecord` for one run, plus a bounded
*replay window* of recently committed records which the front end uses
to synthesise wrong-path fetch (see ``repro.pipeline.wrongpath``).  The
engine iterates :attr:`TraceStream.records` itself and appends each
record to :attr:`TraceStream.window` as it goes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.errors import TraceError
from repro.trace.records import BranchRecord

__all__ = ["TraceStream"]


class TraceStream:
    """A branch trace with a bounded window of recently committed records.

    Args:
        records: The committed branch stream, in program order.
        window: Maximum number of recently committed records retained
            for wrong-path replay.
    """

    def __init__(
        self, records: Sequence[BranchRecord] | Iterable[BranchRecord], window: int = 64
    ) -> None:
        if window <= 0:
            raise TraceError(f"replay window must be positive, got {window}")
        self._records: tuple[BranchRecord, ...] = tuple(records)
        self._window: deque[BranchRecord] = deque(maxlen=window)

    @property
    def records(self) -> tuple[BranchRecord, ...]:
        """The full committed stream, in program order."""
        return self._records

    @property
    def window(self) -> deque[BranchRecord]:
        """The live replay window.

        The reader of :attr:`records` (the generic engine's per-record
        loop, :meth:`~repro.pipeline.core.PipelineModel.run_segment`)
        appends each record here as it commits it.
        """
        return self._window

    def recent(self, count: int) -> list[BranchRecord]:
        """Up to ``count`` most recently committed records, oldest first.

        This is the raw material for wrong-path replay: after a
        misprediction, real hardware typically re-fetches nearby code
        (another loop iteration, the fall-through block), so the recent
        committed window is a faithful stand-in for the wrong path.
        """
        if count <= 0:
            return []
        window = list(self._window)
        return window[-count:]
