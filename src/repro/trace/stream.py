"""Trace streams and replay windows.

A :class:`TraceStream` is a restartable view over a sequence of
:class:`~repro.trace.records.BranchRecord`.  The pipeline consumes the
stream in order; the stream additionally maintains a bounded *replay
window* of recently delivered records which the front end uses to
synthesise wrong-path fetch (see ``repro.pipeline.wrongpath``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.trace.records import BranchRecord

__all__ = ["TraceStream"]


class TraceStream:
    """Sequential reader over a branch trace with a bounded history window.

    Args:
        records: The committed branch stream, in program order.
        window: Maximum number of recently read records retained for
            wrong-path replay.
    """

    def __init__(
        self, records: Sequence[BranchRecord] | Iterable[BranchRecord], window: int = 64
    ) -> None:
        if window <= 0:
            raise TraceError(f"replay window must be positive, got {window}")
        self._records: tuple[BranchRecord, ...] = tuple(records)
        self._pos = 0
        self._window: deque[BranchRecord] = deque(maxlen=window)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BranchRecord]:
        # Iteration is non-destructive; use next_record() to advance.
        return iter(self._records)

    @property
    def position(self) -> int:
        """Index of the next record to be delivered."""
        return self._pos

    @property
    def records(self) -> tuple[BranchRecord, ...]:
        """The full committed stream, for readers that iterate it directly.

        Reading it does not advance :attr:`position`; such a reader keeps
        :attr:`window` current itself.
        """
        return self._records

    @property
    def window(self) -> deque[BranchRecord]:
        """The live replay window.

        Exposed so a reader that iterates :attr:`records` itself (the
        generic engine's per-record loop,
        :meth:`~repro.pipeline.core.PipelineModel.run_segment`) can keep
        the window current without going through :meth:`next_record`.
        """
        return self._window

    @property
    def exhausted(self) -> bool:
        """True once every record has been delivered."""
        return self._pos >= len(self._records)

    def next_record(self) -> BranchRecord:
        """Deliver the next committed record and push it into the window."""
        if self.exhausted:
            raise TraceError("trace stream exhausted")
        record = self._records[self._pos]
        self._pos += 1
        self._window.append(record)
        return record

    def peek(self) -> BranchRecord | None:
        """Next committed record without consuming it, or None at the end."""
        if self.exhausted:
            return None
        return self._records[self._pos]

    def recent(self, count: int) -> list[BranchRecord]:
        """Up to ``count`` most recently delivered records, oldest first.

        This is the raw material for wrong-path replay: after a
        misprediction, real hardware typically re-fetches nearby code
        (another loop iteration, the fall-through block), so the recent
        committed window is a faithful stand-in for the wrong path.
        """
        if count <= 0:
            return []
        window = list(self._window)
        return window[-count:]

    def restart(self) -> None:
        """Rewind to the beginning and clear the replay window."""
        self._pos = 0
        self._window.clear()
