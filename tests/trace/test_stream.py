"""Unit tests for TraceStream."""

import pytest

from repro.errors import TraceError
from repro.trace.stream import TraceStream
from tests.conftest import make_branch


def records(n):
    return [make_branch(pc=0x1000 + 16 * i) for i in range(n)]


def committed(recs, window=64):
    """A stream whose window holds every record, as the engine fills it."""
    stream = TraceStream(recs, window=window)
    for record in stream.records:
        stream.window.append(record)
    return stream


class TestTraceStream:
    def test_records_in_program_order(self):
        recs = records(5)
        assert TraceStream(recs).records == tuple(recs)

    def test_recent_window_bounded(self):
        recs = records(10)
        stream = committed(recs, window=4)
        recent = stream.recent(10)
        assert recent == recs[-4:]

    def test_recent_order_oldest_first(self):
        recs = records(6)
        stream = committed(recs, window=8)
        assert stream.recent(3) == recs[-3:]

    def test_recent_zero_and_negative(self):
        stream = committed(records(3))
        assert stream.recent(0) == []
        assert stream.recent(-1) == []

    def test_recent_empty_before_any_commit(self):
        assert TraceStream(records(4)).recent(5) == []

    def test_invalid_window_rejected(self):
        with pytest.raises(TraceError):
            TraceStream(records(1), window=0)
