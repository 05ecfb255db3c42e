"""Unit tests for the columnar trace store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.columns import TRACE_DTYPE, ColumnarTrace
from repro.trace.io import _HEADER, _RECORD, dumps_trace
from repro.trace.records import BranchKind
from tests.conftest import make_branch


def sample_records():
    return [
        make_branch(pc=0x1000, taken=True, inst_gap=3),
        make_branch(pc=0x1008, taken=False, inst_gap=5, load_addr=0xBEEF,
                    depends_on_load=True),
        make_branch(pc=0x2000, kind=BranchKind.CALL),
        make_branch(pc=0x2008, kind=BranchKind.RET),
        make_branch(pc=0x3000, kind=BranchKind.INDIRECT),
    ]


class TestDtype:
    def test_matches_record_struct(self):
        assert TRACE_DTYPE.itemsize == _RECORD.size


class TestRoundTrip:
    def test_records_round_trip(self):
        records = sample_records()
        trace = ColumnarTrace.from_records(records)
        assert len(trace) == len(records)
        assert trace.to_records() == records

    def test_decode_views_payload(self):
        records = sample_records()
        data = dumps_trace(records)
        trace = ColumnarTrace.decode(data)
        assert trace.to_records() == records
        # Zero-copy: the array is a view into the input buffer.
        assert not trace.array.flags.owndata

    def test_empty_trace(self):
        trace = ColumnarTrace.decode(dumps_trace([]))
        assert len(trace) == 0
        assert trace.to_records() == []

    def test_columns(self):
        records = sample_records()
        trace = ColumnarTrace.from_records(records)
        assert trace.pc.tolist() == [r.pc for r in records]
        assert trace.target.tolist() == [r.target for r in records]
        assert trace.taken.tolist() == [r.taken for r in records]
        assert trace.inst_gap.tolist() == [r.inst_gap for r in records]
        assert trace.load_addr.tolist() == [r.load_addr for r in records]
        assert trace.depends_on_load.tolist() == [
            r.depends_on_load for r in records
        ]
        assert trace.kind.tolist() == [int(r.kind) for r in records]

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TraceError):
            ColumnarTrace(np.zeros(4, dtype=np.uint8))


class TestDecodeValidation:
    def test_missing_header(self):
        with pytest.raises(TraceError, match="missing header"):
            ColumnarTrace.decode(b"RP")

    def test_bad_magic(self):
        data = bytearray(dumps_trace(sample_records()))
        data[:4] = b"NOPE"
        with pytest.raises(TraceError, match="magic"):
            ColumnarTrace.decode(bytes(data))

    def test_bad_version(self):
        data = bytearray(dumps_trace(sample_records()))
        data[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(TraceError, match="version"):
            ColumnarTrace.decode(bytes(data))

    def test_truncated_body(self):
        data = dumps_trace(sample_records())
        with pytest.raises(TraceError, match="truncated"):
            ColumnarTrace.decode(data[:-1])

    def test_unknown_kind(self):
        data = bytearray(dumps_trace([make_branch()]))
        data[_HEADER.size + 17] = 200  # kind byte of record 0
        with pytest.raises(TraceError, match="unknown branch kind"):
            ColumnarTrace.decode(bytes(data))

    def test_undefined_flag_bits(self):
        data = bytearray(dumps_trace([make_branch()]))
        data[_HEADER.size + 16] |= 0x80  # flags byte of record 0
        with pytest.raises(TraceError, match="undefined flag bits"):
            ColumnarTrace.decode(bytes(data))

    def test_not_taken_unconditional(self):
        data = bytearray(dumps_trace([make_branch(kind=BranchKind.CALL)]))
        data[_HEADER.size + 16] &= ~0x01  # clear taken on a CALL
        with pytest.raises(TraceError, match="always taken"):
            ColumnarTrace.decode(bytes(data))
