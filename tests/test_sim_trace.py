"""Trace records, trace validation and builders."""

import pytest

from repro.errors import TraceError
from repro.sim import (
    Access,
    AccessKind,
    ColumnarThreadTrace,
    ColumnarTrace,
    trace_from_addresses,
)


def _one_load_thread(thread_id=0):
    return ColumnarThreadTrace(thread_id, [0], [0], [0.0])


class TestAccessKind:
    def test_prefetch_classification(self):
        assert AccessKind.SWPF_L2.is_prefetch
        assert AccessKind.SWPF_L1.is_prefetch
        assert not AccessKind.LOAD.is_prefetch
        assert AccessKind.STORE.is_demand


class TestAccess:
    def test_rejects_negative_address(self):
        with pytest.raises(TraceError):
            Access(-1)

    def test_rejects_negative_gap(self):
        with pytest.raises(TraceError):
            Access(0, gap_cycles=-1.0)


class TestThreadTrace:
    def test_demand_count_excludes_prefetch(self):
        # Kind codes: 0 load, 3 L2 software prefetch, 1 store.
        trace = ColumnarThreadTrace(0, [0, 64, 128], [0, 3, 1], [0.0, 0.0, 0.0])
        assert len(trace) == 3
        assert trace.demand_count == 2
        assert [a.kind for a in trace.accesses] == [
            AccessKind.LOAD,
            AccessKind.SWPF_L2,
            AccessKind.STORE,
        ]

    def test_rejects_negative_thread_id(self):
        with pytest.raises(TraceError):
            ColumnarThreadTrace(-1, [], [], [])


class TestTrace:
    def test_totals(self):
        trace = trace_from_addresses([[0, 64], [128]], routine="r")
        assert trace.total_accesses == 3
        assert trace.total_demand == 3
        assert trace.routine == "r"

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            ColumnarTrace(threads=())

    def test_rejects_duplicate_thread_ids(self):
        t = _one_load_thread()
        with pytest.raises(TraceError):
            ColumnarTrace(threads=(t, t))

    def test_rejects_bad_line_bytes(self):
        with pytest.raises(TraceError):
            ColumnarTrace(threads=(_one_load_thread(),), line_bytes=0)


class TestBuilders:
    def test_trace_from_addresses_kinds_and_gaps(self):
        trace = trace_from_addresses(
            [[0, 64]], kind=AccessKind.STORE, gap_cycles=3.0
        )
        assert trace.threads[0].accesses == (
            Access(0, AccessKind.STORE, 3.0),
            Access(64, AccessKind.STORE, 3.0),
        )
