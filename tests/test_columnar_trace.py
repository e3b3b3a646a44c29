"""Columnar (structure-of-arrays) traces: the access view, combinators,
validation and cached counts of :mod:`repro.sim.coltrace`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim.coltrace import (
    KIND_CODES,
    AccessColumns,
    ColumnarThreadTrace,
    ColumnarTrace,
    concat_columns,
    interleave_columns,
)
from repro.sim.trace import Access, AccessKind

KINDS = list(AccessKind)


@st.composite
def thread_rows(draw, max_accesses=40):
    """``(addr, kind, gap)`` rows of one random thread."""
    n = draw(st.integers(1, max_accesses))
    return [
        (
            draw(st.integers(0, 2**40)) * 64,
            draw(st.sampled_from(KINDS)),
            draw(st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)),
        )
        for _ in range(n)
    ]


def _thread(thread_id, rows):
    return ColumnarThreadTrace(
        thread_id,
        [a for a, _, _ in rows],
        [KIND_CODES[k] for _, k, _ in rows],
        [g for _, _, g in rows],
    )


class TestRoundTrip:
    @given(rows=thread_rows())
    @settings(max_examples=25, deadline=None)
    def test_lazy_access_view_matches_source(self, rows):
        """Rows in, the same rows back out of the lazy ``Access`` view."""
        thread = _thread(0, rows)
        assert thread.accesses == tuple(Access(a, k, g) for a, k, g in rows)
        assert thread.demand_count == sum(1 for _, k, _ in rows if k.is_demand)
        assert len(thread) == len(rows)


class TestCombinators:
    @given(
        major_n=st.integers(0, 40),
        minor_n=st.integers(0, 12),
        period=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleave_matches_reference_loop(self, major_n, minor_n, period):
        rng = np.random.default_rng(5)
        major = AccessColumns(
            rng.integers(0, 1000, major_n) * 64,
            np.zeros(major_n, dtype=np.uint8),
            np.full(major_n, 2.0),
        )
        minor = AccessColumns(
            rng.integers(0, 1000, minor_n) * 64,
            np.full(minor_n, 3, dtype=np.uint8),
            np.full(minor_n, 0.5),
        )
        # The historical per-object merge loop from the workload modules.
        expected, pending = [], list(minor)
        for i, access in enumerate(major, start=1):
            expected.append(access)
            if pending and i % period == 0:
                expected.append(pending.pop(0))
        expected.extend(pending)
        merged = interleave_columns(major, minor, period=period)
        assert list(merged) == expected

    def test_interleave_rejects_bad_period(self):
        with pytest.raises(TraceError):
            interleave_columns(AccessColumns.empty(), AccessColumns.empty(), period=0)

    def test_concat_preserves_order(self):
        a = AccessColumns([0], [0], [1.0])
        b = AccessColumns([64], [1], [2.0])
        assert list(concat_columns([a, b])) == [
            Access(0, AccessKind.LOAD, 1.0),
            Access(64, AccessKind.STORE, 2.0),
        ]
        assert len(concat_columns([])) == 0

    def test_slicing_returns_columns(self):
        run = AccessColumns([i * 64 for i in range(10)], [0] * 10, [1.0] * 10)
        head = run[:3]
        assert isinstance(head, AccessColumns)
        assert list(head) == list(run)[:3]
        assert run[4] == Access(256, AccessKind.LOAD, 1.0)


class TestValidation:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            AccessColumns(
                np.zeros(3, np.uint64), np.zeros(2, np.uint8), np.zeros(3)
            )

    def test_bad_kind_code_rejected(self):
        with pytest.raises(TraceError):
            AccessColumns(
                np.zeros(1, np.uint64),
                np.array([7], dtype=np.uint8),
                np.zeros(1),
            )

    def test_negative_gap_rejected(self):
        # Non-finite gaps are rejected at construction too, not deep in
        # the engine's scheduler.
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(TraceError):
                AccessColumns(
                    np.zeros(1, np.uint64), np.zeros(1, np.uint8), np.array([bad])
                )
            with pytest.raises(TraceError):
                ColumnarThreadTrace(0, [0, 64], [0, 0], [1.0, bad])

    def test_duplicate_thread_ids_rejected(self):
        t = ColumnarThreadTrace(
            0, np.zeros(1, np.uint64), np.zeros(1, np.uint8), np.ones(1)
        )
        with pytest.raises(TraceError):
            ColumnarTrace((t, t))

    def test_thread_arrays_are_read_only(self):
        t = ColumnarThreadTrace(
            0, np.zeros(2, np.uint64), np.zeros(2, np.uint8), np.ones(2)
        )
        with pytest.raises(ValueError):
            t.addr[0] = 1


class TestCachedCounts:
    def test_counts_match_recomputation(self):
        # Kind codes: 0 load, 2 L1 software prefetch, 1 store, 3 L2 prefetch.
        trace = ColumnarTrace(
            (
                ColumnarThreadTrace(0, [0, 64, 128], [0, 2, 1], [1.0, 0.5, 1.0]),
                ColumnarThreadTrace(1, [192], [3], [0.5]),
            ),
            routine="r",
        )
        assert trace.total_accesses == 4
        assert trace.total_demand == 2
        assert trace.threads[0].demand_count == 2
        assert trace.threads[1].demand_count == 0
