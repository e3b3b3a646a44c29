"""Core front end: per-thread issue contexts over the cache hierarchy.

The core model is deliberately simple — the paper's whole point is that
MLP abstracts away out-of-order minutiae — but it captures the three
things that matter:

* a per-thread **window** of outstanding demand accesses (the ROB/load
  queue share available to the thread; halved per thread under SMT),
* per-access **gap cycles** of independent work (arithmetic intensity),
* stalls when the **L1 MSHR file is full** (the structural hazard the
  paper's metric is built around) and when the window is full.

SMT threads are just multiple :class:`ThreadContext` objects bound to
the same :class:`CoreState` (sharing its caches and MSHRs), exactly the
resource-sharing the paper describes.

The issue loop never touches :class:`~repro.sim.trace.Access` objects:
:class:`ThreadDriver` unpacks the thread's columnar trace into parallel
plain-Python lists once at construction
(:meth:`~repro.sim.coltrace.ColumnarThreadTrace.issue_columns`), so the
per-event work is list indexing only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from .batch import (
    BATCH_BACKOFF,
    BATCH_LOOKAHEAD,
    MIN_BATCH,
    issue_times,
    run_length,
    window_admissible,
)
from .coltrace import _FIRST_PREFETCH_CODE, KIND_CODES, ColumnarThreadTrace
from .stats import CoreStats
from .trace import AccessKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .hierarchy import Hierarchy


@dataclass(slots=True)
class ThreadContext:
    """Issue state of one hardware thread."""

    trace: ColumnarThreadTrace
    core_id: int
    window: int
    next_idx: int = 0
    in_flight: int = 0
    waiting_window: bool = False
    waiting_mshr: bool = False
    stall_start_ns: float = 0.0
    done: bool = False

    @property
    def exhausted(self) -> bool:
        """Has the thread issued its whole trace?"""
        return self.next_idx >= len(self.trace)


class ThreadDriver:
    """Drives one thread's trace through the hierarchy."""

    __slots__ = (
        "hierarchy",
        "engine",
        "ctx",
        "core_stats",
        "_addrs",
        "_kinds",
        "_demand",
        "_gaps",
        "_gaps_ns",
        "_n",
        "_batch",
        "_skip_until",
        "_l1_hit_ns",
        "_lines_arr",
        "_writes_arr",
        "_gap_arr",
        "_gaps_ns_arr",
        "_san",
    )

    def __init__(
        self,
        hierarchy: "Hierarchy",
        context: ThreadContext,
        core_stats: CoreStats,
    ) -> None:
        self.hierarchy = hierarchy
        self.engine = hierarchy.engine
        self.ctx = context
        self.core_stats = core_stats
        freq_ghz = hierarchy.machine.frequency_ghz
        trace = context.trace
        self._addrs, self._kinds, self._gaps = trace.issue_columns()
        addr_arr, kind_arr, gap_arr = trace.addr, trace.kind, trace.gap_cycles
        # One vectorized compare / divide per column; the per-element
        # float values are IEEE-identical to scalar division, and
        # tolist() keeps plain Python floats on the engine's hot path.
        self._demand = kind_arr < _FIRST_PREFETCH_CODE
        gaps_ns_arr = gap_arr / freq_ghz
        self._gaps_ns = gaps_ns_arr.tolist()
        self._n = len(self._addrs)
        self._batch = hierarchy.batch_enabled
        self._skip_until = 0
        self._l1_hit_ns = hierarchy.l1_hit_ns
        self._san = hierarchy.sanitizer
        if self._batch:
            core = hierarchy.cores[context.core_id]
            self._lines_arr = core.l1_array.line_of_batch(addr_arr)
            self._writes_arr = kind_arr == KIND_CODES[AccessKind.STORE]
            self._gap_arr = gap_arr
            self._gaps_ns_arr = gaps_ns_arr
        else:
            self._lines_arr = self._writes_arr = None
            self._gap_arr = self._gaps_ns_arr = None

    def start(self) -> None:
        """Schedule the first issue attempt."""
        if self._n == 0:
            self._finish()
            return
        self.engine.schedule(self._gaps_ns[0], self._try_issue)

    # -- issue path -----------------------------------------------------------

    def _try_issue(self) -> None:
        ctx = self.ctx
        i = ctx.next_idx
        if ctx.done or i >= self._n:
            self._maybe_finish()
            return
        if self._batch and i >= self._skip_until and self._try_batch(i):
            return
        is_demand = self._demand[i]

        if is_demand and ctx.in_flight >= ctx.window:
            if not ctx.waiting_window:
                ctx.waiting_window = True
                ctx.stall_start_ns = self.engine.now
            return  # a completion will re-enter via on_complete

        # Prefetches are non-blocking: they never enter the window, so
        # their completion must not decrement in_flight.
        on_complete = self._on_complete if is_demand else self._on_prefetch_done
        issued = self.hierarchy.issue_access(
            core_id=ctx.core_id,
            addr=self._addrs[i],
            kind=self._kinds[i],
            on_complete=on_complete,
        )
        if not issued:
            # L1 MSHR file full: record stall and retry when one frees.
            if not ctx.waiting_mshr:
                ctx.waiting_mshr = True
                ctx.stall_start_ns = self.engine.now
            self.hierarchy.l1_mshr(ctx.core_id).wait_for_free(self._retry_after_mshr)
            return

        now = self.engine.now
        if ctx.waiting_window or ctx.waiting_mshr:
            stall = now - ctx.stall_start_ns
            if ctx.waiting_mshr:
                self.core_stats.l1_mshr_stall_ns += stall
                self.hierarchy.stats.l1.mshr_full_stalls += 1
                self.hierarchy.stats.l1.mshr_full_stall_ns += stall
            else:
                self.core_stats.window_stall_ns += stall
            ctx.waiting_window = False
            ctx.waiting_mshr = False

        self.core_stats.issued_accesses += 1
        self.core_stats.compute_cycles += self._gaps[i]
        if self._san is not None:
            self._san.scalar_issued += 1
        if is_demand:
            ctx.in_flight += 1
        ctx.next_idx = i + 1

        if ctx.next_idx >= self._n:
            self._maybe_finish()
            return
        self.engine.schedule(self._gaps_ns[ctx.next_idx], self._try_issue)

    # -- batch-stepping fast path ----------------------------------------------

    def _try_batch(self, start: int) -> int:
        """Retire a run of provably interaction-free L1 hits in one step.

        Returns the number of accesses retired (0 = conditions not met;
        the caller falls through to the per-event path).  Engagement
        requires a quiescent core — no stall in progress, zero
        outstanding demand accesses, empty L1/L2 MSHR files — so nothing
        in the event queue can mutate this core's L1 residency or
        observe its issue state mid-run; see :mod:`repro.sim.batch` and
        docs/PERFORMANCE.md for the argument.  The run ends at the first
        access that is not a demand L1 hit or that the window check
        would stall; that access replays through the event engine with
        exact state.
        """
        ctx = self.ctx
        if ctx.waiting_window or ctx.waiting_mshr or ctx.in_flight != 0:
            return 0
        hierarchy = self.hierarchy
        core = hierarchy.cores[ctx.core_id]
        if core.l1_mshr.entries or core.l2_mshr.entries:
            return 0

        stop = min(self._n, start + BATCH_LOOKAHEAD)
        lines = self._lines_arr[start:stop]
        ok = self._demand[start:stop] & core.l1_array.probe_batch(lines)
        k = run_length(ok)
        if k < MIN_BATCH:
            self._skip_until = start + BATCH_BACKOFF
            return 0
        l1_hit_ns = self._l1_hit_ns
        t = issue_times(self.engine.now, self._gaps_ns_arr[start + 1 : start + k])
        admissible = window_admissible(t, l1_hit_ns, ctx.window)
        if not admissible.all():
            k = run_length(admissible)
            if k < MIN_BATCH:
                self._skip_until = start + BATCH_BACKOFF
                return 0
            t = t[:k]

        end = start + k
        core.l1_array.touch_batch(lines[:k], self._writes_arr[start:end])
        stats = hierarchy.stats
        stats.l1.hits += k
        stats.batch_accesses += k
        if self._san is not None:
            self._san.batch_issued += k
        core_stats = self.core_stats
        core_stats.issued_accesses += k
        # Chained left-to-right adds via cumsum: bit-identical to the
        # event path's one-at-a-time accumulation.
        acc = np.empty(k + 1, dtype=np.float64)
        acc[0] = core_stats.compute_cycles
        acc[1:] = self._gap_arr[start:end]
        core_stats.compute_cycles = float(np.cumsum(acc)[-1])
        ctx.next_idx = end

        completion = t + l1_hit_ns
        engine = self.engine
        if end >= self._n:
            # Final run: one drain event at the last completion time
            # replaces k individual decrements.  The intermediate
            # in_flight values have no readers (the trace is exhausted
            # and nothing else touches this context), and the finish
            # time matches the event path's last completion exactly.
            ctx.in_flight += k

            def _drain() -> None:
                ctx.in_flight -= k
                self._maybe_finish()

            engine.schedule_at(float(completion[k - 1]), _drain)
            return k

        # Handoff: completions landing at or before the next attempt
        # would have fired before it (earlier tie-break seq), so they
        # are pure decrements with no observable effect — elide them.
        # Strictly later ones get real events at their exact times so
        # post-run window checks and stall wakeups see the true
        # in-flight trajectory.
        t_next = float(t[k - 1]) + self._gaps_ns[end]
        out_times = completion[completion > t_next]
        ctx.in_flight += len(out_times)
        on_complete = self._on_complete
        for when in out_times.tolist():
            engine.schedule_at(when, on_complete)
        engine.schedule_at(t_next, self._try_issue)
        return k

    def _retry_after_mshr(self) -> None:
        if not self.ctx.done:
            self._try_issue()

    def _on_prefetch_done(self) -> None:
        """Software-prefetch retirement: no window slot to release."""
        self._maybe_finish()

    def _on_complete(self) -> None:
        ctx = self.ctx
        ctx.in_flight -= 1
        if ctx.in_flight < 0:
            raise SimulationError("thread in_flight went negative")
        if ctx.waiting_window:
            self._try_issue()
        else:
            self._maybe_finish()

    # -- completion -----------------------------------------------------------

    def _maybe_finish(self) -> None:
        ctx = self.ctx
        if not ctx.done and ctx.exhausted and ctx.in_flight == 0:
            self._finish()

    def _finish(self) -> None:
        self.ctx.done = True
        self.core_stats.finished = True
        self.core_stats.finish_time_ns = self.engine.now
        self.hierarchy.thread_finished()
