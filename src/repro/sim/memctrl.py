"""Simulated memory controller: a bandwidth-capped latency oracle.

Design (per DESIGN.md §5): the controller enforces the machine's
bandwidth ceiling by admitting one cache line per ``line_bytes /
effective_bw`` seconds, and assigns each admitted request a completion
latency taken from the machine's **calibrated loaded-latency curve** at
the controller's currently observed utilization.  Consequences:

* the characterize→analyze loop closes: the X-Mem substitute, sweeping
  injection rates against this controller, recovers exactly the curve
  the analyzer later consults;
* Little's law holds by construction *of the physics*, so the measured
  MSHR occupancy equals rate × latency — which the property tests check
  against the independently-integrated occupancy trackers;
* when MSHR-limited clients cannot keep the pipe full, utilization and
  thus latency fall, reproducing the closed-loop feedback the paper's
  Figure 2 ceiling captures.

Utilization is estimated over a sliding window of recently admitted
bytes.  Writebacks consume admission slots (bandwidth) but complete
immediately (no MSHR is held for them).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..errors import SimulationError
from ..memory.latency_model import LatencyModel
from ..units import GIGA, ns
from .engine import Engine
from .stats import MemoryStats


class MemoryController:
    """Rate-limited, curve-driven memory service.

    Parameters
    ----------
    engine:
        The event engine.
    latency_model:
        Loaded-latency curve (utilization → ns).
    peak_bw_bytes:
        Theoretical peak bandwidth of the *simulated slice* (the
        hierarchy scales socket bandwidth down to the simulated core
        count).
    achievable_fraction:
        Streams-achievable fraction; admission is capped here.
    line_bytes:
        Transfer granularity.
    stats:
        Shared :class:`MemoryStats` to update.
    window_ns:
        Sliding window for the utilization estimate.
    """

    __slots__ = (
        "engine",
        "latency_model",
        "peak_bw_bytes",
        "achievable_bw_bytes",
        "line_bytes",
        "stats",
        "window_ns",
        "slot_ns",
        "_next_free_ns",
        "_recent",
        "_recent_bytes",
        "_audit",
        "_faults",
        "_req_seq",
    )

    def __init__(
        self,
        engine: Engine,
        latency_model: LatencyModel,
        *,
        peak_bw_bytes: float,
        achievable_fraction: float,
        line_bytes: int,
        stats: MemoryStats,
        window_ns: float = 2000.0,
    ) -> None:
        if peak_bw_bytes <= 0:
            raise SimulationError("peak bandwidth must be positive")
        if not 0 < achievable_fraction <= 1:
            raise SimulationError("achievable fraction must be in (0,1]")
        self.engine = engine
        self.latency_model = latency_model
        self.peak_bw_bytes = peak_bw_bytes
        self.achievable_bw_bytes = peak_bw_bytes * achievable_fraction
        self.line_bytes = line_bytes
        self.stats = stats
        self.window_ns = window_ns
        #: ns per admitted line at the achievable-bandwidth cap.
        self.slot_ns = line_bytes / self.achievable_bw_bytes * GIGA
        self._next_free_ns = 0.0
        self._recent: Deque[Tuple[float, int]] = deque()  # (admit time, bytes)
        self._recent_bytes = 0
        #: Optional sanitizer hook (the RunSanitizer; set when armed).
        self._audit = None
        self._req_seq = 0
        # time_skew resolution mirrors MshrFile: decided once at
        # construction so the per-request path stays a None check.
        from ..resilience.faults import get_injector

        injector = get_injector()
        self._faults = injector if injector.armed("time_skew") else None

    # -- utilization estimate ----------------------------------------------------

    def _note_admission(self, now_ns: float, nbytes: int) -> None:
        self._recent.append((now_ns, nbytes))
        self._recent_bytes += nbytes
        cutoff = now_ns - self.window_ns
        while self._recent and self._recent[0][0] < cutoff:
            _, old = self._recent.popleft()
            self._recent_bytes -= old

    def utilization(self, now_ns: float) -> float:
        """Recent-bytes utilization of theoretical peak, in [0, 1]."""
        cutoff = now_ns - self.window_ns
        while self._recent and self._recent[0][0] < cutoff:
            _, old = self._recent.popleft()
            self._recent_bytes -= old
        if not self._recent:
            return 0.0
        rate = self._recent_bytes / ns(self.window_ns)
        return min(1.0, rate / self.peak_bw_bytes)

    def current_latency_ns(self, now_ns: float) -> float:
        """Loaded latency the next admitted request would see."""
        return self.latency_model.latency_ns(self.utilization(now_ns))

    # -- request service -----------------------------------------------------------

    def request(
        self,
        *,
        is_write: bool,
        is_prefetch: bool,
        on_complete: Callable[[], None],
    ) -> None:
        """Service one cache-line request.

        Admission waits for a bandwidth slot; completion fires
        ``on_complete`` after the loaded latency at the admission-time
        utilization.
        """
        now = self.engine.now
        admit = max(now, self._next_free_ns)
        self._next_free_ns = admit + self.slot_ns
        seq = self._req_seq
        self._req_seq = seq + 1

        audit = self._audit
        if audit is not None:
            # Audit the full system time (arrival -> completion); the
            # wrap observes only — the schedule calls below are
            # unchanged, so event ordering and the fingerprint are too.
            audit.memctrl_enter(now, seq, "request")
            inner_complete = on_complete

            def _audited_complete() -> None:
                audit.memctrl_exit(self.engine.now, seq)
                inner_complete()

            on_complete = _audited_complete

        def _admit() -> None:
            t = self.engine.now
            self._note_admission(t, self.line_bytes)
            latency = self.latency_model.latency_ns(self.utilization(t))
            if is_prefetch:
                self.stats.prefetch_bytes += self.line_bytes
            elif is_write:
                self.stats.demand_write_bytes += self.line_bytes
            else:
                self.stats.demand_read_bytes += self.line_bytes
            self.stats.requests += 1
            recorded = latency
            if self._faults is not None and self._faults.fires(
                "time_skew", str(seq)
            ):
                # Injected telemetry skew: the *recorded* latency drifts
                # from the physical one the completion is scheduled
                # with, so occupancy no longer equals rate x latency.
                recorded = latency * (
                    1.0 + self._faults.param("time_skew", "skew", 0.5)
                )
            self.stats.latency_sum_ns += recorded + (admit - now)
            self.stats.latency_count += 1
            self.engine.schedule(latency, on_complete)

        self.engine.schedule_at(admit, _admit)

    def writeback(self) -> None:
        """Consume bandwidth for a dirty-line writeback (fire and forget)."""
        now = self.engine.now
        admit = max(now, self._next_free_ns)
        self._next_free_ns = admit + self.slot_ns

        audit = self._audit
        if audit is not None:
            audit.writebacks += 1

        def _admit() -> None:
            self._note_admission(self.engine.now, self.line_bytes)
            self.stats.demand_write_bytes += self.line_bytes
            self.stats.requests += 1

        self.engine.schedule_at(admit, _admit)
