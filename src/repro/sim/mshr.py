"""Miss Status Handling Register (MSHR) file.

The MSHR file is the structure the whole paper revolves around: every
unique outstanding miss at a cache level holds one MSHR from allocation
until fill, so its time-average occupancy *is* the level's MLP
(Section III-A).  This implementation tracks, per file:

* entries keyed by line address, with secondary misses **merged** onto
  the primary (duplicate requests never allocate a second MSHR, exactly
  as the paper describes),
* a time-weighted occupancy integral (ground truth for ``n_avg``),
* full-stall time and a waiter list so the core/prefetcher can retry
  when an entry frees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import SimulationError
from .stats import OccupancyTracker


@dataclass(slots=True)
class MshrEntry:
    """One in-flight miss: the primary request plus merged waiters.

    Allocated once per unique outstanding miss — the hottest allocation
    in the simulator — hence ``slots=True``.
    """

    line_addr: int
    is_prefetch: bool
    issued_ns: float
    #: Callbacks to run when the fill arrives (merged secondary misses).
    waiters: List[Callable[[], None]] = field(default_factory=list)

    def merge(self, on_fill: Optional[Callable[[], None]], *, demand: bool) -> None:
        """Attach a secondary miss; a demand merge upgrades a prefetch entry."""
        if on_fill is not None:
            self.waiters.append(on_fill)
        if demand:
            self.is_prefetch = False


class MshrFile:
    """A fixed-capacity MSHR file for one cache level of one core."""

    __slots__ = (
        "name",
        "capacity",
        "entries",
        "tracker",
        "_free_waiters",
        "allocations",
        "merges",
        "_audit",
        "_faults",
    )

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"{name}: MSHR capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.entries: Dict[int, MshrEntry] = {}
        self.tracker = OccupancyTracker(name=name, capacity=capacity)
        self._free_waiters: List[Callable[[], None]] = []
        self.allocations = 0
        self.merges = 0
        #: Optional sanitizer QueueAudit (set by RunSanitizer).
        self._audit = None
        # The mshr_leak fault is resolved once per file: release() is a
        # hot path, so the armed-or-not decision must not re-consult the
        # global injector per call.
        from ..resilience.faults import get_injector

        injector = get_injector()
        self._faults = injector if injector.armed("mshr_leak") else None

    # -- queries ---------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Entries currently in flight."""
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        """No free entries remain."""
        return len(self.entries) >= self.capacity

    def lookup(self, line_addr: int) -> Optional[MshrEntry]:
        """Existing in-flight entry for ``line_addr``, if any."""
        return self.entries.get(line_addr)

    # -- state changes ----------------------------------------------------------

    def allocate(
        self, now_ns: float, line_addr: int, *, is_prefetch: bool
    ) -> MshrEntry:
        """Allocate an MSHR; caller must have checked :attr:`is_full`."""
        if line_addr in self.entries:
            raise SimulationError(
                f"{self.name}: duplicate allocation for line {line_addr:#x}"
            )
        if self.is_full:
            raise SimulationError(f"{self.name}: allocate on full MSHR file")
        entry = MshrEntry(line_addr=line_addr, is_prefetch=is_prefetch, issued_ns=now_ns)
        self.tracker.add(now_ns, +1)
        self.entries[line_addr] = entry
        self.allocations += 1
        if self._audit is not None:
            self._audit.enter(now_ns, line_addr)
        return entry

    def merge(
        self,
        line_addr: int,
        on_fill: Optional[Callable[[], None]],
        *,
        demand: bool,
    ) -> MshrEntry:
        """Merge a secondary miss onto the in-flight entry for the line."""
        entry = self.entries.get(line_addr)
        if entry is None:
            raise SimulationError(f"{self.name}: merge with no entry for {line_addr:#x}")
        entry.merge(on_fill, demand=demand)
        self.merges += 1
        return entry

    def release(self, now_ns: float, line_addr: int) -> MshrEntry:
        """Free the MSHR on fill and return the entry (with its waiters).

        Also wakes anyone blocked on a full file (core issue stalls).
        """
        if self._faults is not None and self._faults.fires(
            "mshr_leak", f"{self.name}:{line_addr:#x}"
        ):
            # Injected leak: hand the entry back (fills still propagate)
            # but skip every piece of release bookkeeping — the entry
            # stays resident, the tracker and audit never see the exit.
            entry = self.entries.get(line_addr)
            if entry is not None:
                return entry
        entry = self.entries.pop(line_addr, None)
        if entry is None:
            raise SimulationError(
                f"{self.name}: release with no entry for {line_addr:#x}"
            )
        self.tracker.add(now_ns, -1)
        if self._audit is not None:
            self._audit.exit(now_ns, line_addr)
        if self._free_waiters:
            waiters, self._free_waiters = self._free_waiters, []
            for waiter in waiters:
                waiter()
        return entry

    def wait_for_free(self, callback: Callable[[], None]) -> None:
        """Register a retry callback for when any MSHR frees."""
        self._free_waiters.append(callback)
