"""L2 stream prefetcher (plus an L1 next-line helper).

Models the behaviour the paper leans on:

* the L2 prefetcher detects **unit-stride line streams** and runs ahead
  of them by a configurable distance/degree — so streaming routines
  (HPCG, MiniGhost) are covered by prefetches and their outstanding
  requests live in the **L2** MSHR file, while random routines (ISx)
  never trigger it and stay bound by the **L1** MSHR file,
* it can track at most :attr:`StreamPrefetcher.max_streams` concurrent
  streams per core — KNL's 16-stream limit is the paper's explanation
  for HPCG's weak 4-way-SMT gain (8–10 streams per thread × 4 threads
  overflow the tracker),
* prefetch requests occupy L2 MSHRs and are dropped (not queued) when
  the file is full — they are hints, not obligations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SimulationError


@dataclass
class _Stream:
    """State of one detected (or training) stream."""

    last_line: int
    direction: int  # +1 or -1 line steps
    confidence: int = 0
    next_prefetch_line: Optional[int] = None
    last_touch_seq: int = 0


class StreamPrefetcher:
    """Per-core L2 stream prefetcher.

    Parameters
    ----------
    line_bytes:
        Cache line size (stride detection granularity).
    max_streams:
        Concurrent streams the tracker can hold (paper: 16 on KNL/SKL).
    degree:
        Prefetches issued per triggering access once a stream is live.
    distance:
        How many lines ahead of the demand stream to run.
    train_threshold:
        Consecutive same-direction line steps needed before issuing.
    enabled:
        The paper disables the hardware prefetcher to classify routines;
        mirroring that switch here.
    """

    def __init__(
        self,
        line_bytes: int,
        *,
        max_streams: int = 16,
        degree: int = 2,
        distance: int = 8,
        train_threshold: int = 2,
        enabled: bool = True,
    ) -> None:
        if line_bytes <= 0:
            raise SimulationError("line_bytes must be positive")
        if max_streams <= 0 or degree <= 0 or distance <= 0:
            raise SimulationError("prefetcher parameters must be positive")
        self.line_bytes = line_bytes
        self.max_streams = max_streams
        self.degree = degree
        self.distance = distance
        self.train_threshold = train_threshold
        self.enabled = enabled
        self._streams: Dict[int, _Stream] = {}  # keyed by 4KiB page
        self._seq = 0
        self.issued = 0
        self.dropped_no_stream_slot = 0

    @staticmethod
    def _page_of(line_addr: int) -> int:
        return line_addr >> 12

    def observe(self, line_addr: int) -> List[int]:
        """Feed one demand access (line address); returns lines to prefetch.

        The returned addresses are *candidates*: the caller (the L2
        controller in :mod:`repro.sim.hierarchy`) filters out lines that
        are already cached or in flight and drops the rest if the L2
        MSHR file is full.
        """
        if not self.enabled:
            return []
        self._seq += 1
        page = self._page_of(line_addr)
        line_no = line_addr // self.line_bytes
        stream = self._streams.get(page)

        if stream is None:
            if len(self._streams) >= self.max_streams:
                evicted = self._evict_stale()
                if not evicted:
                    self.dropped_no_stream_slot += 1
                    return []
            self._streams[page] = _Stream(
                last_line=line_no, direction=0, confidence=0, last_touch_seq=self._seq
            )
            return []

        step = line_no - stream.last_line
        stream.last_touch_seq = self._seq
        if step == 0:
            return []  # same line again; no new information
        direction = 1 if step > 0 else -1
        if abs(step) <= 2 and direction == stream.direction:
            stream.confidence += 1
        elif abs(step) <= 2:
            stream.direction = direction
            stream.confidence = 1
        else:
            # Non-unit jump: restart training within the page.
            stream.direction = direction
            stream.confidence = 0
        stream.last_line = line_no

        if stream.confidence < self.train_threshold:
            return []

        # Live stream: issue `degree` prefetches `distance` lines ahead.
        start = stream.next_prefetch_line
        if start is None or (line_no + stream.direction * self.distance
                             ) * stream.direction > start * stream.direction:
            start = line_no + stream.direction * self.distance
        candidates = []
        for i in range(self.degree):
            target = start + stream.direction * i
            if target >= 0:
                candidates.append(target * self.line_bytes)
        stream.next_prefetch_line = start + stream.direction * self.degree
        self.issued += len(candidates)
        return candidates

    def _evict_stale(self) -> bool:
        """Evict the least-recently-touched stream; False if table empty."""
        if not self._streams:
            return False
        stale_page = min(self._streams, key=lambda p: self._streams[p].last_touch_seq)
        del self._streams[stale_page]
        return True

    @property
    def active_streams(self) -> int:
        """Streams currently tracked."""
        return len(self._streams)
