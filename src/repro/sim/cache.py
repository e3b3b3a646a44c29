"""Set-associative cache arrays with true LRU replacement.

Only the tag arrays are modeled (no data).  The cache tracks dirtiness so
evictions of written lines produce writeback traffic — the paper notes
its bandwidth counters miss L3 writebacks and estimates them with
heuristics; our simulator counts them exactly, which is one of the
"simulator as counter oracle" advantages documented in DESIGN.md.

Each set is an insertion-ordered ``dict`` mapping line address to its
dirty bit, iterated from LRU to MRU: a hit is ``pop`` plus reinsert
(the line moves to the MRU end), the eviction victim is the first key,
and a probe is a membership test.  :meth:`CacheArray.lru_state` is the
ordered view for comparisons, since ``dict`` equality ignores order.

Besides the scalar per-access API the array exposes a **vectorized probe
surface** (:meth:`CacheArray.probe_batch` / :meth:`CacheArray.touch_batch`)
used by the batch-stepping fast path in :mod:`repro.sim.batch`: whole
address vectors are classified hit/miss against a residency snapshot in
one numpy pass, and a verified all-hit run is replayed onto the LRU
state in aggregate — element-for-element equivalent to sequential
:meth:`CacheArray.access` calls, including aliasing within the batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..machines.spec import CacheSpec


class CacheArray:
    """Tag array for one cache at one core (or core cluster)."""

    __slots__ = (
        "spec",
        "name",
        "num_sets",
        "ways",
        "line_bytes",
        "_sets",
        "_resident_cache",
        "_pending",
        "fills",
        "evictions",
        "dirty_evictions",
        "_sanitizer",
        "_faults",
        "_flushes",
    )

    def __init__(self, spec: CacheSpec, name: str) -> None:
        self.spec = spec
        self.name = name
        self.num_sets = spec.num_sets
        self.ways = spec.associativity
        self.line_bytes = spec.line_bytes
        # Per set: line_addr -> dirty, in insertion order from LRU (first
        # key) to MRU (last key); touching a line pops and reinserts it.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        # Sorted resident-line snapshot for probe_batch; None = stale.
        # Only fill/invalidate change membership (hits merely reorder),
        # so all-hit phases reuse one snapshot across many batches.
        self._resident_cache: Optional[np.ndarray] = None
        # Verified all-hit runs whose LRU/dirty replay is deferred: while
        # only hits occur, LRU order is unobservable (membership alone
        # decides hit/miss), so runs queue here and are replayed in one
        # concatenated pass the moment scalar state is needed again.
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        #: Optional sanitizer replay checker (set by RunSanitizer).
        self._sanitizer = None
        self._flushes = 0
        # replay_skip is resolved once per array (flush is on the batch
        # hot path); see MshrFile for the same pattern.
        from ..resilience.faults import get_injector

        injector = get_injector()
        self._faults = injector if injector.armed("replay_skip") else None

    def line_of(self, addr: int) -> int:
        """Line address (aligned) containing byte ``addr``."""
        return (addr // self.line_bytes) * self.line_bytes

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.num_sets

    def probe(self, line_addr: int) -> bool:
        """Is the line present? (No LRU update — use :meth:`access`.)"""
        return line_addr in self._sets[self._set_index(line_addr)]

    def access(self, line_addr: int, *, write: bool = False) -> bool:
        """Look up a line; on hit, update LRU (and dirty bit for writes).

        Returns True on hit, False on miss.  Misses do not install the
        line — installation happens on fill via :meth:`fill`.
        """
        if self._pending:
            self.flush_batch()
        ways = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        dirty = ways.pop(line_addr, None)
        if dirty is None:
            return False
        ways[line_addr] = dirty or write
        return True

    def fill(self, line_addr: int, *, dirty: bool = False) -> Optional[int]:
        """Install a line; returns the evicted *dirty* line address, if any.

        Clean evictions return None (no writeback traffic).  Filling a
        line that is already present just refreshes its LRU position.
        """
        if self._pending:
            self.flush_batch()
        ways = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        was_dirty = ways.pop(line_addr, None)
        if was_dirty is not None:
            ways[line_addr] = was_dirty or dirty
            return None
        self.fills += 1
        self._resident_cache = None
        victim_writeback: Optional[int] = None
        if len(ways) >= self.ways:
            victim_addr = next(iter(ways))
            self.evictions += 1
            if ways.pop(victim_addr):
                self.dirty_evictions += 1
                victim_writeback = victim_addr
        ways[line_addr] = dirty
        return victim_writeback

    # -- vectorized probe surface (batch-stepping fast path) -------------------

    def line_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`line_of`: aligned line address per element."""
        return addrs // self.line_bytes * self.line_bytes

    def probe_batch(self, line_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`probe`: per-element residency, no LRU update.

        The result answers "is this line resident *right now*" for every
        element against one snapshot.  Because a tag stored in ``_sets``
        is the full line address, global membership is exactly
        set-index + tag match.  For a run of accesses this equals the
        sequential answer as long as residency does not change mid-run —
        hits never install or evict, so the answer is exact up to (and
        including) the first miss.
        """
        table = self._resident_cache
        if table is None:
            resident = [tag for ways in self._sets for tag in ways]
            table = np.sort(np.asarray(resident, dtype=np.uint64))
            self._resident_cache = table
        if not len(table):
            return np.zeros(len(line_addrs), dtype=bool)
        idx = np.searchsorted(table, line_addrs)
        np.minimum(idx, len(table) - 1, out=idx)
        return table[idx] == line_addrs

    def touch_batch(self, line_addrs: np.ndarray, writes: np.ndarray) -> None:
        """Queue a verified all-hit run for deferred LRU/dirty replay.

        Equivalent to ``access(line, write=w)`` per element in order:
        the final per-set LRU order is the untouched entries (old
        relative order) followed by the touched lines in last-touch
        order, and a touched line is dirty iff it was dirty before or
        any element of the batch wrote it.  Every line must currently be
        resident (the caller established that via :meth:`probe_batch`);
        a non-resident line raises :class:`SimulationError` at replay.

        The replay is *deferred*: while only hits occur, LRU order and
        dirty bits are unobservable, so consecutive runs accumulate and
        are replayed as one concatenated sequence (identical final
        state) when scalar state is next needed — on the next
        :meth:`access`/:meth:`fill`/:meth:`invalidate`, or an explicit
        :meth:`flush_batch`.
        """
        if len(line_addrs):
            if self._sanitizer is not None:
                self._sanitizer.on_touch(line_addrs, writes)
            self._pending.append((line_addrs, writes))

    def flush_batch(self) -> None:
        """Replay any queued all-hit runs onto the LRU/dirty state."""
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        self._flushes += 1
        if self._faults is not None and self._faults.fires(
            "replay_skip", f"{self.name}:{self._flushes}"
        ):
            # Injected replay bug: silently drop the first queued run,
            # so the aggregate replay no longer matches a scalar
            # re-execution of the recorded touches.
            pending = pending[1:]
            if not pending:
                if self._sanitizer is not None:
                    self._sanitizer.on_flush()
                return
        if len(pending) == 1:
            line_addrs, writes = pending[0]
        else:
            line_addrs = np.concatenate([run[0] for run in pending])
            writes = np.concatenate([run[1] for run in pending])
        # Last-touch order: first occurrence in the reversed array is the
        # last occurrence in the original; sort unique lines by original
        # last-touch position (descending reversed index).
        uniq, first_rev = np.unique(line_addrs[::-1], return_index=True)
        order = np.argsort(-first_rev)
        last_order_arr = uniq[order]
        last_order = last_order_arr.tolist()
        written = (
            set(line_addrs[writes].tolist()) if writes.any() else frozenset()
        )
        per_set: Dict[int, List[int]] = {}
        set_indices = (last_order_arr // self.line_bytes % self.num_sets).tolist()
        for set_idx, line in zip(set_indices, last_order):
            per_set.setdefault(set_idx, []).append(line)
        for set_idx, lines_in_set in per_set.items():
            ways = self._sets[set_idx]
            missing = [hex(li) for li in lines_in_set if li not in ways]
            if missing:
                raise SimulationError(
                    f"{self.name}: touch_batch on non-resident line(s) "
                    f"{', '.join(missing)}"
                )
            # Reinserting in last-touch order leaves the untouched lines
            # at the LRU end in their old relative order.
            for line in lines_in_set:
                ways[line] = ways.pop(line) or line in written
        if self._sanitizer is not None:
            self._sanitizer.on_flush()

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was present."""
        if self._pending:
            self.flush_batch()
        ways = self._sets[self._set_index(line_addr)]
        if line_addr not in ways:
            return False
        del ways[line_addr]
        self._resident_cache = None
        return True

    def resident_lines(self) -> int:
        """Total lines currently resident (for tests)."""
        return sum(len(ways) for ways in self._sets)

    def lru_state(self) -> List[List[Tuple[int, bool]]]:
        """Per-set ``[(line_addr, dirty), ...]`` from LRU to MRU.

        The order-sensitive snapshot for comparing two arrays: ``dict``
        equality on the sets themselves would ignore LRU order.  Runs
        queued by :meth:`touch_batch` are not in it until replayed.
        """
        return [list(ways.items()) for ways in self._sets]
