"""Runtime invariant sanitizer ("reprosan") for the simulator.

The paper's identity — occupancy = throughput x latency — is what the
simulator *reproduces*; this module is what *checks the simulator
against it* while it runs.  Opt-in (``REPRO_SANITIZE=1`` or
``--sanitize`` on the CLI), the sanitizer hooks the event engine, the
MSHR files, the memory controller, and the batch fast path's deferred
LRU replay, and enforces:

* **event-monotonic** — engine event times never decrease and are
  always finite (the ``(time, seq)`` heap contract, checked per event);
* **mshr-balance** — every MSHR allocate has a matching release by end
  of run; leaks are reported with their allocation-site tags;
* **batch-replay** — at every ``flush_batch`` the deferred LRU replay
  must leave ``CacheArray``/``Tlb`` state *identical* to a scalar
  re-execution of the queued runs (the fast path's core contract);
* **stats-conserve** — ``hits + misses == accesses`` per level,
  ``issued_total == scalar + batch``, every issued access accounted
  against the trace, and memory requests = completions + writebacks;
* **littles-law** (the headline check) — per audited queue, the
  time-integral of occupancy must equal the sum of per-request
  residence times, both over the whole run and within every time
  window of ``REPRO_SANITIZE_WINDOW_NS`` (default 4096 ns), and must
  agree with the simulator's own telemetry (``OccupancyTracker``
  integrals; ``MemoryStats.latency_sum_ns``).

Tolerance rationale
-------------------
The occupancy integral and the residence sum add up *exactly the same
elementary intervals* in different association orders (grouped by
update step vs. grouped by request), and the memory controller's
telemetry records ``latency + (admit - now)`` where the audit measures
``(admit + latency) - now``.  Mathematically identical, these differ in
the last ulp under IEEE-754, so the checks use ``math.isclose`` with
``rel_tol=1e-9`` / ``abs_tol=1e-6`` (ns units) — nine orders of
magnitude tighter than any real modeling error, infinitely looser than
reassociation noise.  Checks that mirror the exact arithmetic sequence
of their telemetry twin (the MSHR audit vs. ``OccupancyTracker``) use a
tighter ``rel_tol=1e-12`` since they are expected bit-equal.

The sanitizer *observes* and never perturbs: no event is added, no
float is recomputed differently, so a sanitized run's
``SimStats.fingerprint()`` is identical to the unsanitized run.
Sanitized results also never touch the content-addressed SimStats
cache (:func:`repro.perf.cache.cached_run_trace` bypasses both load
and store), keeping instrumented runs inert to cached pipelines.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.cache import CacheArray
    from ..sim.hierarchy import Hierarchy
    from ..sim.tlb import Tlb

__all__ = [
    "REL_TOL",
    "ABS_TOL_NS",
    "sanitize_enabled",
    "configure_sanitize",
    "sanitize_window_ns",
    "QueueAudit",
    "CacheReplayChecker",
    "TlbReplayChecker",
    "SanitizerReport",
    "RunSanitizer",
    "last_report",
]

#: Relative tolerance for checks whose two sides sum the same intervals
#: in different association orders (see module docstring).
REL_TOL = 1e-9

#: Absolute tolerance (ns units) covering near-zero windows.
ABS_TOL_NS = 1e-6

#: Tight tolerance for audits that mirror their telemetry twin's exact
#: arithmetic sequence and are expected bit-equal.
MIRROR_REL_TOL = 1e-12

#: Default Little's-Law audit window (ns) — long enough that a window
#: holds many requests, short enough to localize a skew in time.
DEFAULT_WINDOW_NS = 4096.0

_TRUE_VALUES = ("1", "on", "true", "yes")

_INF = float("inf")


def sanitize_enabled() -> bool:
    """Is the instrumented mode requested (``REPRO_SANITIZE`` env)?"""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUE_VALUES


def configure_sanitize(enabled: Optional[bool]) -> None:
    """Enable/disable sanitize mode programmatically (CLI ``--sanitize``).

    Mirrored into the environment so worker processes spawned by
    :func:`repro.perf.parallel.fan_out` inherit the mode under any
    multiprocessing start method.  ``None`` leaves the environment
    untouched.
    """
    if enabled is None:
        return
    if enabled:
        os.environ["REPRO_SANITIZE"] = "1"
    else:
        os.environ.pop("REPRO_SANITIZE", None)


def sanitize_window_ns() -> float:
    """Windowed-audit width from ``REPRO_SANITIZE_WINDOW_NS`` (ns)."""
    raw = os.environ.get("REPRO_SANITIZE_WINDOW_NS", "").strip()
    if not raw:
        return DEFAULT_WINDOW_NS
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_WINDOW_NS
    return value if value > 0 else DEFAULT_WINDOW_NS


def _call_site(depth: int = 2) -> str:
    """``function:line`` tag of the caller ``depth`` frames up."""
    try:
        frame = sys._getframe(depth)
    except ValueError:  # pragma: no cover - shallow stack in exotic embeds
        return "<unknown>"
    return f"{frame.f_code.co_name}:{frame.f_lineno}"


@dataclass(slots=True)
class SanitizerViolation:
    """One failed invariant check, with enough context to debug it."""

    invariant: str
    message: str
    time_ns: float = 0.0
    event_id: int = 0
    snapshot: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form for the report artifact."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "time_ns": self.time_ns,
            "event_id": self.event_id,
            "snapshot": self.snapshot,
        }


class QueueAudit:
    """Independent occupancy/residence bookkeeping for one queue.

    Maintains its own occupancy integral (mirroring
    :class:`repro.sim.stats.OccupancyTracker` arithmetic term for term),
    the per-request residence sum, and *windowed* versions of both, so
    Little's law can be checked as an exact interval identity: the
    integral of occupancy over any window equals the summed overlap of
    each request's residence with that window.
    """

    __slots__ = (
        "name",
        "capacity",
        "window_ns",
        "occupancy",
        "integral_ns",
        "last_update_ns",
        "entered",
        "exited",
        "residence_sum_ns",
        "occ_windows",
        "res_windows",
        "_live",
    )

    def __init__(
        self, name: str, *, capacity: Optional[int] = None, window_ns: float
    ) -> None:
        self.name = name
        self.capacity = capacity
        self.window_ns = window_ns
        self.occupancy = 0
        self.integral_ns = 0.0
        self.last_update_ns = 0.0
        self.entered = 0
        self.exited = 0
        self.residence_sum_ns = 0.0
        self.occ_windows: Dict[int, float] = {}
        self.res_windows: Dict[int, float] = {}
        self._live: Dict[Any, Tuple[float, str]] = {}

    def _spread(
        self, t0: float, t1: float, weight: float, table: Dict[int, float]
    ) -> None:
        """Add ``weight * dt`` to every window overlapped by ``[t0, t1)``."""
        if t1 <= t0 or weight == 0.0:
            return
        w = self.window_ns
        i0 = int(t0 // w)
        i1 = int(t1 // w)
        if i0 == i1:
            table[i0] = table.get(i0, 0.0) + weight * (t1 - t0)
            return
        table[i0] = table.get(i0, 0.0) + weight * ((i0 + 1) * w - t0)
        full = weight * w
        for i in range(i0 + 1, i1):
            table[i] = table.get(i, 0.0) + full
        tail = t1 - i1 * w
        if tail > 0.0:
            table[i1] = table.get(i1, 0.0) + weight * tail

    def _advance(self, now_ns: float) -> None:
        """Integrate occupancy to ``now_ns`` (tracker-mirroring arithmetic)."""
        dt = now_ns - self.last_update_ns
        if dt < 0:
            raise SanitizerError(
                f"{self.name}: audit time went backwards ({dt} ns)",
                invariant="event-monotonic",
                time_ns=now_ns,
                snapshot=self.snapshot(),
            )
        self._spread(self.last_update_ns, now_ns, float(self.occupancy), self.occ_windows)
        self.integral_ns += self.occupancy * dt
        self.last_update_ns = now_ns

    def enter(self, now_ns: float, key: Any, *, site: Optional[str] = None) -> Any:
        """One request entered the queue; returns the live-entry key."""
        self._advance(now_ns)
        self.occupancy += 1
        if self.capacity is not None and self.occupancy > self.capacity:
            raise SanitizerError(
                f"{self.name}: occupancy {self.occupancy} exceeds capacity "
                f"{self.capacity}",
                invariant="mshr-balance",
                time_ns=now_ns,
                snapshot=self.snapshot(),
            )
        self.entered += 1
        # Default site tag: the caller of our caller (e.g. the hierarchy
        # line that invoked MshrFile.allocate), for leak reports.
        self._live[key] = (now_ns, site if site is not None else _call_site(3))
        return key

    def exit(self, now_ns: float, key: Any) -> None:
        """One request left the queue; accrues its residence time."""
        self._advance(now_ns)
        self.occupancy -= 1
        live = self._live.pop(key, None)
        if self.occupancy < 0 or live is None:
            raise SanitizerError(
                f"{self.name}: release of {key!r} without a matching allocate",
                invariant="mshr-balance",
                time_ns=now_ns,
                snapshot=self.snapshot(),
            )
        t_enter, _site = live
        self.exited += 1
        self.residence_sum_ns += now_ns - t_enter
        self._spread(t_enter, now_ns, 1.0, self.res_windows)

    def close(self, end_ns: float) -> None:
        """Close the occupancy integral at end of run."""
        self._advance(end_ns)

    def leaked(self) -> List[Tuple[Any, float, str]]:
        """Live entries never released: ``(key, enter_ns, site)`` each."""
        return [(key, t, site) for key, (t, site) in self._live.items()]

    def snapshot(self) -> Dict[str, Any]:
        """Queue state for a :class:`SanitizerViolation`."""
        return {
            "queue": self.name,
            "capacity": self.capacity,
            "occupancy": self.occupancy,
            "entered": self.entered,
            "exited": self.exited,
            "integral_ns": self.integral_ns,
            "residence_sum_ns": self.residence_sum_ns,
            "live": [
                {"key": repr(k), "enter_ns": t, "site": site}
                for k, (t, site) in list(self._live.items())[:16]
            ],
        }

    def window_mismatches(self) -> List[Tuple[int, float, float]]:
        """Windows where occupancy-integral and residence-overlap diverge."""
        bad: List[Tuple[int, float, float]] = []
        for idx in sorted(set(self.occ_windows) | set(self.res_windows)):
            occ = self.occ_windows.get(idx, 0.0)
            res = self.res_windows.get(idx, 0.0)
            if not math.isclose(occ, res, rel_tol=REL_TOL, abs_tol=ABS_TOL_NS):
                bad.append((idx, occ, res))
        return bad


class CacheReplayChecker:
    """Verifies deferred LRU replay against scalar re-execution.

    Installed as ``CacheArray._sanitizer`` when sanitize mode is on.
    Each ``touch_batch`` records the queued run; at ``flush_batch`` the
    checker replays the accumulated runs with scalar
    :meth:`~repro.sim.cache.CacheArray.access` semantics over a
    snapshot taken *before* the first queued run, and requires the
    array's actual post-flush state to match exactly — order, tags,
    and dirty bits.
    """

    __slots__ = ("array", "runner", "_snapshot", "_runs", "checks")

    def __init__(self, array: "CacheArray", runner: "RunSanitizer") -> None:
        self.array = array
        self.runner = runner
        self._snapshot: Optional[List[List[Tuple[int, bool]]]] = None
        self._runs: List[Tuple[List[int], List[bool]]] = []
        self.checks = 0

    def on_touch(self, line_addrs: Any, writes: Any) -> None:
        """A verified all-hit run was queued for deferred replay."""
        if self._snapshot is None:
            self._snapshot = [list(ways) for ways in self.array._sets]
        self._runs.append((line_addrs.tolist(), writes.tolist()))

    def on_flush(self) -> None:
        """The queued runs were replayed; verify against scalar semantics."""
        if self._snapshot is None:
            return
        reference = self._snapshot
        runs, self._runs, self._snapshot = self._runs, [], None
        array = self.array
        line_bytes = array.line_bytes
        num_sets = array.num_sets
        for lines, writes in runs:
            for line, write in zip(lines, writes):
                ways = reference[(line // line_bytes) % num_sets]
                for i, (tag, dirty) in enumerate(ways):
                    if tag == line:
                        del ways[i]
                        ways.append((line, dirty or bool(write)))
                        break
                else:
                    self.runner.violate(
                        "batch-replay",
                        f"{array.name}: batched touch of non-resident line "
                        f"{line:#x}",
                        snapshot={"array": array.name, "line": line},
                    )
                    return
        self.checks += 1
        if reference != array._sets:
            diff_sets = [
                idx
                for idx, (want, got) in enumerate(zip(reference, array._sets))
                if want != got
            ]
            self.runner.violate(
                "batch-replay",
                f"{array.name}: deferred LRU replay diverged from scalar "
                f"re-execution in {len(diff_sets)} set(s)",
                snapshot={
                    "array": array.name,
                    "first_divergent_sets": diff_sets[:8],
                    "runs_replayed": len(runs),
                },
            )


class TlbReplayChecker:
    """The :class:`CacheReplayChecker` analogue for the fully-assoc TLB."""

    __slots__ = ("tlb", "runner", "_snapshot", "_runs", "checks")

    def __init__(self, tlb: "Tlb", runner: "RunSanitizer") -> None:
        self.tlb = tlb
        self.runner = runner
        self._snapshot: Optional[List[int]] = None
        self._runs: List[List[int]] = []
        self.checks = 0

    def on_touch(self, addrs: Any) -> None:
        """A verified all-hit run was queued for deferred replay."""
        if self._snapshot is None:
            self._snapshot = list(self.tlb._pages)
        self._runs.append(addrs.tolist())

    def on_flush(self) -> None:
        """The queued runs were replayed; verify against scalar semantics."""
        if self._snapshot is None:
            return
        reference = self._snapshot
        runs, self._runs, self._snapshot = self._runs, [], None
        tlb = self.tlb
        for addrs in runs:
            for addr in addrs:
                page = addr // tlb.page_bytes
                try:
                    reference.remove(page)
                except ValueError:
                    self.runner.violate(
                        "batch-replay",
                        f"TLB: batched touch of non-resident page {page:#x}",
                        snapshot={"page": page},
                    )
                    return
                reference.append(page)
        self.checks += 1
        if reference != tlb._pages:
            self.runner.violate(
                "batch-replay",
                "TLB: deferred LRU replay diverged from scalar re-execution",
                snapshot={
                    "want_mru_tail": reference[-8:],
                    "got_mru_tail": tlb._pages[-8:],
                    "runs_replayed": len(runs),
                },
            )


@dataclass(slots=True)
class SanitizerReport:
    """Everything one sanitized run checked, and how it came out."""

    routine: str = ""
    elapsed_ns: float = 0.0
    events_checked: int = 0
    window_ns: float = DEFAULT_WINDOW_NS
    queues: List[Dict[str, Any]] = field(default_factory=list)
    conservation: Dict[str, Any] = field(default_factory=dict)
    replay_checks: int = 0
    violations: List[SanitizerViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every invariant hold?"""
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the CI artifact's per-run payload)."""
        return {
            "routine": self.routine,
            "elapsed_ns": self.elapsed_ns,
            "events_checked": self.events_checked,
            "window_ns": self.window_ns,
            "ok": self.ok,
            "queues": self.queues,
            "conservation": self.conservation,
            "replay_checks": self.replay_checks,
            "violations": [v.to_dict() for v in self.violations],
        }


# Last completed report + per-process run counter, for the CLI summary
# and the CI artifact (REPRO_SANITIZE_REPORT).
_last_report: Optional[SanitizerReport] = None
_runs_sanitized = 0


def last_report() -> Optional[SanitizerReport]:
    """The most recent run's :class:`SanitizerReport`, if any."""
    return _last_report


def _publish(report: SanitizerReport) -> None:
    global _last_report, _runs_sanitized
    _last_report = report
    _runs_sanitized += 1
    path = os.environ.get("REPRO_SANITIZE_REPORT", "").strip()
    if not path:
        return
    doc = {"runs_sanitized": _runs_sanitized, "last_run": report.to_dict()}
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    except OSError:  # repro: noqa[RES001] - report file is best-effort
        pass


class RunSanitizer:
    """Per-run instrumentation harness: wires hooks, runs finalize checks.

    Constructed by :class:`repro.sim.hierarchy.Hierarchy` when sanitize
    mode is enabled; attaches itself to the engine, every MSHR file,
    the memory controller, and the batch-touched arrays.  All hooks
    observe only — event ordering, stats arithmetic, and therefore the
    run fingerprint are untouched.
    """

    def __init__(self, hierarchy: "Hierarchy") -> None:
        self.hierarchy = hierarchy
        self.window_ns = sanitize_window_ns()
        self.last_time_ns = 0.0
        self.event_id = 0
        self.events_checked = 0
        self.scalar_issued = 0
        self.batch_issued = 0
        self.expected_accesses = 0
        self.writebacks = 0
        self.completions = 0
        self.violations: List[SanitizerViolation] = []
        self.report: Optional[SanitizerReport] = None

        engine = hierarchy.engine
        engine._sanitizer = self

        self.memq = QueueAudit("memctrl", window_ns=self.window_ns)
        hierarchy.memctrl._audit = self

        self.mshr_audits: List[Tuple[Any, QueueAudit]] = []
        self.replay_checkers: List[Any] = []
        for core in hierarchy.cores:
            for mshr in (core.l1_mshr, core.l2_mshr):
                audit = QueueAudit(
                    mshr.name, capacity=mshr.capacity, window_ns=self.window_ns
                )
                mshr._audit = audit
                self.mshr_audits.append((mshr, audit))
            checker = CacheReplayChecker(core.l1_array, self)
            core.l1_array._sanitizer = checker
            self.replay_checkers.append(checker)
            if core.tlb is not None:
                tlb_checker = TlbReplayChecker(core.tlb, self)
                core.tlb._sanitizer = tlb_checker
                self.replay_checkers.append(tlb_checker)

    # -- hot hooks --------------------------------------------------------------

    def on_event(self, time_ns: float, event_id: int) -> None:
        """Per engine event: times must be finite and nondecreasing."""
        self.events_checked += 1
        self.event_id = event_id
        if not (self.last_time_ns <= time_ns < _INF):
            raise SanitizerError(
                f"event {event_id} fired at {time_ns} ns after "
                f"{self.last_time_ns} ns",
                invariant="event-monotonic",
                time_ns=time_ns,
                event_id=event_id,
            )
        self.last_time_ns = time_ns

    def memctrl_enter(self, now_ns: float, key: Any, site: str) -> None:
        """A demand memory request arrived at the controller."""
        self.memq.enter(now_ns, key, site=site)

    def memctrl_exit(self, now_ns: float, key: Any) -> None:
        """A demand memory request completed."""
        self.completions += 1
        self.memq.exit(now_ns, key)

    def violate(
        self,
        invariant: str,
        message: str,
        *,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a violation (raised in bulk at finalize)."""
        self.violations.append(
            SanitizerViolation(
                invariant=invariant,
                message=message,
                time_ns=self.last_time_ns,
                event_id=self.event_id,
                snapshot=snapshot or {},
            )
        )

    # -- finalize ---------------------------------------------------------------

    def begin_run(self, trace: Any) -> None:
        """Record trace-derived expectations before the engine starts."""
        self.expected_accesses = sum(len(t) for t in trace.threads)

    def finalize(self, stats: Any, end_ns: float) -> SanitizerReport:
        """Run every end-of-run check; raise on any violation."""
        # Settle deferred replays so batch-replay checks cover the tail
        # runs.  Post-finalize LRU state is not a stats observable, so
        # this cannot perturb the fingerprint.
        for core in self.hierarchy.cores:
            core.l1_array.flush_batch()
            if core.tlb is not None:
                core.tlb.flush_batch()

        self._check_mshr_files(stats, end_ns)
        self._check_memctrl(stats, end_ns)
        self._check_conservation(stats)

        report = SanitizerReport(
            routine=stats.routine,
            elapsed_ns=end_ns,
            events_checked=self.events_checked,
            window_ns=self.window_ns,
            queues=self._queue_summaries(stats, end_ns),
            conservation=self._conservation_summary(stats),
            replay_checks=sum(c.checks for c in self.replay_checkers),
            violations=self.violations,
        )
        self.report = report
        _publish(report)
        if self.violations:
            first = self.violations[0]
            raise SanitizerError(
                f"{len(self.violations)} invariant violation(s); first: "
                f"{first.message}",
                invariant=first.invariant,
                time_ns=first.time_ns,
                event_id=first.event_id,
                snapshot=first.snapshot,
                report=report,
            )
        return report

    def _check_mshr_files(self, stats: Any, end_ns: float) -> None:
        for mshr, audit in self.mshr_audits:
            audit.close(end_ns)
            leaked = audit.leaked()
            if leaked or mshr.entries:
                sites = ", ".join(
                    f"line {key:#x} allocated at {site} ({t:.1f} ns)"
                    for key, t, site in leaked[:8]
                )
                self.violate(
                    "mshr-balance",
                    f"{mshr.name}: {len(leaked)} allocate(s) never released"
                    + (f": {sites}" if sites else ""),
                    snapshot=audit.snapshot(),
                )
                continue  # integrals are meaningless with live entries
            if audit.entered != mshr.allocations:
                self.violate(
                    "mshr-balance",
                    f"{mshr.name}: audit saw {audit.entered} allocates but "
                    f"the file counted {mshr.allocations}",
                    snapshot=audit.snapshot(),
                )
            # Mirror check: same (time, delta) sequence as the file's own
            # OccupancyTracker -> expected bit-equal.
            if not math.isclose(
                audit.integral_ns,
                mshr.tracker.integral_ns,
                rel_tol=MIRROR_REL_TOL,
                abs_tol=ABS_TOL_NS,
            ):
                self.violate(
                    "littles-law",
                    f"{mshr.name}: audit occupancy integral "
                    f"{audit.integral_ns} ns diverges from telemetry "
                    f"{mshr.tracker.integral_ns} ns",
                    snapshot=audit.snapshot(),
                )
            self._check_littles_law(audit)

    def _check_memctrl(self, stats: Any, end_ns: float) -> None:
        audit = self.memq
        audit.close(end_ns)
        leaked = audit.leaked()
        if leaked:
            self.violate(
                "mshr-balance",
                f"memctrl: {len(leaked)} request(s) never completed",
                snapshot=audit.snapshot(),
            )
            return
        # Telemetry twin: the controller records latency + (admit - now)
        # per demand request; the audit measures (admit + latency) - now.
        # Reassociation only -> REL_TOL.
        if not math.isclose(
            audit.residence_sum_ns,
            stats.memory.latency_sum_ns,
            rel_tol=REL_TOL,
            abs_tol=ABS_TOL_NS,
        ):
            self.violate(
                "littles-law",
                f"memctrl: audited residence sum {audit.residence_sum_ns} ns "
                f"diverges from telemetry latency sum "
                f"{stats.memory.latency_sum_ns} ns (L = lambda*W broken)",
                snapshot=audit.snapshot(),
            )
        self._check_littles_law(audit)

    def _check_littles_law(self, audit: QueueAudit) -> None:
        """Whole-run and per-window occupancy == residence identity."""
        if not math.isclose(
            audit.integral_ns,
            audit.residence_sum_ns,
            rel_tol=REL_TOL,
            abs_tol=ABS_TOL_NS,
        ):
            self.violate(
                "littles-law",
                f"{audit.name}: occupancy integral {audit.integral_ns} ns "
                f"!= residence sum {audit.residence_sum_ns} ns",
                snapshot=audit.snapshot(),
            )
        bad = audit.window_mismatches()
        if bad:
            idx, occ, res = bad[0]
            self.violate(
                "littles-law",
                f"{audit.name}: {len(bad)} window(s) break L = lambda*W; "
                f"first at window {idx} "
                f"[{idx * audit.window_ns:.0f}, "
                f"{(idx + 1) * audit.window_ns:.0f}) ns: "
                f"occupancy integral {occ} vs residence {res}",
                snapshot=audit.snapshot(),
            )

    def _check_conservation(self, stats: Any) -> None:
        issued = stats.issued_total()
        if self.scalar_issued + self.batch_issued != issued:
            self.violate(
                "stats-conserve",
                f"issued_total {issued} != scalar {self.scalar_issued} + "
                f"batch {self.batch_issued}",
            )
        if self.batch_issued != stats.batch_accesses:
            self.violate(
                "stats-conserve",
                f"batch_accesses {stats.batch_accesses} != audited batch "
                f"retires {self.batch_issued}",
            )
        if self.expected_accesses and issued != self.expected_accesses:
            self.violate(
                "stats-conserve",
                f"issued_total {issued} != trace accesses "
                f"{self.expected_accesses}",
            )
        for name, level in (("l1", stats.l1), ("l2", stats.l2), ("l3", stats.l3)):
            if level.accesses != level.hits + level.misses:
                self.violate(
                    "stats-conserve",
                    f"{name}: accesses {level.accesses} != hits {level.hits} "
                    f"+ misses {level.misses}",
                )
        if stats.memory.requests != self.completions + self.writebacks:
            self.violate(
                "stats-conserve",
                f"memctrl requests {stats.memory.requests} != completions "
                f"{self.completions} + writebacks {self.writebacks}",
            )
        if stats.memory.latency_count != self.completions:
            self.violate(
                "stats-conserve",
                f"memctrl latency_count {stats.memory.latency_count} != "
                f"audited completions {self.completions}",
            )

    # -- report assembly --------------------------------------------------------

    def _queue_summaries(self, stats: Any, end_ns: float) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        for mshr, audit in self.mshr_audits:
            rows.append(self._summarize(audit, end_ns, mshr.tracker.integral_ns))
        rows.append(
            self._summarize(self.memq, end_ns, stats.memory.latency_sum_ns)
        )
        return rows

    @staticmethod
    def _summarize(
        audit: QueueAudit, end_ns: float, telemetry_ns: float
    ) -> Dict[str, Any]:
        avg_l = audit.integral_ns / end_ns if end_ns > 0 else 0.0
        lam = audit.exited / end_ns if end_ns > 0 else 0.0
        w = audit.residence_sum_ns / audit.exited if audit.exited else 0.0
        return {
            "queue": audit.name,
            "entered": audit.entered,
            "exited": audit.exited,
            "avg_occupancy": avg_l,
            "arrival_rate_per_ns": lam,
            "avg_residence_ns": w,
            "rate_times_latency": lam * w,
            "occupancy_integral_ns": audit.integral_ns,
            "residence_sum_ns": audit.residence_sum_ns,
            "telemetry_ns": telemetry_ns,
            "windows_checked": len(
                set(audit.occ_windows) | set(audit.res_windows)
            ),
        }

    def _conservation_summary(self, stats: Any) -> Dict[str, Any]:
        return {
            "issued_total": stats.issued_total(),
            "scalar_issued": self.scalar_issued,
            "batch_issued": self.batch_issued,
            "trace_accesses": self.expected_accesses,
            "memctrl_requests": stats.memory.requests,
            "completions": self.completions,
            "writebacks": self.writebacks,
        }
