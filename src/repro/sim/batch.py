"""Batch-stepping fast path: vectorized planning of L1-hit runs.

The paper's method needs event-level fidelity only for the **miss**
stream — MSHR occupancy and loaded latency are where Little's law
lives.  An L1 hit, by contrast, is pure arithmetic: it completes a
fixed ``l1_hit_ns`` after issue, touches nothing shared, and cannot
change which later accesses hit or miss (hits never install or evict
lines).  This module computes, for a candidate run of upcoming
accesses, how long a prefix the simulator may retire *in one step*,
aiming at observables bit-identical to the event engine (which stays
the reference: on the ``comd`` paper cells for KNL and A64FX the two
still disagree, see docs/PERFORMANCE.md):

* :func:`issue_times` reproduces the event path's chained issue-time
  floats exactly (``np.cumsum`` performs the same left-to-right adds);
* :func:`window_admissible` replays the per-access window check the
  core front end would perform, using the completion-before-issue tie
  rule of the event engine;
* :func:`run_length` cuts the run at the first access that fails any
  condition — that access (a miss, a prefetch, a would-be stall…)
  falls back to the event engine with exact state.

The caller (:meth:`repro.sim.core.ThreadDriver._try_batch`) is
responsible for the *quiescence* preconditions that make the prefix
provably interaction-free: no stall in progress, zero outstanding
demand accesses, and empty L1/L2 MSHR files.  Under those conditions
nothing in the event queue can mutate the core's L1 residency (or
observe its issue state) while the run is in progress, so snapshot
probes and aggregate LRU replay are exact.
"""

from __future__ import annotations

import numpy as np

#: Maximum accesses examined per scan; bounds per-scan work and keeps
#: temporary arrays cache-resident.
BATCH_LOOKAHEAD = 1024

#: Runs shorter than this are not worth the scan overhead; the event
#: path handles them.
MIN_BATCH = 8

#: After a failed scan, skip this many accesses before scanning again
#: (the trace is locally miss-heavy; rescanning every access would make
#: the fast path a slowdown).
BATCH_BACKOFF = 64


def issue_times(t0: float, gaps_ns: np.ndarray) -> np.ndarray:
    """Event-path issue times for a run whose first access issues now.

    The event engine computes each attempt time as the chained float
    sum ``t[j] = t[j-1] + gaps_ns[j]``; ``np.cumsum`` performs the same
    left-to-right sequential adds (unlike ``np.sum``'s pairwise tree),
    so every element is bit-identical to the scalar chain.

    ``gaps_ns`` holds the gaps of accesses 1..m of the run (the first
    access's gap already elapsed — it issues at ``t0``); the result has
    ``len(gaps_ns) + 1`` elements.
    """
    out = np.empty(len(gaps_ns) + 1, dtype=np.float64)
    out[0] = t0
    out[1:] = gaps_ns
    np.cumsum(out, out=out)
    return out


def window_admissible(
    t: np.ndarray, l1_hit_ns: float, window: int
) -> np.ndarray:
    """Per-access window check for an all-hit demand run.

    With zero outstanding accesses at ``t[0]``, the demand accesses in
    flight when access ``j`` attempts to issue are exactly
    ``#{m < j : t[m] + l1_hit_ns > t[j]}`` — *strictly* later
    completions only, because the event engine fires a completion
    scheduled for the same instant before the issue attempt (the
    completion was scheduled earlier, so it carries the lower tie-break
    sequence number).  ``searchsorted`` on the (sorted) completion
    times counts the complement in O(n log n).

    Entries past the first ``False`` are meaningless (they assume every
    earlier access issued as an unstalled hit); callers must cut at the
    first failure via :func:`run_length`.
    """
    completed = np.searchsorted(t + l1_hit_ns, t, side="right")
    in_flight = np.arange(len(t)) - completed
    return in_flight < window


def run_length(ok: np.ndarray) -> int:
    """Length of the leading all-True prefix of a boolean mask."""
    if ok.all():
        return len(ok)
    return int(np.argmin(ok))
