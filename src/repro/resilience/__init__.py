"""Fault-tolerant execution layer: inject, retry, degrade.

The pipeline's scaling substrate (worker pools, on-disk caches, trace
files, external counter data) fails in characteristic ways; this
package gives each one a deterministic answer:

* :mod:`repro.resilience.faults` — seeded fault *injection*
  (``REPRO_FAULTS``): kill workers, hang tasks, corrupt cache/trace
  files, drop or NaN counter samples — every failure path exercisable
  on demand, byte-for-byte reproducibly;
* :mod:`repro.resilience.retry` — seeded exponential backoff with
  deterministic jitter, consumed by
  :func:`repro.perf.parallel.fan_out`'s per-item retry machinery;
* :mod:`repro.resilience.quality` — :class:`DataQualityIssue`, the unit
  of degraded-mode ingestion accounting.

An interrupted sweep needs no store of its own: every simulation goes
through the content-addressed sim cache (:mod:`repro.perf.cache`), so
rerunning the same command replays the completed points.

See ``docs/ROBUSTNESS.md`` for the operational guide.
"""

from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultRule,
    configure_faults,
    get_injector,
    parse_fault_spec,
)
from .quality import DataQualityIssue, issue_summary
from .retry import backoff_delay

__all__ = [
    "DataQualityIssue",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultRule",
    "backoff_delay",
    "configure_faults",
    "get_injector",
    "issue_summary",
    "parse_fault_spec",
]
