"""Loaded-latency models: latency as a function of bandwidth utilization.

The paper's method hinges on *loaded* memory latency — "the observed
latency increases as bandwidth utilization increases and can be 2x or
more than the idle latency at peak bandwidth utilization" (Section
III-B).  Two model classes are provided:

:class:`TabulatedLatencyModel`
    Monotone piecewise-linear interpolation through calibration control
    points.  This is the canonical per-machine model: the control points
    in :mod:`repro.machines` were fitted to every (bandwidth, latency)
    pair the paper quotes, so the simulator's memory controller, the
    X-Mem substitute, and the analytic solver all see one consistent
    curve per machine.

:class:`QueueingLatencyModel`
    A smooth M/M/1-flavoured curve
    ``lat(u) = idle * (1 + alpha*u + beta*u**gamma / (1 - min(u, cap)))``
    used for theory demonstrations, synthetic machines, and property
    tests (it is monotone by construction for non-negative parameters).

Both expose ``latency_ns(utilization)``; utilization is a fraction of
theoretical peak bandwidth in ``[0, 1]``.  Queries slightly above 1 are
clamped (counter jitter on real systems produces >100 % readings), but
far out-of-range queries raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, Tuple

import numpy as np

from ..errors import ProfileDomainError, ProfileError

#: Queries up to this utilization are clamped to 1.0 rather than rejected.
_CLAMP_LIMIT = 1.05


class LatencyModel(Protocol):
    """Anything that maps bandwidth utilization to loaded latency (ns)."""

    @property
    def idle_latency_ns(self) -> float:
        """Latency at zero load."""
        ...

    def latency_ns(self, utilization: float) -> float:
        """Loaded latency in ns at ``utilization`` in ``[0, 1]``."""
        ...


def _check_utilization(utilization: float) -> float:
    if not np.isfinite(utilization):
        raise ProfileDomainError(f"utilization must be finite, got {utilization}")
    if utilization < 0.0:
        raise ProfileDomainError(f"utilization must be >= 0, got {utilization}")
    if utilization > _CLAMP_LIMIT:
        raise ProfileDomainError(
            f"utilization {utilization:.3f} exceeds clamp limit {_CLAMP_LIMIT}"
        )
    return min(utilization, 1.0)


@dataclass(frozen=True)
class TabulatedLatencyModel:
    """Monotone piecewise-linear latency curve through control points.

    Parameters
    ----------
    points:
        ``(utilization, latency_ns)`` pairs.  They are sorted on
        construction; utilizations must be unique, latencies must be
        non-decreasing in utilization (a loaded-latency curve never
        improves under load).
    """

    points: Tuple[Tuple[float, float], ...]

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ProfileError("need at least two calibration points")
        ordered = sorted((float(u), float(l)) for u, l in points)
        utils = [u for u, _ in ordered]
        if len(set(utils)) != len(utils):
            raise ProfileError("duplicate utilization points in calibration")
        # Merge points spaced closer than float-safe interpolation allows
        # (a near-vertical segment overflows np.interp's slope); keep the
        # higher latency so monotonicity is preserved.
        merged = [ordered[0]]
        for u, lat in ordered[1:]:
            if u - merged[-1][0] < 1e-9:
                merged[-1] = (merged[-1][0], max(merged[-1][1], lat))
            else:
                merged.append((u, lat))
        if len(merged) < 2:
            raise ProfileError("calibration points collapse to a single point")
        ordered = tuple(merged)
        utils = [u for u, _ in ordered]
        lats = [l for _, l in ordered]
        if any(u < 0.0 or u > _CLAMP_LIMIT for u in utils):
            raise ProfileError("calibration utilizations must lie in [0, 1.05]")
        if any(l <= 0.0 for l in lats):
            raise ProfileError("calibration latencies must be positive")
        if any(b < a for a, b in zip(lats, lats[1:])):
            raise ProfileError("loaded latency must be non-decreasing in load")
        object.__setattr__(self, "points", ordered)

    @property
    def idle_latency_ns(self) -> float:
        """Latency at the lowest calibrated load (extrapolated flat to 0)."""
        return self.points[0][1]

    @property
    def saturated_latency_ns(self) -> float:
        """Latency at the highest calibrated load."""
        return self.points[-1][1]

    def latency_ns(self, utilization: float) -> float:
        """Interpolated loaded latency at ``utilization``."""
        u = _check_utilization(utilization)
        utils = np.array([p[0] for p in self.points])
        lats = np.array([p[1] for p in self.points])
        # np.interp clamps flat outside the domain, which is the right
        # behaviour at both ends (idle below, saturated above).  The
        # explicit clamp guards against float-overflow artifacts when
        # control points are pathologically close together: physically
        # the value must lie within the calibrated range.
        value = float(np.interp(u, utils, lats))
        return float(min(max(value, lats[0]), lats[-1]))


@dataclass(frozen=True)
class QueueingLatencyModel:
    """Smooth queueing-shaped loaded-latency curve.

    ``lat(u) = idle * (1 + alpha*u + beta * u**gamma / (1 - min(u, cap)))``

    * ``alpha`` — linear contention growth (bank conflicts, row misses),
    * ``beta``/``gamma`` — queueing blow-up near saturation,
    * ``cap`` — utilization at which the queueing term stops growing
      (keeps the curve finite at u=1; real controllers throttle).
    """

    idle_ns: float
    alpha: float = 0.3
    beta: float = 0.15
    gamma: float = 3.0
    cap: float = 0.95

    def __post_init__(self) -> None:
        if self.idle_ns <= 0:
            raise ProfileError("idle latency must be positive")
        if self.alpha < 0 or self.beta < 0 or self.gamma <= 0:
            raise ProfileError("queueing parameters must be non-negative")
        if not 0.0 < self.cap < 1.0:
            raise ProfileError(f"cap must be in (0, 1), got {self.cap}")

    @property
    def idle_latency_ns(self) -> float:
        """Latency at zero load."""
        return self.idle_ns

    def latency_ns(self, utilization: float) -> float:
        """Queueing-curve loaded latency at ``utilization``."""
        u = _check_utilization(utilization)
        queue_u = min(u, self.cap)
        growth = self.alpha * u + self.beta * (queue_u**self.gamma) / (1.0 - queue_u)
        return self.idle_ns * (1.0 + growth)


def model_for_machine(machine) -> LatencyModel:
    """The canonical latency model for a :class:`~repro.machines.MachineSpec`.

    Uses the machine's fitted calibration points when present, otherwise
    a generic queueing curve anchored at the machine's idle latency.
    """
    if machine.latency_calibration:
        return TabulatedLatencyModel(machine.latency_calibration)
    return QueueingLatencyModel(idle_ns=machine.memory.idle_latency_ns)
