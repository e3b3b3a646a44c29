"""Seeded exponential backoff for transient-failure retries.

Retries without backoff hammer a struggling resource; backoff without
jitter synchronizes retry storms across workers; jitter from an
unseeded RNG breaks the repo's reproducibility contract (the DET lint
exists for a reason).  :func:`backoff_delay` squares the circle: the
delay grows exponentially with the attempt number, is jittered across
items, and is a pure function of ``(seed, key, attempt)`` — the same
schedule every run.

    delay(attempt) = min(cap, base * 2**attempt) * (0.5 + u)

where ``u ∈ [0, 1)`` is a SHA-256 hash bucket of ``(seed, key,
attempt)``.  The multiplier spans [0.5, 1.5), so the mean delay equals
the un-jittered exponential schedule.
"""

from __future__ import annotations

import hashlib

from ..errors import ConfigurationError

__all__ = ["backoff_delay"]

_BUCKETS = float(1 << 64)


def _unit_draw(seed: int, key: str, attempt: int) -> float:
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / _BUCKETS


def backoff_delay(
    attempt: int,
    *,
    base_s: float = 0.05,
    cap_s: float = 2.0,
    seed: int = 0,
    key: str = "",
) -> float:
    """Deterministic jittered delay (seconds) before retry ``attempt``.

    ``attempt`` is zero-based: the delay before the first *retry* is
    ``backoff_delay(0, ...)``.
    """
    if attempt < 0:
        raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
    if base_s < 0 or cap_s < 0:
        raise ConfigurationError("backoff base/cap must be >= 0")
    ideal = min(cap_s, base_s * (2.0**attempt))
    return ideal * (0.5 + _unit_draw(seed, key, attempt))

