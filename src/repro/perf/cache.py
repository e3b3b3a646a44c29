"""Content-addressed on-disk cache for simulation results.

The paper's footnote 2 observes that a machine's latency profile "needs
to be computed only once per processor"; the JSON profiles under
:mod:`repro.memory.profile` already honor that.  This module extends the
same measured-once property to *every* simulation the pipeline runs: a
:func:`~repro.sim.hierarchy.run_trace` call is fully determined by its
``(machine, config, trace, latency model, repro version)`` inputs, so
its :class:`~repro.sim.stats.SimStats` can be memoized under a stable
SHA-256 digest of those inputs and replayed bit-for-bit on the next
invocation.

Digest stability rules
----------------------
* All inputs are reduced to plain JSON types (dataclasses to dicts,
  enums to values, tuples to lists) and serialized with sorted keys, so
  the digest is invariant under dict/field ordering.
* The digest includes :data:`SCHEMA_VERSION` and ``repro.__version__``:
  any release, or any change to the cached representation, invalidates
  the cache wholesale rather than risking stale replays.
* Any physical parameter change — machine calibration point, MSHR
  count, trace address, gap cycles, window size — changes the digest.

Storage
-------
One JSON document per digest under ``<cache_dir>/<digest[:2]>/<digest>.json``
(sharded to keep directories small), written atomically via
:func:`repro.io.atomic.atomic_write_text`.  A corrupted or truncated
entry is treated as a miss (with a :class:`UserWarning`), **quarantined**
by renaming it to ``<digest>.corrupt`` — so the bad bytes survive for
forensics and can never be re-read as a hit — then re-simulated and
re-stored.  The ``cache_corrupt``/``cache_truncate`` fault kinds
(:mod:`repro.resilience.faults`) damage entries right after a store to
keep this recovery path exercised.

Control knobs
-------------
* ``REPRO_CACHE_DIR`` — cache location (default
  ``$XDG_CACHE_HOME/repro/sim`` or ``~/.cache/repro/sim``);
* ``REPRO_CACHE=0`` (or ``off``/``false``/``no``) — disable entirely;
* :func:`configure_cache` — programmatic/CLI override (``--no-cache``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .. import __version__
from ..analysis.sanitizer import sanitize_enabled
from ..errors import CacheKeyError
from ..sim.coltrace import AnyTrace, trace_digest
from ..sim.hierarchy import SimConfig, run_trace
from ..sim.stats import SimStats

#: Bump when the cached SimStats representation (or sim semantics whose
#: change is not reflected in ``repro.__version__``) changes.
#: v2: columnar trace layer — traces are digested zero-copy over their
#: canonical array bytes (repro.sim.coltrace.trace_digest) and the
#: vectorized generators changed trace content once, so v1 entries must
#: never be replayed.
#: v3: batch-stepping fast path — SimStats gained ``batch_accesses`` and
#: SimConfig gained ``batch`` (the flag enters the digest via the config
#: payload; the schema bump invalidates v2 entries whose stored stats
#: lack the new field).
#: v4: batched miss retirement — SimConfig gained ``batch_miss`` and
#: SimStats gained ``batch_miss_accesses``/``batch_fallbacks``; v3
#: entries lack the new stats fields and must not be replayed.
#: v5: batched miss retirement removed — SimConfig lost ``batch_miss``,
#: so the config payload (and every digest) changed shape.
SCHEMA_VERSION = 5

_DISABLE_VALUES = ("0", "off", "false", "no")

#: Sim shards are two-hex-digit directories directly under the cache
#: root; payload kinds must never collide with that namespace.
_SHARD_DIR = re.compile(r"^[0-9a-f]{2}$")

#: Valid payload-kind names: python-identifier-ish, and (checked
#: separately) never a two-hex-digit shard name.
_KIND_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")

#: Persistent hit/miss ledger file (JSON lines, one counter delta per
#: flush) kept beside the shards.
TALLIES_FILE = "tallies.jsonl"


# -- canonical digests ----------------------------------------------------------


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types with deterministic structure."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise CacheKeyError(
        f"cannot canonicalize {type(obj).__name__} for a stable cache digest"
    )


def stable_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload`` in canonical JSON form.

    Dict key order never matters: serialization sorts keys at every
    nesting level.
    """
    doc = json.dumps(
        _canonical(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def digest_for(
    trace: AnyTrace,
    config: SimConfig,
    *,
    latency_model: Any = None,
    max_events: int = 50_000_000,
) -> str:
    """Stable digest of one simulation's complete physical inputs.

    The trace contributes via :func:`repro.sim.coltrace.trace_digest`
    — a zero-copy SHA-256 over its canonical array bytes — so digesting
    no longer walks the trace in Python, and object and columnar traces
    with the same content produce the same key.

    Raises :class:`~repro.errors.CacheKeyError` when an input (e.g. a
    hand-written latency-model object) cannot be canonicalized; callers
    should then run uncached rather than risk a wrong key.
    """
    if latency_model is None:
        # run_trace derives the model from the machine's calibration,
        # which is already part of the config payload.
        model_payload: Any = "machine-default"
    else:
        model_payload = {
            "class": type(latency_model).__name__,
            "params": _canonical(latency_model),
        }
    return stable_digest(
        {
            "schema": SCHEMA_VERSION,
            "repro_version": __version__,
            "config": _canonical(config),
            "trace": trace_digest(trace),
            "latency_model": model_payload,
            "max_events": max_events,
        }
    )


# -- the cache proper -----------------------------------------------------------


@dataclass
class CacheCounters:
    """Hit/miss/store accounting for one cache handle (or globally)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def snapshot(self) -> "CacheCounters":
        """An independent copy of the current counts."""
        return CacheCounters(self.hits, self.misses, self.stores, self.errors)

    def add(self, other: "CacheCounters") -> None:
        """Accumulate another counter set into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.errors += other.errors

    def diff(self, earlier: "CacheCounters") -> "CacheCounters":
        """Counts accumulated since ``earlier`` was snapshotted."""
        return CacheCounters(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.stores - earlier.stores,
            self.errors - earlier.errors,
        )

    def summary(self) -> str:
        """One-line human-readable form."""
        return f"{self.hits} hit(s), {self.misses} miss(es), {self.stores} stored"


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "sim"


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _DISABLE_VALUES


class SimCache:
    """Content-addressed store of :class:`~repro.sim.stats.SimStats`.

    Also hosts a generic *payload* store for small JSON documents keyed
    by ``(kind, digest)`` — e.g. the queueing-model calibrations of
    :mod:`repro.perfmodel.queueing` — living under ``<cache_dir>/<kind>/``
    so they share the sim store's sharding, atomic writes, quarantine
    behavior, and counters without colliding with SimStats entries.
    """

    __slots__ = ("cache_dir", "enabled", "counters", "_tally_base")

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        *,
        enabled: Optional[bool] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.enabled = _env_enabled() if enabled is None else enabled
        self.counters = CacheCounters()
        # Counter snapshot at the last tallies flush (so each flush
        # appends only the delta accumulated since).
        self._tally_base = CacheCounters()

    def path_for(self, digest: str) -> Path:
        """On-disk location of one entry (sharded by digest prefix)."""
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def load(self, digest: str) -> Optional[SimStats]:
        """Fetch a cached result; corrupt/truncated entries are misses.

        A decode failure quarantines the entry: the file is renamed to
        ``<digest>.corrupt`` so the damaged bytes are preserved for
        inspection but can never satisfy a future lookup.
        """
        if not self.enabled:
            return None
        path = self.path_for(digest)
        try:
            doc = json.loads(path.read_text())
            if doc.get("schema") != SCHEMA_VERSION or doc.get("digest") != digest:
                raise ValueError("schema/digest mismatch")
            stats = SimStats.from_dict(doc["stats"])
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.counters.misses += 1
            self.counters.errors += 1
            quarantined = self._quarantine(path)
            warnings.warn(
                f"discarding corrupt sim-cache entry {path.name}: {exc}"
                + (f" (quarantined as {quarantined.name})" if quarantined else ""),
                stacklevel=2,
            )
            return None
        self.counters.hits += 1
        return stats

    @staticmethod
    def _quarantine(path: Path) -> Optional[Path]:
        """Move a corrupt entry aside as ``<digest>.corrupt``; best-effort."""
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # repro: noqa[RES001] - quarantine is best-effort
            return None
        return target

    def store(self, digest: str, stats: SimStats) -> None:
        """Persist one result atomically (temp file + rename)."""
        if not self.enabled:
            return
        path = self.path_for(digest)
        doc = {"schema": SCHEMA_VERSION, "digest": digest, "stats": stats.to_dict()}
        try:
            from ..io.atomic import atomic_write_text

            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(doc))
        except OSError as exc:
            # A read-only or full disk must never fail the simulation.
            self.counters.errors += 1
            warnings.warn(f"could not write sim-cache entry: {exc}", stacklevel=2)
            return
        self.counters.stores += 1
        from ..resilience.faults import get_injector

        injector = get_injector()
        if injector.active:
            # Damage the freshly written entry so the quarantine/re-simulate
            # recovery path stays exercised under the CI fault leg.
            injector.maybe_corrupt_file("cache_corrupt", digest, path)
            injector.maybe_corrupt_file("cache_truncate", digest, path)

    # -- generic payload store (calibrations, ...) ---------------------------

    @staticmethod
    def _check_kind(kind: str) -> None:
        """Reject kinds that could collide with the sim shard layout."""
        if not _KIND_NAME.match(kind) or _SHARD_DIR.match(kind):
            raise CacheKeyError(f"invalid payload kind {kind!r}")

    def payload_path_for(self, digest: str, *, kind: str) -> Path:
        """On-disk location of one ``(kind, digest)`` payload entry."""
        self._check_kind(kind)
        return self.cache_dir / kind / digest[:2] / f"{digest}.json"

    def load_payload(self, digest: str, *, kind: str) -> Optional[Dict[str, Any]]:
        """Fetch a stored JSON payload; corrupt entries are quarantined misses."""
        if not self.enabled:
            return None
        path = self.payload_path_for(digest, kind=kind)
        try:
            doc = json.loads(path.read_text())
            if doc.get("schema") != SCHEMA_VERSION or doc.get("digest") != digest:
                raise ValueError("schema/digest mismatch")
            payload = doc["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.counters.misses += 1
            self.counters.errors += 1
            quarantined = self._quarantine(path)
            warnings.warn(
                f"discarding corrupt {kind} cache entry {path.name}: {exc}"
                + (f" (quarantined as {quarantined.name})" if quarantined else ""),
                stacklevel=2,
            )
            return None
        self.counters.hits += 1
        return payload

    def store_payload(
        self, digest: str, payload: Dict[str, Any], *, kind: str
    ) -> None:
        """Persist one JSON payload atomically under its kind directory."""
        if not self.enabled:
            return
        path = self.payload_path_for(digest, kind=kind)
        doc = {"schema": SCHEMA_VERSION, "digest": digest, "payload": payload}
        try:
            from ..io.atomic import atomic_write_text

            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(doc))
        except OSError as exc:
            # Payloads are derived data: a full disk must not fail the run.
            self.counters.errors += 1
            warnings.warn(
                f"could not write {kind} cache entry: {exc}", stacklevel=2
            )
            return
        self.counters.stores += 1

    # -- persistent tallies ---------------------------------------------------

    def flush_tallies(self) -> None:
        """Append the counter delta since the last flush to the ledger.

        The ledger (``tallies.jsonl``) makes hit/miss accounting survive
        the process: ``repro cache stats`` sums it alongside the live
        handle's counters.  Best-effort — an unwritable directory only
        skips the flush.
        """
        if not self.enabled:
            return
        delta = self.counters.diff(self._tally_base)
        if not (delta.hits or delta.misses or delta.stores or delta.errors):
            return
        try:
            from ..io.atomic import append_jsonl

            self.cache_dir.mkdir(parents=True, exist_ok=True)
            append_jsonl(
                self.cache_dir / TALLIES_FILE,
                {
                    "hits": delta.hits,
                    "misses": delta.misses,
                    "stores": delta.stores,
                    "errors": delta.errors,
                },
                fsync=False,
            )
        except OSError as exc:
            warnings.warn(f"could not flush cache tallies: {exc}", stacklevel=2)
            return
        self._tally_base = self.counters.snapshot()


# -- process-global handle -------------------------------------------------------

_global_cache: Optional[SimCache] = None


def get_cache() -> SimCache:
    """The process-wide cache handle (created lazily from the environment)."""
    global _global_cache
    if _global_cache is None:
        _global_cache = SimCache()
    return _global_cache


def configure_cache(
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    enabled: Optional[bool] = None,
) -> SimCache:
    """Reconfigure the global cache (used by the CLI's ``--no-cache``).

    The settings are mirrored into the environment so worker processes
    spawned by :func:`repro.perf.parallel.fan_out` inherit them under
    any multiprocessing start method.
    """
    global _global_cache
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    if enabled is not None:
        os.environ["REPRO_CACHE"] = "1" if enabled else "0"
    _global_cache = SimCache(cache_dir=cache_dir, enabled=enabled)
    return _global_cache


def cached_run_trace(
    trace: AnyTrace,
    config: SimConfig,
    *,
    latency_model: Any = None,
    max_events: int = 50_000_000,
    cache: Optional[SimCache] = None,
) -> SimStats:
    """Drop-in :func:`~repro.sim.hierarchy.run_trace` with memoization.

    Results are bit-identical to an uncached run: a hit replays the
    stored :class:`~repro.sim.stats.SimStats` (same counters, same
    occupancy integrals), a miss simulates and stores.  Inputs that
    cannot be digested fall back to plain simulation.

    Sanitized runs (``REPRO_SANITIZE=1``) are cache-inert: the whole
    point of the mode is to *execute* the simulator under instrumented
    invariant checks, so a sanitized run neither replays a stored
    result nor stores its own — the cache's contents stay exactly what
    unsanitized runs produced.
    """
    if sanitize_enabled():
        return run_trace(
            trace, config, latency_model=latency_model, max_events=max_events
        )
    handle = cache if cache is not None else get_cache()
    if not handle.enabled:
        return run_trace(
            trace, config, latency_model=latency_model, max_events=max_events
        )
    try:
        digest = digest_for(
            trace, config, latency_model=latency_model, max_events=max_events
        )
    except CacheKeyError:
        return run_trace(
            trace, config, latency_model=latency_model, max_events=max_events
        )
    stats = handle.load(digest)
    if stats is not None:
        return stats
    stats = run_trace(
        trace, config, latency_model=latency_model, max_events=max_events
    )
    handle.store(digest, stats)
    return stats


# -- cache statistics -------------------------------------------------------------


@dataclass(frozen=True)
class KindUsage:
    """Entry count and byte footprint of one store kind on disk."""

    entries: int
    total_bytes: int


@dataclass
class CacheStats:
    """One snapshot of a cache directory's contents and accounting."""

    cache_dir: Path
    #: Disk usage per store: ``"sim"`` plus one key per payload kind.
    usage: Dict[str, KindUsage] = field(default_factory=dict)
    #: Quarantined ``.corrupt`` files across all stores.
    corrupt_entries: int = 0
    #: Lifetime hit/miss tallies summed from the persistent ledger
    #: (includes the live handle's just-flushed counts).
    tallies: CacheCounters = field(default_factory=CacheCounters)

    @property
    def total_entries(self) -> int:
        """All entries across every store kind."""
        return sum(u.entries for u in self.usage.values())

    @property
    def total_bytes(self) -> int:
        """All bytes across every store kind."""
        return sum(u.total_bytes for u in self.usage.values())


def _scan_shards(root: Path) -> Tuple[int, int, int]:
    """(entries, bytes, corrupt) across one store's shard directories."""
    entries = total = corrupt = 0
    if not root.is_dir():
        return 0, 0, 0
    for shard in sorted(root.iterdir()):
        if not (shard.is_dir() and _SHARD_DIR.match(shard.name)):
            continue
        for entry in sorted(shard.iterdir()):
            if entry.suffix == ".corrupt":
                corrupt += 1
                continue
            if entry.suffix != ".json":
                continue
            try:
                size = entry.stat().st_size
            except OSError:  # repro: noqa[RES001] - raced with concurrent eviction; skip the entry
                continue
            entries += 1
            total += size
    return entries, total, corrupt


def read_tallies(cache_dir: Path) -> CacheCounters:
    """Sum the persistent hit/miss ledger (malformed lines are skipped)."""
    total = CacheCounters()
    path = cache_dir / TALLIES_FILE
    try:
        text = path.read_text()
    except OSError:  # repro: noqa[RES001] - no ledger yet means zero tallies
        return total
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            total.add(
                CacheCounters(
                    hits=int(doc.get("hits", 0)),
                    misses=int(doc.get("misses", 0)),
                    stores=int(doc.get("stores", 0)),
                    errors=int(doc.get("errors", 0)),
                )
            )
        except (ValueError, TypeError):
            continue  # a torn append must not poison the whole ledger
    return total


# -- cache maintenance ------------------------------------------------------------


@dataclass(frozen=True)
class GcResult:
    """Outcome of one :func:`gc_cache` pass."""

    removed_entries: int
    removed_bytes: int
    kept_entries: int
    kept_bytes: int


def _store_roots(cache_dir: Path) -> Dict[str, Path]:
    """Every store root: ``"sim"`` (the cache dir itself) plus kind dirs."""
    roots = {"sim": cache_dir}
    if cache_dir.is_dir():
        for child in sorted(cache_dir.iterdir()):
            if not child.is_dir() or _SHARD_DIR.match(child.name):
                continue
            if _KIND_NAME.match(child.name):
                roots[child.name] = child
    return roots


def gc_cache(
    cache: Optional[SimCache] = None,
    *,
    max_bytes: Optional[int] = None,
    max_age_s: Optional[float] = None,
    now: Optional[float] = None,
) -> GcResult:
    """Evict cache entries oldest-first until the limits hold.

    Entries (sim results and payloads alike) are ranked by modification
    time within every kind directory and across the whole cache — the
    two orders agree because eviction is purely by age.  ``max_age_s``
    removes every entry older than the horizon; ``max_bytes`` then
    removes the oldest survivors until the remaining footprint fits the
    budget.  Quarantined ``.corrupt`` files are forensic artifacts and
    are never touched; empty shard directories left behind are pruned.
    Entries that vanish mid-scan (a concurrent run replacing them) are
    skipped — gc is best-effort by design, like every other maintenance
    path in this module.
    """
    handle = cache if cache is not None else get_cache()
    if now is None:
        import time

        now = time.time()
    entries = []  # (mtime, size, path)
    for root in _store_roots(handle.cache_dir).values():
        if not root.is_dir():
            continue
        for shard in sorted(root.iterdir()):
            if not (shard.is_dir() and _SHARD_DIR.match(shard.name)):
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix != ".json":
                    continue
                try:
                    st = entry.stat()
                except OSError:  # repro: noqa[RES001] - raced with concurrent eviction; skip the entry
                    continue
                entries.append((st.st_mtime, st.st_size, entry))
    entries.sort(key=lambda e: (e[0], str(e[2])))
    total_bytes = sum(size for _, size, _ in entries)
    removed_entries = removed_bytes = 0
    doomed_dirs = set()
    for mtime, size, path in entries:
        too_old = max_age_s is not None and now - mtime > max_age_s
        too_big = max_bytes is not None and total_bytes > max_bytes
        if not (too_old or too_big):
            continue
        try:
            path.unlink()
        except OSError:  # repro: noqa[RES001] - raced with concurrent eviction; skip the entry
            continue
        removed_entries += 1
        removed_bytes += size
        total_bytes -= size
        doomed_dirs.add(path.parent)
    for shard in doomed_dirs:
        try:
            shard.rmdir()  # only succeeds when the shard emptied out
        except OSError:  # repro: noqa[RES001] - shard still holds entries (or .corrupt files)
            pass
    return GcResult(
        removed_entries=removed_entries,
        removed_bytes=removed_bytes,
        kept_entries=len(entries) - removed_entries,
        kept_bytes=total_bytes,
    )


def collect_stats(cache: Optional[SimCache] = None) -> CacheStats:
    """Scan a cache directory into a :class:`CacheStats` snapshot.

    Flushes the handle's live counters into the persistent ledger first,
    so the reported tallies cover this process too.
    """
    handle = cache if cache is not None else get_cache()
    handle.flush_tallies()
    stats = CacheStats(cache_dir=handle.cache_dir)
    sim_entries, sim_bytes, corrupt = _scan_shards(handle.cache_dir)
    stats.usage["sim"] = KindUsage(entries=sim_entries, total_bytes=sim_bytes)
    stats.corrupt_entries = corrupt
    if handle.cache_dir.is_dir():
        for child in sorted(handle.cache_dir.iterdir()):
            if not child.is_dir() or _SHARD_DIR.match(child.name):
                continue
            if not _KIND_NAME.match(child.name):
                continue
            entries, total, kind_corrupt = _scan_shards(child)
            stats.usage[child.name] = KindUsage(entries=entries, total_bytes=total)
            stats.corrupt_entries += kind_corrupt
    stats.tallies = read_tallies(handle.cache_dir)
    return stats
