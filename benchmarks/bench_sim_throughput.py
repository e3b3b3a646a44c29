"""E-P1: raw simulator throughput (events/sec) and cache/parallel wins.

Guards the hot-loop fast path in ``repro.sim``: a regression in the
event loop, MSHR bookkeeping, or cache-array indexing shows up here as
an events/sec drop long before it is visible in the paper tables.
Also times the ``repro.perf`` layer itself: a warm content-addressed
cache must beat re-simulation by a wide margin, and the batch-stepping
fast path must beat the pure event engine on hit-heavy work.

``REPRO_BENCH_FLOOR`` overrides the events/sec floor (for slow or
heavily shared CI hosts).
"""

import os

import pytest

from conftest import pedantic_once

from repro.machines import get_machine
from repro.perf.cache import SimCache, cached_run_trace, digest_for
from repro.sim import SimConfig, run_trace
from repro.xmem.kernels import resident_trace, throughput_trace

THREADS = 4
ACCESSES = 4000

#: Loose events/sec floor — well below healthy rates (~300k+ on an idle
#: host), but high enough to catch pathological event-loop slowdowns.
EVENTS_PER_SEC_FLOOR = int(os.environ.get("REPRO_BENCH_FLOOR", "30000"))

#: The batch-stepping acceptance bar: accesses/sec on the L1-resident
#: workload must improve by at least this factor over the event engine.
BATCH_SPEEDUP_FLOOR = 5.0


def _inputs(machine_name):
    machine = get_machine(machine_name)
    trace = throughput_trace(
        threads=THREADS,
        accesses_per_thread=ACCESSES,
        line_bytes=machine.line_bytes,
        gap_cycles=10.0,
    )
    return trace, SimConfig(machine=machine, sim_cores=THREADS)


@pytest.mark.parametrize("machine_name", ["skl", "knl", "a64fx"])
def test_sim_event_throughput(benchmark, printed, machine_name):
    trace, config = _inputs(machine_name)
    stats = pedantic_once(benchmark, run_trace, trace, config)
    key = f"throughput-{machine_name}"
    if key not in printed:
        printed.add(key)
        print(
            f"\n{machine_name}: {stats.events_fired} events in "
            f"{stats.wall_s:.3f}s host wall = "
            f"{stats.events_per_sec() / 1e3:.0f}k events/s"
        )
    assert stats.events_fired > 0
    assert stats.wall_s > 0
    # Floor well below any observed rate; catches pathological slowdowns
    # (observed ~65k events/s on a busy single-core CI container).
    assert stats.events_per_sec() > EVENTS_PER_SEC_FLOOR


def test_sim_batch_speedup(benchmark, printed):
    """Batch-stepping fast path: >= 5x accesses/sec on hit-heavy work."""
    machine = get_machine("skl")
    trace = resident_trace(
        threads=THREADS,
        accesses_per_thread=40_000,
        line_bytes=machine.line_bytes,
    )
    event_cfg = SimConfig(machine=machine, sim_cores=THREADS, batch=False)
    batch_cfg = SimConfig(machine=machine, sim_cores=THREADS, batch=True)
    event_stats = run_trace(trace, event_cfg)
    batch_stats = pedantic_once(benchmark, run_trace, trace, batch_cfg)

    assert batch_stats.fingerprint() == event_stats.fingerprint()
    assert batch_stats.batch_accesses > 0.9 * batch_stats.issued_total()
    speedup = batch_stats.accesses_per_sec() / event_stats.accesses_per_sec()
    if "batch-speedup" not in printed:
        printed.add("batch-speedup")
        print(
            f"\nbatch fast path: {batch_stats.accesses_per_sec() / 1e6:.2f}M "
            f"acc/s vs event {event_stats.accesses_per_sec() / 1e6:.2f}M "
            f"acc/s = {speedup:.1f}x "
            f"({batch_stats.batch_accesses}/{batch_stats.issued_total()} "
            "batched)"
        )
    assert speedup >= BATCH_SPEEDUP_FLOOR


def test_warm_cache_beats_resimulation(benchmark, printed, tmp_path):
    trace, config = _inputs("skl")
    cache = SimCache(tmp_path, enabled=True)
    cold = cached_run_trace(trace, config, cache=cache)  # populate

    replayed = pedantic_once(benchmark, cached_run_trace, trace, config, cache=cache)

    assert cache.counters.hits == 1
    assert replayed.fingerprint() == cold.fingerprint()
    replay_s = benchmark.stats.stats.mean
    if "cache-replay" not in printed:
        printed.add("cache-replay")
        print(
            f"\ncache replay {replay_s * 1e3:.1f} ms vs "
            f"simulation {cold.wall_s * 1e3:.1f} ms "
            f"({cold.wall_s / replay_s:.0f}x)"
        )
    # The acceptance bar is >= 2x; real replays are orders faster.
    assert replay_s < cold.wall_s / 2


def test_digest_cost_is_cheap_relative_to_simulation(benchmark):
    # Keying the cache (canonical JSON + SHA-256 over the whole trace)
    # must stay a small fraction of simulating the same trace
    # (~100 ms digest vs ~800 ms simulation for this 16k-access case).
    trace, config = _inputs("skl")
    digest = pedantic_once(benchmark, digest_for, trace, config)
    assert len(digest) == 64
    assert benchmark.stats.stats.mean < 0.4
