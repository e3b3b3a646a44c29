"""Batch-stepping fast path: bit-exact equivalence with the event engine.

The contract under test (see docs/PERFORMANCE.md): with
``SimConfig.batch=True`` the simulator may retire provable L1-hit runs
in vectorized steps, and every *semantic* observable — the
:meth:`~repro.sim.stats.SimStats.fingerprint` — is bit-identical to the
pure event-engine run.  The property is exercised three ways:

* hypothesis-generated traces across machines, window sizes, SMT,
  hardware-prefetch, and TLB settings;
* the six paper workloads on all three modeled machines;
* element-wise unit properties of the vectorized probe surfaces
  (``probe_batch``/``touch_batch``) against their scalar counterparts,
  including aliasing within a batch.

The contract does not hold everywhere yet: at 3000 accesses/thread the
``comd`` cells on KNL and A64FX diverge, which the strict ``xfail``
cases below pin until the event engine becomes the only reference.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import get_machine
from repro.sim import SimConfig, run_trace
from repro.sim.cache import CacheArray
from repro.sim.tlb import Tlb
from repro.sim.trace import Access, AccessKind, ThreadTrace, Trace
from repro.workloads import get_workload
from repro.workloads.base import TraceSpec

MACHINES = ("skl", "knl", "a64fx")


def _mixed_trace(
    seed: int,
    n: int,
    *,
    threads: int = 2,
    line_bytes: int = 64,
    hot_lines: int = 200,
    miss_rate: float = 0.05,
    store_rate: float = 0.2,
    prefetch_rate: float = 0.0,
) -> Trace:
    """Hot-footprint trace with tunable cold misses, stores, prefetches."""
    rng = random.Random(seed)
    kinds = [AccessKind.LOAD, AccessKind.STORE, AccessKind.SWPF_L2]
    thread_traces = []
    for t in range(threads):
        accesses = []
        for _ in range(n):
            if rng.random() < miss_rate:
                addr = rng.randrange(1 << 22) * line_bytes
            else:
                addr = rng.randrange(hot_lines) * line_bytes
            addr += t * (1 << 32)
            r = rng.random()
            if r < prefetch_rate:
                kind = kinds[2]
            elif r < prefetch_rate + store_rate:
                kind = kinds[1]
            else:
                kind = kinds[0]
            accesses.append(Access(addr, kind, float(rng.randrange(0, 14))))
        thread_traces.append(ThreadTrace(thread_id=t, accesses=tuple(accesses)))
    return Trace(
        threads=tuple(thread_traces), routine="batch-prop", line_bytes=line_bytes
    )


def _fingerprints(trace, **config_kwargs):
    event = run_trace(trace, SimConfig(batch=False, **config_kwargs))
    batch = run_trace(trace, SimConfig(batch=True, **config_kwargs))
    return event, batch


class TestFingerprintEquivalence:
    """Batch and event paths must be semantically indistinguishable."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(100, 600),
        machine=st.sampled_from(MACHINES),
        window=st.integers(2, 24),
        miss_rate=st.sampled_from([0.0, 0.02, 0.3]),
        hw_prefetch=st.booleans(),
        tlb_entries=st.sampled_from([0, 32]),
    )
    def test_property_mixed_traces(
        self, seed, n, machine, window, miss_rate, hw_prefetch, tlb_entries
    ):
        m = get_machine(machine)
        trace = _mixed_trace(
            seed,
            n,
            line_bytes=m.line_bytes,
            miss_rate=miss_rate,
            prefetch_rate=0.05,
        )
        event, batch = _fingerprints(
            trace,
            machine=m,
            sim_cores=2,
            window_per_core=window,
            hw_prefetch=hw_prefetch,
            tlb_entries=tlb_entries,
        )
        assert event.fingerprint() == batch.fingerprint()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**20), n=st.integers(100, 400))
    def test_property_smt(self, seed, n):
        """Under SMT the fast path must disengage, not diverge."""
        m = get_machine("skl")
        trace = _mixed_trace(seed, n, threads=2, miss_rate=0.02)
        event, batch = _fingerprints(
            trace,
            machine=m,
            sim_cores=1,
            threads_per_core=2,
            window_per_core=16,
        )
        assert event.fingerprint() == batch.fingerprint()
        assert batch.batch_accesses == 0

    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize(
        "workload", ["isx", "hpcg", "pennant", "comd", "minighost", "snap"]
    )
    def test_paper_workloads(self, machine, workload):
        m = get_machine(machine)
        trace = get_workload(workload).generate_trace(
            m, spec=TraceSpec(threads=2, accesses_per_thread=400)
        )
        event, batch = _fingerprints(trace, machine=m, sim_cores=2)
        assert event.fingerprint() == batch.fingerprint()

    @pytest.mark.xfail(
        strict=True,
        reason="known divergence: the all-hit batch path's L1/L2 MSHR "
        "occupancy integral (integral_ns) differs from the event engine's "
        "on comd/knl and comd/a64fx at 3000 accesses/thread",
    )
    @pytest.mark.parametrize("machine", ["knl", "a64fx"])
    def test_comd_divergence_at_simulate_defaults(self, machine):
        m = get_machine(machine)
        trace = get_workload("comd").generate_trace(
            m, spec=TraceSpec(threads=2, accesses_per_thread=3000)
        )
        event, batch = _fingerprints(
            trace, machine=m, sim_cores=2, window_per_core=14
        )
        assert event.fingerprint() == batch.fingerprint()

    def test_batch_path_engages_on_hot_loop(self):
        m = get_machine("skl")
        trace = _mixed_trace(3, 4000, miss_rate=0.0, store_rate=0.1)
        event, batch = _fingerprints(trace, machine=m, sim_cores=2)
        assert event.fingerprint() == batch.fingerprint()
        assert batch.batch_accesses > 1000
        assert event.batch_accesses == 0
        # Fewer engine events is the whole point of the fast path.
        assert batch.events_fired < event.events_fired / 2

    def test_fingerprint_excludes_batch_accesses(self):
        """batch_accesses is an execution observable, not a semantic one."""
        m = get_machine("skl")
        trace = _mixed_trace(4, 2000, miss_rate=0.0)
        stats = run_trace(trace, SimConfig(machine=m, sim_cores=2, batch=True))
        assert stats.batch_accesses > 0
        doc = stats.to_dict()
        assert "batch_accesses" in doc
        fp = stats.fingerprint()
        stats.batch_accesses = 0
        assert stats.fingerprint() == fp

    def test_smt_fallback_reason_recorded(self):
        """The inert-under-SMT case is diagnosable, not silent."""
        m = get_machine("knl")  # 4-way SMT
        trace = _mixed_trace(5, 600, threads=2, miss_rate=0.02)
        stats = run_trace(
            trace,
            SimConfig(
                machine=m,
                sim_cores=1,
                threads_per_core=2,
                window_per_core=12,
                batch=True,
            ),
        )
        assert stats.batch_accesses == 0
        assert stats.batch_fallbacks == {"smt": 1}

    def test_fallback_counters_are_not_semantic(self):
        m = get_machine("skl")
        trace = _mixed_trace(6, 600, miss_rate=0.02)
        stats = run_trace(
            trace, SimConfig(machine=m, sim_cores=2, window_per_core=12, batch=True)
        )
        doc = stats.to_dict()
        assert "batch_fallbacks" in doc and "batch_miss_accesses" in doc
        assert stats.batch_miss_accesses == 0
        fp = stats.fingerprint()
        stats.batch_miss_accesses = 7
        stats.batch_fallbacks = {"synthetic": 3}
        assert stats.fingerprint() == fp


def _addr_batches(draw_seed: int, n: int, spread: int, line_bytes: int):
    rng = np.random.default_rng(draw_seed)
    # Dense sampling forces aliasing within a batch.
    return (rng.integers(0, spread, n) * line_bytes).astype(np.uint64)


class TestCacheProbeSurface:
    """probe_batch/touch_batch agree element-wise with scalar access()."""

    def _warm_cache(self, seed: int, lines: int = 96):
        from repro.machines.spec import CacheSpec

        spec = CacheSpec(
            level=1, size_bytes=8192, line_bytes=64, mshrs=8, associativity=4
        )
        cache = CacheArray(spec, "L1-test")
        rng = np.random.default_rng(seed)
        for addr in (rng.integers(0, lines, 3 * lines) * 64).tolist():
            if not cache.access(addr):
                cache.fill(addr)
        return cache

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300))
    def test_probe_batch_matches_sequential_probe(self, seed, n):
        cache = self._warm_cache(seed)
        addrs = _addr_batches(seed + 1, n, 160, 64)
        lines = cache.line_of_batch(addrs)
        got = cache.probe_batch(lines)
        expected = [cache.probe(int(line)) for line in lines.tolist()]
        assert got.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300))
    def test_touch_batch_matches_sequential_access(self, seed, n):
        """Aggregate LRU/dirty replay == per-element access(), with aliasing."""
        batch_cache = self._warm_cache(seed)
        scalar_cache = self._warm_cache(seed)
        rng = np.random.default_rng(seed + 2)
        addrs = _addr_batches(seed + 1, n, 160, 64)
        lines = batch_cache.line_of_batch(addrs)
        writes = rng.random(n) < 0.3
        hits = batch_cache.probe_batch(lines)
        # Keep the verified all-hit prefix only (the fast-path contract).
        k = int(np.argmin(hits)) if not hits.all() else n
        if k == 0:
            return
        batch_cache.touch_batch(lines[:k], writes[:k])
        batch_cache.flush_batch()
        for line, write in zip(lines[:k].tolist(), writes[:k].tolist()):
            assert scalar_cache.access(int(line), write=bool(write))
        assert batch_cache._sets == scalar_cache._sets

    def test_touch_batch_deferred_replay_accumulates(self):
        """Multiple queued runs replay as one concatenated sequence."""
        batch_cache = self._warm_cache(7)
        scalar_cache = self._warm_cache(7)
        rng = np.random.default_rng(8)
        for chunk_seed in range(4):
            addrs = _addr_batches(chunk_seed, 64, 96, 64)
            lines = batch_cache.line_of_batch(addrs)
            hits = batch_cache.probe_batch(lines)
            k = int(np.argmin(hits)) if not hits.all() else len(hits)
            writes = rng.random(len(lines)) < 0.5
            batch_cache.touch_batch(lines[:k], writes[:k])
            for line, write in zip(lines[:k].tolist(), writes[:k].tolist()):
                assert scalar_cache.access(int(line), write=bool(write))
        # No explicit flush: the next scalar access must replay first.
        probe_line = int(lines[0])
        assert batch_cache.access(probe_line) == scalar_cache.access(probe_line)
        assert batch_cache._sets == scalar_cache._sets

    def test_touch_batch_rejects_non_resident(self):
        from repro.errors import SimulationError

        cache = self._warm_cache(11)
        foreign = np.array([(1 << 30)], dtype=np.uint64)
        cache.touch_batch(foreign, np.zeros(1, dtype=bool))
        with pytest.raises(SimulationError):
            cache.flush_batch()


class TestTlbProbeSurface:
    """Tlb.probe_batch/touch_batch agree with sequential access()."""

    def _warm_tlb(self, seed: int, entries: int = 48):
        tlb = Tlb(entries)
        rng = np.random.default_rng(seed)
        for page in rng.integers(0, 64, 200).tolist():
            tlb.access(page * 4096)
        return tlb

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300))
    def test_probe_batch_matches_sequential(self, seed, n):
        tlb = self._warm_tlb(seed)
        rng = np.random.default_rng(seed + 1)
        addrs = (rng.integers(0, 96, n) * 4096 + rng.integers(0, 4096, n)).astype(
            np.uint64
        )
        got = tlb.probe_batch(addrs)
        resident = set(tlb._pages)
        expected = [int(a) // 4096 in resident for a in addrs.tolist()]
        assert got.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300))
    def test_touch_batch_matches_sequential(self, seed, n):
        batch_tlb = self._warm_tlb(seed)
        scalar_tlb = self._warm_tlb(seed)
        rng = np.random.default_rng(seed + 1)
        addrs = (rng.integers(0, 96, n) * 4096).astype(np.uint64)
        hits = batch_tlb.probe_batch(addrs)
        k = int(np.argmin(hits)) if not hits.all() else n
        if k == 0:
            return
        batch_tlb.touch_batch(addrs[:k])
        batch_tlb.flush_batch()
        for addr in addrs[:k].tolist():
            assert scalar_tlb.access(int(addr))
        assert batch_tlb._pages == scalar_tlb._pages
        assert batch_tlb.stats.hits == scalar_tlb.stats.hits
