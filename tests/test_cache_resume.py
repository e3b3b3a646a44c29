"""Resuming an interrupted sweep from the sim cache.

Every simulation a sweep runs goes through the content-addressed sim
cache, so rerunning an interrupted sweep on the same cache replays the
finished points and simulates only the rest.  Each test interrupts a
sweep after ``k`` of its ``n`` simulations with a stub ``run_trace``
that fails the remaining ones, reruns it, and checks that the rerun
simulated exactly the ``n - k`` missing points and returned results
byte-identical to an uninterrupted run with the cache off.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro.perf.cache as cache_module
from repro.sim.coltrace import trace_digest

_REAL_RUN_TRACE = cache_module.run_trace


class _Simulations:
    """Stub ``run_trace``: logs each finished simulation, fails chosen ones.

    The log is a file, so simulations in forked worker processes are
    counted too.  A simulation is named by machine, routine and trace
    digest.
    """

    def __init__(self, log: Path, fail: frozenset = frozenset()) -> None:
        self.log = log
        self.fail = fail

    def __call__(self, trace, config, **kwargs):
        name = f"{config.machine.name}:{trace.routine}:{trace_digest(trace)[:12]}"
        if name in self.fail:
            raise RuntimeError(f"interrupted before {name}")
        stats = _REAL_RUN_TRACE(trace, config, **kwargs)
        with open(self.log, "a") as fh:
            fh.write(name + "\n")
        return stats

    def names(self):
        """Simulations finished so far, in completion order."""
        return self.log.read_text().splitlines() if self.log.exists() else []


def _dump(results) -> str:
    """Canonical byte-level form of a list of result dataclasses."""
    return json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True)


@pytest.fixture
def interrupt_and_rerun(tmp_path, monkeypatch, fresh_sim_cache, exact_cache_counts):
    """Drive one sweep through baseline, interrupted run and rerun.

    ``run(jobs)`` runs the sweep.  Checks that the rerun simulated
    exactly the ``n - k`` missing points, and returns the uninterrupted
    uncached result and the rerun's result.
    """

    def drive(run, *, k, jobs):
        baseline = _Simulations(tmp_path / "baseline.log")
        monkeypatch.setattr(cache_module, "run_trace", baseline)
        fresh_sim_cache(enabled=False)
        reference = run(1)
        order = baseline.names()
        assert len(set(order)) == len(order) > k

        monkeypatch.setattr(
            cache_module,
            "run_trace",
            _Simulations(tmp_path / "first.log", fail=frozenset(order[k:])),
        )
        fresh_sim_cache()
        with pytest.raises(RuntimeError, match="interrupted before"):
            run(jobs)

        rerun = _Simulations(tmp_path / "rerun.log")
        monkeypatch.setattr(cache_module, "run_trace", rerun)
        cache = fresh_sim_cache()
        resumed = run(jobs)
        assert sorted(rerun.names()) == sorted(order[k:])
        assert (cache.counters.hits, cache.counters.misses) == (k, len(order) - k)
        return reference, resumed

    return drive


class TestSweepResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_xmem_characterize_resumes(self, interrupt_and_rerun, skl, jobs):
        from repro.xmem import XMemConfig
        from repro.xmem.runner import XMemRunner

        runner = XMemRunner(skl, XMemConfig(levels=4, accesses_per_thread=300))
        reference, resumed = interrupt_and_rerun(
            lambda j: runner.characterize(jobs=j), k=2, jobs=jobs
        )
        assert resumed.to_json() == reference.to_json()

    def test_cross_validate_resumes(self, interrupt_and_rerun):
        from repro.experiments import cross_validate
        from repro.machines import get_machine
        from repro.workloads import get_workload

        def run(jobs):
            return cross_validate(
                machines=[get_machine("skl"), get_machine("knl")],
                workloads=[get_workload("isx"), get_workload("hpcg")],
                accesses_per_thread=400,
                jobs=jobs,
            )

        reference, resumed = interrupt_and_rerun(run, k=1, jobs=1)
        assert _dump(resumed) == _dump(reference)

    def test_prefetch_distance_sweep_resumes(self, interrupt_and_rerun):
        from repro.experiments.ablation import prefetch_distance_sweep

        def run(jobs):
            return prefetch_distance_sweep(
                distances=(0, 4, 16), accesses_per_thread=300, jobs=jobs
            )

        reference, resumed = interrupt_and_rerun(run, k=1, jobs=1)
        assert _dump(resumed) == _dump(reference)


class TestStaleResultsAreNeverReplayed:
    def test_changed_calibration_resimulates(
        self, tmp_path, monkeypatch, fresh_sim_cache, exact_cache_counts, skl
    ):
        from repro.xmem import XMemConfig, characterize_machine

        slow = dataclasses.replace(
            skl,
            latency_calibration=tuple(
                (u, 2.0 * ns) for u, ns in skl.latency_calibration
            ),
        )
        assert slow.name == skl.name
        config = XMemConfig(levels=3, accesses_per_thread=300)
        fresh_sim_cache()
        original = characterize_machine(skl, config, jobs=1)

        sims = _Simulations(tmp_path / "sims.log")
        monkeypatch.setattr(cache_module, "run_trace", sims)
        cache = fresh_sim_cache()
        rerun = characterize_machine(slow, config, jobs=1)
        assert len(sims.names()) == 3
        assert cache.counters.hits == 0

        fresh_sim_cache(enabled=False)
        uncached = characterize_machine(slow, config, jobs=1)
        assert rerun.to_json() == uncached.to_json()
        assert rerun.to_json() != original.to_json()
