"""X-Mem runner: sweep load levels and emit a machine's LatencyProfile.

This is the reproduction of the paper's once-per-machine
characterization step (Section IV): "we obtain the latency profile for
a processor using X-Mem, which lists the observed memory latency at
many values of bandwidth utilization (configured using user-specified
load on system through inserted delays or through thread-level
parallelism — this does not require root privileges)".

The runner simulates a small machine slice per load level, records the
achieved bandwidth and the average loaded latency observed at the
memory controller, and assembles the samples into a
:class:`~repro.memory.profile.LatencyProfile`.  Because the simulated
controller's latency comes from the machine's calibrated curve, the
measured profile recovers that curve (plus admission-queueing effects
near saturation) — closing the characterize→analyze loop end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ProfileError
from ..machines.spec import MachineSpec
from ..memory.profile import LatencyProfile
from ..perf.cache import cached_run_trace, stable_digest
from ..resilience.checkpoint import (
    SweepCheckpoint,
    dataclass_codec,
    run_checkpointed,
)
from ..sim.hierarchy import SimConfig
from .kernels import gap_sweep, throughput_trace


@dataclass(frozen=True)
class XMemMeasurement:
    """One load level's outcome."""

    gap_cycles: float
    bandwidth_bytes: float
    latency_ns: float
    utilization: float


@dataclass(frozen=True)
class XMemConfig:
    """Characterization sweep settings.

    ``sim_cores`` controls the simulated slice; the achieved bandwidths
    are scaled back to full-socket numbers so the resulting profile is
    directly usable with full-socket observed bandwidths.  Each level
    runs at the default :class:`~repro.sim.hierarchy.SimConfig`
    execution strategy; the batch-stepping fast path never engages on
    these streaming traces, so the event engine decides every profile.
    """

    sim_cores: int = 2
    accesses_per_thread: int = 3000
    streams_per_thread: int = 8
    levels: int = 12
    max_gap_cycles: float = 400.0
    hw_prefetch: bool = True
    window_per_core: int = 32


class XMemRunner:
    """Sweeps load levels on one machine and builds its latency profile."""

    def __init__(self, machine: MachineSpec, config: Optional[XMemConfig] = None):
        self.machine = machine
        self.config = config or XMemConfig()
        if self.config.sim_cores > machine.active_cores:
            raise ProfileError("sim_cores exceeds machine cores")

    def measure_level(self, gap_cycles: float) -> XMemMeasurement:
        """Run one load level and return its (bandwidth, latency) sample."""
        cfg = self.config
        trace = throughput_trace(
            threads=cfg.sim_cores,
            accesses_per_thread=cfg.accesses_per_thread,
            line_bytes=self.machine.line_bytes,
            streams_per_thread=cfg.streams_per_thread,
            gap_cycles=gap_cycles,
            routine=f"xmem_gap{gap_cycles:.0f}",
        )
        sim_cfg = SimConfig(
            machine=self.machine,
            sim_cores=cfg.sim_cores,
            threads_per_core=1,
            window_per_core=cfg.window_per_core,
            hw_prefetch=cfg.hw_prefetch,
        )
        stats = cached_run_trace(trace, sim_cfg)
        slice_fraction = cfg.sim_cores / self.machine.active_cores
        socket_bw = stats.bandwidth_bytes_per_s() / slice_fraction
        return XMemMeasurement(
            gap_cycles=gap_cycles,
            bandwidth_bytes=socket_bw,
            latency_ns=stats.memory.avg_latency_ns,
            utilization=socket_bw / self.machine.memory.peak_bw_bytes,
        )

    def _level_key(self, gap_cycles: float) -> str:
        """Stable checkpoint key for one load level of this sweep."""
        return stable_digest(
            {
                "harness": "xmem",
                "machine": self.machine.name,
                "config": self.config,
                "gap_cycles": gap_cycles,
            }
        )

    def sweep(
        self,
        *,
        jobs: Optional[int] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        retries: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> List[XMemMeasurement]:
        """Measure all load levels, near-idle to saturation.

        Load levels are independent simulations, so with ``jobs > 1``
        they fan out across worker processes
        (:func:`repro.perf.parallel.fan_out`); the measurement order —
        and therefore the profile — is identical for any worker count.

        With a ``checkpoint`` each completed level is durably recorded
        (keyed by a digest of machine + sweep config + gap), so a run
        killed mid-characterization resumes exactly where it stopped —
        and returns byte-identical measurements to an uninterrupted run.
        """
        gaps = gap_sweep(self.config.levels, max_gap_cycles=self.config.max_gap_cycles)
        encode, decode = dataclass_codec(XMemMeasurement)
        return run_checkpointed(
            self.measure_level,
            gaps,
            checkpoint=checkpoint,
            key_fn=self._level_key,
            encode=encode,
            decode=decode,
            jobs=jobs,
            retries=retries,
            timeout_s=timeout_s,
        )

    def characterize(
        self,
        *,
        jobs: Optional[int] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        retries: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> LatencyProfile:
        """Produce this machine's measured LatencyProfile.

        An explicit near-zero-load anchor (idle latency) is added so the
        profile's domain starts at zero bandwidth.  ``checkpoint``,
        ``retries`` and ``timeout_s`` pass through to :meth:`sweep`.
        """
        measurements = self.sweep(
            jobs=jobs, checkpoint=checkpoint, retries=retries, timeout_s=timeout_s
        )
        samples: List[Tuple[float, float]] = [
            (m.bandwidth_bytes, m.latency_ns) for m in measurements
        ]
        idle = min(m.latency_ns for m in measurements)
        samples.append((0.0, idle))
        return LatencyProfile.from_samples(
            self.machine.name,
            self.machine.memory.peak_bw_bytes,
            samples,
            source="xmem",
        )


def characterize_machine(
    machine: MachineSpec,
    config: Optional[XMemConfig] = None,
    *,
    jobs: Optional[int] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    retries: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> LatencyProfile:
    """One-call characterization: the paper's per-machine prerequisite."""
    return XMemRunner(machine, config).characterize(
        jobs=jobs, checkpoint=checkpoint, retries=retries, timeout_s=timeout_s
    )
