"""Regenerate ``sim_fingerprints.json``, the simulator's absolute goldens.

The goldens pin :meth:`~repro.sim.stats.SimStats.fingerprint` for the 18
paper cells (6 workloads x 3 machines) at the ``repro simulate``
defaults, plus the pure event-engine fingerprints of the two CoMD cells
on which the all-hit batch path is known to diverge, plus the
:func:`~repro.sim.coltrace.trace_digest` of each executable mini-app's
extracted trace on ``skl`` at the app defaults, plus the X-Mem
:class:`~repro.memory.profile.LatencyProfile` points of the three paper
machines at the default :class:`~repro.xmem.runner.XMemConfig`, plus
the Figure-1 recipe verdict of every case-study row
(:func:`~repro.experiments.figure1.reproduce_figure1`).  A golden
changes only when the simulated physics (or a trace's content, or a
recipe verdict) does, so regeneration demands a stated reason, which
belongs in the change log next to the new numbers::

    PYTHONPATH=src python tests/golden/regenerate.py --reason "<why>"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

GOLDEN_PATH = Path(__file__).resolve().parent / "sim_fingerprints.json"

WORKLOADS = ("isx", "hpcg", "pennant", "comd", "minighost", "snap")
MACHINES = ("skl", "knl", "a64fx")

#: ``repro simulate`` defaults: 2 cores x 3000 accesses, window 14,
#: default trace seed, default ``SimConfig`` otherwise.
THREADS = 2
ACCESSES_PER_THREAD = 3000
WINDOW = 14

#: Cells whose event-engine (``batch=False``) fingerprint is pinned too.
EVENT_ENGINE_CELLS = ("comd/knl", "comd/a64fx")

#: Executable mini-apps (``repro.apps``) whose extracted trace is pinned.
APPS = ("comd", "dgemm", "hpcg", "isx", "minighost", "pennant", "snap")
APP_TRACE_MACHINE = "skl"


def cell_fingerprint(cell: str, *, batch: bool = True) -> str:
    """Fingerprint of one ``workload/machine`` cell at the simulate defaults."""
    from repro.machines import get_machine
    from repro.sim import SimConfig, run_trace
    from repro.workloads import get_workload
    from repro.workloads.base import TraceSpec

    workload, machine_name = cell.split("/")
    machine = get_machine(machine_name)
    trace = get_workload(workload).generate_trace(
        machine,
        spec=TraceSpec(threads=THREADS, accesses_per_thread=ACCESSES_PER_THREAD),
    )
    config = SimConfig(
        machine=machine, sim_cores=THREADS, window_per_core=WINDOW, batch=batch
    )
    return run_trace(trace, config).fingerprint()


def app_trace_digest(app: str) -> str:
    """Content digest of one mini-app's extracted trace at its defaults."""
    from repro import apps
    from repro.machines import get_machine
    from repro.sim.coltrace import trace_digest

    app_class = getattr(apps, app.capitalize() + "App")
    trace = app_class().extract_trace(get_machine(APP_TRACE_MACHINE))
    return trace_digest(trace)


def xmem_profile_points(machine_name: str) -> List[List[float]]:
    """``[bandwidth_bytes, latency_ns]`` of one machine's default X-Mem profile."""
    from repro.machines import get_machine
    from repro.xmem import XMemConfig, characterize_machine

    profile = characterize_machine(get_machine(machine_name), XMemConfig(), jobs=1)
    return [[p.bandwidth_bytes, p.latency_ns] for p in profile.points]


def figure1_verdicts() -> List[Dict[str, Any]]:
    """Workload, step, expected benefit and agreement of each Figure-1 row."""
    from repro.experiments.figure1 import reproduce_figure1

    return [
        {
            "workload": row.workload,
            "step": row.step,
            "expected_benefit": row.expected_benefit,
            "agrees": row.agrees,
        }
        for row in reproduce_figure1().traces
    ]


def compute_goldens() -> Dict[str, Any]:
    """Every pinned value, keyed by section then cell, app or machine."""
    cells = [f"{w}/{m}" for w in WORKLOADS for m in MACHINES]
    return {
        "simulate_defaults": {cell: cell_fingerprint(cell) for cell in cells},
        "event_engine": {
            cell: cell_fingerprint(cell, batch=False) for cell in EVENT_ENGINE_CELLS
        },
        "app_traces": {app: app_trace_digest(app) for app in APPS},
        "xmem_profiles": {m: xmem_profile_points(m) for m in MACHINES},
        "figure1_verdicts": figure1_verdicts(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reason",
        required=True,
        help="why the simulated physics changed (quote it in CHANGES.md)",
    )
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must not be empty")
    doc = {
        "config": {
            "threads": THREADS,
            "accesses_per_thread": ACCESSES_PER_THREAD,
            "window_per_core": WINDOW,
        },
        **compute_goldens(),
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH.name}")
    print(f"golden regeneration reason (paste into CHANGES.md): {args.reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
