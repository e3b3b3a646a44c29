"""Absolute simulator goldens (``tests/golden/sim_fingerprints.json``).

Equivalence tests only prove two code paths agree with each other; these
pin what the simulator produces, so a change that moves both paths the
same way still fails.  The ``app_traces`` section pins the content of
every executable mini-app's extracted trace the same way, and
``xmem_profiles`` the three paper machines' default X-Mem latency
profiles (the paper's once-per-machine prerequisite), and
``figure1_verdicts`` the recipe's verdict on every Figure-1 row in
order.  Regenerate with ``tests/golden/regenerate.py`` (which demands
a reason) only when the simulated physics, a trace's content or a
recipe verdict is meant to change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", _GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate = _load_regenerate()
GOLDENS = json.loads(regenerate.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", sorted(GOLDENS["simulate_defaults"]))
def test_simulate_defaults_fingerprint(cell):
    expected = GOLDENS["simulate_defaults"][cell]
    assert regenerate.cell_fingerprint(cell) == expected


@pytest.mark.parametrize("cell", sorted(GOLDENS["event_engine"]))
def test_event_engine_fingerprint(cell):
    expected = GOLDENS["event_engine"][cell]
    assert regenerate.cell_fingerprint(cell, batch=False) == expected


@pytest.mark.parametrize("app", sorted(GOLDENS["app_traces"]))
def test_app_trace_digest(app):
    assert regenerate.app_trace_digest(app) == GOLDENS["app_traces"][app]


@pytest.mark.parametrize("machine", sorted(GOLDENS["xmem_profiles"]))
def test_xmem_profile_points(machine):
    expected = GOLDENS["xmem_profiles"][machine]
    assert regenerate.xmem_profile_points(machine) == expected


def test_figure1_verdicts():
    assert regenerate.figure1_verdicts() == GOLDENS["figure1_verdicts"]


def test_goldens_cover_the_paper_matrix():
    assert GOLDENS["config"] == {
        "threads": regenerate.THREADS,
        "accesses_per_thread": regenerate.ACCESSES_PER_THREAD,
        "window_per_core": regenerate.WINDOW,
    }
    cells = {
        f"{w}/{m}" for w in regenerate.WORKLOADS for m in regenerate.MACHINES
    }
    assert set(GOLDENS["simulate_defaults"]) == cells
    assert set(GOLDENS["event_engine"]) == set(regenerate.EVENT_ENGINE_CELLS)
    assert set(GOLDENS["app_traces"]) == set(regenerate.APPS)
    assert set(GOLDENS["xmem_profiles"]) == set(regenerate.MACHINES)


def test_regenerate_requires_reason(capsys):
    with pytest.raises(SystemExit) as exc:
        regenerate.main([])
    assert exc.value.code == 2
    assert "--reason" in capsys.readouterr().err
