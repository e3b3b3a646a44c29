"""Absolute simulator goldens (``tests/golden/sim_fingerprints.json``).

Equivalence tests only prove two code paths agree with each other; these
pin what the simulator produces, so a change that moves both paths the
same way still fails.  Regenerate with ``tests/golden/regenerate.py``
(which demands a reason) only when the simulated physics is meant to
change.
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


def test_regenerate_requires_reason(capsys):
    with pytest.raises(SystemExit) as exc:
        regenerate.main([])
    assert exc.value.code == 2
    assert "--reason" in capsys.readouterr().err
