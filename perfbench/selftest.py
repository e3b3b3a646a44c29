"""Show that the output checks catch a wrong answer and a failing program.

    python3 perfbench/selftest.py

Runs one pass of each workload against a copy of ``reference.json`` in
which one digest is perturbed, and exits 0 only if each run reports
exactly that operation in ``failed`` and ``correct`` as false.  Then it
runs ``cli_warm`` with one query the CLI rejects, and ``simulate_matrix``
with pass processes that cannot import ``repro``, and requires every
operation of those to be counted as failed.
"""

from __future__ import annotations

import copy
import json
import sys
from typing import Any, Callable, Dict, List, Tuple

import run

SEED = 0


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def _perturb_level(ref: Dict[str, Any]) -> str:
    name = sorted(ref["xmem"]["levels"])[0]
    ref["xmem"]["levels"][name] = _flip(ref["xmem"]["levels"][name])
    return name


def _perturb_cell(ref: Dict[str, Any]) -> str:
    cells = ref["simulate_matrix"][str(SEED)]
    cells["snap/a64fx"] = _flip(cells["snap/a64fx"])
    return "snap/a64fx"


def _perturb_query(ref: Dict[str, Any]) -> str:
    queries = ref["cli_warm"][str(SEED)]
    name = " ".join(run.cli_queries(SEED)[-1])
    queries[name] = _flip(queries[name])
    return name


CASES: Dict[str, Callable[[Dict[str, Any]], str]] = {
    "characterize_cold": _perturb_level,
    "simulate_matrix": _perturb_cell,
    "cli_warm": _perturb_query,
}


def _bad_query() -> Dict[str, Any]:
    """``cli_warm`` with a query that exits nonzero, in warm-up and pass."""
    queries = run.cli_queries
    run.cli_queries = lambda seed: queries(seed) + [["no-such-command"]]
    try:
        return run.run("cli_warm", SEED, 0.0, False)[0]
    finally:
        run.cli_queries = queries


def _no_sources() -> Dict[str, Any]:
    """``simulate_matrix`` whose pass processes crash on ``import repro``."""
    env = run.Runner.env
    run.Runner.env = lambda self, cache: {  # type: ignore[method-assign]
        **env(self, cache), "PYTHONPATH": str(run.WORK / "no-such-src")}
    try:
        return run.run("simulate_matrix", SEED, 0.0, False)[0]
    finally:
        run.Runner.env = env  # type: ignore[method-assign]


#: Failing-program cases: label, run, and the failed operations it must report.
CRASHES: List[Tuple[str, Callable[[], Dict[str, Any]], int]] = [
    ("cli_warm with a rejected query", _bad_query, 2),
    ("simulate_matrix without repro", _no_sources, 18),
]


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())
    run.MIN_OPS = 1  # one pass is enough to show the check
    ok = True
    for workload, perturb in CASES.items():
        ref = copy.deepcopy(reference)
        name = perturb(ref)
        result, record = run.run(workload, SEED, 0.0, False, reference=ref)
        caught = (result["failed"] == 1 and not result["correct"]
                  and record.failures[0].startswith(name + ":"))
        ok &= caught
        print(f"{workload}: perturbed {name!r} -> failed {result['failed']} of "
              f"{result['attempted']} ({'caught' if caught else 'NOT CAUGHT'})")
    for label, case, failed in CRASHES:
        result = case()
        caught = result["failed"] == failed and not result["correct"]
        ok &= caught
        print(f"{label}: failed {result['failed']} of {result['attempted']} "
              f"({'caught' if caught else 'NOT CAUGHT'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
