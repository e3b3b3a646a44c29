"""Append one end-to-end point to the benchmark ledger ``BENCH_e2e.json``.

Usage::

    python3 benchmarks/record_trajectory.py

It takes no options and measures nothing itself.  For every workload in
``BENCHMARK.json`` it runs ``perfbench/run.py`` over seeds 1-10 (the
seeds ``perfbench/baseline.json`` uses) and once traced, through
``perfbench/spread.py``'s ``one_run`` and ``summarise``, then appends
one record to the ledger at the repo root:

* ``end_to_end``: the median, q1 and q3 of each end-to-end metric, per
  workload;
* ``layers``: per workload, the profiled self time of the traced run,
  each module's share of it (the ``*.self_s`` metrics), and the traced
  run's span seconds (``cli.import_s``, ``sim.run_s``, ...);
* ``git_sha`` and ``dirty`` (uncommitted changes in the tree), the UTC
  ``date`` and the ``schema_version``.

If any run reports a failed operation, nothing is appended and the
script exits 1.  The ledger is a JSON list that only grows; an
unreadable one is kept as ``BENCH_e2e.json.corrupt`` and a fresh list
is started.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import spread  # noqa: E402

LEDGER = REPO_ROOT / "BENCH_e2e.json"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
SEEDS = list(range(1, 11))
TRACE_SEED = 1

#: Bumped when a record's shape changes; readers can dispatch on it.
SCHEMA_VERSION = 1


def _git(*args: str) -> Optional[str]:
    """Standard output of one git command in the repo, or None."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def load_history(path: Path) -> list:
    """The existing trajectory, or a fresh one if the file is unusable.

    The trajectory file is an accumulating artifact that survives
    branch switches, merges, and interrupted runs — a corrupt or
    missing file must cost one warning, not the measurement that was
    just taken.  The unusable original is preserved next to the new
    file as ``<name>.corrupt`` so nothing is silently destroyed.
    """
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        problem = f"unreadable ({exc})"
        history = None
    else:
        if isinstance(history, list):
            return history
        problem = f"not a JSON list (got {type(history).__name__})"
    backup = path.with_suffix(path.suffix + ".corrupt")
    try:
        path.replace(backup)
        kept = f"; original kept at {backup.name}"
    except OSError:
        kept = ""
    print(
        f"warning: {path.name} is {problem}; starting a fresh trajectory{kept}",
        file=sys.stderr,
    )
    return []


def append_point(path: Path, entry: dict) -> None:
    """Append one record to the trajectory file (never overwrites data)."""
    history = load_history(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


def _layers(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Where a traced run's time went: module shares and span seconds."""
    self_s = {
        name[: -len(".self_s")]: metric["value"]
        for name, metric in metrics.items()
        if name.endswith(".self_s")
    }
    total = sum(self_s.values())
    return {
        "profiled_s": total,
        "shares": {m: (s / total if total else 0.0) for m, s in self_s.items()},
        "spans_s": {
            name: metric["value"]
            for name, metric in metrics.items()
            if name.endswith("_s") and not name.endswith(".self_s")
        },
    }


def record() -> Optional[dict]:
    """Run the benchmark and build one ledger record; None if an op failed."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    spec = json.loads(BENCHMARK.read_text())
    metric_names = [m["name"] for m in spec["end_to_end"]]
    end_to_end: Dict[str, Any] = {}
    layers: Dict[str, Any] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            spread.one_run(workload, seed, spec["run_seconds"], False)
            for seed in SEEDS
        ]
        traced = spread.one_run(workload, TRACE_SEED, spec["run_seconds"], True)
        failed = sum(r["failed"] for r in [*runs, traced])
        if failed:
            print(f"{workload}: {failed} operation(s) failed; nothing appended")
            return None
        end_to_end[workload] = {}
        for name in metric_names:
            s = spread.summarise([r["metrics"][name]["value"] for r in runs])
            end_to_end[workload][name] = {k: s[k] for k in ("median", "q1", "q3")}
        layers[workload] = _layers(traced["metrics"])
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": sha.strip() if sha else "unknown",
        "dirty": bool(status.strip()) if status is not None else None,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": SEEDS,
        "trace_seed": TRACE_SEED,
        "run_seconds": spec["run_seconds"],
        "end_to_end": end_to_end,
        "layers": layers,
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    entry = record()
    if entry is None:
        return 1
    append_point(LEDGER, entry)
    dirty = " (dirty tree)" if entry["dirty"] else ""
    print(f"appended {entry['git_sha'][:12]}{dirty} point to {LEDGER.name}")
    for workload, metrics in entry["end_to_end"].items():
        for name, s in metrics.items():
            print(
                f"  {workload:18s} {name:12s} median {s['median']:.5g}  "
                f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
