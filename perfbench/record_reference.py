"""Record the reference digests that ``run.py`` checks outputs against.

    python3 perfbench/record_reference.py --reason "why the outputs changed"

Writes ``perfbench/reference.json``:

* ``xmem``: a digest of every X-Mem load-level measurement and of each
  machine's latency profile (seed-independent);
* ``simulate_matrix``: ``SimStats.fingerprint()`` of the 18 paper cells for
  each seed in :data:`SEEDS`;
* ``cli_warm``: a digest of each warm query's standard output, with
  host-time figures and the cache path masked, for each seed.

Seeds outside the recorded range are still checked, by Little's law and
by pass-to-pass equality.  Re-record only when an output change is
intended, and give the reason; it is stored in the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable

import run


#: Seeds with recorded simulate_matrix and cli_warm digests.
SEEDS = range(32)


def _result(child: run.Child) -> Dict[str, Any]:
    if child.code != 0 or child.result is None:
        raise run.Fatal(f"child exited {child.code}: {child.stderr}")
    return child.result


def record(seeds: Iterable[int], reason: str) -> Dict[str, Any]:
    runner = run.Runner("reference", 0, deadline_s=7 * 24 * 3600.0)
    python = sys.executable
    try:
        res = _result(runner.spawn([python, "perfbench/child.py", "characterize"],
                                   runner.fresh_dir("cache"), result=True))
        levels = {}
        for op in res["ops"]:
            if op["error"]:
                raise run.Fatal(f"{op['name']}: {op['error']}")
            levels[op["name"]] = op["value"]
        xmem = {"levels": levels, "profiles": res["profiles"]}

        matrix: Dict[str, Dict[str, str]] = {}
        for seed in seeds:
            res = _result(runner.spawn(
                [python, "perfbench/child.py", "simulate", "--seed", str(seed)],
                runner.fresh_dir("cache"), result=True))
            cells = {}
            for op in res["ops"]:
                if op["error"] or not op["littles_law_error"] < run.LITTLES_LAW_TOL:
                    raise run.Fatal(f"seed {seed} {op['name']}: {op['error']}")
                cells[op["name"]] = op["value"]
            matrix[str(seed)] = cells

        # One cache serves every seed: a query's warm output does not
        # depend on which other entries the cache holds.
        cache = runner.fresh_dir("cache")
        cli: Dict[str, Dict[str, str]] = {}
        for seed in seeds:
            queries = run.cli_queries(seed)
            digests = {}
            for warm in (False, True):
                for query in queries:
                    child = runner.spawn([python, "-m", "repro.cli"] + query, cache)
                    if child.code != 0:
                        raise run.Fatal(f"`repro {' '.join(query)}` exited {child.code}")
                    if warm:
                        masked = run.mask_host_figures(child.stdout)
                        digests[" ".join(query)] = run.digest(masked)
            cli[str(seed)] = digests
    finally:
        runner.cleanup()
    return {"reason": reason, "xmem": xmem, "simulate_matrix": matrix, "cli_warm": cli}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reason", required=True)
    args = parser.parse_args()
    reference = record(SEEDS, args.reason)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
