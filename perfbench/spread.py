"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload simulate_matrix --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --baseline

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  ``--trace`` summarises a traced run
per seed instead.  ``--baseline`` stores the summary, and with
``--trace`` the simulated counts of each seed, in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
BASELINE = run.BENCH_DIR / "baseline.json"
#: Per-layer metrics that count simulated work (host times, ``*_s``, are
#: excluded); they must repeat exactly.
SIMULATED_PREFIXES = (
    "sim.accesses", "sim.events", "sim.elapsed_ns", "sim.batch.", "sim.cache.",
    "sim.mshr.", "sim.memctrl.", "sim.prefetcher.issued",
    "memory.latency_model.calls", "sim.stats.calls",
)


def is_simulated(name: str) -> bool:
    return name.startswith(SIMULATED_PREFIXES) and not name.endswith("_s")


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOAD_FUNCS) + ["all"])
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    low, _, high = args.seeds.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    workloads = sorted(run.WORKLOAD_FUNCS) if args.workload == "all" else [args.workload]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    status = 0
    for workload in workloads:
        results = [one_run(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(seeds)} runs, {failed} of {attempted} operations failed")
        status |= bool(failed)
        if args.trace:
            counts = {
                str(seed): {name: m["value"] for name, m in r["metrics"].items()
                            if is_simulated(name)}
                for seed, r in zip(seeds, results)
            }
            for name in sorted(results[0]["metrics"]):
                values = [r["metrics"][name]["value"] for r in results]
                print(f"  {name:40s} median {statistics.median(values):.6g}")
            baseline.setdefault("simulated", {})[workload] = counts
            continue
        summary = {}
        for name in results[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in results])
            summary[name] = s
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  WIDE"
            print(f"  {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {bounds[name]}{flag}"
                  f"  values {' '.join(f'{v:.4g}' for v in s['values'])}")
        baseline.setdefault("end_to_end", {})[workload] = {"seeds": seeds, **summary}
    if args.baseline:
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(run.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
