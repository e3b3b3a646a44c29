"""One benchmark pass in a fresh interpreter; see ``run.py``.

    python3 perfbench/child.py characterize --out FILE [--trace]
    python3 perfbench/child.py simulate --out FILE --seed N [--trace]
    python3 perfbench/child.py cli --out FILE -- <repro CLI arguments>

The first two run a cold workload pass into the empty cache named by
``REPRO_CACHE_DIR``; ``cli`` runs one traced ``repro`` invocation, with
its output on standard output as ``python -m repro.cli`` would print it.
Each writes one JSON document to ``--out``: the monotonic times at which
set-up ended and the pass ended, one record per operation, and under
``--trace`` the spans, profile and simulator statistics.  The parent
process does every correctness check against the reference digests.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from tracer import Tracer, install, profile_summary

#: The three machines of the paper, in its order.
MACHINES = ("skl", "knl", "a64fx")
#: The six paper workloads, in Table II order.
WORKLOADS = ("isx", "hpcg", "pennant", "comd", "minighost", "snap")
#: Accesses per thread in each ``simulate`` cell: about 5 s of simulation
#: per pass on a 2.1 GHz Xeon core.
SIM_ACCESSES = 5000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _characterize(
    ops: List[Dict[str, Any]], profiles: Dict[str, str], span: Callable[[str], Any]
) -> None:
    """Uncached X-Mem characterization of each paper machine, serially."""
    from repro.machines.registry import get_machine
    from repro.xmem.runner import XMemConfig, XMemRunner, characterize_machine

    config = XMemConfig()
    measure_level = XMemRunner.measure_level

    def timed_level(self: Any, gap_cycles: float) -> Any:
        start = time.perf_counter()
        m = measure_level(self, gap_cycles)
        value = repr((m.gap_cycles, m.bandwidth_bytes, m.latency_ns, m.utilization))
        ops.append(
            {
                "name": f"{self.machine.name}/gap{gap_cycles!r}",
                "seconds": time.perf_counter() - start,
                "value": digest(value),
                "error": None,
            }
        )
        return m

    XMemRunner.measure_level = timed_level  # type: ignore[method-assign]
    for name in MACHINES:
        done = len(ops)
        try:
            with span(f"characterize {name}"):
                profile = characterize_machine(get_machine(name), config, jobs=1)
        except Exception as exc:  # one failed machine must not hide the others
            del ops[done:]
            ops.extend(
                {"name": f"{name}/level{i}", "seconds": 0.0, "value": None,
                 "error": _error(exc)}
                for i in range(config.levels)
            )
            continue
        profiles[name] = digest(profile.to_json())


def _simulate(
    ops: List[Dict[str, Any]], seed: int, span: Callable[[str], Any]
) -> None:
    """The 18 paper cells through the ``repro simulate`` path."""
    from repro.core.analyzer import RoutineAnalyzer
    from repro.machines.registry import get_machine
    from repro.perf.cache import cached_run_trace
    from repro.sim import SimConfig
    from repro.workloads import get_workload
    from repro.workloads.base import TraceSpec

    spec = TraceSpec(threads=2, accesses_per_thread=SIM_ACCESSES, seed=seed)
    for workload_name in WORKLOADS:
        for machine_name in MACHINES:
            record: Dict[str, Any] = {"name": f"{workload_name}/{machine_name}"}
            start = time.perf_counter()
            try:
                with span(f"cell {record['name']}"):
                    machine = get_machine(machine_name)
                    trace = get_workload(workload_name).generate_trace(machine, spec=spec)
                    stats = cached_run_trace(
                        trace, SimConfig(machine=machine, sim_cores=2, window_per_core=14)
                    )
                    RoutineAnalyzer(machine).analyze_run(stats)
            except Exception as exc:  # counted as a failed operation
                record.update(seconds=time.perf_counter() - start, value=None,
                              error=_error(exc))
                ops.append(record)
                continue
            record.update(
                seconds=time.perf_counter() - start,
                value=stats.fingerprint(),
                error=None,
                littles_law_error=stats.littles_law_check(2)["relative_error"],
                batched_frac=stats.batch_accesses / max(1, stats.issued_total()),
            )
            ops.append(record)


def _sim_totals(runs: List[Any]) -> Dict[str, float]:
    """Sums over every SimStats the simulator produced in the pass."""
    totals: Dict[str, float] = dict.fromkeys(
        (
            "runs", "accesses", "events", "elapsed_ns", "batch_accesses",
            "batch_miss_accesses", "l1_hits", "l1_lookups", "l2_hits",
            "l2_lookups", "l1_integral_ns", "l1_full_ns", "l1_span_ns",
            "l2_integral_ns", "l2_full_ns", "l2_span_ns", "mem_requests",
            "mem_latency_sum_ns", "mem_latency_count", "prefetches",
        ),
        0,
    )
    for s in runs:
        totals["runs"] += 1
        totals["accesses"] += s.issued_total()
        totals["events"] += s.events_fired
        totals["elapsed_ns"] += s.elapsed_ns
        totals["batch_accesses"] += s.batch_accesses
        totals["batch_miss_accesses"] += s.batch_miss_accesses
        totals["l1_hits"] += s.l1.hits
        totals["l1_lookups"] += s.l1.accesses
        totals["l2_hits"] += s.l2.hits
        totals["l2_lookups"] += s.l2.accesses
        for level, trackers in (("l1", s.l1_occupancy), ("l2", s.l2_occupancy)):
            for t in trackers:
                totals[f"{level}_integral_ns"] += t.integral_ns
                totals[f"{level}_full_ns"] += t.full_time_ns
                totals[f"{level}_span_ns"] += s.elapsed_ns
        totals["mem_requests"] += s.memory.requests
        totals["mem_latency_sum_ns"] += s.memory.latency_sum_ns
        totals["mem_latency_count"] += s.memory.latency_count
        totals["prefetches"] += s.hw_prefetches_issued
    return totals


def _trace_record(tracer: Tracer, profile: cProfile.Profile) -> Dict[str, Any]:
    from repro.perf.cache import get_cache

    counters = get_cache().counters
    return {
        "spans": tracer.spans,
        "profile": profile_summary(profile),
        "sim": _sim_totals(tracer.sim_runs),
        "cache": {"hits": counters.hits, "misses": counters.misses},
    }


def _check_source(src: Path) -> None:
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("characterize", "simulate", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]
    src = Path(__file__).resolve().parent.parent / "src"

    tracer = Tracer() if args.trace or args.mode == "cli" else None
    rebind = install(tracer) if tracer is not None else None
    profile = cProfile.Profile()
    result: Dict[str, Any] = {"ops": []}

    if args.mode == "cli":
        assert tracer is not None and rebind is not None
        with tracer.span("cli.import"):
            import repro.cli
        _check_source(src)
        rebind()
        result["ready"] = time.monotonic()
        profile.enable()
        with tracer.span("cli.main"):
            try:
                code = repro.cli.main(cli_args)
            finally:
                profile.disable()
                sys.stdout.flush()
    else:
        import repro.perf.cache  # noqa: F401  (set-up: the library import)

        _check_source(src)
        if args.mode == "characterize":
            import repro.xmem.runner  # noqa: F401
        else:
            import repro.core.analyzer  # noqa: F401
            import repro.workloads  # noqa: F401
        if rebind is not None:
            rebind()
        result["ready"] = time.monotonic()
        if tracer is not None:
            profile.enable()
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        try:
            if args.mode == "characterize":
                _characterize(result["ops"], result.setdefault("profiles", {}), span)
            else:
                _simulate(result["ops"], args.seed, span)
        finally:
            if tracer is not None:
                profile.disable()
        code = 0
    result["done"] = time.monotonic()
    if tracer is not None:
        result["trace"] = _trace_record(tracer, profile)
    Path(args.out).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
