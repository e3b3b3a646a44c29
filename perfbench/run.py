"""End-to-end and per-layer benchmark of the ``repro`` tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh, single-threaded
Python process (``REPRO_JOBS=1``, one BLAS/OpenMP thread), one process at a
time, against a cache directory under ``.perfbench/``:

* ``characterize_cold``: ``characterize_machine`` with the default
  ``XMemConfig`` on skl, knl and a64fx into an empty cache.  Its inputs
  are deterministic strided streams, so it ignores ``--seed``.
* ``simulate_matrix``: the 6 paper workloads x 3 machines through the
  ``repro simulate`` path (``generate_trace``, ``cached_run_trace`` into an
  empty cache, ``RoutineAnalyzer.analyze_run``) with ``TraceSpec.seed`` set
  to ``--seed``.
* ``cli_warm``: fresh ``python -m repro.cli`` invocations against a cache
  warmed by the same queries; ``--seed`` picks the machine, workload,
  pattern and bandwidth arguments.

``--trace 0`` repeats passes for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs one traced and one plain pass, prints the
per-layer metrics (host times from the traced pass, simulated counts from
``SimStats``) with the tracing overhead, and writes the spans as Chrome
trace-event JSON to ``.perfbench/trace-<workload>-seed<N>.json``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from child import MACHINES, WORKLOADS, digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

#: Peak memory bandwidth in GB/s (paper Table III), for drawing
#: ``analyze --bandwidth`` arguments without importing ``repro`` here.
PEAK_GBS = {"skl": 128.0, "knl": 400.0, "a64fx": 1024.0}

#: A plain run makes at least this many operations, so at least ten
#: samples lie beyond the 80th percentile reported as ``op_tail_s``.
MIN_OPS = 55
TAIL_PERCENTILE = 80
#: Little's-law bound of the test suite, for runs without a reference.
LITTLES_LAW_TOL = 0.05
#: A run starts no pass that its longest pass so far says would end
#: after ``RUN_DEADLINE_S``, and kills a child still running then.
RUN_DEADLINE_S = 170.0

_WALL_TIME = re.compile(r"\d+(?:\.\d+)?s wall")
_CACHE_DIR = re.compile(r"^(sim cache: .*) \(.*\)$", re.MULTILINE)


class Fatal(Exception):
    """The benchmark itself cannot run; no result is printed."""


def mask_host_figures(stdout: str) -> str:
    """CLI output with wall-clock times and the cache path masked."""
    return _CACHE_DIR.sub(r"\1 (<cache>)", _WALL_TIME.sub("<t>s wall", stdout))


def cli_queries(seed: int) -> List[List[str]]:
    """The fixed ``cli_warm`` query list; ``seed`` picks the arguments."""
    rng = random.Random(seed)
    machine = rng.choice(MACHINES)
    workload = rng.choice(WORKLOADS)
    pattern = rng.choice(("streaming", "random"))
    bandwidth = f"{rng.uniform(0.1, 0.8) * PEAK_GBS[machine]:.1f}"
    analyze = ["analyze", "--machine", machine, "--bandwidth", bandwidth,
               "--pattern", pattern]
    return [
        ["machines"],
        analyze,
        analyze + ["--fast"],
        ["advisor", "--machine", machine, "--workload", workload, "--fast"],
        ["reproduce", "--table", workload],
        ["characterize", "--machine", machine],
        ["simulate", "--machine", machine, "--workload", workload],
        ["characterize", "--machine", machine, "--fast"],
    ]


# -- child processes ---------------------------------------------------------------


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    start: float
    end: float
    rss_mb: float
    killed: bool = False
    result: Optional[Dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def problem(self) -> Optional[str]:
        """Why the child failed, or ``None`` if it exited 0."""
        if self.code == 0:
            return None
        if self.killed:
            return "killed at the run deadline"
        last = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit status {self.code} {last[0]}".rstrip()


class Runner:
    """Starts one child at a time and waits for it; owns the scratch space."""

    def __init__(self, workload: str, seed: int, deadline_s: float = RUN_DEADLINE_S) -> None:
        self.started = time.monotonic()
        self.deadline_s = deadline_s
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self._count = 0

    def time_left(self) -> float:
        return self.deadline_s - (time.monotonic() - self.started)

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        return self.dir / f"{label}{self._count}"

    def env(self, cache_dir: Path) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=str(cache_dir),
            REPRO_JOBS="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return env

    def spawn(self, argv: List[str], cache_dir: Path, *, result: bool = False) -> Child:
        """Run ``argv`` to completion.

        With ``result``, ``argv`` runs ``child.py``: its ``--out`` file is
        read into :attr:`Child.result` when the child wrote one.
        """
        io_dir = self.fresh_dir("io")
        io_dir.mkdir(parents=True)
        out_json = io_dir / "result.json"
        if result:
            argv = argv[:3] + ["--out", str(out_json)] + argv[3:]
        with open(io_dir / "stdout", "wb") as out, open(io_dir / "stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env(cache_dir),
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(max(self.time_left(), 0.5), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(
            code=proc.returncode,
            stdout=(io_dir / "stdout").read_text(errors="replace"),
            stderr=(io_dir / "stderr").read_text(errors="replace")[-2000:],
            start=start,
            end=end,
            rss_mb=usage.ru_maxrss / 1024.0,
            killed=self.time_left() <= 0.0,
        )
        if result and out_json.is_file():
            child.result = json.loads(out_json.read_text())
        shutil.rmtree(io_dir)
        return child

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- a run's record ----------------------------------------------------------------


@dataclass
class Record:
    """Operations and timings gathered over one run."""

    op_seconds: List[float] = field(default_factory=list)
    untimed: int = 0
    failures: List[str] = field(default_factory=list)
    pass_walls: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def op(self, name: str, seconds: float, problem: Optional[str]) -> None:
        self.op_seconds.append(seconds)
        if problem:
            self.failures.append(f"{name}: {problem}")

    def fail(self, name: str, problem: str) -> None:
        """An operation that failed without a time of its own."""
        self.untimed += 1
        self.failures.append(f"{name}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.op_seconds) + self.untimed


def _check(value: Any, expected: Optional[str], seen: Dict[str, Any], name: str) -> Optional[str]:
    """Compare with the reference, else with this run's first pass."""
    if expected is not None:
        return None if value == expected else "differs from the reference digest"
    first = seen.setdefault(name, value)
    return None if value == first else "differs from this run's first pass"


#: One pass, called as ``one_pass(traced)``: the pass's children and its
#: wall time, ``None`` when it failed before it could be timed.
Pass = Callable[[bool], Tuple[List[Child], Optional[float]]]


def _repeat(runner: Runner, one_pass: Pass, seconds: float, traced: bool,
            record: Record) -> Tuple[List[Child], Optional[float]]:
    """Run the passes; return the traced pass's children and tracing overhead.

    Plain: passes until ``seconds`` have passed and ``MIN_OPS`` operations
    ran.  Traced: one traced pass, then one plain pass; the overhead is the
    difference of their wall times.  No pass starts that the longest pass
    so far says would end after the run deadline, so a slow program still
    reports the passes it finished.
    """
    longest = 0.0

    def timed(trace: bool) -> Tuple[List[Child], Optional[float]]:
        nonlocal longest
        start = time.monotonic()
        done = one_pass(trace)
        longest = max(longest, time.monotonic() - start)
        return done

    def fits() -> bool:
        if runner.time_left() > 1.25 * longest:
            return True
        record.notes.append(f"no further pass: one takes up to {longest:.1f} s and "
                            f"{runner.time_left():.1f} s are left before the run deadline")
        return False

    if traced:
        children, traced_wall = timed(True)
        plain_wall = timed(False)[1] if fits() else None
        if traced_wall is None or plain_wall is None:
            record.notes.append("no tracing overhead: a pass failed or did not run; "
                                "trace.overhead_s reads 0")
            return children, None
        record.notes.append(
            f"tracing overhead: traced pass {traced_wall:.3f} s vs plain pass "
            f"{plain_wall:.3f} s; per-layer host times are measured under the profiler"
        )
        return children, traced_wall - plain_wall
    first = time.monotonic()
    while True:
        timed(False)
        if time.monotonic() - first >= seconds and record.attempted >= MIN_OPS:
            return [], None
        if not fits():
            return [], None


def _cold_passes(runner: Runner, argv: List[str], names: List[str],
                 check: Callable[[Dict[str, Any], Dict[str, Any]], Optional[str]],
                 seconds: float, traced: bool, record: Record) -> Tuple[List[Child], Optional[float]]:
    """Passes of ``child.py`` in a fresh process, each into an empty cache.

    A pass that exits nonzero or writes no result fails each of its
    operations, ``names``.
    """

    def one_pass(trace: bool) -> Tuple[List[Child], Optional[float]]:
        child = runner.spawn(argv + (["--trace"] if trace else []),
                             runner.fresh_dir("cache"), result=True)
        record.rss_mb.append(child.rss_mb)
        res = child.result
        if child.code != 0 or res is None:
            problem = child.problem() or "wrote no result"
            for name in names:
                record.fail(name, f"pass failed: {problem}")
            return [child], None
        for op in res["ops"]:
            record.op(op["name"], op["seconds"], op["error"] or check(op, res))
        wall = res["done"] - res["ready"]
        record.setups.append(res["ready"] - child.start)
        record.pass_walls.append(wall)
        return [child], wall

    return _repeat(runner, one_pass, seconds, traced, record)


# -- workloads ---------------------------------------------------------------------


def characterize_cold(runner: Runner, ref: Dict[str, Any], seed: int, seconds: float,
                      traced: bool, record: Record) -> Tuple[List[Child], Optional[float]]:
    """Passes of uncached ``characterize_machine`` on the paper machines."""
    del seed  # deterministic strided streams: no seeded input
    levels, profiles = ref["xmem"]["levels"], ref["xmem"]["profiles"]

    def check(op: Dict[str, Any], res: Dict[str, Any]) -> Optional[str]:
        if op["value"] != levels.get(op["name"]):
            return "level differs from the reference digest"
        machine = op["name"].split("/")[0]
        if res["profiles"].get(machine) != profiles[machine]:
            return "profile differs from the reference digest"
        return None

    argv = [sys.executable, "perfbench/child.py", "characterize"]
    return _cold_passes(runner, argv, list(levels), check, seconds, traced, record)


def simulate_matrix(runner: Runner, ref: Dict[str, Any], seed: int, seconds: float,
                    traced: bool, record: Record) -> Tuple[List[Child], Optional[float]]:
    """Passes of the 18-cell paper matrix through the ``simulate`` path."""
    expected = ref["simulate_matrix"].get(str(seed), {})
    seen: Dict[str, Any] = {}
    if not expected:
        record.notes.append(f"no reference for seed {seed}: Little's law and "
                            "pass-to-pass equality checked instead")

    def check(op: Dict[str, Any], _: Dict[str, Any]) -> Optional[str]:
        if not op["littles_law_error"] < LITTLES_LAW_TOL:
            return f"Little's law error {op['littles_law_error']:.3g}"
        return _check(op["value"], expected.get(op["name"]), seen, op["name"])

    argv = [sys.executable, "perfbench/child.py", "simulate", "--seed", str(seed)]
    names = [f"{w}/{m}" for w in WORKLOADS for m in MACHINES]
    return _cold_passes(runner, argv, names, check, seconds, traced, record)


def cli_warm(runner: Runner, ref: Dict[str, Any], seed: int, seconds: float,
             traced: bool, record: Record) -> Tuple[List[Child], Optional[float]]:
    """Fresh ``repro`` invocations against a cache warmed by the same queries."""
    queries = cli_queries(seed)
    expected = ref["cli_warm"].get(str(seed), {})
    seen: Dict[str, Any] = {}
    if not expected:
        record.notes.append(f"no reference for seed {seed}: exit status and "
                            "pass-to-pass equality checked instead")
    cli = [sys.executable, "-m", "repro.cli"]
    cache = runner.fresh_dir("cache")
    start = time.monotonic()
    for query in queries:
        problem = runner.spawn(cli + query, cache).problem()
        if problem:
            record.fail(f"warm-up {' '.join(query)}", problem)
    record.setups.append(time.monotonic() - start)

    def one_pass(trace: bool) -> Tuple[List[Child], Optional[float]]:
        children = []
        for query in queries:
            if trace:
                argv = [sys.executable, "perfbench/child.py", "cli", "--"] + query
                child = runner.spawn(argv, cache, result=True)
            else:
                child = runner.spawn(cli + query, cache)
            name = " ".join(query)
            problem = child.problem()
            if problem is None:
                masked = digest(mask_host_figures(child.stdout))
                problem = _check(masked, expected.get(name), seen, name)
            record.op(name, child.seconds, problem)
            children.append(child)
        record.rss_mb.append(max(child.rss_mb for child in children))
        wall = children[-1].end - children[0].start
        record.pass_walls.append(wall)
        return children, wall

    return _repeat(runner, one_pass, seconds, traced, record)


WORKLOAD_FUNCS = {
    "characterize_cold": characterize_cold,
    "simulate_matrix": simulate_matrix,
    "cli_warm": cli_warm,
}


# -- metrics -----------------------------------------------------------------------


def percentile(values: List[float], pct: int) -> float:
    """Inclusive linear-interpolation percentile (as ``statistics.quantiles``)."""
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _median(values: List[float]) -> float:
    """The median, or 0 when every pass or operation failed untimed."""
    return statistics.median(values) if values else 0.0


def end_to_end(record: Record) -> Dict[str, Tuple[float, str]]:
    tail = percentile(record.op_seconds, TAIL_PERCENTILE)
    beyond = sum(1 for s in record.op_seconds if s > tail)
    record.notes.append(
        f"op_tail_s is p{TAIL_PERCENTILE} of {len(record.op_seconds)} timed operations "
        f"({beyond} beyond it); wall_s is the median of {len(record.pass_walls)} "
        f"passes, peak_rss_mb of {len(record.rss_mb)}; setup_s the median of "
        f"{len(record.setups)} set-ups {[round(t, 3) for t in record.setups]}"
    )
    return {
        "wall_s": (_median(record.pass_walls), "s"),
        "setup_s": (_median(record.setups), "s"),
        "peak_rss_mb": (_median(record.rss_mb), "MB"),
        "op_p50_s": (_median(record.op_seconds), "s"),
        "op_tail_s": (tail, "s"),
    }


#: span name -> per-layer metric
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
    "workloads.generate": "workloads.generate_s",
    "perf.cache.digest": "perf.cache.digest_s",
    "perf.cache.load": "perf.cache.load_s",
    "perf.cache.store": "perf.cache.store_s",
    "sim.run": "sim.run_s",
    "xmem.level": "xmem.level_s",
    "perfmodel.calibrate": "perfmodel.calibrate_s",
    "perfmodel.solve": "perfmodel.solve_s",
    "core.analyze": "core.analyze_s",
    "experiments.reproduce": "experiments.reproduce_s",
}
PROFILED_MODULES = (
    "sim.engine", "sim.core", "sim.batch", "sim.hierarchy", "sim.cache", "sim.tlb",
    "sim.mshr", "sim.memctrl", "memory.latency_model", "sim.prefetcher", "sim.stats",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: List[Child], overhead: Optional[float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced pass (sums over its children)."""
    spans: Dict[str, float] = {}
    modules: Dict[str, Dict[str, float]] = {}
    sim: Dict[str, float] = {}
    hits = misses = 0
    cells: Dict[str, float] = {}
    for child in traced:
        if child.result is None or "trace" not in child.result:
            continue
        trace = child.result["trace"]
        for name, seconds in _span_totals(trace["spans"]).items():
            spans[name] = spans.get(name, 0.0) + seconds
        for name, entry in trace["profile"]["modules"].items():
            acc = modules.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += entry["self_s"]
            acc["calls"] += entry["calls"]
        for key, value in trace["sim"].items():
            sim[key] = sim.get(key, 0) + value
        hits += trace["cache"]["hits"]
        misses += trace["cache"]["misses"]
        for op in child.result["ops"]:
            if "batched_frac" in op:
                cells[op["name"]] = op["batched_frac"]

    metrics: Dict[str, Tuple[float, str]] = {}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = (spans.get(span, 0.0), "s")
    metrics["perf.cache.hits"] = (float(hits), "count")
    metrics["perf.cache.misses"] = (float(misses), "count")
    metrics["perf.cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    metrics["sim.host_ns_per_event"] = (
        _ratio(spans.get("sim.run", 0.0) * 1e9, sim.get("events", 0)), "ns")
    for module in PROFILED_MODULES:
        metrics[f"{module}.self_s"] = (modules.get(module, {}).get("self_s", 0.0), "s")
    for module in ("memory.latency_model", "sim.stats"):
        metrics[f"{module}.calls"] = (float(modules.get(module, {}).get("calls", 0)), "count")
    s = lambda key: sim.get(key, 0)  # noqa: E731
    metrics.update({
        "sim.accesses": (float(s("accesses")), "count"),
        "sim.events": (float(s("events")), "count"),
        "sim.elapsed_ns": (float(s("elapsed_ns")), "ns"),
        "sim.batch.batched_frac": (_ratio(s("batch_accesses"), s("accesses")), "ratio"),
        "sim.batch.miss_batched_frac": (
            _ratio(s("batch_miss_accesses"), s("accesses")), "ratio"),
        "sim.cache.l1_hit_ratio": (_ratio(s("l1_hits"), s("l1_lookups")), "ratio"),
        "sim.cache.l2_hit_ratio": (_ratio(s("l2_hits"), s("l2_lookups")), "ratio"),
        "sim.mshr.l1_occupancy": (_ratio(s("l1_integral_ns"), s("l1_span_ns")), "entries"),
        "sim.mshr.l1_full_frac": (_ratio(s("l1_full_ns"), s("l1_span_ns")), "ratio"),
        "sim.mshr.l2_occupancy": (_ratio(s("l2_integral_ns"), s("l2_span_ns")), "entries"),
        "sim.mshr.l2_full_frac": (_ratio(s("l2_full_ns"), s("l2_span_ns")), "ratio"),
        "sim.memctrl.requests": (float(s("mem_requests")), "count"),
        "sim.memctrl.avg_latency_ns": (
            _ratio(s("mem_latency_sum_ns"), s("mem_latency_count")), "ns"),
        "sim.prefetcher.issued": (float(s("prefetches")), "count"),
    })
    for workload in WORKLOADS:
        for machine in MACHINES:
            metrics[f"sim.batch.batched_frac.{workload}.{machine}"] = (
                cells.get(f"{workload}/{machine}", 0.0), "ratio")
    metrics["trace.overhead_s"] = (overhead or 0.0, "s")
    return metrics


def _span_totals(spans: List[List[Any]]) -> Dict[str, float]:
    """Seconds per span name, counting only the outermost span of a name."""
    totals: Dict[str, float] = {}
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
    return totals


def chrome_trace(traced: List[Child], workload: str) -> Dict[str, Any]:
    """Spans as complete events, per-module profile totals as counters."""
    events: List[Dict[str, Any]] = []
    for pid, child in enumerate(traced, start=1):
        if child.result is None or "trace" not in child.result:
            continue
        trace = child.result["trace"]
        spans = trace["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"{workload} pass child {pid}"}})
        for i, (name, start, end, parent) in enumerate(spans):
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 1,
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"parent": spans[parent][0] if parent >= 0 else None,
                         "self_us": (end - start - covered[i]) / 1e3},
            })
        done_us = child.result["done"] * 1e6
        for module, entry in sorted(trace["profile"]["modules"].items()):
            events.append({"name": module, "ph": "C", "pid": pid, "ts": done_us,
                           "args": {"self_ms": entry["self_s"] * 1e3,
                                    "calls": entry["calls"]}})
        events.append({"name": "profile.top_functions", "ph": "i", "s": "p",
                       "pid": pid, "tid": 1, "ts": done_us,
                       "args": {"functions": trace["profile"]["functions"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- entry point --------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool,
        reference: Optional[Dict[str, Any]] = None) -> Tuple[Dict[str, Any], Record]:
    """One benchmark run; returns the result object and the run's record."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise Fatal(f"no repro sources under {ROOT / 'src'}")
    if reference is None:
        if not REFERENCE.is_file():
            raise Fatal(f"missing {REFERENCE}")
        reference = json.loads(REFERENCE.read_text())
    runner = Runner(workload, seed)
    record = Record()
    try:
        children, overhead = WORKLOAD_FUNCS[workload](
            runner, reference, seed, seconds, traced, record)
    finally:
        runner.cleanup()
    if traced:
        metrics = per_layer(children, overhead)
        path = WORK / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps(chrome_trace(children, workload)))
        record.notes.append(f"Chrome trace-event JSON written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(record)
    result = {
        "correct": not record.failures,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FUNCS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in record.notes:
        print(note)
    for failure in record.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed = {record.attempted and len(record.failures) / record.attempted} "
          f"({len(record.failures)} of {record.attempted})")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
