"""In-memory span recorder and per-module profile aggregation.

Spans are recorded from outside the program: :func:`install` wraps the
public entry points listed in :data:`TARGETS` as their modules are
imported, so every caller, including modules that bound the name with
``from x import f``, goes through the wrapper.  Each wrapper call
records one span ``[name, start_ns, end_ns, parent_index]``; the
simulator's hot functions (about 10**6 calls per pass) are never
wrapped, their cost comes from :mod:`cProfile` grouped by module.
"""

from __future__ import annotations

import cProfile
import functools
import importlib.abc
import importlib.machinery
import os
import pstats
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: module -> {qualified attribute: span name}.  Several entry points may
#: share a span name; metrics sum the outermost span of each name.
TARGETS: Dict[str, Dict[str, str]] = {
    "repro.sim.hierarchy": {"run_trace": "sim.run"},
    "repro.perf.cache": {
        "digest_for": "perf.cache.digest",
        "SimCache.load": "perf.cache.load",
        "SimCache.load_payload": "perf.cache.load",
        "SimCache.store": "perf.cache.store",
        "SimCache.store_payload": "perf.cache.store",
    },
    "repro.xmem.runner": {"XMemRunner.measure_level": "xmem.level"},
    "repro.perfmodel.solver": {"solve_operating_point": "perfmodel.solve"},
    "repro.perfmodel.queueing": {
        "calibrate_from_probes": "perfmodel.calibrate",
        "calibrate_from_model": "perfmodel.calibrate",
        "solve_operating_point_fast": "perfmodel.solve",
    },
    "repro.core.analyzer": {
        "RoutineAnalyzer.analyze_bandwidth": "core.analyze",
        "RoutineAnalyzer.analyze_run": "core.analyze",
    },
    "repro.core.advisor": {"Advisor.run": "core.analyze"},
    "repro.experiments.harness": {"reproduce_table": "experiments.reproduce"},
    "repro.workloads.isx": {"IsxWorkload.generate_trace": "workloads.generate"},
    "repro.workloads.hpcg": {"HpcgWorkload.generate_trace": "workloads.generate"},
    "repro.workloads.pennant": {
        "PennantWorkload.generate_trace": "workloads.generate"
    },
    "repro.workloads.comd": {"ComdWorkload.generate_trace": "workloads.generate"},
    "repro.workloads.minighost": {
        "MinighostWorkload.generate_trace": "workloads.generate"
    },
    "repro.workloads.snap": {"SnapWorkload.generate_trace": "workloads.generate"},
}

#: The ``repro`` package directory of this checkout.
_PACKAGE = str(Path(__file__).resolve().parent.parent / "src" / "repro") + os.sep


class Tracer:
    """Spans plus every :class:`SimStats` the simulator returned."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.sim_runs: List[Any] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with a span around each call."""
        collect = name == "sim.run"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if collect:
                self.sim_runs.append(result)
            return result

        return wrapper


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a target module right after its body has executed."""

    def __init__(self, patch: Callable[[Any], None]) -> None:
        self.patch = patch

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module: Any) -> None:
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch  # type: ignore[method-assign]
        return spec


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every :data:`TARGETS` entry point, now or when first imported.

    Call before importing ``repro``.  Returns a function that re-binds
    the wrappers in every loaded ``repro`` module, for names bound while
    a target module was still half-initialised.
    """
    originals: Dict[int, Tuple[Any, Any]] = {}

    def rebind() -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    namespace[key] = pair[1]

    def patch(module: Any) -> None:
        for qualname, span_name in TARGETS[module.__name__].items():
            owner: Any = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, span_name)
            setattr(owner, attr, wrapper)
            originals[id(original)] = (original, wrapper)
        rebind()

    for name in TARGETS:
        if name in sys.modules:
            patch(sys.modules[name])
    sys.meta_path.insert(0, _PatchOnImport(patch))
    return rebind


def _module_of(filename: str) -> Optional[str]:
    """``<src>/repro/sim/cache.py`` -> ``sim.cache``; None outside repro."""
    if not filename.startswith(_PACKAGE) or not filename.endswith(".py"):
        return None
    rel = filename[len(_PACKAGE) : -3].replace(os.sep, ".")
    if rel.endswith("__init__"):
        rel = rel[: -len("__init__")].rstrip(".")
    return rel or "repro"


def profile_summary(profile: cProfile.Profile, top: int = 40) -> Dict[str, Any]:
    """Self time and call count per repro module, plus the top functions.

    A function outside ``repro`` (a builtin, numpy, the standard
    library) has its self time charged to the ``repro`` modules that
    called it directly, in proportion to what each call site cost;
    time reached only through other outside functions stays unattributed.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    modules: Dict[str, Dict[str, float]] = {}
    functions = []
    for (filename, line, func), (_, ncalls, tottime, cumtime, callers) in stats.items():
        module = _module_of(filename)
        if module is not None:
            entry = modules.setdefault(module, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += tottime
            entry["calls"] += ncalls
            functions.append(
                {
                    "function": f"{module}.{func}:{line}",
                    "calls": ncalls,
                    "self_s": tottime,
                    "inclusive_s": cumtime,
                }
            )
            continue
        for (caller_file, _, _), caller_entry in callers.items():
            caller_module = _module_of(caller_file)
            if caller_module is not None:
                entry = modules.setdefault(caller_module, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += caller_entry[2]
    functions.sort(key=lambda f: f["self_s"], reverse=True)
    return {"modules": modules, "functions": functions[:top]}
