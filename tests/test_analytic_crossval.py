"""The analytic-vs-simulator cross-validation harness (experiments)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.analytic_crossval import (
    crossval_analytic,
    render_analytic_crossval,
    rows_to_json,
    table_ok,
)
from repro.machines import get_machine
from repro.perf.cache import SimCache
from repro.perfmodel.queueing import (
    ANALYTIC_BW_ERROR_BOUND,
    ANALYTIC_LAT_ERROR_BOUND,
)
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.xmem.runner import XMemConfig

LIGHT = XMemConfig(levels=6, accesses_per_thread=1200)


@pytest.fixture(scope="module")
def rows(skl, tmp_path_factory):
    cache = SimCache(tmp_path_factory.mktemp("crossval-cache"), enabled=True)
    picked = [get_workload(name) for name in ("isx", "comd", "minighost")]
    return crossval_analytic(
        machines=[skl], workloads=picked, xmem_config=LIGHT, cache=cache
    )


class TestCrossValTable:
    def test_covers_requested_grid(self, rows):
        assert [(r.workload, r.machine) for r in rows] == [
            ("isx", "skl"),
            ("comd", "skl"),
            ("minighost", "skl"),
        ]

    def test_minighost_falls_back_with_reason(self, rows):
        row = next(r for r in rows if r.workload == "minighost")
        assert not row.eligible
        assert "prefetch-dominated" in row.fallback_reason
        assert row.within_bound  # vacuous: --fast never answers it

    def test_eligible_rows_within_documented_bounds(self, rows):
        eligible = [r for r in rows if r.eligible]
        assert eligible
        for row in eligible:
            assert row.fallback_reason == ""
            assert row.bandwidth_rel_error <= ANALYTIC_BW_ERROR_BOUND
            assert row.latency_rel_error <= ANALYTIC_LAT_ERROR_BOUND

    def test_table_ok(self, rows):
        assert table_ok(rows)

    def test_out_of_bound_row_fails_table(self, rows):
        bad = dataclasses.replace(
            rows[0], bandwidth_rel_error=ANALYTIC_BW_ERROR_BOUND + 0.01
        )
        assert not bad.within_bound
        assert not table_ok([*rows, bad])

    def test_unreasoned_fallback_fails_table(self, rows):
        bad = dataclasses.replace(rows[0], eligible=False, fallback_reason="")
        assert not table_ok([*rows, bad])

    def test_render(self, rows):
        text = render_analytic_crossval(rows)
        assert "in bound" in text
        assert "fallback: prefetch-dominated" in text
        assert "worst bw err" in text

    def test_json_export(self, rows):
        doc = json.loads(rows_to_json(rows))
        assert doc["bounds"]["bandwidth_rel_error"] == ANALYTIC_BW_ERROR_BOUND
        assert len(doc["rows"]) == len(rows)
        assert all("within_bound" in r for r in doc["rows"])


def test_full_grid_shape_is_six_by_three():
    """The CI table covers every paper workload on every paper machine."""
    from repro.machines.registry import paper_machines

    names = {w.name for w in ALL_WORKLOADS}
    assert len(names) == 6
    assert len(paper_machines()) == 3
    for workload in ALL_WORKLOADS:
        for machine in paper_machines():
            assert machine.name in workload.machines()


def test_row_is_frozen(rows):
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].workload = "x"


class TestSweepsOncePerMachine:
    """The X-Mem profile is measured once per machine, not once per row."""

    TINY = XMemConfig(levels=3, accesses_per_thread=300)

    def _run(self, monkeypatch, tmp_path, **fan_out_kwargs):
        import repro.perf.cache as cache_module
        from repro.xmem.runner import XMemRunner

        monkeypatch.setattr(
            cache_module, "_global_cache", SimCache(tmp_path, enabled=False)
        )
        calls = []
        measure_level = XMemRunner.measure_level

        def counted(self, gap_cycles):
            calls.append(gap_cycles)
            return measure_level(self, gap_cycles)

        monkeypatch.setattr(XMemRunner, "measure_level", counted)
        picked = [get_workload(name) for name in ("isx", "comd", "hpcg")]
        rows = crossval_analytic(
            machines=[get_machine("skl")],
            workloads=picked,
            xmem_config=self.TINY,
            cache=SimCache(tmp_path, enabled=False),
            **fan_out_kwargs,
        )
        return rows, calls

    def test_uncached_run_measures_each_level_once(self, monkeypatch, tmp_path):
        from repro.perfmodel.queueing import DEFAULT_PROBE_GAPS

        monkeypatch.setenv("REPRO_JOBS", "1")  # count calls in-process
        rows, calls = self._run(monkeypatch, tmp_path)
        assert len(rows) == 3
        assert len(calls) == len(DEFAULT_PROBE_GAPS) + self.TINY.levels

    def test_fan_out_options_reach_the_sweep(self, monkeypatch, tmp_path):
        import repro.perf.parallel as parallel

        seen = []
        real_fan_out = parallel.fan_out

        def spy(func, items, **kwargs):
            seen.append(kwargs)
            return real_fan_out(func, items, **kwargs)

        monkeypatch.setattr(parallel, "fan_out", spy)
        self._run(monkeypatch, tmp_path, jobs=1, retries=1, timeout_s=60.0)
        assert seen == [{"jobs": 1, "retries": 1, "timeout_s": 60.0}]
