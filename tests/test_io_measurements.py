"""Measurement ingestion: CSV and perf-style parsing into analyses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counters.events import VENDOR_EVENTS, CounterEvent
from repro.counters.vendor import vendor_for_machine
from repro.errors import ConfigurationError, ReproError
from repro.io import (
    RoutineMeasurement,
    analyze_measurements,
    from_csv,
    from_csv_degraded,
    from_perf_output,
)
from repro.machines import get_machine


@pytest.fixture(autouse=True)
def _fault_free_baseline():
    """This file asserts exact parse results: park any ambient
    ``REPRO_FAULTS`` spec (CI fault leg) and restore it afterwards."""
    import os

    from repro.resilience import configure_faults

    ambient = os.environ.get("REPRO_FAULTS")
    configure_faults(None)
    yield
    configure_faults(ambient)


class TestCsv:
    def test_basic_rows(self):
        text = (
            "routine,bandwidth_gbs,prefetch_fraction\n"
            "count_local_keys,106.9,0.05\n"
            "ComputeSPMV_ref,109.9,0.80\n"
        )
        rows = from_csv(text)
        assert len(rows) == 2
        assert rows[0].routine == "count_local_keys"
        assert rows[0].bandwidth_bytes == pytest.approx(106.9e9)

    def test_comments_and_blank_lines(self):
        text = "# comment\n\nkernel,50.0,0.5\n"
        assert len(from_csv(text)) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            from_csv("routine,bandwidth,pf\n")

    def test_short_row_rejected(self):
        with pytest.raises(ConfigurationError):
            from_csv("kernel,50.0\n")

    def test_measurement_validation(self):
        with pytest.raises(ConfigurationError):
            RoutineMeasurement("k", -1.0, 0.5)
        with pytest.raises(ConfigurationError):
            RoutineMeasurement("k", 1e9, 1.5)


class TestPerfOutput:
    def test_plain_aligned_format(self, skl):
        # 1 second, 1e9 demand lines + 0.5e9 prefetch lines of 64B.
        text = """
         1,000,000,000      OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL
           500,000,000      OFFCORE_RESPONSE_1:PF_ANY:L3_MISS_LOCAL
         9,999,999,999      INST_RETIRED.ANY
        """
        m = from_perf_output(text, skl, elapsed_seconds=1.0, routine="r")
        assert m.bandwidth_bytes == pytest.approx(1.5e9 * 64)
        assert m.prefetch_fraction == pytest.approx(1 / 3)

    def test_csv_format(self, skl):
        text = (
            "1000000000,,OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n"
            "123,,CPU_CLK_UNHALTED.THREAD\n"
        )
        m = from_perf_output(text, skl, elapsed_seconds=2.0)
        assert m.bandwidth_bytes == pytest.approx(1e9 * 64 / 2.0)

    def test_a64fx_bus_counters(self, a64fx):
        text = """
         2,000,000      BUS_READ_TOTAL_MEM
         1,000,000      BUS_WRITE_TOTAL_MEM
        """
        m = from_perf_output(text, a64fx, elapsed_seconds=0.001)
        # 3e6 lines x 256B / 1ms
        assert m.bandwidth_bytes == pytest.approx(3e6 * 256 / 1e-3)

    def test_unknown_events_ignored(self, skl):
        text = """
         42      SOME_UNRELATED_EVENT
         1,000   OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL
        """
        m = from_perf_output(text, skl, elapsed_seconds=1.0)
        assert m.bandwidth_bytes == pytest.approx(1000 * 64)

    def test_no_bandwidth_events_rejected(self, skl):
        with pytest.raises(ConfigurationError) as err:
            from_perf_output("42 SOMETHING_ELSE", skl, elapsed_seconds=1.0)
        assert "OFFCORE" in str(err.value)

    def test_empty_input_rejected(self, skl):
        with pytest.raises(ConfigurationError):
            from_perf_output("", skl, elapsed_seconds=1.0)

    def test_bad_elapsed_rejected(self, skl):
        with pytest.raises(ConfigurationError):
            from_perf_output("1 X", skl, elapsed_seconds=0.0)


class TestAnalyzeMeasurements:
    def test_batch_analysis_matches_direct(self, skl):
        measurements = from_csv(
            "count_local_keys,106.9,0.05\nComputeSPMV_ref,109.9,0.80\n"
        )
        reports = analyze_measurements(skl, measurements)
        assert len(reports) == 2
        isx, hpcg = reports
        assert isx.decision.binding_level == 1
        assert isx.mlp.n_avg == pytest.approx(10.1, rel=0.05)
        assert hpcg.decision.binding_level == 2

    def test_with_measured_profile(self, skl, xmem_skl_profile):
        measurements = [RoutineMeasurement("k", 60e9, 0.5)]
        reports = analyze_measurements(skl, measurements, profile=xmem_skl_profile)
        assert reports[0].mlp.n_avg > 0


class TestCsvErrorLocations:
    def test_short_row_names_line_number(self):
        text = "ok,50.0,0.5\nonly_two,1.0\n"
        with pytest.raises(ConfigurationError, match="line 2"):
            from_csv(text)

    def test_bad_cell_names_line_column_and_cell(self):
        text = "ok,50.0,0.5\nbad,fast,0.5\n"
        with pytest.raises(ConfigurationError) as info:
            from_csv(text)
        message = str(info.value)
        assert "line 2" in message
        assert "bandwidth_gbs" in message
        assert "'fast'" in message

    def test_nan_cell_rejected_with_location(self):
        with pytest.raises(ConfigurationError, match="line 1.*NaN"):
            from_csv("bad,nan,0.5\n")

    def test_out_of_range_value_carries_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            from_csv("ok,50.0,0.5\nbad,50.0,1.5\n")

    def test_line_numbers_count_comments_and_blanks(self):
        text = "# header comment\n\nok,50.0,0.5\nbad,slow,0.5\n"
        with pytest.raises(ConfigurationError, match="line 4"):
            from_csv(text)


class TestCsvDegraded:
    def test_clean_input_has_no_issues(self):
        from repro.io import from_csv_degraded

        rows, issues = from_csv_degraded("a,50.0,0.5\nb,60.0,0.8\n")
        assert [r.routine for r in rows] == ["a", "b"]
        assert issues == []

    def test_bad_rows_become_issues_not_errors(self):
        from repro.io import from_csv_degraded

        text = (
            "good,50.0,0.5\n"
            "short,1.0\n"
            "nonnum,fast,0.5\n"
            "range,50.0,1.5\n"
            "tail,70.0,0.2\n"
        )
        rows, issues = from_csv_degraded(text)
        assert [r.routine for r in rows] == ["good", "tail"]
        kinds = [issue.kind for issue in issues]
        assert kinds == ["skipped-row", "bad-cell", "bad-cell"]
        assert issues[0].location == "line 2"
        # Details are not doubly prefixed with the location.
        assert not issues[1].detail.startswith("line")

    def test_all_bad_input_still_raises(self):
        from repro.io import from_csv_degraded

        with pytest.raises(ConfigurationError, match="no measurement rows"):
            from_csv_degraded("a,fast,0.5\nb,also_fast,0.5\n")

    def test_injected_counter_drop_reports_dropped_samples(self):
        from repro.io import from_csv_degraded
        from repro.resilience import configure_faults

        text = "a,50.0,0.5\nb,60.0,0.8\nc,70.0,0.2\n"
        try:
            configure_faults("counter_drop:p=0.5,seed=1")
            rows1, issues1 = from_csv_degraded(text)
            rows2, issues2 = from_csv_degraded(text)
        finally:
            configure_faults(None)
        # Deterministic: both passes drop exactly the same rows.
        assert [r.routine for r in rows1] == [r.routine for r in rows2]
        assert [i.location for i in issues1] == [i.location for i in issues2]
        assert len(rows1) + len(issues1) == 3
        assert all(i.kind == "dropped-sample" for i in issues1)

    def test_injected_counter_nan_reports_nan_bandwidth(self):
        from repro.io import from_csv_degraded
        from repro.resilience import configure_faults

        try:
            configure_faults("counter_nan:p=1,seed=0")
            with pytest.raises(ConfigurationError):
                # Every row NaNs out -> nothing survives.
                from_csv_degraded("a,50.0,0.5\n")
        finally:
            configure_faults(None)


_CSV_ALPHABET = "0123456789.,+-eEinfaNx#\"' \t\r\n\x00"
_CELL = st.one_of(
    st.floats().map(repr),
    st.text(alphabet=_CSV_ALPHABET, max_size=8),
)
_CSV_TEXT = st.one_of(
    # Any byte string, each byte read as one character.
    st.binary(max_size=400).map(lambda b: b.decode("latin-1")),
    st.text(alphabet=_CSV_ALPHABET, max_size=200),
    st.lists(
        st.one_of(
            st.lists(_CELL, max_size=4).map(",".join),
            # A routine, a bandwidth and an in-range prefetch fraction.
            st.tuples(
                _CELL,
                st.one_of(st.floats(min_value=0.0).map(repr), _CELL),
                st.floats(0.0, 1.0).map(repr),
            ).map(",".join),
        ),
        max_size=6,
    ).map("\n".join),
)


class TestHostileCsv:
    """CSV from outside either loads sane rows or raises a typed error."""

    @given(text=_CSV_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_any_text_loads_or_raises_typed_error(self, text):
        for parse in (from_csv, lambda t: from_csv_degraded(t)[0]):
            try:
                rows = parse(text)
            except ReproError:
                continue
            assert rows
            for row in rows:
                assert math.isfinite(row.bandwidth_bytes)
                assert row.bandwidth_bytes >= 0
                assert 0.0 <= row.prefetch_fraction <= 1.0

    @pytest.mark.parametrize("parse", [from_csv, from_csv_degraded])
    def test_oversized_field_is_configuration_error(self, parse):
        text = "r," + "9" * 200_000 + ",0.5\n"
        with pytest.raises(ConfigurationError, match="line 1: malformed CSV"):
            parse(text)

    @pytest.mark.parametrize("parse", [from_csv, from_csv_degraded])
    def test_bare_carriage_return_is_configuration_error(self, parse):
        with pytest.raises(ConfigurationError, match="malformed CSV"):
            parse("r,1,0.5\r\rq")

    def test_infinite_bandwidth_is_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            from_csv("r,1e400,0.5\n")
        # Finite in GB/s, but past the float range in bytes/s.
        with pytest.raises(ConfigurationError, match="line 1: .*finite"):
            from_csv("r,1.7e300,0.5\n")
        rows, issues = from_csv_degraded("r,inf,0.5\ns,1,0.5\n")
        assert [r.routine for r in rows] == ["s"]
        assert [i.kind for i in issues] == ["bad-cell"]


_BANDWIDTH_KINDS = (
    CounterEvent.MEM_READ_LINES,
    CounterEvent.MEM_WRITE_LINES,
    CounterEvent.HW_PREFETCH_LINES,
)


def _bandwidth_natives(machine_name):
    vendor = vendor_for_machine(machine_name)
    return [
        n.native_name for n in VENDOR_EVENTS[vendor] if n.event in _BANDWIDTH_KINDS
    ]


_DECOY_EVENTS = ("INST_RETIRED.ANY", "CPU_CLK_UNHALTED.THREAD", "cycles")
_COUNT = st.one_of(
    st.integers(-(10**6), 10**15),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _perf_text(draw, machine_name):
    """Perf-shaped lines plus free text, and the counts the parser reads.

    Returns ``(text, counted)``: ``counted`` holds the value of every
    generated line that certainly parses as a bandwidth-event count.
    """
    natives = _bandwidth_natives(machine_name)
    events = st.sampled_from(natives + list(_DECOY_EVENTS))
    lines, counted = [], []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(("csv", "aligned", "text")))
        if shape == "text":
            lines.append(draw(st.text(alphabet=_CSV_ALPHABET, max_size=40)))
            continue
        count, event = draw(_COUNT), draw(events)
        if shape == "csv":
            lines.append(f"{count!r},,{event}")
            value = float(count)
        elif isinstance(count, int):
            lines.append(f"  {count:,}      {event}")
            value = float(count)
        else:
            lines.append(f"  {count!r}      {event}")
            value = None
        if event in natives and value is not None:
            counted.append(value)
    return "\n".join(lines), counted


class TestHostilePerfOutput:
    """perf stat output from outside loads sane counts or raises typed."""

    @given(
        data=st.data(),
        machine_name=st.sampled_from(("skl", "knl", "a64fx")),
        elapsed=st.one_of(
            st.floats(1e-6, 1e6),
            st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_perf_shaped_text_loads_or_raises_typed_error(
        self, data, machine_name, elapsed
    ):
        machine = get_machine(machine_name)
        text, counted = data.draw(_perf_text(machine_name))
        try:
            m = from_perf_output(text, machine, elapsed_seconds=elapsed)
        except ReproError:
            return
        assert 0 < elapsed < math.inf
        assert 0 <= m.bandwidth_bytes < math.inf
        assert 0.0 <= m.prefetch_fraction <= 1.0
        # Every counted line adds traffic; none may cancel another's.
        assert all(0 <= v < math.inf for v in counted)
        lines = m.bandwidth_bytes * elapsed / machine.line_bytes
        assert lines >= max(counted, default=0.0) * (1 - 1e-9)

    @given(
        text=st.binary(max_size=400).map(lambda b: b.decode("latin-1")),
        machine_name=st.sampled_from(("skl", "knl", "a64fx")),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_text_loads_or_raises_typed_error(self, text, machine_name):
        try:
            m = from_perf_output(text, get_machine(machine_name), elapsed_seconds=1.0)
        except ReproError:
            return
        assert 0 <= m.bandwidth_bytes < math.inf
        assert 0.0 <= m.prefetch_fraction <= 1.0

    @pytest.mark.parametrize(
        "negative",
        [
            "-1000,,OFFCORE_RESPONSE_1:PF_ANY:L3_MISS_LOCAL",
            "  -1,000      OFFCORE_RESPONSE_1:PF_ANY:L3_MISS_LOCAL",
            "  -7      OFFCORE_RESPONSE_1:PF_ANY:L3_MISS_LOCAL",
        ],
    )
    def test_negative_count_names_the_event(self, skl, negative):
        text = f"1000,,OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n{negative}\n"
        with pytest.raises(
            ConfigurationError, match="line 2: event 'OFFCORE_RESPONSE_1:PF_ANY"
        ):
            from_perf_output(text, skl, elapsed_seconds=1.0)

    @pytest.mark.parametrize("count", ["nan", "inf", "1e400"])
    def test_non_finite_count_rejected(self, skl, count):
        text = f"{count},,OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n"
        with pytest.raises(ConfigurationError, match="finite"):
            from_perf_output(text, skl, elapsed_seconds=1.0)

    @pytest.mark.parametrize("elapsed", [math.nan, math.inf, -1.0])
    def test_non_finite_elapsed_rejected(self, skl, elapsed):
        text = "1000,,OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n"
        with pytest.raises(ConfigurationError, match="elapsed time"):
            from_perf_output(text, skl, elapsed_seconds=elapsed)
