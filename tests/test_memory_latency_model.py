"""Loaded-latency models: tabulated curves and the queueing form."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ProfileDomainError, ProfileError
from repro.machines import (
    A64FX_LATENCY_CALIBRATION,
    KNL_LATENCY_CALIBRATION,
    SKL_LATENCY_CALIBRATION,
)
from repro.memory import QueueingLatencyModel, TabulatedLatencyModel, model_for_machine


class TestTabulatedModel:
    def test_interpolates_between_points(self):
        model = TabulatedLatencyModel([(0.0, 100.0), (1.0, 200.0)])
        assert model.latency_ns(0.5) == pytest.approx(150.0)

    def test_clamps_at_calibrated_ends(self):
        model = TabulatedLatencyModel([(0.1, 100.0), (0.9, 200.0)])
        assert model.latency_ns(0.0) == pytest.approx(100.0)
        assert model.latency_ns(1.0) == pytest.approx(200.0)

    def test_idle_and_saturated(self):
        model = TabulatedLatencyModel(SKL_LATENCY_CALIBRATION)
        assert model.idle_latency_ns == pytest.approx(80.0)
        assert model.saturated_latency_ns == pytest.approx(185.0)

    def test_slight_overshoot_clamped(self):
        model = TabulatedLatencyModel([(0.0, 100.0), (1.0, 200.0)])
        assert model.latency_ns(1.04) == pytest.approx(200.0)

    def test_far_overshoot_rejected(self):
        model = TabulatedLatencyModel([(0.0, 100.0), (1.0, 200.0)])
        with pytest.raises(ProfileDomainError):
            model.latency_ns(1.5)

    def test_negative_utilization_rejected(self):
        model = TabulatedLatencyModel([(0.0, 100.0), (1.0, 200.0)])
        with pytest.raises(ProfileDomainError):
            model.latency_ns(-0.1)

    def test_rejects_single_point(self):
        with pytest.raises(ProfileError):
            TabulatedLatencyModel([(0.0, 100.0)])

    def test_rejects_decreasing_latency(self):
        with pytest.raises(ProfileError):
            TabulatedLatencyModel([(0.0, 200.0), (1.0, 100.0)])

    def test_rejects_duplicate_utilization(self):
        with pytest.raises(ProfileError):
            TabulatedLatencyModel([(0.5, 100.0), (0.5, 120.0), (1.0, 150.0)])

    @pytest.mark.parametrize(
        "calibration",
        [SKL_LATENCY_CALIBRATION, KNL_LATENCY_CALIBRATION, A64FX_LATENCY_CALIBRATION],
        ids=["skl", "knl", "a64fx"],
    )
    def test_paper_calibrations_are_valid_curves(self, calibration):
        model = TabulatedLatencyModel(calibration)
        previous = 0.0
        for u in [i / 50 for i in range(51)]:
            lat = model.latency_ns(u)
            assert lat >= previous  # monotone under load
            previous = lat


def _np_interp_reference(model, utilization):
    """``latency_ns`` as ``np.interp`` over the control points computes it."""
    u = min(utilization, 1.0)
    utils = np.array([p[0] for p in model.points])
    lats = np.array([p[1] for p in model.points])
    value = float(np.interp(u, utils, lats))
    return float(min(max(value, lats[0]), lats[-1]))


#: Offsets that place a second control point within the constructor's
#: 1e-9 merge distance of another (merged), or just outside it (kept).
_NEAR_OFFSETS = (5e-324, 2.2e-16, 1e-12, 9.9e-10, 1.01e-9)


@st.composite
def _control_points(draw):
    """Monotone point sets, with near-duplicates and wide latency ranges."""
    utils = draw(
        st.lists(
            st.floats(0.0, 1.05, allow_nan=False),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    for base in draw(st.lists(st.sampled_from(utils), max_size=3)):
        near = base + draw(st.sampled_from(_NEAR_OFFSETS))
        if near <= 1.05 and near not in utils:
            utils.append(near)
    # Latencies up to 1e308 make some slopes overflow to inf.
    lats = draw(
        st.lists(
            st.floats(1e-3, 1e308, allow_nan=False),
            min_size=len(utils),
            max_size=len(utils),
        )
    )
    return list(zip(sorted(utils), sorted(lats)))


class TestInterpolationParity:
    """``latency_ns`` is bit-identical to ``np.interp`` plus the clamp."""

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.one_of(
            _control_points(),
            st.sampled_from(
                [
                    SKL_LATENCY_CALIBRATION,
                    KNL_LATENCY_CALIBRATION,
                    A64FX_LATENCY_CALIBRATION,
                ]
            ),
        ),
        anywhere=st.lists(st.floats(0.0, 1.05), max_size=8),
        clamped=st.lists(
            st.floats(1.0, 1.05, exclude_min=True), min_size=1, max_size=4
        ),
    )
    def test_bit_identical_to_np_interp(self, points, anywhere, clamped):
        try:
            model = TabulatedLatencyModel(points)
        except ProfileError:
            assume(False)
        queries = anywhere + clamped
        for u, _ in model.points:
            queries += [u, math.nextafter(u, -math.inf), math.nextafter(u, math.inf)]
        for u in queries:
            if not 0.0 <= u <= 1.05:
                continue
            got = model.latency_ns(u)
            assert got.hex() == _np_interp_reference(model, u).hex(), u

    @pytest.mark.parametrize(
        "utilization",
        [math.nan, math.inf, -math.inf, -1e-300, math.nextafter(1.05, 2.0)],
    )
    def test_out_of_domain_rejected(self, utilization):
        model = TabulatedLatencyModel(KNL_LATENCY_CALIBRATION)
        with pytest.raises(ProfileDomainError):
            model.latency_ns(utilization)


class TestPaperLatencyPoints:
    """Spot-check the fitted curves against latencies quoted in tables."""

    def test_skl_isx_point(self, skl):
        model = model_for_machine(skl)
        # ISx base: 106.9 GB/s (84%) -> 145 ns (Table IV).
        assert model.latency_ns(106.9 / 128) == pytest.approx(145, abs=5)

    def test_skl_minighost_point(self, skl):
        model = model_for_machine(skl)
        # MiniGhost base: 92.93 GB/s (73%) -> 117 ns (Table VIII).
        assert model.latency_ns(92.93 / 128) == pytest.approx(117, abs=4)

    def test_knl_optimized_isx_point(self, knl):
        model = model_for_machine(knl)
        # ISx optimized: 344 GB/s (86%) -> 238 ns (Table IV).
        assert model.latency_ns(344 / 400) == pytest.approx(238, abs=6)

    def test_a64fx_prefetched_isx_point(self, a64fx):
        model = model_for_machine(a64fx)
        # ISx +l2-pref: 788 GB/s (77%) -> 280 ns (Table IV).
        assert model.latency_ns(788 / 1024) == pytest.approx(280, abs=8)

    def test_loaded_latency_can_be_2x_idle(self, a64fx):
        # Paper III-B: loaded latency "can be 2x or more than the idle
        # latency at peak bandwidth utilization".
        model = model_for_machine(a64fx)
        assert model.latency_ns(1.0) >= 2.0 * model.idle_latency_ns


class TestQueueingModel:
    def test_idle_at_zero_load(self):
        model = QueueingLatencyModel(idle_ns=100.0)
        assert model.latency_ns(0.0) == pytest.approx(100.0)

    def test_monotone(self):
        model = QueueingLatencyModel(idle_ns=100.0)
        lats = [model.latency_ns(u / 20) for u in range(21)]
        assert lats == sorted(lats)

    def test_finite_at_saturation(self):
        model = QueueingLatencyModel(idle_ns=100.0)
        assert model.latency_ns(1.0) < 1e6

    def test_rejects_bad_cap(self):
        with pytest.raises(ProfileError):
            QueueingLatencyModel(idle_ns=100.0, cap=1.0)

    def test_rejects_negative_params(self):
        with pytest.raises(ProfileError):
            QueueingLatencyModel(idle_ns=100.0, alpha=-0.1)

    def test_model_for_machine_without_calibration(self, skl):
        import dataclasses

        bare = dataclasses.replace(skl, latency_calibration=())
        model = model_for_machine(bare)
        assert model.idle_latency_ns == pytest.approx(skl.memory.idle_latency_ns)
