import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l4sim.cc import (
    ControllerKind,
    GccController,
    GccParams,
    L4sCcController,
    L4sGccController,
    OveruseDetector,
    RateBounds,
    ScalableParams,
    Signal,
    ce_fraction,
    group_delay_gradients,
    make_controller,
    trendline_slope,
)
from l4sim.core import FeedbackReport

BOUNDS = RateBounds(min_bps=150_000, max_bps=5_000_000, start_bps=1_000_000)


def report(
    received=0,
    lost=(),
    ect1=0,
    ce=0,
    samples=(),
    start=0,
    end=100_000,
):
    return FeedbackReport(
        interval_start=start,
        interval_end=end,
        received_count=received,
        lost_seqs=list(lost),
        ect1_count=ect1,
        ce_count=ce,
        arrival_samples=list(samples),
    )


def samples_with_constant_rate(
    n, start_us=0, spacing_us=10_000, owd_us=10_000, size_bytes=1_200
):
    """In-order samples: one packet every `spacing_us`, constant delay."""
    return [
        (i, start_us + i * spacing_us, start_us + i * spacing_us + owd_us)
        for i in range(n)
    ]


def gcc(params=None, bounds=BOUNDS, sizes=1200):
    lookup = (lambda seq: sizes) if isinstance(sizes, int) else sizes
    return GccController(params or GccParams(), bounds, lookup)


class TestCeFraction:
    def test_small_fraction(self):
        assert ce_fraction(report(received=100, ect1=95, ce=5)) == pytest.approx(0.05)

    def test_empty_interval_is_zero(self):
        assert ce_fraction(report()) == 0.0

    def test_all_marked(self):
        assert ce_fraction(report(received=10, ect1=0, ce=10)) == 1.0

    @given(ect1=st.integers(0, 10**6), ce=st.integers(0, 10**6))
    def test_always_unit_interval(self, ect1, ce):
        f = ce_fraction(report(received=ect1 + ce, ect1=ect1, ce=ce))
        assert 0.0 <= f <= 1.0


class TestDelayGradients:
    def test_constant_delay_gives_zeros(self):
        r = report(samples=samples_with_constant_rate(20))
        gradients = [d for _, d in group_delay_gradients(r)]
        assert gradients
        assert all(g == 0 for g in gradients)

    def test_growing_queue_gives_positive_deltas(self):
        # one packet per group; queueing delay grows 1 ms per group
        samples = [
            (i, i * 10_000, i * 10_000 + 10_000 + i * 1_000) for i in range(10)
        ]
        gradients = [d for _, d in group_delay_gradients(report(samples=samples))]
        assert all(g == pytest.approx(1_000) for g in gradients)

    def test_single_sample_is_empty(self):
        r = report(samples=[(0, 0, 10_000)])
        assert group_delay_gradients(r) == []

    def test_burst_grouping_uses_last_packet(self):
        # two bursts of packets within 5 ms of each other
        samples = [
            (0, 0, 10_000),
            (1, 2_000, 12_000),
            (2, 4_000, 14_500),  # last of burst 1
            (3, 20_000, 30_000),
            (4, 22_000, 33_000),  # last of burst 2
        ]
        pairs = group_delay_gradients(report(samples=samples))
        assert len(pairs) == 1
        arrival, delta = pairs[0]
        assert arrival == 33_000
        assert delta == (33_000 - 14_500) - (22_000 - 4_000)


class TestTrendlineSlope:
    def test_flat_series(self):
        assert trendline_slope([0, 1, 2, 3], [5, 5, 5, 5]) == 0.0

    def test_exact_linear_series(self):
        times = [float(i) for i in range(20)]
        values = [3.5 * t - 2.0 for t in times]
        expected = np.polyfit(times, values, 1)[0]
        assert abs(trendline_slope(times, values) - expected) <= 1e-9

    def test_short_series_is_zero(self):
        assert trendline_slope([1.0], [2.0]) == 0.0
        assert trendline_slope([], []) == 0.0

    def test_zero_time_spread_is_zero(self):
        assert trendline_slope([2.0, 2.0], [1.0, 5.0]) == 0.0

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 10**6), st.floats(-1e4, 1e4)),
            min_size=2,
            max_size=24,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=200)
    def test_matches_least_squares_oracle(self, data):
        data.sort()
        times = [float(t) / 1000.0 for t, _ in data]
        values = [v for _, v in data]
        expected = float(np.polyfit(times, values, 1)[0])
        assert trendline_slope(times, values) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestOveruseDetector:
    def test_zero_slope_is_normal(self):
        detector = OveruseDetector(GccParams())
        assert detector.update(0.0, 0.0) is Signal.NORMAL

    def test_sustained_high_slope_is_overuse(self):
        detector = OveruseDetector(GccParams())
        signal = Signal.NORMAL
        for i in range(6):
            signal = detector.update(2 * 12.5, i * 5.0)  # twice the threshold
        assert signal is Signal.OVERUSE

    def test_negative_slope_is_underuse(self):
        detector = OveruseDetector(GccParams())
        assert detector.update(-25.0, 0.0) is Signal.UNDERUSE

    def test_decreasing_slope_defers_overuse(self):
        detector = OveruseDetector(GccParams())
        detector.update(40.0, 0.0)
        # still above gamma but falling: not yet overuse
        assert detector.update(30.0, 5.0) is not Signal.OVERUSE

    def test_gamma_adapts_toward_slope(self):
        params = GccParams()
        detector = OveruseDetector(params)
        detector.update(0.0, 0.0)
        before = detector.gamma_ms
        detector.update(0.0, 10.0)
        # quiet input drags gamma down toward zero, clamped at the floor
        assert detector.gamma_ms <= before
        for i in range(50):
            detector.update(0.0, 20.0 + i * 10.0)
        assert detector.gamma_ms == params.gamma_min_ms


class TestGccRateUpdate:
    def neutral_report(self, received=100):
        # loss rate inside [loss_low, loss_high]: no loss adjustment binds
        return report(received=received, lost=range(1000, 1005))

    def prime_receive_rate(self, controller, rate_bps, now_us=1_000_000):
        """Feed arrival samples so the measured receive rate equals rate_bps."""
        spacing = 10_000
        n = 60
        size = int(rate_bps * spacing / 1e6 / 8)
        samples = [
            (i, now_us - (n - i) * spacing, now_us - (n - i) * spacing)
            for i in range(n)
        ]
        controller.receive_tracker._size_lookup = lambda seq: size
        controller.receive_tracker.extend(report(samples=samples))
        return controller.receive_tracker.rate_bps()

    def test_overuse_decreases_to_fraction_of_receive_rate(self):
        controller = gcc()
        controller.target_bps = 3_000_000
        measured = self.prime_receive_rate(controller, 3_000_000)
        assert measured == pytest.approx(3_000_000, rel=0.01)
        target = controller.apply_rate_update(
            Signal.OVERUSE, self.neutral_report(), 1_000_000
        )
        assert target == pytest.approx(0.85 * measured, rel=1e-9)

    def test_normal_increase_is_multiplicative(self):
        controller = gcc()
        controller.target_bps = 2_000_000
        self.prime_receive_rate(controller, 4_000_000)
        controller._last_rate_update_us = 0
        target = controller.apply_rate_update(
            Signal.NORMAL, self.neutral_report(), 1_000_000
        )
        assert target == pytest.approx(2_000_000 * 1.08, rel=1e-9)

    def test_heavy_loss_caps_target(self):
        controller = gcc()
        controller.target_bps = 3_000_000
        self.prime_receive_rate(controller, 10_000_000)
        # loss rate 0.2: multiplied by (1 - 0.5 * 0.2) = 0.9 while holding
        r = report(received=80, lost=range(20))
        target = controller.apply_rate_update(Signal.UNDERUSE, r, 1_000_000)
        assert target == pytest.approx(3_000_000 * 0.9, rel=1e-9)

    def test_low_loss_bonus_only_while_increasing(self):
        controller = gcc()
        controller.target_bps = 2_000_000
        self.prime_receive_rate(controller, 10_000_000)
        controller._last_rate_update_us = 1_000_000
        held = controller.apply_rate_update(
            Signal.UNDERUSE, report(received=100), 1_100_000
        )
        assert held == 2_000_000  # hold means hold
        controller.target_bps = 2_000_000
        controller._last_rate_update_us = 1_000_000
        grown = controller.apply_rate_update(
            Signal.NORMAL, report(received=100), 1_100_000
        )
        # targets are integer bits/s
        assert grown == int(2_000_000 * 1.08**0.1 * 1.05)

    def test_target_capped_by_receive_rate(self):
        controller = gcc()
        controller.target_bps = 4_000_000
        self.prime_receive_rate(controller, 1_000_000)
        target = controller.apply_rate_update(
            Signal.UNDERUSE, self.neutral_report(), 1_000_000
        )
        assert target == pytest.approx(1.5 * 1_000_000, rel=0.01)

    def test_output_always_within_bounds(self):
        controller = gcc()
        controller.target_bps = BOUNDS.min_bps
        self.prime_receive_rate(controller, 50_000)
        target = controller.apply_rate_update(
            Signal.OVERUSE, self.neutral_report(), 1_000_000
        )
        assert target == BOUNDS.min_bps

    def test_sensitive_preset_shares_the_update_path(self):
        # the sensitive controller is the same class with different constants
        sensitive = make_controller(
            ControllerKind.SENSITIVE_GCC, BOUNDS, lambda seq: 1200
        )
        assert type(sensitive) is GccController
        assert sensitive.params.decrease_factor == 0.80
        assert sensitive.params.overuse_time_ms == 5.0

    def test_full_update_handles_empty_report(self):
        controller = gcc()
        target = controller.update(report(), 100_000)
        assert BOUNDS.min_bps <= target <= BOUNDS.max_bps


class TestL4sCc:
    def test_additive_recovery_without_marks(self):
        params = ScalableParams()
        controller = L4sCcController(params, BOUNDS)
        controller.target_bps = 2_000_000
        t1 = controller.update(report(received=10, ect1=10), 100_000)
        t2 = controller.update(report(received=10, ect1=10), 200_000)
        assert t1 == 2_000_000 + params.additive_step_bps
        assert t2 == 2_000_000 + 2 * params.additive_step_bps

    def test_saturated_marks_halve_target(self):
        controller = L4sCcController(ScalableParams(), BOUNDS)
        controller.target_bps = 4_000_000
        controller.ce_ewma = 1.0
        target = controller.update(report(received=10, ect1=0, ce=10), 100_000)
        # ewma stays at 1 when f = 1, so the factor is (1 - 1/2)
        assert target == pytest.approx(2_000_000, rel=1e-9)

    def test_ewma_decays_geometrically(self):
        controller = L4sCcController(ScalableParams(), BOUNDS)
        controller.ce_ewma = 0.8
        controller.update(report(received=10, ect1=10), 100_000)
        assert controller.ce_ewma == pytest.approx(0.8 * 15 / 16)

    def test_never_reacts_to_loss(self):
        controller = L4sCcController(ScalableParams(), BOUNDS)
        controller.target_bps = 2_000_000
        target = controller.update(
            report(received=10, ect1=10, lost=range(100)), 100_000
        )
        assert target == 2_000_000 + controller.params.additive_step_bps

    @given(ect1=st.integers(0, 1000), ce=st.integers(0, 1000))
    def test_bounds_respected(self, ect1, ce):
        controller = L4sCcController(ScalableParams(), BOUNDS)
        controller.target_bps = BOUNDS.max_bps
        target = controller.update(
            report(received=ect1 + ce, ect1=ect1, ce=ce), 100_000
        )
        assert BOUNDS.min_bps <= target <= BOUNDS.max_bps


class TestL4sGcc:
    def make(self):
        return L4sGccController(GccParams(), ScalableParams(), BOUNDS, lambda s: 1200)

    def test_marked_report_takes_stronger_decrease(self):
        controller = self.make()
        controller.gcc.target_bps = 4_000_000
        controller.ce_ewma = 0.5  # fixed point of f = 0.5
        helper = TestGccRateUpdate()
        helper.prime_receive_rate(controller.gcc, 4_000_000)
        # f = 0.5 keeps the ewma at 0.5; the scalable cut (4.0 * 0.75 = 3.0)
        # undercuts the delay-based one (0.85 * 4.0 = 3.4)
        r = report(received=20, ect1=10, ce=10, lost=range(1000, 1001))
        target = controller.update(r, 1_000_000)
        assert target == pytest.approx(3_000_000, rel=0.02)
        assert controller.marks_seen

    def test_unmarked_normal_report_increases_like_gcc(self):
        controller = self.make()
        plain = gcc()
        r = report(
            received=40, ect1=40, samples=samples_with_constant_rate(40, spacing_us=2_000)
        )
        assert controller.update(r, 100_000) == plain.update(r, 100_000)

    def test_never_marked_is_bit_identical_to_gcc(self):
        controller = self.make()
        plain = gcc()
        rng = random.Random(42)
        now = 0
        for i in range(60):
            now += 100_000
            n = rng.randrange(0, 30)
            base = now - 100_000
            samples = [
                (i * 100 + j, base + j * 3_000, base + j * 3_000 + 10_000 + rng.randrange(0, 2_000))
                for j in range(n)
            ]
            r1 = report(received=n, ect1=n, samples=samples)
            r2 = copy.deepcopy(r1)
            assert controller.update(r1, now) == plain.update(r2, now)

    def test_monotone_in_ce_fraction(self):
        targets = []
        for ce in (0, 2, 5, 10):
            controller = self.make()
            controller.gcc.target_bps = 4_000_000
            helper = TestGccRateUpdate()
            helper.prime_receive_rate(controller.gcc, 4_000_000)
            r = report(received=10, ect1=10 - ce, ce=ce, lost=range(1000, 1001))
            targets.append(controller.update(r, 1_000_000))
        assert targets == sorted(targets, reverse=True)

    def test_overuse_held_after_marks_seen(self):
        controller = self.make()
        controller.marks_seen = True
        controller.gcc.target_bps = 3_000_000
        helper = TestGccRateUpdate()
        helper.prime_receive_rate(controller.gcc, 3_000_000)
        # force the embedded detector into a latched overuse state
        controller.gcc.detector.state = Signal.OVERUSE
        r = report(received=10, ect1=10, lost=range(1000, 1001))
        target = controller.update(r, 1_000_000)
        assert target == 3_000_000  # held, not decreased


class TestMakeController:
    @given(
        kind=st.sampled_from(list(ControllerKind)),
        ect1=st.integers(0, 50),
        ce=st.integers(0, 50),
        lost=st.integers(0, 50),
    )
    @settings(max_examples=100)
    def test_any_controller_stays_within_bounds(self, kind, ect1, ce, lost):
        controller = make_controller(kind, BOUNDS, lambda seq: 1200)
        r = report(received=ect1 + ce, ect1=ect1, ce=ce, lost=range(lost))
        now = 0
        for _ in range(5):
            now += 100_000
            target = controller.update(copy.deepcopy(r), now)
            assert BOUNDS.min_bps <= target <= BOUNDS.max_bps

    def test_l4s_kinds(self):
        assert isinstance(
            make_controller(ControllerKind.L4S_CC, BOUNDS, lambda s: 0), L4sCcController
        )
        assert isinstance(
            make_controller(ControllerKind.L4S_GCC, BOUNDS, lambda s: 0),
            L4sGccController,
        )
