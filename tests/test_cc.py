import copy
import dataclasses
import math
import random
from collections import deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from l4sim import cc
from l4sim.cc import (
    MAX_WINDOW,
    RECEIVE_WINDOW_INITIAL_US,
    RECEIVE_WINDOW_US,
    SENSITIVE_GCC,
    SLOPE_COUNT_CAP,
    SMOOTHING,
    TRENDLINE_RECOMPUTE_EVERY,
    _NEW_WEIGHT,
    ControllerKind,
    GccController,
    GccParams,
    L4sCcController,
    L4sGccController,
    OveruseDetector,
    RateBounds,
    ReceiveRateTracker,
    ScalableParams,
    Signal,
    Trendline,
    ce_fraction,
    gcc_departures,
    group_delay_gradients,
    make_controller,
    trendline_slope,
)
from l4sim.core import FeedbackReport, number_fields
from l4sim.harness import PRESET_CASES, _sum_in_order, compute_metrics, preset_scenario
from l4sim.media import SourceConfig
from l4sim.sim import Scenario, _Engine

BOUNDS = RateBounds(min_bps=150_000, max_bps=5_000_000, start_bps=1_000_000)


def report(
    received=0,
    lost=(),
    ect1=0,
    ce=0,
    samples=(),
):
    return FeedbackReport(
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
        (size_bytes, start_us + i * spacing_us, start_us + i * spacing_us + owd_us)
        for i in range(n)
    ]


def gcc(params=None, bounds=BOUNDS):
    return GccController(params or GccParams(), bounds)


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
            (1_200, i * 10_000, i * 10_000 + 10_000 + i * 1_000) for i in range(10)
        ]
        gradients = [d for _, d in group_delay_gradients(report(samples=samples))]
        assert all(g == pytest.approx(1_000) for g in gradients)

    def test_single_sample_is_empty(self):
        r = report(samples=[(1_200, 0, 10_000)])
        assert list(group_delay_gradients(r)) == []

    def test_burst_grouping_uses_last_packet(self):
        # two bursts of packets within 5 ms of each other
        samples = [
            (1_200, 0, 10_000),
            (1_200, 2_000, 12_000),
            (1_200, 4_000, 14_500),  # last of burst 1
            (1_200, 20_000, 30_000),
            (1_200, 22_000, 33_000),  # last of burst 2
        ]
        pairs = list(group_delay_gradients(report(samples=samples)))
        assert len(pairs) == 1
        arrival, delta = pairs[0]
        assert arrival == 33_000
        assert delta == (33_000 - 14_500) - (22_000 - 4_000)


# Unit round-off of a binary64 float, and the largest absolute error of one
# rounding that underflows (half the smallest subnormal).
UNIT_ROUNDOFF = Fraction(1, 2**53)
UNDERFLOW = Fraction(1, 2**1075)


def gamma(k):
    """Higham's gamma_k = k*u / (1 - k*u): a bound on the relative error that
    k chained roundings can build up (Accuracy and Stability of Numerical
    Algorithms, section 3.1)."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def least_squares_oracle(times, values):
    """The exact least-squares slope of the given floats, and a bound on how
    far `trendline_slope`'s float result can lie from it.

    The bound follows the float algorithm step by step:
    - each mean is a left-to-right sum then one division, so it lies within
      gamma_n times the mean magnitude (`e_t`, `e_v`) of the exact mean;
    - each term (t - t_mean) * (v - v_mean) takes three roundings and the
      running sum n - 1 more, so both sums lie within gamma_{n+2} of their
      terms' magnitudes, plus n * e_t * e_v (n * e_t**2) for using the float
      means: the first-order effect of a mean's error cancels;
    - any rounding that underflows adds up to `UNDERFLOW` instead, which
      4n of them cover;
    - the final division adds one rounding.
    """
    n = len(times)
    ts = [Fraction(t) for t in times]
    vs = [Fraction(v) for v in values]
    t_mean, v_mean = sum(ts) / n, sum(vs) / n
    dts = [t - t_mean for t in ts]
    dvs = [v - v_mean for v in vs]
    sxx = sum(d * d for d in dts)
    sxy = sum(a * b for a, b in zip(dts, dvs))
    slope = sxy / sxx
    e_t = gamma(n) * sum(abs(t) for t in ts) / n + UNDERFLOW
    e_v = gamma(n) * sum(abs(v) for v in vs) / n + UNDERFLOW
    g = gamma(n + 2)
    e_num = g * sum((abs(a) + e_t) * (abs(b) + e_v) for a, b in zip(dts, dvs))
    e_num += n * e_t * e_v + 4 * n * UNDERFLOW
    e_den = g * (sxx + n * e_t * e_t) + n * e_t * e_t + 4 * n * UNDERFLOW
    assert e_den < sxx
    quotient = (e_num + abs(slope) * e_den) / (sxx - e_den)
    return slope, quotient * (1 + UNIT_ROUNDOFF) + UNIT_ROUNDOFF * abs(slope) + UNDERFLOW


class TestTrendlineSlope:
    def test_flat_series(self):
        assert trendline_slope([0, 1, 2, 3], [5, 5, 5, 5]) == 0.0

    def test_exact_linear_series(self):
        times = [float(i) for i in range(20)]
        values = [3.5 * t - 2.0 for t in times]
        slope, bound = least_squares_oracle(times, values)
        assert slope == Fraction(7, 2)
        assert abs(Fraction(trendline_slope(times, values)) - slope) <= bound

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
    @example(data=[(0, 7716.0), (1, 7716.0)])  # np.polyfit gave -1.72e-9, not 0
    @example(data=[(0, 0.0), (1, 4054.0)])  # a slope of about 4e6
    @settings(max_examples=200)
    def test_matches_least_squares_oracle(self, data):
        data.sort()
        times = [float(t) / 1000.0 for t, _ in data]
        values = [v for _, v in data]
        slope, bound = least_squares_oracle(times, values)
        assert abs(Fraction(trendline_slope(times, values)) - slope) <= bound


def two_pass_slope(times, values):
    """`trendline_slope` with its means summed left to right, whichever
    algorithm the builtin `sum` uses: the recompute steps of `Trendline`."""
    with mock.patch.object(cc, "sum", _sum_in_order, create=True):
        return trendline_slope(times, values)


def sliding_oracle(window, origin, since_recompute):
    """The exact least-squares slope of the window, and a bound on how far a
    `Trendline` step that recomputed nothing can lie from it.

    `origin` is the float (t0, v0) of the last recompute; `since_recompute`
    lists every point whose terms entered a running sum since then: the
    recompute's window, each point added after it and each point dropped
    after it. The bound follows the float algorithm:
    - the terms dt = t - t0 and dv = v - v0 lie within gamma_1 of their
      exact values, dt*dt and dt*dv within gamma_3 (k = 1 or 3); a dropped
      point subtracts the very float it added, as the origin has not moved;
    - so each running sum is a sum of the L terms in `since_recompute`, in
      some order, and its L - 1 roundings with the terms' own lie within
      gamma_{L-1+k} times the sum of the terms' exact magnitudes;
    - the corrections Σdt·Σdv/n and Σdt²/n take two roundings each, with
      the sums' errors carried through the product, and their differences
      with Σdt·dv and Σdt² one more;
    - any rounding that underflows adds up to `UNDERFLOW` instead, and the
      final division adds one rounding, as in `least_squares_oracle`.
    The sums about any origin give the exact slope, so the float origin
    costs nothing.
    """
    n = len(window)
    t0, v0 = (Fraction(x) for x in origin)
    dts = [Fraction(t) - t0 for t, _ in window]
    dvs = [Fraction(v) - v0 for _, v in window]
    a, b = sum(dts), sum(dvs)
    c = sum(d * d for d in dts)
    d = sum(x * y for x, y in zip(dts, dvs))
    num, den = d - a * b / n, c - a * a / n
    slope = num / den
    seq_t = [abs(Fraction(t) - t0) for t, _ in since_recompute]
    seq_v = [abs(Fraction(v) - v0) for _, v in since_recompute]
    length = len(since_recompute)
    flush = 8 * length * UNDERFLOW

    def sum_error(k, magnitudes):
        return gamma(length - 1 + k) * sum(magnitudes) + flush

    e_a, e_b = sum_error(1, seq_t), sum_error(1, seq_v)
    e_c = sum_error(3, (x * x for x in seq_t))
    e_d = sum_error(3, (x * y for x, y in zip(seq_t, seq_v)))

    def difference_error(total, e_total, x, e_x, y, e_y):
        """Error of fl(total - fl(fl(x*y)/n)) from total - x*y/n."""
        mx, my = abs(x) + e_x, abs(y) + e_y
        product = mx * my / n
        e_product = (mx * my - abs(x * y)) / n + gamma(2) * product + 2 * UNDERFLOW
        rounded = abs(total) + e_total + (1 + gamma(2)) * product + 2 * UNDERFLOW
        return e_total + e_product + UNIT_ROUNDOFF * rounded

    e_num = difference_error(d, e_d, a, e_a, b, e_b)
    e_den = difference_error(c, e_c, a, e_a, a, e_a)
    assert e_den < den
    quotient = (e_num + abs(slope) * e_den) / (den - e_den)
    return slope, quotient * (1 + UNIT_ROUNDOFF) + UNIT_ROUNDOFF * abs(slope) + UNDERFLOW


class TestTrendline:
    """`Trendline` against the two-pass fit: equal bit for bit at every
    recompute step, and within the sliding bound of the exact slope at every
    other step, from the first point to windows that slide."""

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 10**6), st.floats(-1e4, 1e4)),
            min_size=2,
            max_size=40,
            unique_by=lambda p: p[0],
        ),
        size=st.one_of(st.integers(2, 12), st.integers(2, MAX_WINDOW)),
    )
    @example(data=[(0, 7716.0), (1, 7716.0)], size=2)  # np.polyfit gave -1.72e-9, not 0
    @example(data=[(0, 0.0), (1, 4054.0)], size=2)  # a slope of about 4e6
    @settings(max_examples=150)
    def test_every_window_within_its_bound(self, data, size):
        data.sort()
        points = [(t / 1000.0, v) for t, v in data]
        trendline = Trendline(size)
        window: list[tuple[float, float]] = []
        since_recompute: list[tuple[float, float]] = []
        origin = (0.0, 0.0)
        for i, point in enumerate(points):
            slope = trendline.add(*point)
            window.append(point)
            dropped = window.pop(0) if len(window) > size else None
            if i % TRENDLINE_RECOMPUTE_EVERY == 0:
                times, values = [t for t, _ in window], [v for _, v in window]
                assert slope == two_pass_slope(times, values)
                since_recompute = list(window)
                n = len(window)
                origin = (_sum_in_order(times) / n, _sum_in_order(values) / n)
                continue
            since_recompute.append(point)
            if dropped is not None:
                since_recompute.append(dropped)
            exact, bound = sliding_oracle(window, origin, since_recompute)
            assert abs(Fraction(slope) - exact) <= bound

    def test_short_flat_and_timeless_windows_are_zero(self):
        trendline = Trendline(3)
        assert trendline.add(1.0, 5.0) == 0.0
        assert [trendline.add(float(t), 5.0) for t in range(2, 12)] == [0.0] * 10
        trendline = Trendline(2)
        assert [trendline.add(3.0, v) for v in (1.0, 5.0)] == [0.0, 0.0]


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


class BuiltinDetector(OveruseDetector):
    """The detector as written with the builtin min, max and abs: the
    reference for the comparisons that replaced them."""

    def update(self, slope, now_ms):
        p = self._p
        dt = 0.0 if self._last_ms is None else min(now_ms - self._last_ms, self.MAX_DT_MS)
        if dt < 0.0:
            dt = 0.0
        if slope > self.gamma_ms:
            if self._time_over_ms < 0.0:
                self._time_over_ms = dt / 2.0
            else:
                self._time_over_ms += dt
            if self._time_over_ms >= p.overuse_time_ms and slope >= self._prev_slope:
                self._time_over_ms = 0.0
                self.state = Signal.OVERUSE
        elif slope < -self.gamma_ms:
            self._time_over_ms = -1.0
            self.state = Signal.UNDERUSE
        else:
            self._time_over_ms = -1.0
            self.state = Signal.NORMAL
        if not p.adapt_skip or abs(slope) - self.gamma_ms <= self.MAX_ADAPT_OFFSET_MS:
            k = p.k_up if abs(slope) > self.gamma_ms else p.k_down
            gamma = self.gamma_ms + k * (abs(slope) - self.gamma_ms) * dt
            self.gamma_ms = min(p.gamma_max_ms, max(p.gamma_min_ms, gamma))
        self._prev_slope = slope
        self._last_ms = now_ms
        return self.state


# Parameters whose threshold can sit at a signed zero, to check the sign.
ZERO_FLOOR = GccParams(gamma_init_ms=0.0, gamma_min_ms=0.0, gamma_max_ms=1.0, k_down=0.5)
NEGATIVE_ZERO_FLOOR = GccParams(gamma_init_ms=-0.0, gamma_min_ms=-0.0, gamma_max_ms=1.0)


class TestDetectorComparisons:
    """`OveruseDetector.update` compares instead of calling min, max and
    abs; every state and float it keeps must match the builtin form bit for
    bit, signed zeros included."""

    @staticmethod
    def floats(detector):
        values = (detector.gamma_ms, detector._time_over_ms, detector._prev_slope)
        return [v.hex() for v in values], detector._last_ms, detector.state

    @given(
        params=st.sampled_from(
            (GccParams(), GccParams(**SENSITIVE_GCC), ZERO_FLOOR, NEGATIVE_ZERO_FLOOR)
        ),
        steps=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from((0.0, -0.0, 2.5, -2.5, 6.0, -6.0, 12.5, -12.5,
                                     27.5, 600.0, -600.0, 1e-300, -1e-300)),
                    st.floats(-700.0, 700.0),
                ),
                st.one_of(
                    st.sampled_from((0.0, -0.0, 5.0, 10.0, 100.0, 150.0, -3.0)),
                    st.floats(-200.0, 200.0),
                ),
            ),  # fmt: skip
            max_size=40,
        ),
    )
    @example(params=ZERO_FLOOR, steps=[(0.0, 0.0), (-0.0, 100.0), (-0.0, 200.0)])
    @example(params=NEGATIVE_ZERO_FLOOR, steps=[(-0.0, 0.0), (0.0, 100.0), (-0.0, 100.0)])
    def test_matches_builtin_min_max_abs(self, params, steps):
        detector, reference = OveruseDetector(params), BuiltinDetector(params)
        now = 0.0
        for slope, step_ms in steps:
            now += step_ms
            assert detector.update(slope, now) is reference.update(slope, now)
            assert self.floats(detector) == self.floats(reference)


def rate_from_scratch(arrivals):
    """The receive rate re-derived from every (arrival, bytes) so far: the
    bytes that arrived after the current window's cutoff, over the span."""
    first = arrivals[0][0]
    newest = max(a for a, _ in arrivals)
    wide = newest - first < RECEIVE_WINDOW_INITIAL_US
    window = RECEIVE_WINDOW_INITIAL_US if wide else RECEIVE_WINDOW_US
    kept = [size for a, size in arrivals if a > newest - window]
    if not kept:
        return 0.0
    span = max(min(window, newest - first), 100_000)
    return sum(kept) * 8 * 1e6 / span


class TestReceiveRateTracker:
    """The tracker prunes a window and keeps its byte total as it goes; its
    rate must equal a re-sum from scratch, through the switch from the
    warm-up window to the short one, with arrivals exactly on a cutoff."""

    @given(
        reports=st.lists(
            st.lists(st.tuples(st.integers(0, 20), st.integers(1, 1_500)), max_size=12),
            min_size=1,
            max_size=25,
        )
    )
    @example(reports=[[(0, 1_000), (35, 1_200), (15, 800)]])  # 0, 350 ms, 500 ms
    @settings(max_examples=200)
    def test_matches_a_fresh_sum(self, reports):
        tracker = ReceiveRateTracker()
        arrivals, now = [], 0
        for steps in reports:
            samples = []
            for gap, size in steps:  # arrivals on a 10 ms grid, in order
                now += gap * 10_000
                samples.append((size, now - 10_000, now))
                arrivals.append((now, size))
            tracker.extend(report(samples=samples))
            expected = rate_from_scratch(arrivals) if arrivals else 0.0
            assert tracker.rate_bps() == expected


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
            (size, now_us - (n - i) * spacing, now_us - (n - i) * spacing)
            for i in range(n)
        ]
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

    def test_largest_increase_over_the_longest_update_gap_clamps_at_the_cap(self):
        # The longest gap between rate updates is the first: one feedback
        # interval and the feedback delay, each at its upper bound.
        scenario = number_fields(Scenario)
        gap_us = scenario["feedback_interval_us"][1].hi + scenario["reverse_delay_us"][1].hi
        eta = number_fields(GccParams)["eta_increase"][1].hi
        top = number_fields(SourceConfig)["max_bitrate_bps"][1].hi
        controller = gcc(GccParams(eta_increase=eta), RateBounds(top, top, top))
        assert math.isfinite(top * eta ** (gap_us / 1e6) * 1.05)  # with the low-loss step
        target = controller.apply_rate_update(Signal.NORMAL, report(received=100), gap_us)
        assert target == top and isinstance(target, int)

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
        sensitive = make_controller(ControllerKind.SENSITIVE_GCC, BOUNDS)
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
        return L4sGccController(GccParams(), ScalableParams(), BOUNDS)

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
        for _ in range(60):
            now += 100_000
            n = rng.randrange(0, 30)
            base = now - 100_000
            samples = [
                (1_200, base + j * 3_000, base + j * 3_000 + 10_000 + rng.randrange(0, 2_000))
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
        controller = make_controller(kind, BOUNDS)
        r = report(received=ect1 + ce, ect1=ect1, ce=ce, lost=range(lost))
        now = 0
        for _ in range(5):
            now += 100_000
            target = controller.update(copy.deepcopy(r), now)
            assert BOUNDS.min_bps <= target <= BOUNDS.max_bps

    def test_l4s_kinds(self):
        assert isinstance(
            make_controller(ControllerKind.L4S_CC, BOUNDS), L4sCcController
        )
        assert isinstance(
            make_controller(ControllerKind.L4S_GCC, BOUNDS),
            L4sGccController,
        )


class TwoPassGccController(GccController):
    """The controller as it was before `Trendline`: the window in two deques
    and a two-pass `trendline_slope` over them at every delay delta. Its
    `process_delay_signal` is that version's, verbatim."""

    def __init__(self, params: GccParams, bounds: RateBounds) -> None:
        super().__init__(params, bounds)
        self._times_ms: deque[float] = deque(maxlen=params.window)
        self._smoothed_window_ms: deque[float] = deque(maxlen=params.window)

    def process_delay_signal(self, report: FeedbackReport) -> Signal:
        """Run grouping, trendline, and detector over one report.

        An overuse trigger anywhere in the report wins: congestion must reach
        the rate controller even when later groups in the same report have
        already relaxed."""
        detect = self.detector.update
        gain = self.params.threshold_gain
        times_ms, smoothed_window_ms = self._times_ms, self._smoothed_window_ms
        acc_ms, smoothed_ms, num_deltas = self._acc_delay_ms, self._smoothed_ms, self._num_deltas
        signal = self.detector.state
        saw_overuse = False
        for arrival_us, delta_us in group_delay_gradients(report):
            acc_ms += delta_us / 1_000.0
            smoothed_ms = SMOOTHING * smoothed_ms + _NEW_WEIGHT * acc_ms
            now_ms = arrival_us / 1_000.0
            times_ms.append(now_ms)
            smoothed_window_ms.append(smoothed_ms)
            num_deltas += 1
            slope = trendline_slope(times_ms, smoothed_window_ms)
            count = num_deltas if num_deltas < SLOPE_COUNT_CAP else SLOPE_COUNT_CAP
            signal = detect(slope * count * gain, now_ms)
            if signal is Signal.OVERUSE:
                saw_overuse = True
        self._acc_delay_ms, self._smoothed_ms, self._num_deltas = acc_ms, smoothed_ms, num_deltas
        return Signal.OVERUSE if saw_overuse else signal


def run_with_log(scenario, two_pass: bool):
    """Run the scenario, with the two-pass delay signal if asked, and return
    each report's signal and target, the timeline rows, metrics and audit."""
    engine = _Engine(scenario, timeline=True)
    controller = engine.controller
    gcc = controller.gcc if isinstance(controller, L4sGccController) else controller
    if two_pass:
        gcc = TwoPassGccController(gcc.params, gcc.bounds)
        if isinstance(controller, L4sGccController):
            controller.gcc = gcc
        else:
            engine.controller = controller = gcc
    signals, targets = [], []
    process, update = gcc.process_delay_signal, controller.update

    def logged_process(report):
        signals.append(process(report))
        return signals[-1]

    def logged_update(report, now):
        targets.append(update(report, now))
        return targets[-1]

    gcc.process_delay_signal, controller.update = logged_process, logged_update
    log = engine.run()
    return signals, targets, b"".join(log.rows.chunks()), compute_metrics(log, scenario), log.audit


TRENDLINE_KINDS = (ControllerKind.GCC, ControllerKind.SENSITIVE_GCC, ControllerKind.L4S_GCC)


class TestTwoPassDifferential:
    """The controllers with `Trendline` against the two-pass delay signal
    they replaced, on short preset runs with drawn seeds and windows: every
    signal, target and output must be equal."""

    @given(
        case=st.sampled_from(PRESET_CASES),
        kind=st.sampled_from(TRENDLINE_KINDS),
        seed=st.integers(0, 2**32),
        duration_s=st.sampled_from((1.0, 2.0, 3.0)),
        window=st.one_of(st.integers(2, 30), st.integers(2, MAX_WINDOW)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_two_pass_signal(self, case, kind, seed, duration_s, window):
        scenario = preset_scenario(case, kind, seed=seed, duration_s=duration_s)
        params = GccParams(window=window, **gcc_departures(kind))
        scenario = dataclasses.replace(scenario, gcc_params=params)
        signals, targets, *outputs = run_with_log(scenario, two_pass=False)
        ref_signals, ref_targets, *ref_outputs = run_with_log(scenario, two_pass=True)
        assert signals and signals == ref_signals
        assert targets == ref_targets
        assert outputs == ref_outputs
