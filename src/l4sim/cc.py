"""Rate controllers driven by receiver feedback reports.

Four controllers share one interface: given a feedback report, produce a new
target bitrate.

* ``GccController`` is the delay-gradient + loss controller used as the
  classic baseline: packets are grouped into send-time bursts, the smoothed
  accumulated inter-group delay is fit with a least-squares trendline, an
  adaptive threshold turns the scaled slope into Overuse/Underuse/Normal
  signals, and an increase/hold/decrease state machine moves the rate.
* Sensitive preset: the same controller with earlier detection and a harder
  decrease.
* ``L4sCcController`` reacts only to the CE mark fraction (scalable DCTCP
  style response, additive-only recovery).
* ``L4sGccController`` couples both: marks force a decrease that is the
  stronger of the scalable and delay-based reactions, while the
  delay-gradient machinery drives fast recovery between mark episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .core import FeedbackReport, SimTime


class ControllerKind(Enum):
    GCC = "gcc"
    SENSITIVE_GCC = "sensitive-gcc"
    L4S_CC = "l4s-cc"
    L4S_GCC = "l4s-gcc"


class Signal(Enum):
    NORMAL = "normal"
    OVERUSE = "overuse"
    UNDERUSE = "underuse"


# Send-time span that groups packets into one burst for the delay gradient.
GROUP_SPAN_US = 5_000
# Retention weight of the accumulated-delay EWMA (reference estimator).
SMOOTHING = 0.9
# The detector compares the slope scaled by min(sample count, this cap) and
# threshold_gain against gamma, as in the reference estimator.
SLOPE_COUNT_CAP = 60
# Receive-rate measurement: a wide window while the estimate warms up, then a
# short window so decreases track the current delivery rate instead of the
# sawtooth average.
RECEIVE_WINDOW_INITIAL_US = 500_000
RECEIVE_WINDOW_US = 150_000


@dataclass
class GccParams:
    window: int = 20
    threshold_gain: float = 4.0
    gamma_init_ms: float = 12.5
    gamma_min_ms: float = 6.0
    gamma_max_ms: float = 600.0
    k_up: float = 0.0087
    k_down: float = 0.039
    overuse_time_ms: float = 10.0
    eta_increase: float = 1.08  # multiplicative, per second
    decrease_factor: float = 0.85
    loss_high: float = 0.10
    loss_low: float = 0.02
    # Freeze threshold adaptation while the slope is far above gamma, so a
    # spike cannot drag the threshold up after itself. Off by default: the
    # stock controller lets the threshold chase every observation.
    adapt_skip: bool = False

    def validate(self) -> None:
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if not self.loss_low < self.loss_high:
            raise ValueError("loss_low must be below loss_high")
        if not self.gamma_min_ms < self.gamma_max_ms:
            raise ValueError("gamma_min_ms must be below gamma_max_ms")
        if self.window < 2:
            raise ValueError("trendline window must hold at least 2 points")

    @classmethod
    def sensitive(cls) -> "GccParams":
        """Earlier congestion detection, harder reaction.

        The threshold floor drops with the initial threshold, and adaptation
        freezes on large spikes; without those the adaptive threshold bottoms
        out at the stock floor and the preset would detect nothing the stock
        parameters miss."""
        return cls(
            gamma_init_ms=6.0,
            gamma_min_ms=2.5,
            overuse_time_ms=5.0,
            decrease_factor=0.80,
            adapt_skip=True,
        )


@dataclass
class ScalableParams:
    """Mark-fraction response: EWMA gain and additive recovery step.

    The step is deliberately small; mark-only control recovers linearly, and
    that slow post-congestion recovery is the behavior that separates it from
    the gradient-assisted controller."""

    ewma_gain: float = 1.0 / 16.0
    additive_step_bps: int = 5_000

    def validate(self) -> None:
        if not 0.0 < self.ewma_gain <= 1.0:
            raise ValueError("ewma_gain must be in (0, 1]")
        if self.additive_step_bps <= 0:
            raise ValueError("additive_step_bps must be positive")


@dataclass(frozen=True)
class RateBounds:
    min_bps: int
    max_bps: int
    start_bps: int

    def clamp(self, bps: float) -> int:
        return int(min(self.max_bps, max(self.min_bps, bps)))


def ce_fraction(report: FeedbackReport) -> float:
    """Marked fraction of ECN-capable arrivals in the interval; 0 when the
    interval carried none."""
    total = report.ect1_count + report.ce_count
    if total <= 0:
        return 0.0
    return report.ce_count / total


def _group_samples(
    samples: Sequence[tuple[int, SimTime, SimTime]]
) -> list[tuple[SimTime, SimTime]]:
    """Collapse (seq, sent, arrival) samples into send-time bursts; each
    group is represented by its last packet's (sent, arrival)."""
    groups: list[tuple[SimTime, SimTime]] = []
    group_first_send: SimTime | None = None
    for _seq, sent, arrival in samples:
        if group_first_send is None or sent - group_first_send > GROUP_SPAN_US:
            groups.append((sent, arrival))
            group_first_send = sent
        else:
            groups[-1] = (sent, arrival)
    return groups


def group_delay_gradients(report: FeedbackReport) -> list[tuple[SimTime, float]]:
    """Per consecutive group pair: (group arrival time, inter-group delay
    delta in us). Queue growth shows up as positive deltas."""
    groups = _group_samples(report.arrival_samples)
    out: list[tuple[SimTime, float]] = []
    for i in range(1, len(groups)):
        sent_prev, arr_prev = groups[i - 1]
        sent_cur, arr_cur = groups[i]
        out.append((arr_cur, float((arr_cur - arr_prev) - (sent_cur - sent_prev))))
    return out


def trendline_slope(times_ms: Sequence[float], values_ms: Sequence[float]) -> float:
    """Ordinary least-squares slope of values against times.

    Returns 0 for degenerate inputs (fewer than two points, or no spread in
    time).
    """
    n = len(times_ms)
    if n != len(values_ms):
        raise ValueError("times and values must have equal length")
    if n < 2:
        return 0.0
    t_mean = sum(times_ms) / n
    v_mean = sum(values_ms) / n
    num = 0.0
    den = 0.0
    for t, v in zip(times_ms, values_ms):
        dt = t - t_mean
        num += dt * (v - v_mean)
        den += dt * dt
    if den == 0.0:
        return 0.0
    return num / den


class OveruseDetector:
    """Adaptive-threshold detector over the scaled trendline slope.

    Overuse requires the slope to stay above the threshold for
    ``overuse_time_ms`` without decreasing; dips below the negated threshold
    signal underuse; anything in between is normal. The threshold gamma
    chases the observed magnitude with asymmetric gains.
    """

    MAX_DT_MS = 100.0
    # Threshold adaptation freezes while the slope sits far above gamma, so a
    # spike cannot drag the threshold up after itself.
    MAX_ADAPT_OFFSET_MS = 15.0

    def __init__(self, params: GccParams) -> None:
        self._p = params
        self.gamma_ms = params.gamma_init_ms
        self.state = Signal.NORMAL
        self._time_over_ms = -1.0
        self._prev_slope = 0.0
        self._last_ms: float | None = None

    def update(self, slope: float, now_ms: float) -> Signal:
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


class ReceiveRateTracker:
    """Delivered-byte rate over a sliding window of arrival time.

    The window is wide while the estimate warms up and short afterwards;
    until a full window of history exists the divisor is the actual span, so
    early estimates are not biased low.
    """

    def __init__(
        self, window_us: int, initial_window_us: int, size_lookup: Callable[[int], int]
    ) -> None:
        self._window_us = window_us
        self._initial_window_us = max(initial_window_us, window_us)
        self._size_lookup = size_lookup
        self._samples: list[tuple[SimTime, int]] = []  # (arrival, bytes)
        self._first_arrival: SimTime | None = None
        self._newest: SimTime = 0

    def _current_window(self) -> SimTime:
        if self._first_arrival is None:
            return self._initial_window_us
        if self._newest - self._first_arrival < self._initial_window_us:
            return self._initial_window_us
        return self._window_us

    def extend(self, report: FeedbackReport) -> None:
        for seq, _sent, arrival in report.arrival_samples:
            size = self._size_lookup(seq)
            self._samples.append((arrival, size))
            if self._first_arrival is None:
                self._first_arrival = arrival
            if arrival > self._newest:
                self._newest = arrival
        cutoff = self._newest - self._current_window()
        keep = 0
        for i, (arrival, _) in enumerate(self._samples):
            if arrival > cutoff:
                keep = i
                break
        else:
            keep = len(self._samples)
        if keep:
            del self._samples[:keep]

    def rate_bps(self) -> float:
        if not self._samples or self._first_arrival is None:
            return 0.0
        total = sum(b for _, b in self._samples)
        window = self._current_window()
        span = min(window, self._newest - self._first_arrival)
        span = max(span, 100_000)  # floor the divisor at 100 ms of history
        return total * 8 * 1e6 / span


class GccController:
    """Delay-gradient + loss rate controller."""

    def __init__(
        self,
        params: GccParams,
        bounds: RateBounds,
        size_lookup: Callable[[int], int],
    ) -> None:
        params.validate()
        self.params = params
        self.bounds = bounds
        self.target_bps = bounds.clamp(bounds.start_bps)
        self.detector = OveruseDetector(params)
        self._acc_delay_ms = 0.0
        self._smoothed_ms = 0.0
        self._points: list[tuple[float, float]] = []  # (arrival ms, smoothed ms)
        self._num_deltas = 0
        self._last_rate_update_us: SimTime = 0
        self.receive_tracker = ReceiveRateTracker(
            RECEIVE_WINDOW_US, RECEIVE_WINDOW_INITIAL_US, size_lookup
        )

    def update(self, report: FeedbackReport, now: SimTime) -> int:
        self.receive_tracker.extend(report)
        signal = self.process_delay_signal(report)
        return self.apply_rate_update(signal, report, now)

    def process_delay_signal(self, report: FeedbackReport) -> Signal:
        """Run grouping, trendline, and detector over one report.

        An overuse trigger anywhere in the report wins: congestion must reach
        the rate controller even when later groups in the same report have
        already relaxed."""
        p = self.params
        signal = self.detector.state
        saw_overuse = False
        for arrival_us, delta_us in group_delay_gradients(report):
            self._acc_delay_ms += delta_us / 1_000.0
            self._smoothed_ms = (
                SMOOTHING * self._smoothed_ms + (1.0 - SMOOTHING) * self._acc_delay_ms
            )
            self._points.append((arrival_us / 1_000.0, self._smoothed_ms))
            if len(self._points) > p.window:
                del self._points[0]
            self._num_deltas += 1
            slope = trendline_slope(
                [t for t, _ in self._points], [v for _, v in self._points]
            )
            scaled = slope * min(self._num_deltas, SLOPE_COUNT_CAP) * p.threshold_gain
            signal = self.detector.update(scaled, arrival_us / 1_000.0)
            if signal is Signal.OVERUSE:
                saw_overuse = True
        return Signal.OVERUSE if saw_overuse else signal

    def apply_rate_update(self, signal: Signal, report: FeedbackReport, now: SimTime) -> int:
        """Decrease on overuse, hold on underuse, increase otherwise, and
        return the new target. Heavy loss caps the target after any of them;
        the near-lossless bonus only accelerates the increase."""
        p = self.params
        dt_s = max(0.0, (now - self._last_rate_update_us) / 1e6)
        self._last_rate_update_us = now
        lost = len(report.lost_seqs)
        denom = report.received_count + lost
        loss_rate = (lost / denom) if denom else 0.0
        receive_bps = self.receive_tracker.rate_bps()
        target = float(self.target_bps)

        if signal is Signal.OVERUSE:
            if receive_bps > 0.0:
                target = p.decrease_factor * receive_bps
        elif signal is Signal.NORMAL:
            target *= p.eta_increase**dt_s
            if loss_rate < p.loss_low:
                target *= 1.05

        if loss_rate > p.loss_high:
            target *= 1.0 - 0.5 * loss_rate
        if receive_bps > 0.0:
            target = min(target, 1.5 * receive_bps)
        self.target_bps = self.bounds.clamp(target)
        return self.target_bps


class L4sCcController:
    """Mark-fraction-only controller: multiplicative decrease scaled by the
    smoothed mark fraction, additive-only recovery."""

    def __init__(self, params: ScalableParams, bounds: RateBounds) -> None:
        params.validate()
        self.params = params
        self.bounds = bounds
        self.target_bps = bounds.clamp(bounds.start_bps)
        self.ce_ewma = 0.0

    def update(self, report: FeedbackReport, now: SimTime) -> int:
        g = self.params.ewma_gain
        f = ce_fraction(report)
        self.ce_ewma = (1.0 - g) * self.ce_ewma + g * f
        if f > 0.0:
            target = self.target_bps * (1.0 - self.ce_ewma / 2.0)
        else:
            target = self.target_bps + self.params.additive_step_bps
        self.target_bps = self.bounds.clamp(target)
        return self.target_bps


class L4sGccController:
    """Delay-gradient controller reinforced by mark feedback.

    A report carrying marks forces a decrease: the stronger of the
    delay-based decrease and the scalable mark-fraction decrease. Mark-free
    reports follow the embedded delay-gradient controller, giving the fast
    multiplicative recovery path. Until the first mark is observed the
    trajectory is bit-identical to the plain controller; once the path has
    proven mark-capable, mark feedback owns congestion detection and a
    trendline overuse alone holds the rate instead of cutting it.
    """

    def __init__(
        self,
        gcc_params: GccParams,
        scalable: ScalableParams,
        bounds: RateBounds,
        size_lookup: Callable[[int], int],
    ) -> None:
        scalable.validate()
        self.gcc = GccController(gcc_params, bounds, size_lookup)
        self.scalable = scalable
        self.bounds = bounds
        self.ce_ewma = 0.0
        self.marks_seen = False

    @property
    def target_bps(self) -> int:
        return self.gcc.target_bps

    def update(self, report: FeedbackReport, now: SimTime) -> int:
        g = self.scalable.ewma_gain
        f = ce_fraction(report)
        self.ce_ewma = (1.0 - g) * self.ce_ewma + g * f
        # The estimator runs on every report, so it is warm when marks stop.
        self.gcc.receive_tracker.extend(report)
        signal = self.gcc.process_delay_signal(report)
        if f > 0.0:
            self.marks_seen = True
            before = self.gcc.target_bps
            delay_decrease = self.gcc.apply_rate_update(Signal.OVERUSE, report, now)
            scalable_decrease = before * (1.0 - self.ce_ewma / 2.0)
            self.gcc.target_bps = self.bounds.clamp(min(delay_decrease, scalable_decrease))
            return self.gcc.target_bps
        if self.marks_seen and signal is Signal.OVERUSE:
            signal = Signal.UNDERUSE  # hold: marks own the decrease decision
        return self.gcc.apply_rate_update(signal, report, now)


Controller = GccController | L4sCcController | L4sGccController


def default_gcc_params(kind: ControllerKind) -> GccParams:
    """The GCC parameters a controller kind runs with when none are given:
    the sensitive preset for `sensitive-gcc`, the stock ones otherwise."""
    return GccParams.sensitive() if kind is ControllerKind.SENSITIVE_GCC else GccParams()


def make_controller(
    kind: ControllerKind,
    bounds: RateBounds,
    size_lookup: Callable[[int], int],
    gcc_params: Optional[GccParams] = None,
    scalable_params: Optional[ScalableParams] = None,
) -> Controller:
    if kind in (ControllerKind.GCC, ControllerKind.SENSITIVE_GCC):
        return GccController(gcc_params or default_gcc_params(kind), bounds, size_lookup)
    if kind is ControllerKind.L4S_CC:
        return L4sCcController(scalable_params or ScalableParams(), bounds)
    if kind is ControllerKind.L4S_GCC:
        return L4sGccController(
            gcc_params or default_gcc_params(kind),
            scalable_params or ScalableParams(),
            bounds,
            size_lookup,
        )
    raise ValueError(f"unknown controller kind {kind!r}")
