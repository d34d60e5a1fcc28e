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

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Optional, Sequence

from .core import BITRATE_BPS, DELAY_US, FRACTION, GAIN, US_PER_MS, Config, EcnCodepoint
from .core import FeedbackReport, Range, SimTime


class ControllerKind(Enum):
    GCC = "gcc"
    SENSITIVE_GCC = "sensitive-gcc"
    L4S_CC = "l4s-cc"
    L4S_GCC = "l4s-gcc"


class Signal(Enum):
    NORMAL = "normal"
    OVERUSE = "overuse"
    UNDERUSE = "underuse"


# Members as plain names, as the ECN codepoints are read (DECISIONS.md entry 8).
_NORMAL, _OVERUSE, _UNDERUSE = Signal.NORMAL, Signal.OVERUSE, Signal.UNDERUSE


# Send-time span that groups packets into one burst for the delay gradient.
GROUP_SPAN_US = 5_000
# Retention weight of the accumulated-delay EWMA (reference estimator).
SMOOTHING = 0.9
_NEW_WEIGHT = 1.0 - SMOOTHING  # the weight of each new accumulated delay
# The detector compares the slope scaled by min(sample count, this cap) and
# threshold_gain against gamma, as in the reference estimator.
SLOPE_COUNT_CAP = 60
# Receive-rate measurement: a wide window while the estimate warms up, then a
# short window so decreases track the current delivery rate instead of the
# sawtooth average.
RECEIVE_WINDOW_INITIAL_US = 500_000
RECEIVE_WINDOW_US = 150_000
# Every few delay deltas the trendline recomputes its sums from the whole
# window, so the window's size bounds the work of that step: 50 times the
# stock 20 points.
MAX_WINDOW = 1_000
# Points a trendline adds between two recomputes of its origin and sums; each
# recompute ends the rounding drift of the additions and removals before it.
TRENDLINE_RECOMPUTE_EVERY = 5


# A delay threshold or duration of the detector, in milliseconds.
DELAY_MS = Range(0.0, DELAY_US.hi / US_PER_MS)


@dataclass(frozen=True)
class GccParams(Config):
    window: Annotated[int, Range(2, MAX_WINDOW)] = 20
    threshold_gain: Annotated[float, GAIN] = 4.0
    gamma_init_ms: Annotated[float, DELAY_MS] = 12.5
    gamma_min_ms: Annotated[float, DELAY_MS] = 6.0
    gamma_max_ms: Annotated[float, DELAY_MS] = 600.0
    k_up: Annotated[float, GAIN] = 0.0087
    k_down: Annotated[float, GAIN] = 0.039
    overuse_time_ms: Annotated[float, DELAY_MS] = 10.0
    # Multiplicative, per second: up to doubling the rate each second.
    eta_increase: Annotated[float, Range(1.0, 2.0)] = 1.08
    decrease_factor: Annotated[float, FRACTION] = 0.85
    loss_high: Annotated[float, FRACTION] = 0.10
    loss_low: Annotated[float, FRACTION] = 0.02
    # Freeze threshold adaptation while the slope is far above gamma, so a
    # spike cannot drag the threshold up after itself. Off by default: the
    # stock controller lets the threshold chase every observation.
    adapt_skip: bool = False

    def validate(self) -> None:
        if not self.loss_low < self.loss_high:
            raise ValueError("loss_low must be below loss_high")
        if not self.gamma_min_ms < self.gamma_max_ms:
            raise ValueError("gamma_min_ms must be below gamma_max_ms")


# The sensitive preset's departures from the stock GCC parameters: earlier
# congestion detection, harder reaction. The threshold floor drops with the
# initial threshold, and adaptation freezes on large spikes; without those the
# adaptive threshold bottoms out at the stock floor and the preset would
# detect nothing the stock parameters miss.
SENSITIVE_GCC = {
    "gamma_init_ms": 6.0,
    "gamma_min_ms": 2.5,
    "overuse_time_ms": 5.0,
    "decrease_factor": 0.80,
    "adapt_skip": True,
}


@dataclass(frozen=True)
class ScalableParams(Config):
    """Mark-fraction response: EWMA gain and additive recovery step.

    The step is deliberately small; mark-only control recovers linearly, and
    that slow post-congestion recovery is the behavior that separates it from
    the gradient-assisted controller."""

    ewma_gain: Annotated[float, FRACTION] = 1.0 / 16.0
    additive_step_bps: Annotated[int, BITRATE_BPS] = 5_000


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


def group_delay_gradients(report: FeedbackReport) -> list[tuple[SimTime, float]]:
    """Per consecutive pair of send-time bursts in the report: (the later
    burst's arrival time, the inter-burst delay delta in us). Queue growth
    shows up as positive deltas.

    A burst holds the packets sent within GROUP_SPAN_US of its first one and
    is represented by its last packet's (sent, arrival). One pass: a burst's
    delta is added as soon as the next burst starts, or at the end."""
    deltas: list[tuple[SimTime, float]] = []
    first_sent: SimTime | None = None
    prev: tuple[SimTime, SimTime] | None = None  # the burst before the current one
    sent = arrival = 0  # the current burst's last packet
    for _size, sample_sent, sample_arrival in report.arrival_samples:
        if first_sent is None:
            first_sent = sample_sent
        elif sample_sent - first_sent > GROUP_SPAN_US:
            if prev is not None:
                deltas.append((arrival, float((arrival - prev[1]) - (sent - prev[0]))))
            prev = (sent, arrival)
            first_sent = sample_sent
        sent, arrival = sample_sent, sample_arrival
    if prev is not None:
        deltas.append((arrival, float((arrival - prev[1]) - (sent - prev[0]))))
    return deltas


def trendline_slope(times_ms: Sequence[float], values_ms: Sequence[float]) -> float:
    """Ordinary least-squares slope of values against times.

    Returns 0 for degenerate inputs (fewer than two points, or no spread in
    time).
    """
    n = len(times_ms)
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


class Trendline:
    """Least-squares slope over the last `size` (time, value) points.

    It keeps four running sums, Σdt, Σdv, Σdt² and Σdt·dv, of the points'
    offsets from an origin: a point adds its terms when it enters the window
    and subtracts the same terms when it leaves. Every
    `TRENDLINE_RECOMPUTE_EVERY` additions, from the first, the origin moves
    to the window's means and the sums are recomputed from the points in
    `trendline_slope`'s order, so at those steps the slope is its result bit
    for bit (DECISIONS.md entry 13).
    """

    __slots__ = ("_times", "_values", "_until_recompute", "_fit")

    def __init__(self, size: int) -> None:
        self._times: deque[float] = deque(maxlen=size)
        self._values: deque[float] = deque(maxlen=size)
        self._until_recompute = 0
        self._fit = (0.0,) * 6  # the origin t0, v0, then Σdt, Σdv, Σdt², Σdt·dv

    def add(self, t_ms: float, v_ms: float) -> float:
        """Add a point, drop the oldest one from a full window, and return the
        slope over the window (0 while it is degenerate)."""
        times, values = self._times, self._values
        left = self._until_recompute
        if left:
            self._until_recompute = left - 1
            t0, v0, st, sv, stt, stv = self._fit
            dt, dv = t_ms - t0, v_ms - v0
            if len(times) == times.maxlen:
                old_dt, old_dv = times[0] - t0, values[0] - v0
            else:
                old_dt = old_dv = 0.0
            st += dt - old_dt
            sv += dv - old_dv
            stt += dt * dt - old_dt * old_dt
            stv += dt * dv - old_dt * old_dv
            times.append(t_ms)
            values.append(v_ms)
            self._fit = (t0, v0, st, sv, stt, stv)
            n = len(times)
            den = stt - st * st / n
            return (stv - st * sv / n) / den if den > 0.0 else 0.0
        self._until_recompute = TRENDLINE_RECOMPUTE_EVERY - 1
        times.append(t_ms)
        values.append(v_ms)
        n = len(times)
        t0 = v0 = 0.0
        for t, v in zip(times, values):  # left to right, as `sum` added before 3.12
            t0 += t
            v0 += v
        t0 /= n
        v0 /= n
        st = sv = stt = stv = 0.0
        for t, v in zip(times, values):
            dt, dv = t - t0, v - v0
            st += dt
            sv += dv
            stt += dt * dt
            stv += dt * dv
        self._fit = (t0, v0, st, sv, stt, stv)
        return stv / stt if stt != 0.0 else 0.0


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
        self.state = _NORMAL
        self._time_over_ms = -1.0
        self._prev_slope = 0.0
        self._last_ms: float | None = None

    def update(self, slope: float, now_ms: float) -> Signal:
        # Comparisons stand in for the builtins and return the same floats:
        # min(a, b) is `b if b < a else a`, max(a, b) is `b if b > a else a`.
        # `magnitude` is abs(slope) except that -0.0 stays -0.0; it only
        # meets comparisons and a difference with gamma, where that sign
        # cannot change a result (DECISIONS.md entry 10).
        p = self._p
        gamma = self.gamma_ms
        last = self._last_ms
        if last is None:
            dt = 0.0
        else:
            dt = now_ms - last
            if dt > self.MAX_DT_MS:
                dt = self.MAX_DT_MS
            elif dt < 0.0:
                dt = 0.0
        if slope > gamma:
            time_over = self._time_over_ms
            time_over = dt / 2.0 if time_over < 0.0 else time_over + dt
            if time_over >= p.overuse_time_ms and slope >= self._prev_slope:
                time_over = 0.0
                self.state = _OVERUSE
            self._time_over_ms = time_over
        elif slope < -gamma:
            self._time_over_ms = -1.0
            self.state = _UNDERUSE
        else:
            self._time_over_ms = -1.0
            self.state = _NORMAL
        magnitude = -slope if slope < 0.0 else slope
        if not p.adapt_skip or magnitude - gamma <= self.MAX_ADAPT_OFFSET_MS:
            k = p.k_up if magnitude > gamma else p.k_down
            gamma = gamma + k * (magnitude - gamma) * dt
            if not gamma > p.gamma_min_ms:
                gamma = p.gamma_min_ms
            if not gamma < p.gamma_max_ms:
                gamma = p.gamma_max_ms
            self.gamma_ms = gamma
        self._prev_slope = slope
        self._last_ms = now_ms
        return self.state


class ReceiveRateTracker:
    """Delivered-byte rate over a sliding window of arrival time.

    The window is wide while the estimate warms up and short afterwards;
    until a full window of history exists the divisor is the actual span, so
    early estimates are not biased low.

    Arrivals come in delivery order, which the link keeps monotone, so the
    newest arrival is the last one, the window is pruned from the left and
    its byte total is kept as it changes (an integer, so it equals a fresh
    sum). The window holds the reports' own (size, sent, arrival) samples.
    """

    def __init__(self) -> None:
        self._samples: deque[tuple[int, SimTime, SimTime]] = deque()
        self._total_bytes = 0
        self._first_arrival: SimTime | None = None

    def _current_window(self, newest: SimTime) -> SimTime:
        if newest - self._first_arrival < RECEIVE_WINDOW_INITIAL_US:
            return RECEIVE_WINDOW_INITIAL_US
        return RECEIVE_WINDOW_US

    def extend(self, report: FeedbackReport) -> None:
        arrivals = report.arrival_samples
        if not arrivals:
            return  # nothing enters, so the cutoff and the window stay
        samples = self._samples
        samples.extend(arrivals)
        total = self._total_bytes
        for size, _sent, _arrival in arrivals:
            total += size
        if self._first_arrival is None:
            self._first_arrival = samples[0][2]
        newest = arrivals[-1][2]
        cutoff = newest - self._current_window(newest)
        while samples[0][2] <= cutoff:
            total -= samples.popleft()[0]
        self._total_bytes = total

    def rate_bps(self) -> float:
        if not self._samples:
            return 0.0
        newest = self._samples[-1][2]  # the window is > 0, so pruning keeps it
        span = min(self._current_window(newest), newest - self._first_arrival)
        span = max(span, 100_000)  # floor the divisor at 100 ms of history
        return self._total_bytes * 8 * 1e6 / span


class GccController:
    """Delay-gradient + loss rate controller."""

    def __init__(self, params: GccParams, bounds: RateBounds) -> None:
        self.params = params
        self.bounds = bounds
        self.target_bps = bounds.clamp(bounds.start_bps)
        self.detector = OveruseDetector(params)
        self._acc_delay_ms = 0.0
        self._smoothed_ms = 0.0
        # slope of the smoothed accumulated delay (ms) against arrival (ms)
        self._trendline = Trendline(params.window)
        self._num_deltas = 0
        self._last_rate_update_us: SimTime = 0
        self.receive_tracker = ReceiveRateTracker()

    def update(self, report: FeedbackReport, now: SimTime) -> int:
        self.receive_tracker.extend(report)
        signal = self.process_delay_signal(report)
        return self.apply_rate_update(signal, report, now)

    def process_delay_signal(self, report: FeedbackReport) -> Signal:
        """Run grouping, trendline, and detector over one report.

        An overuse trigger anywhere in the report wins: congestion must reach
        the rate controller even when later groups in the same report have
        already relaxed."""
        detect = self.detector.update
        fit = self._trendline.add
        gain = self.params.threshold_gain
        acc_ms, smoothed_ms, num_deltas = self._acc_delay_ms, self._smoothed_ms, self._num_deltas
        signal = self.detector.state
        saw_overuse = False
        for arrival_us, delta_us in group_delay_gradients(report):
            acc_ms += delta_us / 1_000.0
            smoothed_ms = SMOOTHING * smoothed_ms + _NEW_WEIGHT * acc_ms
            now_ms = arrival_us / 1_000.0
            num_deltas += 1
            slope = fit(now_ms, smoothed_ms)
            count = num_deltas if num_deltas < SLOPE_COUNT_CAP else SLOPE_COUNT_CAP
            signal = detect(slope * count * gain, now_ms)
            if signal is _OVERUSE:
                saw_overuse = True
        self._acc_delay_ms, self._smoothed_ms, self._num_deltas = acc_ms, smoothed_ms, num_deltas
        return _OVERUSE if saw_overuse else signal

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

        if signal is _OVERUSE:
            if receive_bps > 0.0:
                target = p.decrease_factor * receive_bps
        elif signal is _NORMAL:
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
        self, gcc_params: GccParams, scalable: ScalableParams, bounds: RateBounds
    ) -> None:
        self.gcc = GccController(gcc_params, bounds)
        self.scalable = scalable
        self.bounds = bounds
        self.ce_ewma = 0.0
        self.marks_seen = False

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
            delay_decrease = self.gcc.apply_rate_update(_OVERUSE, report, now)
            scalable_decrease = before * (1.0 - self.ce_ewma / 2.0)
            self.gcc.target_bps = self.bounds.clamp(min(delay_decrease, scalable_decrease))
            return self.gcc.target_bps
        if self.marks_seen and signal is _OVERUSE:
            signal = _UNDERUSE  # hold: marks own the decrease decision
        return self.gcc.apply_rate_update(signal, report, now)


Controller = GccController | L4sCcController | L4sGccController


# The parameter sets each controller kind reads, by `make_controller`'s argument names.
PARAMS_BY_KIND = {
    ControllerKind.GCC: ("gcc_params",),
    ControllerKind.SENSITIVE_GCC: ("gcc_params",),
    ControllerKind.L4S_CC: ("scalable_params",),
    ControllerKind.L4S_GCC: ("gcc_params", "scalable_params"),
}


def gcc_departures(kind: ControllerKind) -> dict:
    """The GCC parameters a controller kind runs with in place of the stock
    ones: the sensitive preset's for `sensitive-gcc`, none for the others."""
    return SENSITIVE_GCC if kind is ControllerKind.SENSITIVE_GCC else {}


def ecn_mode_for(kind: ControllerKind) -> EcnCodepoint:
    """The codepoint a controller kind's media is sent with: ECT(1) for the
    controllers that read CE marks, Not-ECT for the others."""
    if kind in (ControllerKind.L4S_CC, ControllerKind.L4S_GCC):
        return EcnCodepoint.ECT1
    return EcnCodepoint.NOT_ECT


def make_controller(
    kind: ControllerKind,
    bounds: RateBounds,
    gcc_params: Optional[GccParams] = None,
    scalable_params: Optional[ScalableParams] = None,
) -> Controller:
    """The controller of `kind`; a parameter left as None is the kind's own."""
    if kind is ControllerKind.L4S_CC:
        return L4sCcController(scalable_params or ScalableParams(), bounds)
    gcc = gcc_params or GccParams(**gcc_departures(kind))
    if kind in (ControllerKind.GCC, ControllerKind.SENSITIVE_GCC):
        return GccController(gcc, bounds)
    if kind is ControllerKind.L4S_GCC:
        return L4sGccController(gcc, scalable_params or ScalableParams(), bounds)
    raise ValueError(f"unknown controller kind {kind!r}")
