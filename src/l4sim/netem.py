"""Bottleneck link emulation.

Covers time-varying capacity (constant, square wave, trace playback),
probabilistic one-way delay jitter, serialization and propagation delay, and
ingestion/normalization of bandwidth trace files.
"""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Annotated, Sequence, Union

from .core import BITRATE_BPS, DELAY_US, FRACTION, SESSION_US, US_PER_S, Config, Range
from .core import SimTime, check_number

# Traces normalized onto [0, max] may contain zero-rate samples; a literal
# zero would freeze queued bytes forever, so link construction floors them.
TRACE_FLOOR_MBPS = 0.1
# The rate a trace's highest sample is scaled to by default.
TRACE_MAX_MBPS = 5.0
# A link's capacity, from 1 kbps to 100 Gbps, in Mbps.
CAPACITY_MBPS = Range(0.001, BITRATE_BPS.hi / 1e6)
# A trace sample's time: no session reaches a later one.
TRACE_US = Range(0, SESSION_US.hi)


@dataclass(frozen=True)
class Constant(Config):
    mbps: Annotated[float, CAPACITY_MBPS]


@dataclass(frozen=True)
class SquareWave(Config):
    """Alternating capacity: low on [0, half_period), high on the next
    half period, repeating."""

    low_mbps: Annotated[float, CAPACITY_MBPS]
    high_mbps: Annotated[float, CAPACITY_MBPS]
    half_period_us: Annotated[SimTime, SESSION_US]


@dataclass(frozen=True)
class TracePattern:
    """Step function over (t_us, mbps) samples; each rate holds until the
    next sample time, the last rate holds forever. Its times lie in
    `TRACE_US` and its rates in `CAPACITY_MBPS`, as `Constant.mbps` does."""

    samples: tuple[tuple[SimTime, float], ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("trace needs at least one sample")
        if self.samples[0][0] != 0:
            raise ValueError("trace must start at t=0")
        prev = -1
        for i, (t, mbps) in enumerate(self.samples):
            name = f"samples[{i}]"
            check_number(name, t, int, TRACE_US)
            check_number(name, mbps, float, CAPACITY_MBPS)
            if t <= prev:
                raise ValueError("trace times must be strictly increasing")
            prev = t


CapacityPattern = Union[Constant, SquareWave, TracePattern]


def capacity_segment(pattern: CapacityPattern, t_us: SimTime) -> tuple[float, SimTime, float]:
    """The link rate in bits/s at time t (t >= 0), and the span [start, end)
    around t over which that rate holds."""
    if t_us < 0:
        raise ValueError("time must be non-negative")
    if isinstance(pattern, Constant):
        return pattern.mbps * 1e6, 0, math.inf
    if isinstance(pattern, SquareWave):
        half = pattern.half_period_us
        step = t_us // half
        rate = pattern.high_mbps if step % 2 else pattern.low_mbps
        return rate * 1e6, step * half, (step + 1) * half
    # TracePattern: step-hold. Times are strictly increasing, so the
    # (t, inf) sentinel sorts just after the last sample at or before t.
    samples = pattern.samples
    i = bisect_right(samples, (t_us, math.inf))
    start, mbps = samples[i - 1]
    return mbps * 1e6, start, samples[i][0] if i < len(samples) else math.inf


def capacity_at(pattern: CapacityPattern, t_us: SimTime) -> float:
    """Link rate in bits/s at time t (t >= 0)."""
    return capacity_segment(pattern, t_us)[0]


def average_capacity_bps(pattern: CapacityPattern, duration_us: SimTime) -> float:
    """Time-average of the capacity pattern over [0, duration], exact
    piecewise integral."""
    if isinstance(pattern, Constant):
        return pattern.mbps * 1e6
    if isinstance(pattern, SquareWave):
        half = pattern.half_period_us
        full, rem = divmod(duration_us, 2 * half)
        acc = full * half * (pattern.low_mbps + pattern.high_mbps) * 1e6
        low_part = min(rem, half)
        acc += low_part * pattern.low_mbps * 1e6
        acc += (rem - low_part) * pattern.high_mbps * 1e6
        return acc / duration_us
    acc = 0.0
    samples = pattern.samples
    for i, (t, mbps) in enumerate(samples):
        if t >= duration_us:
            break
        t_next = samples[i + 1][0] if i + 1 < len(samples) else duration_us
        acc += (min(t_next, duration_us) - t) * mbps * 1e6
    return acc / duration_us


@dataclass(frozen=True)
class JitterProfile:
    """Discrete one-way delay distribution: (delay_us, probability) entries.

    The cumulative probabilities are summed once, left to right, when the
    profile is built. They are kept outside the dataclass fields, so they
    take no part in equality, hashing or the repr."""

    entries: tuple[tuple[SimTime, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("jitter profile needs at least one entry")
        total = 0.0
        cumulative = []
        for i, (delay, prob) in enumerate(self.entries):
            name = f"entries[{i}]"
            check_number(name, delay, int, DELAY_US)
            check_number(name, prob, float, FRACTION)
            total += prob
            cumulative.append(total)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"jitter probabilities must sum to 1, got {total}")
        delays = tuple(delay for delay, _ in self.entries)
        object.__setattr__(self, "_cumulative", tuple(cumulative))
        # One delay per bisect position: the last one doubles as the guard
        # for a variate at or above the final sum, which float round-off can
        # leave just below 1.
        object.__setattr__(self, "_draws", delays + delays[-1:])


def sample_jitter(profile: JitterProfile, rng: random.Random) -> SimTime:
    """Draw one delay via inverse CDF on a single uniform variate: the first
    entry whose cumulative probability exceeds it."""
    return profile._draws[bisect_right(profile._cumulative, rng.random())]


class ForwardLink:
    """Serialization plus propagation for the media direction.

    Each packet's forward delay is fixed or drawn from a jitter profile.
    Delivery times are clamped monotone so the receiver never sees
    reordering: its loss detection reads any sequence gap as a loss.

    The link keeps the capacity segment it last looked up, so
    `capacity_segment` runs once per capacity step rather than once per
    packet, and within that segment the serialization time of each packet
    size it has seen.
    """

    def __init__(
        self,
        capacity: CapacityPattern,
        forward_delay: SimTime | JitterProfile,
        rng: random.Random,
    ) -> None:
        self.capacity = capacity
        self.forward_delay = forward_delay
        self._jitter = forward_delay if isinstance(forward_delay, JitterProfile) else None
        self._rng = rng
        self._last_delivery: SimTime = 0
        # Rate in bits/s over [_segment_start, _segment_end); empty at first.
        self._rate = 0.0
        self._segment_start: SimTime = 0
        self._segment_end: float = 0
        # size in bytes -> serialization time in us at `_rate`.
        self._serialization: dict[int, SimTime] = {}

    def serialization_us(self, size_bytes: int, now: SimTime) -> SimTime:
        if not self._segment_start <= now < self._segment_end:
            self._rate, self._segment_start, self._segment_end = capacity_segment(
                self.capacity, now
            )
            self._serialization = {}
        us = self._serialization.get(size_bytes)
        if us is None:
            us = self._serialization[size_bytes] = round(size_bytes * 8 * US_PER_S / self._rate)
        return us

    def deliver(self, wire_exit: SimTime) -> SimTime:
        """Delivery time of a packet whose last bit leaves the link at
        `wire_exit`: one propagation delay (or jitter draw) later."""
        if self._jitter is not None:
            raw = wire_exit + sample_jitter(self._jitter, self._rng)
        else:
            raw = wire_exit + self.forward_delay
        prev = self._last_delivery
        when = raw if raw > prev else prev
        self._last_delivery = when
        return when


def normalize_trace(
    samples: Sequence[tuple[SimTime, float]], max_mbps: float = TRACE_MAX_MBPS
) -> list[tuple[SimTime, float]]:
    """Min-max scale trace rates onto [0, max_mbps]; timestamps unchanged.

    Flooring for link use happens at pattern construction, not here, so the
    written trace preserves the exact scaled values.
    """
    check_number("max_mbps", max_mbps, float, CAPACITY_MBPS)  # a link's rate, once scaled
    if len(samples) < 2:
        raise ValueError("normalization needs at least two samples")
    rates = [r for _, r in samples]
    lo, hi = min(rates), max(rates)
    if hi == lo:
        raise ValueError("cannot normalize an all-equal trace (degenerate range)")
    span = hi - lo
    # divide before scaling: a tiny span must not overflow the scale factor
    return [(t, (r - lo) / span * max_mbps) for t, r in samples]


def trace_pattern(samples: Sequence[tuple[SimTime, float]]) -> TracePattern:
    """Build a capacity pattern from trace samples, flooring rates at
    TRACE_FLOOR_MBPS so the simulation clock can always advance. A trace
    with no rate at the floor would run as a constant floor-rate link, so
    it is refused: most likely its rates are in another unit."""
    if max((r for _, r in samples), default=TRACE_FLOOR_MBPS) < TRACE_FLOOR_MBPS:
        raise ValueError(f"no rate reaches the {TRACE_FLOOR_MBPS} Mbps floor; rates are in Mbps")
    return TracePattern(tuple((t, max(TRACE_FLOOR_MBPS, r)) for t, r in samples))


TRACE_HEADER = ("t_s", "mbps")
# `TRACE_US` in a trace file's seconds.
_TRACE_S = Range(TRACE_US.lo / US_PER_S, TRACE_US.hi / US_PER_S)


def load_trace_csv(path: str) -> list[tuple[SimTime, float]]:
    """Read a `t_s,mbps` CSV into (t_us, mbps) samples.

    Rejects bad headers, times out of `TRACE_US`'s range or not strictly
    increasing, non-finite or negative rates and non-numeric rows with a
    line-numbered message, and text that is not UTF-8 with its path. A rate
    may be in any unit, as `normalize_trace` reads it; `TracePattern`
    checks the range of a rate a link runs at.
    """
    samples: list[tuple[SimTime, float]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty trace file") from None
            if tuple(h.strip() for h in header) != TRACE_HEADER:
                raise ValueError(f"{path}:1: expected header 't_s,mbps', got {','.join(header)!r}")
            prev_t = -1
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
                try:
                    t_s = float(row[0])
                    mbps = float(row[1])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric entry {row!r}") from None
                check_number(f"{path}:{lineno}: t_s", t_s, float, _TRACE_S)
                if not math.isfinite(mbps):
                    raise ValueError(f"{path}:{lineno}: non-finite rate {mbps}")
                if mbps < 0:
                    raise ValueError(f"{path}:{lineno}: negative rate {mbps}")
                t_us = round(t_s * US_PER_S)
                if t_us <= prev_t:
                    raise ValueError(f"{path}:{lineno}: time {t_s} not strictly increasing")
                if prev_t == -1 and t_us != 0:
                    raise ValueError(f"{path}:{lineno}: trace must start at t_s=0, got {t_s}")
                samples.append((t_us, mbps))
                prev_t = t_us
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if len(samples) < 1:
        raise ValueError(f"{path}: trace has no data rows")
    return samples


def write_trace_csv(path: str, samples: Sequence[tuple[SimTime, float]]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADER)
            for t_us, mbps in samples:
                writer.writerow([repr(t_us / US_PER_S), repr(mbps)])
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc
