"""Bottleneck link emulation.

Covers time-varying capacity (constant, square wave, trace playback),
probabilistic one-way delay jitter, serialization and propagation delay, and
ingestion/normalization of bandwidth trace files.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Union

from .core import Packet, SimTime, US_PER_S

# Traces normalized onto [0, max] may contain zero-rate samples; a literal
# zero would freeze queued bytes forever, so link construction floors them.
TRACE_FLOOR_MBPS = 0.1


@dataclass(frozen=True)
class Constant:
    mbps: float

    def __post_init__(self) -> None:
        if self.mbps <= 0:
            raise ValueError(f"capacity must be positive, got {self.mbps} Mbps")


@dataclass(frozen=True)
class SquareWave:
    """Alternating capacity: low on [0, half_period), high on the next
    half period, repeating."""

    low_mbps: float
    high_mbps: float
    half_period_us: SimTime

    def __post_init__(self) -> None:
        if self.low_mbps <= 0 or self.high_mbps <= 0:
            raise ValueError("square-wave rates must be positive")
        if self.half_period_us <= 0:
            raise ValueError("square-wave half period must be positive")


@dataclass(frozen=True)
class TracePattern:
    """Step function over (t_us, mbps) samples; each rate holds until the
    next sample time, the last rate holds forever."""

    samples: tuple[tuple[SimTime, float], ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("trace needs at least one sample")
        if self.samples[0][0] != 0:
            raise ValueError("trace must start at t=0")
        prev = -1
        for t, mbps in self.samples:
            if t <= prev:
                raise ValueError("trace times must be strictly increasing")
            if mbps <= 0:
                raise ValueError(f"trace rate must be positive, got {mbps} at t={t}")
            prev = t


CapacityPattern = Union[Constant, SquareWave, TracePattern]


def capacity_at(pattern: CapacityPattern, t_us: SimTime) -> float:
    """Link rate in bits/s at time t (t >= 0)."""
    if t_us < 0:
        raise ValueError("time must be non-negative")
    if isinstance(pattern, Constant):
        return pattern.mbps * 1e6
    if isinstance(pattern, SquareWave):
        phase = (t_us // pattern.half_period_us) % 2
        return (pattern.high_mbps if phase else pattern.low_mbps) * 1e6
    # TracePattern: step-hold
    times = [s[0] for s in pattern.samples]
    i = bisect_right(times, t_us) - 1
    return pattern.samples[i][1] * 1e6


def average_capacity_bps(pattern: CapacityPattern, duration_us: SimTime) -> float:
    """Time-average of the capacity pattern over [0, duration], exact
    piecewise integral."""
    if duration_us <= 0:
        raise ValueError("duration must be positive")
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
    """Discrete one-way delay distribution: (delay_us, probability) entries."""

    entries: tuple[tuple[SimTime, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("jitter profile needs at least one entry")
        total = 0.0
        for delay, prob in self.entries:
            if delay <= 0:
                raise ValueError(f"jitter delay must be positive, got {delay}")
            if prob < 0:
                raise ValueError(f"jitter probability must be non-negative, got {prob}")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"jitter probabilities must sum to 1, got {total}")


def jitter_profile_ms(pairs: Sequence[tuple[float, float]]) -> JitterProfile:
    """Convenience constructor from (delay_ms, probability) pairs."""
    return JitterProfile(tuple((int(round(d * 1000)), p) for d, p in pairs))


def sample_jitter(profile: JitterProfile, rng: random.Random) -> SimTime:
    """Draw one delay via inverse CDF on a single uniform variate."""
    u = rng.random()
    acc = 0.0
    for delay, prob in profile.entries:
        acc += prob
        if u < acc:
            return delay
    return profile.entries[-1][0]  # guard against float round-off at u ~ 1


class ForwardLink:
    """Serialization plus propagation for the media direction.

    Delivery times are clamped monotone so the receiver never sees
    reordering, even under jitter: its loss detection reads any sequence gap
    as a loss.
    """

    def __init__(
        self,
        capacity: CapacityPattern,
        base_delay_us: SimTime,
        jitter: JitterProfile | None,
        rng: random.Random | None = None,
    ) -> None:
        if jitter is not None and rng is None:
            raise ValueError("a jitter profile needs a random stream")
        self.capacity = capacity
        self.base_delay_us = base_delay_us
        self.jitter = jitter
        self._rng = rng
        self._last_delivery: SimTime = 0

    def serialization_us(self, size_bytes: int, now: SimTime) -> SimTime:
        rate = capacity_at(self.capacity, now)
        return int(round(size_bytes * 8 * US_PER_S / rate))

    def one_way_delay_us(self, now: SimTime) -> SimTime:
        if self.jitter is not None:
            return sample_jitter(self.jitter, self._rng)
        return self.base_delay_us

    def deliver(self, packet: Packet, now: SimTime) -> SimTime:
        """Delivery time of a packet leaving the queue at `now`."""
        raw = now + self.serialization_us(packet.size_bytes, now) + self.one_way_delay_us(now)
        prev = self._last_delivery
        when = raw if raw > prev else prev
        self._last_delivery = when
        return when


def normalize_trace(
    samples: Sequence[tuple[SimTime, float]], max_mbps: float = 5.0
) -> list[tuple[SimTime, float]]:
    """Min-max scale trace rates onto [0, max_mbps]; timestamps unchanged.

    Flooring for link use happens at pattern construction, not here, so the
    written trace preserves the exact scaled values.
    """
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
    TRACE_FLOOR_MBPS so the simulation clock can always advance."""
    return TracePattern(tuple((t, max(TRACE_FLOOR_MBPS, r)) for t, r in samples))


TRACE_HEADER = ("t_s", "mbps")


def load_trace_csv(path: str) -> list[tuple[SimTime, float]]:
    """Read a `t_s,mbps` CSV into (t_us, mbps) samples.

    Rejects bad headers, non-monotone or negative times, and non-numeric
    rows with a line-numbered message.
    """
    samples: list[tuple[SimTime, float]] = []
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
            if t_s < 0:
                raise ValueError(f"{path}:{lineno}: negative time {t_s}")
            if mbps < 0:
                raise ValueError(f"{path}:{lineno}: negative rate {mbps}")
            t_us = int(round(t_s * US_PER_S))
            if t_us <= prev_t:
                raise ValueError(f"{path}:{lineno}: time {t_s} not strictly increasing")
            if prev_t == -1 and t_us != 0:
                raise ValueError(f"{path}:{lineno}: trace must start at t_s=0, got {t_s}")
            samples.append((t_us, mbps))
            prev_t = t_us
    if len(samples) < 1:
        raise ValueError(f"{path}: trace has no data rows")
    return samples


def write_trace_csv(path: str, samples: Sequence[tuple[SimTime, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for t_us, mbps in samples:
            writer.writerow([repr(t_us / US_PER_S), repr(mbps)])
