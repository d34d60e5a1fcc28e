"""Shared domain types: simulation time, ECN codepoints, packets, and the
receiver feedback report.

Everything here is a plain value type. Simulation state lives elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache
from typing import Annotated, get_args, get_origin, get_type_hints

# Simulation time is integer microseconds since run start. Integer arithmetic
# keeps event ordering exact across platforms.
SimTime = int

US_PER_MS = 1_000
US_PER_S = 1_000_000


@dataclass(frozen=True)
class Range:
    """The closed interval [lo, hi] that a number field's values lie in,
    declared next to the field's type: `Annotated[float, Range(lo, hi)]`.
    The ranges are chosen so that no product or quotient the engine forms
    can overflow (DECISIONS.md entry 21)."""

    lo: int | float
    hi: int | float


# Ranges that several fields share.
SESSION_US = Range(1, 86_400 * US_PER_S)  # a session, or a span that may last one: a day
DELAY_US = Range(1, 10 * US_PER_S)  # a delay within a session
# A timer's period: at most a thousand ticks per simulated second, as frames.
PERIOD_US = Range(US_PER_MS, DELAY_US.hi)
BITRATE_BPS = Range(1, 100_000_000_000)  # up to 100 Gbps, the fastest link
FRACTION = Range(0.0, 1.0)
GAIN = Range(0.0, 1_000.0)


@cache
def number_fields(cls) -> dict[str, tuple[type, Range]]:
    """The `int` and `float` fields of dataclass `cls` that declare a range,
    in order, with their type and range."""
    return {
        name: get_args(hint)
        for name, hint in get_type_hints(cls, include_extras=True).items()
        if get_origin(hint) is Annotated and get_args(hint)[0] in (int, float)
    }


def check_number(name: str, value, hint: type, bounds: Range) -> None:
    """Raise `ValueError("<name>: ...")` unless `value` suits a field of type
    `hint` and range `bounds`: an `int` for an `int` field, an `int` or a
    `float` for a `float` one, never a `bool`, and from `bounds.lo` to
    `bounds.hi`, which no nan or infinity is."""
    if isinstance(value, bool) or not isinstance(value, int if hint is int else (int, float)):
        expected = "an int" if hint is int else "a number"
        raise ValueError(f"{name}: expected {expected}, got {value!r}")
    if not bounds.lo <= value <= bounds.hi:
        try:
            got = repr(value)
        except ValueError:  # an int of more digits than Python prints, 4,300
            got = f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        raise ValueError(f"{name}: must be from {bounds.lo} to {bounds.hi}, got {got}")


class Config:
    """Base of the frozen configs, which check themselves when built, so one that
    exists is valid: each number field against its type and range, then the
    class's checks across fields, its `validate`."""

    def __post_init__(self) -> None:
        for name, (hint, bounds) in number_fields(type(self)).items():
            check_number(name, getattr(self, name), hint, bounds)
        self.validate()

    def validate(self) -> None:
        """The checks across fields, for a class that has any."""


class EcnCodepoint(IntEnum):
    """Two-bit ECN field of the IP header, by wire encoding."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11


# Plain names for the members apply_ce_mark reads: an attribute lookup on
# the enum class costs several times a global one.
_ECT1, _CE = EcnCodepoint.ECT1, EcnCodepoint.CE


@dataclass(slots=True)
class Packet:
    """A simulated datagram.

    size_bytes is the full on-wire size used for serialization, positive as
    `MediaSource` builds it (a repair copies a recorded size).
    frame_id groups media packets into video frames; frame_packet_count is
    the number of packets that make up that frame, carried so the receiver
    can detect frame completion (stand-in for RTP marker/continuity info).
    """

    seq: int
    size_bytes: int
    ecn: EcnCodepoint
    sent_at: SimTime
    frame_id: int
    frame_packet_count: int
    is_retransmit: bool = False


def apply_ce_mark(packet: Packet) -> Packet:
    """Return a copy of `packet` with the congestion-experienced mark set.

    Only ECT(1) packets may be marked: classic traffic signals congestion by
    drop, never by mark, and a packet already carrying CE must not reach the
    marking point again.
    """
    if packet.ecn is not _ECT1:
        raise ValueError(
            f"cannot CE-mark a packet with codepoint {packet.ecn.name}; only ECT1 is markable"
        )
    # Positional, in field order: `dataclasses.replace` costs several
    # times as much, and a long run marks thousands of packets.
    return Packet(
        packet.seq,
        packet.size_bytes,
        _CE,
        packet.sent_at,
        packet.frame_id,
        packet.frame_packet_count,
        packet.is_retransmit,
    )


@dataclass(slots=True)
class FeedbackReport:
    """Periodic receiver-to-sender report.

    arrival_samples holds (size_bytes, sender_timestamp,
    receiver_arrival_time) tuples in sequence order; repair retransmissions
    are counted but not sampled so the delay estimator sees a clean in-order
    stream.

    received_below is the receiver's cumulative acknowledgement when the
    report was built: every seq below it had arrived. Later reports can
    neither sample nor list such a seq, so the sender may forget it once
    this report is processed.
    """

    received_count: int = 0
    lost_seqs: list[int] = field(default_factory=list)
    ect1_count: int = 0
    ce_count: int = 0
    arrival_samples: list[tuple[int, SimTime, SimTime]] = field(default_factory=list)
    received_below: int = 0
