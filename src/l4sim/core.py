"""Shared domain types: simulation time, ECN codepoints, packets, flow
classification, and the receiver feedback report.

Everything here is a plain value type. Simulation state lives elsewhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum, IntEnum

# Simulation time is integer microseconds since run start. Integer arithmetic
# keeps event ordering exact across platforms.
SimTime = int

US_PER_MS = 1_000
US_PER_S = 1_000_000


def us_from_ms(ms: float) -> SimTime:
    return int(round(ms * US_PER_MS))


def us_from_s(s: float) -> SimTime:
    return int(round(s * US_PER_S))


class EcnCodepoint(IntEnum):
    """Two-bit ECN field of the IP header, by wire encoding."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11


class FlowClass(Enum):
    L4S = "l4s"
    CLASSIC = "classic"


def classify_flow(ecn: EcnCodepoint) -> FlowClass:
    """Map a packet's ECN codepoint to the queue family it belongs to.

    ECT(1) identifies low-latency traffic. CE also classifies as low-latency:
    only the low-latency queue ever applies CE marks here, so CE is
    unambiguous. ECT(0) and Not-ECT are classic traffic.
    """
    if ecn is EcnCodepoint.ECT1 or ecn is EcnCodepoint.CE:
        return FlowClass.L4S
    return FlowClass.CLASSIC


@dataclass(slots=True)
class Packet:
    """A simulated datagram.

    size_bytes is the full on-wire size used for serialization.
    frame_id groups media packets into video frames; frame_packet_count is
    the number of packets that make up that frame, carried so the receiver
    can detect frame completion (stand-in for RTP marker/continuity info).
    """

    seq: int
    size_bytes: int
    ecn: EcnCodepoint
    sent_at: SimTime
    frame_id: int | None = None
    frame_packet_count: int = 0
    is_retransmit: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")


def apply_ce_mark(packet: Packet) -> Packet:
    """Return a copy of `packet` with the congestion-experienced mark set.

    Only ECT(1) packets may be marked: classic traffic signals congestion by
    drop, never by mark, and a packet already carrying CE must not reach the
    marking point again.
    """
    if packet.ecn is not EcnCodepoint.ECT1:
        raise ValueError(
            f"cannot CE-mark a packet with codepoint {packet.ecn.name}; only ECT1 is markable"
        )
    return dataclasses.replace(packet, ecn=EcnCodepoint.CE)


@dataclass(slots=True)
class FeedbackReport:
    """Periodic receiver-to-sender report.

    arrival_samples holds (seq, sender_timestamp, receiver_arrival_time)
    tuples in sequence order; repair retransmissions are counted but not
    sampled so the delay estimator sees a clean in-order stream.
    """

    interval_start: SimTime
    interval_end: SimTime
    received_count: int = 0
    lost_seqs: list[int] = field(default_factory=list)
    ect1_count: int = 0
    ce_count: int = 0
    arrival_samples: list[tuple[int, SimTime, SimTime]] = field(default_factory=list)
    rtt_sample_us: int | None = None
