"""Real-time media endpoints.

``MediaSource`` turns a target bitrate into evenly paced frame packets and
replays reported losses once. ``Receiver`` tracks arrivals for feedback
(counts, loss gaps, arrival samples) and runs the playout clock: playback
starts a dejitter offset after the first frame completes, a frame missing at
its deadline stalls playback, and the stall shifts every later deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import EcnCodepoint, FeedbackReport, Packet, SimTime, US_PER_S

# Observer callback: (event, value_us, now). Events: "stall_begin", "stall_end".
PlayoutObserver = Callable[[str, int, SimTime], None]


@dataclass
class SourceConfig:
    fps: int = 30
    mtu_bytes: int = 1_200
    min_bitrate_bps: int = 150_000
    max_bitrate_bps: int = 5_000_000
    start_bitrate_bps: int = 1_000_000
    ecn_mode: EcnCodepoint = EcnCodepoint.ECT1

    def validate(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.mtu_bytes <= 0:
            raise ValueError("mtu_bytes must be positive")
        if not self.min_bitrate_bps <= self.start_bitrate_bps <= self.max_bitrate_bps:
            raise ValueError("bitrates must satisfy min <= start <= max")
        if self.ecn_mode not in (EcnCodepoint.ECT1, EcnCodepoint.NOT_ECT):
            raise ValueError("source ecn_mode must be ECT1 or NOT_ECT")


class MediaSource:
    """Frame source with even intra-frame pacing and one-shot loss repair."""

    def __init__(self, config: SourceConfig) -> None:
        config.validate()
        self.config = config
        self.next_seq = 0
        self.next_frame = 0
        # seq -> (size, frame_id, frame_packet_count), kept for repair and
        # receive-rate accounting.
        self._sent: dict[int, tuple[int, int, int]] = {}

    def frame_interval_us(self) -> SimTime:
        return US_PER_S // self.config.fps

    def encode_tick(self, target_bps: int, now: SimTime) -> list[Packet]:
        """Emit one frame worth of packets, sent_at spread evenly across the
        frame interval. The caller must hand in a target within bounds."""
        cfg = self.config
        if not cfg.min_bitrate_bps <= target_bps <= cfg.max_bitrate_bps:
            raise ValueError(
                f"target {target_bps} outside [{cfg.min_bitrate_bps}, {cfg.max_bitrate_bps}]"
            )
        frame_bytes = int(round(target_bps / cfg.fps / 8))
        frame_bytes = max(1, frame_bytes)
        n_packets = -(-frame_bytes // cfg.mtu_bytes)  # ceil div
        frame_id = self.next_frame
        self.next_frame += 1
        interval = self.frame_interval_us()
        packets: list[Packet] = []
        remaining = frame_bytes
        for i in range(n_packets):
            size = min(cfg.mtu_bytes, remaining)
            remaining -= size
            packet = Packet(
                seq=self.next_seq,
                size_bytes=size,
                ecn=cfg.ecn_mode,
                sent_at=now + (i * interval) // n_packets,
                frame_id=frame_id,
                frame_packet_count=n_packets,
            )
            self._sent[packet.seq] = (size, frame_id, n_packets)
            self.next_seq += 1
            packets.append(packet)
        return packets

    def size_of(self, seq: int) -> int:
        return self._sent[seq][0]

    def make_retransmit(self, seq: int, now: SimTime) -> Optional[Packet]:
        """Clone a reported-lost packet for immediate resend: one repair per
        loss report listing it."""
        meta = self._sent.get(seq)
        if meta is None:
            return None
        size, frame_id, count = meta
        return Packet(
            seq=seq,
            size_bytes=size,
            ecn=self.config.ecn_mode,
            sent_at=now,
            frame_id=frame_id,
            frame_packet_count=count,
            is_retransmit=True,
        )


@dataclass(slots=True)
class _FrameState:
    expected: int = 0
    arrived: int = 0
    bytes: int = 0
    completed_at: SimTime | None = None


class Receiver:
    """Receiver-side accounting: feedback accumulators plus playout clock.

    The engine calls ``on_packet`` per delivery and ``playout_tick`` at frame
    deadlines; both return the next playout event time to schedule, if any.
    """

    # Fraction of a frame interval clawed back per smoothly played frame:
    # after a stall shifts the clock, healthy playback accelerates gently
    # back toward the live edge, like an adaptive jitter buffer.
    CATCHUP_FRACTION = 10  # interval // 10 == 10% time compression
    REPAIR_TIMEOUT_US = 300_000

    def __init__(
        self,
        fps: int,
        reverse_delay_us: SimTime,
        dejitter_us: SimTime,
        observer: PlayoutObserver | None = None,
    ) -> None:
        self.fps = fps
        self.reverse_delay_us = reverse_delay_us
        self.dejitter_us = dejitter_us
        self._observer = observer

        self._seen: set[int] = set()
        self._highest_seq = -1
        self._frames: dict[int, _FrameState] = {}

        # Interval accumulators, reset at every feedback emission.
        self._interval_start: SimTime = 0
        self._received = 0
        self._ect1 = 0
        self._ce = 0
        self._samples: list[tuple[int, SimTime, SimTime]] = []
        self._pending_lost: list[int] = []
        # Sequences reported lost but not yet repaired, by last report time;
        # re-reported when the repair itself goes missing too long.
        self._outstanding_lost: dict[int, SimTime] = {}
        self._last_rtt_us: int | None = None

        # Playout state.
        self.playout_anchor: SimTime | None = None
        self.next_frame = 0
        self.deadline_shift_us: SimTime = 0
        self.stalled_since: SimTime | None = None
        self.stalled_total_us: SimTime = 0
        self.played_bytes = 0
        self.played_frames = 0

        # Whole-run tallies for metrics.
        self.total_received = 0
        self.rtt_samples_us: list[int] = []

    def deadline(self, frame_id: int) -> SimTime:
        if self.playout_anchor is None:
            raise RuntimeError("playout has not started")
        return self.playout_anchor + (frame_id * US_PER_S) // self.fps + self.deadline_shift_us

    def _play(self, frame: _FrameState) -> None:
        self.played_bytes += frame.bytes
        self.played_frames += 1
        self.next_frame += 1

    def on_packet(self, packet: Packet, now: SimTime) -> Optional[SimTime]:
        """Account one delivery. Returns a playout event time to schedule
        when this arrival starts or resumes the playout clock."""
        seq = packet.seq
        if seq in self._seen:
            return None  # duplicate: counted once, ignored afterwards
        self._seen.add(seq)
        self._outstanding_lost.pop(seq, None)

        self._received += 1
        self.total_received += 1
        if packet.ecn is EcnCodepoint.ECT1:
            self._ect1 += 1
        elif packet.ecn is EcnCodepoint.CE:
            self._ce += 1
        if not packet.is_retransmit:
            self._samples.append((seq, packet.sent_at, now))
        rtt = (now - packet.sent_at) + self.reverse_delay_us
        self._last_rtt_us = rtt
        self.rtt_samples_us.append(rtt)

        if seq > self._highest_seq:
            # In-order links: any gap below the new highest is a loss.
            for missing in range(self._highest_seq + 1, seq):
                self._pending_lost.append(missing)
            self._highest_seq = seq

        if packet.frame_id is None:
            return None
        frame = self._frames.get(packet.frame_id)
        if frame is None:
            frame = _FrameState(expected=packet.frame_packet_count)
            self._frames[packet.frame_id] = frame
        frame.arrived += 1
        frame.bytes += packet.size_bytes
        if frame.arrived != frame.expected or frame.completed_at is not None:
            return None
        frame.completed_at = now

        if self.playout_anchor is None:
            if packet.frame_id == 0:
                self.playout_anchor = now + self.dejitter_us
                return self.playout_anchor
            return None
        if self.stalled_since is not None and packet.frame_id == self.next_frame:
            stall = now - self.stalled_since
            self.stalled_total_us += stall
            self.deadline_shift_us += stall
            self.stalled_since = None
            if self._observer:
                self._observer("stall_end", stall, now)
            self._play(frame)
            return self.deadline(self.next_frame)
        return None

    def playout_tick(self, now: SimTime) -> Optional[SimTime]:
        """Handle the deadline of the next due frame: play it when complete,
        otherwise stall until its completion resumes the clock.

        A frame that was already waiting when its deadline came claws back a
        sliver of any accumulated stall shift, so the clock drifts back to
        the live edge during healthy playback."""
        frame = self._frames.get(self.next_frame)
        if frame is not None and frame.completed_at is not None:
            if self.deadline_shift_us > 0 and frame.completed_at < now:
                interval = US_PER_S // self.fps
                self.deadline_shift_us -= min(
                    self.deadline_shift_us, interval // self.CATCHUP_FRACTION
                )
            self._play(frame)
            return self.deadline(self.next_frame)
        self.stalled_since = now
        if self._observer:
            self._observer("stall_begin", 0, now)
        return None

    def build_feedback(self, now: SimTime) -> FeedbackReport:
        """Emit the interval report and reset the accumulators.

        Newly detected gaps are reported once; a sequence still missing a
        repair after the repair timeout is reported again."""
        lost = list(self._pending_lost)
        for seq, reported_at in self._outstanding_lost.items():
            if now - reported_at >= self.REPAIR_TIMEOUT_US:
                lost.append(seq)
        lost.sort()
        for seq in lost:
            self._outstanding_lost[seq] = now
        report = FeedbackReport(
            interval_start=self._interval_start,
            interval_end=now,
            received_count=self._received,
            lost_seqs=lost,
            ect1_count=self._ect1,
            ce_count=self._ce,
            arrival_samples=self._samples,
            rtt_sample_us=self._last_rtt_us,
        )
        self._interval_start = now
        self._received = 0
        self._ect1 = 0
        self._ce = 0
        self._samples = []
        self._pending_lost = []
        return report

    def finalize(self, end: SimTime) -> None:
        """Close out a run: a stall still open at session end accrues up to
        the end time."""
        if self.stalled_since is not None:
            self.stalled_total_us += end - self.stalled_since
            self.stalled_since = None
