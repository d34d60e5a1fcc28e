"""Real-time media endpoints.

``MediaSource`` turns a target bitrate into evenly paced frame packets; the
engine sends one of its repairs per listing of a lost seq in a report.
``Receiver`` lists a missing seq in the next report and again every
``REPAIR_TIMEOUT_US`` until it arrives, tracks arrivals for feedback (counts,
loss gaps, arrival samples) and runs the playout clock: playback starts a
dejitter offset after the first frame completes, a frame missing at its
deadline stalls playback, and the stall shifts every later deadline.

Both ends keep only what is in flight: the receiver remembers arrivals as
the highest seq plus the seqs missing below it and drops frames once played,
and the source forgets the seqs below the lowest missing seq a feedback report
carries. Memory follows the packets in flight, not the session length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Annotated, Callable, Optional

from .core import BITRATE_BPS, Config, EcnCodepoint, FeedbackReport, Packet, Range, SimTime
from .core import US_PER_S

# Observer callback: (event, value_us, now). Events: "stall_begin", "stall_end".
PlayoutObserver = Callable[[str, int, SimTime], None]

# Enum members as plain names: an attribute lookup on the enum class costs
# more than the rest of a codepoint test on the per-packet path.
_ECT1, _CE = EcnCodepoint.ECT1, EcnCodepoint.CE


# The highest frame rate a source may run at. Every frame is at least one
# packet, so a run's work grows with fps times duration, and the frame clock
# counts whole microseconds: up to 1000 fps the frame interval is at least
# 1000 us, so cutting it to whole microseconds (`US_PER_S // fps`) moves it
# by under 0.1% and the playout catch-up step is at least 100 us. Past 10**6
# fps the interval would be 0 us.
MAX_FPS = 1_000
# The highest packet rate a source may send at, `max_bitrate_bps / (8 *
# mtu_bytes)`: one packet per microsecond, the send clock's step. Past it the
# packets of a frame would share send times, and a run's work grows with the
# packet rate times duration, as it does with fps.
MAX_PPS = 1_000_000


@dataclass(frozen=True)
class SourceConfig(Config):
    fps: Annotated[int, Range(1, MAX_FPS)] = 30
    mtu_bytes: Annotated[int, Range(1, 65_535)] = 1_200  # at most an IPv4 datagram
    min_bitrate_bps: Annotated[int, BITRATE_BPS] = 150_000
    max_bitrate_bps: Annotated[int, BITRATE_BPS] = 5_000_000
    start_bitrate_bps: Annotated[int, BITRATE_BPS] = 1_000_000
    # None: the controller kind's codepoint (`cc.ecn_mode_for`), set when the run starts.
    ecn_mode: EcnCodepoint | None = None

    def validate(self) -> None:
        if not self.min_bitrate_bps <= self.start_bitrate_bps <= self.max_bitrate_bps:
            raise ValueError("bitrates must satisfy min <= start <= max")
        if self.max_bitrate_bps > MAX_PPS * 8 * self.mtu_bytes:
            raise ValueError(
                f"max_bitrate_bps must be at most {MAX_PPS} packets of mtu_bytes per second,"
                f" {MAX_PPS * 8 * self.mtu_bytes}, got {self.max_bitrate_bps}"
            )
        if self.ecn_mode not in (None, EcnCodepoint.ECT1, EcnCodepoint.NOT_ECT):
            raise ValueError("source ecn_mode must be ECT1, NOT_ECT or None")


class MediaSource:
    """Frame source with even intra-frame pacing and loss repair: one repair
    per listing of a seq in a report, and the receiver re-lists a missing
    seq every `REPAIR_TIMEOUT_US`. Every packet, repairs too, carries the
    codepoint `ecn`.

    It keeps each seq's packet for repair until a feedback report shows
    every seq below it arrived (``forget_below``), so the record holds only
    unacknowledged packets. A CE mark copies a packet (`apply_ce_mark`), so
    a kept packet is the one `encode_tick` built.
    """

    def __init__(self, config: SourceConfig, ecn: EcnCodepoint) -> None:
        self.config = config
        self.ecn = ecn
        self.next_seq = 0
        self.next_frame = 0
        # The packet of each seq from _oldest up to next_seq, at index
        # seq - _oldest, read by `make_retransmit`.
        self._sent: list[Packet] = []
        self._oldest = 0

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
        mtu = cfg.mtu_bytes
        n_packets = -(-frame_bytes // mtu)  # ceil div
        last_size = frame_bytes - (n_packets - 1) * mtu
        frame_id = self.next_frame
        self.next_frame += 1
        interval = US_PER_S // cfg.fps
        ecn = self.ecn
        seq = self.next_seq
        self.next_seq += n_packets
        packets: list[Packet] = []
        for i in range(n_packets):
            size = mtu if i < n_packets - 1 else last_size
            packets.append(
                Packet(seq, size, ecn, now + (i * interval) // n_packets, frame_id, n_packets)
            )
            seq += 1
        self._sent.extend(packets)
        return packets

    def make_retransmit(self, seq: int, now: SimTime) -> Packet:
        """Clone a reported-lost packet for immediate resend: one repair per
        loss report listing it. Raises KeyError for a seq outside the kept
        records, `_oldest` up to `next_seq`: never sent or already forgotten."""
        if not self._oldest <= seq < self.next_seq:
            raise KeyError(seq)
        sent = self._sent[seq - self._oldest]
        return Packet(
            seq, sent.size_bytes, self.ecn, now, sent.frame_id, sent.frame_packet_count, True
        )

    def forget_below(self, seq: int) -> None:
        """Drop the records of every seq below `seq`. The engine passes the
        watermark of a report it has fully processed: the receiver then held
        every seq below it, so no later report can sample or list one."""
        if seq > self.next_seq:
            raise KeyError(seq)  # never sent: a report cannot cover it
        if seq > self._oldest:
            del self._sent[: seq - self._oldest]
            self._oldest = seq


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

    State is bounded by what is in flight: arrivals are the highest seq plus
    the seqs missing below it, each mapped to the time a report last listed
    it (``None``: not yet), a frame is dropped once played, and the run's
    RTTs are an exact count per integer microsecond value
    (``rtt_samples_us``), not a list of every sample. The count takes an
    interval's RTTs when its report is built, so it is complete after
    ``finalize``.
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

        # Every seq up to `_highest_seq` arrived but the keys of `_missing`.
        self._highest_seq = -1
        self._missing: dict[int, SimTime | None] = {}  # seq -> time last listed
        self._frames: dict[int, _FrameState] = {}

        # Interval accumulators, reset at every feedback emission. `_rtts`
        # holds each delivery's RTT (us); its length is the received count.
        self._rtts: list[int] = []
        self._ect1 = 0
        self._ce = 0
        self._samples: list[tuple[int, SimTime, SimTime]] = []  # (size, sent, arrival)

        # Playout state.
        self.playout_anchor: SimTime | None = None
        self.next_frame = 0
        self.deadline_shift_us: SimTime = 0
        self.stalled_since: SimTime | None = None
        self.stalled_total_us: SimTime = 0
        self.played_bytes = 0

        # Whole-run RTT tally for metrics: sample value (us) -> count.
        self.rtt_samples_us: Counter[int] = Counter()

    def deadline(self, frame_id: int) -> SimTime:
        return self.playout_anchor + (frame_id * US_PER_S) // self.fps + self.deadline_shift_us

    def _play(self) -> None:
        # Playout never skips, and a played frame is complete: no later
        # arrival can refer to it.
        self.played_bytes += self._frames.pop(self.next_frame).bytes
        self.next_frame += 1

    def on_packet(self, packet: Packet, now: SimTime) -> Optional[SimTime]:
        """Account one delivery. Returns a playout event time to schedule
        when this arrival starts or resumes the playout clock."""
        seq = packet.seq
        if seq > self._highest_seq:
            # In-order links: any gap below the new highest is a loss.
            if seq > self._highest_seq + 1:
                self._missing.update(dict.fromkeys(range(self._highest_seq + 1, seq)))
            self._highest_seq = seq
        elif seq in self._missing:
            del self._missing[seq]
        else:
            return None  # duplicate: counted once, ignored afterwards

        self._rtts.append((now - packet.sent_at) + self.reverse_delay_us)
        ecn = packet.ecn
        if ecn is _ECT1:
            self._ect1 += 1
        elif ecn is _CE:
            self._ce += 1
        if not packet.is_retransmit:
            self._samples.append((packet.size_bytes, packet.sent_at, now))

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
            self._play()
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
            self._play()
            return self.deadline(self.next_frame)
        self.stalled_since = now
        if self._observer:
            self._observer("stall_begin", 0, now)
        return None

    def build_feedback(self, now: SimTime) -> FeedbackReport:
        """Emit the interval report and reset the accumulators.

        It lists each missing seq that no report has listed yet or that one
        listed `REPAIR_TIMEOUT_US` ago or more, in seq order: the order the
        gaps came in, as each lies above every seq seen before it."""
        due = now - self.REPAIR_TIMEOUT_US
        lost = [seq for seq, at in self._missing.items() if at is None or at <= due]
        self._missing.update(dict.fromkeys(lost, now))
        self.rtt_samples_us.update(self._rtts)  # one C-level count (DECISIONS.md entry 4)
        report = FeedbackReport(
            received_count=len(self._rtts),
            lost_seqs=lost,
            ect1_count=self._ect1,
            ce_count=self._ce,
            arrival_samples=self._samples,
            received_below=next(iter(self._missing), self._highest_seq + 1),  # lowest missing
        )
        self._rtts = []
        self._ect1 = 0
        self._ce = 0
        self._samples = []
        return report

    def finalize(self, end: SimTime) -> None:
        """Close out a run: the RTTs of the open interval join the count, and
        a stall still open at session end accrues up to the end time."""
        self.rtt_samples_us.update(self._rtts)
        self._rtts = []
        if self.stalled_since is not None:
            self.stalled_total_us += end - self.stalled_since
            self.stalled_since = None
