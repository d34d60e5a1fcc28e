"""Deterministic discrete-event engine.

Wires sender -> queue discipline -> bottleneck link -> receiver -> feedback
link -> controller and advances virtual time in integer microseconds. Events
execute in (due, insertion) order, so identical scenario + seed reproduces a
run bit for bit. All randomness comes from named sub-streams derived from
the scenario seed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import random
import tempfile
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Annotated, Iterator

from .aqm import _L4S_CODEPOINTS, DropTail, DropTailConfig, DualPi2, DualPi2Config
from .cc import PARAMS_BY_KIND, ControllerKind, GccParams, RateBounds, ScalableParams
from .cc import ecn_mode_for, make_controller
from .core import DELAY_US, PERIOD_US, SESSION_US, Config, Packet, Range, SimTime, check_number
from .media import MediaSource, Receiver, SourceConfig
from .netem import CapacityPattern, Constant, ForwardLink, JitterProfile


def stream_seed(seed: int, label: str) -> int:
    """Derive an independent, reproducible sub-stream seed from the scenario
    seed and a purpose label. Python's built-in hash() is salted per process,
    so a stable digest is required."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return (seed & 0xFFFFFFFFFFFFFFFF) ^ int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Scenario(Config):
    """One simulated session: link, queue discipline, controller, source."""

    seed: Annotated[int, Range(0, 2**64 - 1)] = 1  # `stream_seed` reads its low 64 bits
    duration_us: Annotated[SimTime, SESSION_US] = 120_000_000
    capacity: CapacityPattern = field(default_factory=lambda: Constant(3.0))
    forward_delay: SimTime | JitterProfile = 6_000  # fixed, in DELAY_US, or drawn per packet
    reverse_delay_us: Annotated[SimTime, DELAY_US] = 6_000
    aqm: DualPi2Config | DropTailConfig = field(default_factory=DualPi2Config)
    controller: ControllerKind = ControllerKind.GCC
    gcc_params: GccParams | None = None
    scalable_params: ScalableParams | None = None
    source: SourceConfig = field(default_factory=SourceConfig)
    feedback_interval_us: Annotated[SimTime, PERIOD_US] = 100_000
    dejitter_us: Annotated[SimTime, Range(0, DELAY_US.hi)] = 15_000

    def validate(self) -> None:
        """The checks across fields, and the fixed forward delay's: a union
        with a jitter profile, which checked its own delays, is no number
        field. Each config the scenario holds checked itself."""
        if not isinstance(self.forward_delay, JitterProfile):
            check_number("forward_delay", self.forward_delay, int, DELAY_US)
        for name in ("gcc_params", "scalable_params"):
            if getattr(self, name) is not None and name not in PARAMS_BY_KIND[self.controller]:
                raise ValueError(f"{name}: not read by the {self.controller.value} controller")


@dataclass
class RunAudit:
    """Packet-conservation counters captured at the end of a run."""

    sent: int
    delivered: int
    dropped: int
    in_queue: int
    in_transit: int
    queue_errors: list[str]

    def errors(self) -> list[str]:
        errs = list(self.queue_errors)
        if self.sent != self.delivered + self.dropped + self.in_queue + self.in_transit:
            errs.append(
                f"end-to-end: sent {self.sent} != delivered {self.delivered} + dropped "
                f"{self.dropped} + in-queue {self.in_queue} + in-transit {self.in_transit}"
            )
        return errs


# Rows are read back in chunks of at most 64 KiB.
_CHUNK_BYTES = 1 << 16


class TimelineRows:
    """Timeline rows ``(t_us, event, value)``, kept as the timeline CSV's
    lines in an unnamed temporary file that closes when the rows are freed.
    ``len`` counts the rows and ``chunks`` reads their text back.

    ``record`` takes a ``(t_us, event name, value)`` tuple. It is a plain
    list append, so recording costs what a list of tuples costs; ``pack``
    writes the recorded tuples to the file as CSV lines in one call. The
    engine packs at every feedback build, so the process holds one
    interval's rows however long the session.
    """

    __slots__ = ("_file", "_count", "_pending", "record", "__weakref__")

    def __init__(self) -> None:
        try:
            self._file = tempfile.TemporaryFile()
        except OSError as exc:
            raise OSError(
                f"the timeline needs a writable temporary directory, and no file"
                f" can be made in {tempfile.gettempdir()}: {exc.strerror}"
            ) from exc
        weakref.finalize(self, self._file.close)
        self._count = 0  # rows in the file
        self._pending: list[tuple[SimTime, str, int]] = []
        self.record = self._pending.append

    def pack(self) -> None:
        pending = self._pending
        if pending:
            lines = [f"{t},{event},{value}\n" for t, event, value in pending]
            self._file.write("".join(lines).encode())
            self._count += len(pending)
            pending.clear()

    def _read(self, at: int, size: int) -> bytes:
        file = self._file
        file.seek(at)
        chunk = file.read(size)
        file.seek(0, os.SEEK_END)  # back where the next pack writes
        return chunk

    def chunks(self) -> Iterator[bytes]:
        """The rows as CSV text, at most 64 KiB at a time. Each read puts the
        file position back, so recording can go on after a read, even one
        left half way, and two reads of the same rows can interleave."""
        self.pack()
        end = self._file.tell()
        return (self._read(at, min(_CHUNK_BYTES, end - at)) for at in range(0, end, _CHUNK_BYTES))

    def __len__(self) -> int:
        return self._count + len(self._pending)


@dataclass
class TimelineLog:
    """Per-run record: optional event rows for plotting, kept on file, plus
    the aggregate RTT count and counters the metrics layer consumes."""

    duration_us: SimTime
    rtt_samples_us: Counter[int]  # RTT sample value (us) -> count
    stalled_us: SimTime
    played_bytes: int
    mark_count: int
    audit: RunAudit
    rows: TimelineRows | None = None

    def to_csv(self, path: str) -> None:
        if self.rows is None:
            raise ValueError("run was executed without timeline recording")
        try:
            with open(path, "wb") as fh:
                fh.write(b"t_us,event,value\n")
                fh.writelines(self.rows.chunks())
        except OSError as exc:
            raise OSError(f"cannot write output file {path!r}: {exc}") from exc


# Heap event kinds, dispatched by integer for speed. Deliveries are not heap
# events: they drain from a FIFO of their own (DECISIONS.md entry 9).
_ENCODE = 0
_SEND = 1
_SERVICE_END = 2
_FB_BUILD = 4
_FB_ARRIVE = 5
_PI2 = 6
_PLAYOUT = 7


class _Engine:
    def __init__(self, scenario: Scenario, timeline: bool) -> None:
        self.sc = scenario
        self.end_us = scenario.duration_us
        self.rows = TimelineRows() if timeline else None
        aqm_observer = playout_observer = None
        if timeline:
            # Closures over the row list rather than engine methods: an
            # observer that held the engine would tie it into a reference
            # cycle, and the engine and its rows would outlive the run until
            # the cyclic collector ran.
            record = self.rows.record

            def aqm_observer(event: str, packet: Packet, now: SimTime) -> None:
                record((now, event, packet.seq))

            def playout_observer(event: str, value: int, now: SimTime) -> None:
                record((now, event, value))

        jitter_rng = random.Random(stream_seed(scenario.seed, "jitter"))
        ecn = scenario.source.ecn_mode  # None: the controller kind's codepoint
        ecn = ecn_mode_for(scenario.controller) if ecn is None else ecn

        if isinstance(scenario.aqm, DualPi2Config):
            aqm_rng = random.Random(stream_seed(scenario.seed, "aqm"))
            self.aqm: DualPi2 | DropTail = DualPi2(scenario.aqm, aqm_rng, aqm_observer)
            # L4S packets leave the C queue empty, and the PI update then
            # keeps p_base at 0: no update runs (DECISIONS.md entry 20).
            self._pi2_period = 0 if ecn in _L4S_CODEPOINTS else scenario.aqm.t_update_us
        else:
            self.aqm = DropTail(scenario.aqm, aqm_observer)
            self._pi2_period = 0

        self.link = ForwardLink(scenario.capacity, scenario.forward_delay, jitter_rng)
        self.source = MediaSource(scenario.source, ecn)
        self.receiver = Receiver(
            scenario.source.fps,
            scenario.reverse_delay_us,
            scenario.dejitter_us,
            playout_observer,
        )
        bounds = RateBounds(
            scenario.source.min_bitrate_bps,
            scenario.source.max_bitrate_bps,
            scenario.source.start_bitrate_bps,
        )
        self.controller = make_controller(
            scenario.controller, bounds, scenario.gcc_params, scenario.scalable_params
        )
        self.target_bps = bounds.clamp(scenario.source.start_bitrate_bps)

        self.heap: list[tuple[SimTime, int, int, object]] = []
        # Heap ties in push order, so equal-due events run in that order.
        self._next_tie = itertools.count(1).__next__
        self.sent = 0
        self.delivered = 0
        self.in_transit = 0

    # -- event handlers -----------------------------------------------------
    # Sends, service ends and deliveries, the per-packet events, are handled
    # in `run` itself (DECISIONS.md entries 8 and 9); the handlers below run
    # once per frame, report or tick.

    def _push(self, due: SimTime, kind: int, payload: object = None) -> None:
        heapq.heappush(self.heap, (due, self._next_tie(), kind, payload))

    def _on_encode(self, now: SimTime) -> None:
        heap, push, tie = self.heap, heapq.heappush, self._next_tie
        for packet in self.source.encode_tick(self.target_bps, now):
            push(heap, (packet.sent_at, tie(), _SEND, packet))
        next_tick = (self.source.next_frame * 1_000_000) // self.sc.source.fps
        if next_tick <= self.end_us:
            self._push(next_tick, _ENCODE)

    def _on_fb_build(self, now: SimTime) -> None:
        report = self.receiver.build_feedback(now)
        self._push(now + self.sc.reverse_delay_us, _FB_ARRIVE, report)
        self._push(now + self.sc.feedback_interval_us, _FB_BUILD)
        if self.rows is not None:
            self.rows.pack()

    def _on_fb_arrive(self, now: SimTime, report) -> list[Packet]:
        """Update the controller; returns the repairs to send now, in order."""
        new_target = self.controller.update(report, now)
        if new_target != self.target_bps:
            self.target_bps = new_target
            if self.rows is not None:
                self.rows.record((now, "rate", new_target))
        repairs = [self.source.make_retransmit(seq, now) for seq in report.lost_seqs]
        self.source.forget_below(report.received_below)
        return repairs

    def _on_playout(self, now: SimTime) -> None:
        next_at = self.receiver.playout_tick(now)
        if next_at is not None:
            self._push(next_at, _PLAYOUT)

    # -- main loop ----------------------------------------------------------

    def run(self) -> TimelineLog:
        self._push(0, _ENCODE)
        self._push(self.sc.feedback_interval_us, _FB_BUILD)
        if self._pi2_period:
            self._push(self._pi2_period, _PI2)

        heap = self.heap
        end = self.end_us
        pop, push, tie = heapq.heappop, heapq.heappush, self._next_tie
        # Bound once, after any wrapping of these methods on their classes.
        enqueue, dequeue = self.aqm.enqueue, self.aqm.dequeue
        serialization_us, deliver = self.link.serialization_us, self.link.deliver
        on_packet = self.receiver.on_packet
        record = self.rows.record if self.rows is not None else None
        sent, delivered, in_transit = self.sent, self.delivered, self.in_transit
        # Packets on the wire as (delivery time, tie, packet). The link never
        # moves a delivery earlier than the one before it and ties rise, so
        # this FIFO is in event order: each delivery runs just before the
        # first heap event with a larger key.
        flight: deque[tuple[SimTime, int, Packet]] = deque()
        land, next_landing = flight.append, flight.popleft
        # The link is busy while a service end is pending. `backlog` counts
        # the sends enqueued behind a busy link and not yet served, an upper
        # bound on what the AQM holds; while it is non-zero the service end
        # is on the heap. While it is zero the AQM is empty, so the service
        # end would find nothing to serve: its key `(wire exit, tie)` stays
        # off the heap as `quiet` until a send arrives before it.
        backlog = 0
        quiet: tuple[SimTime, int] | None = None
        # Repairs from the last feedback report, last one first. Each goes
        # through the send branch at the report's arrival time, under the
        # report's key `event`, before the next event is popped.
        repairs: list[Packet] = []
        while True:
            if repairs:
                kind, payload = _SEND, repairs.pop()
            else:
                # The feedback build re-arms itself, so the heap never empties.
                head = heap[0]
                while flight and flight[0] < head:
                    at, _tie, packet = next_landing()
                    if at > end:
                        break  # the heap head is later still: the run ends below
                    in_transit -= 1
                    delivered += 1
                    if record is not None:
                        record((at, "deliver", packet.seq))
                    playout_at = on_packet(packet, at)
                    if playout_at is not None:
                        push(heap, (playout_at, tie(), _PLAYOUT, None))
                        head = heap[0]
                due, _tie, kind, payload = event = pop(heap)
                if due > end:
                    break
            if kind == _SEND:
                sent += 1
                if record is not None:
                    record((due, "send", payload.seq))
                enqueue(payload, due)
                if backlog:
                    backlog += 1
                    continue
                if quiet is not None:
                    if event < quiet:
                        # The packet waits behind the service in progress,
                        # whose end now has something to serve.
                        push(heap, (quiet[0], quiet[1], _SERVICE_END, None))
                        quiet = None
                        backlog = 1
                        continue
                    quiet = None  # that service ended before this send
            elif kind == _SERVICE_END:
                backlog -= 1
            else:
                if kind == _ENCODE:
                    self._on_encode(due)
                elif kind == _FB_BUILD:
                    self._on_fb_build(due)
                elif kind == _FB_ARRIVE:
                    repairs = self._on_fb_arrive(due, payload)
                    repairs.reverse()
                elif kind == _PI2:
                    self.aqm.pi2_update(due)
                    push(heap, (due + self._pi2_period, tie(), _PI2, None))
                else:  # _PLAYOUT
                    self._on_playout(due)
                continue
            # The link is idle: start serving the head packet, if any.
            packet = dequeue(due)
            if packet is None:
                backlog = 0
                continue
            wire_exit = due + serialization_us(packet.size_bytes, due)
            if backlog:
                push(heap, (wire_exit, tie(), _SERVICE_END, None))
            else:
                quiet = (wire_exit, tie())
            in_transit += 1
            land((deliver(wire_exit), tie(), packet))
        self.sent, self.delivered, self.in_transit = sent, delivered, in_transit

        self.receiver.finalize(end)
        audit = RunAudit(
            sent=self.sent,
            delivered=self.delivered,
            dropped=self.aqm.total_dropped(),
            in_queue=self.aqm.queued_packets(),
            in_transit=self.in_transit,
            queue_errors=self.aqm.conservation_errors(),
        )
        return TimelineLog(
            duration_us=end,
            rtt_samples_us=self.receiver.rtt_samples_us,
            stalled_us=self.receiver.stalled_total_us,
            played_bytes=self.receiver.played_bytes,
            mark_count=self.aqm.total_marked(),
            audit=audit,
            rows=self.rows,
        )


def run_scenario(scenario: Scenario, timeline: bool = False):
    """Execute one scenario. Returns (MetricsReport, TimelineLog).

    Identical scenario + seed gives bit-identical results. The scenario
    was checked when it was built, so no event runs on an invalid one.
    """
    engine = _Engine(scenario, timeline)
    log = engine.run()
    from .harness import compute_metrics  # deferred: harness builds on this module

    return compute_metrics(log, scenario), log
