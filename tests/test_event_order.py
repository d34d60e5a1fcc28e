"""Differential lock on the engine's event order.

`HeapOnlyEngine` runs every event, the per-packet ones included, through
one heap keyed by ``(due, tie)``: its `run` is the engine loop in which
sends, service ends and deliveries are all heap events, and in which every
DualPi2 run has a PI update each period, whatever codepoint its source
sends. `_Engine` must give the same timeline rows, metrics and audit on
every scenario, and call the AQM and the receiver in the same order: some
ordering faults change no output in this model (DECISIONS.md entry 9).
In a DualPi2 run whose source sends ECT(1), each of the reference's PI
updates must leave the PI state at rest, and the two call orders are
compared without them (DECISIONS.md entry 20).

The scenarios are short and built to reach the orderings a faster loop
could get wrong: byte caps of a few kB (overflows, hence losses and
repairs), classic drops behind a low PI target, dejitter from 0 to 5 ms
(playouts scheduled in between deliveries), wide jitter profiles, and
capacity, frame rate, MTU and delays on an integer-microsecond grid, so
that a service can end exactly at a send's or a repair's time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from l4sim.aqm import DropTailConfig, DualPi2, DualPi2Config
from l4sim.cc import ControllerKind, ecn_mode_for
from l4sim.core import EcnCodepoint, Packet
from l4sim.harness import compute_metrics
from l4sim.media import SourceConfig
from l4sim.netem import Constant, JitterProfile, SquareWave, TracePattern
from l4sim.sim import (
    _ENCODE,
    _FB_ARRIVE,
    _FB_BUILD,
    _PI2,
    _PLAYOUT,
    _SEND,
    _SERVICE_END,
    RunAudit,
    Scenario,
    TimelineLog,
    _Engine,
)


_DELIVER = 3  # the delivery event's kind; the engine has no such heap event


class HeapOnlyEngine(_Engine):
    """The engine with every event on the heap."""

    link_busy = False  # this loop keeps the link's state on the engine

    def run(self) -> TimelineLog:
        self._push(0, _ENCODE)
        self._push(self.sc.feedback_interval_us, _FB_BUILD)
        # A PI update every period of every DualPi2 run.
        aqm = self.sc.aqm
        pi2_period = aqm.t_update_us if isinstance(aqm, DualPi2Config) else 0
        if pi2_period:
            self._push(pi2_period, _PI2)

        heap = self.heap
        end = self.end_us
        pop, push, tie = heapq.heappop, heapq.heappush, self._next_tie
        # Bound once, after any wrapping of these methods on their classes.
        enqueue, dequeue = self.aqm.enqueue, self.aqm.dequeue
        serialization_us, deliver = self.link.serialization_us, self.link.deliver
        on_packet = self.receiver.on_packet
        record = self.rows.record if self.rows is not None else None
        sent, delivered, in_transit, link_busy = (
            self.sent, self.delivered, self.in_transit, self.link_busy
        )
        # Repairs from the last feedback report, last one first. Each goes
        # through the send branch at the report's arrival time before the
        # next event is popped, as a send event would.
        repairs: list[Packet] = []
        while heap or repairs:
            if repairs:
                kind, payload = _SEND, repairs.pop()
            else:
                due, _tie, kind, payload = pop(heap)
                if due > end:
                    break
            if kind == _DELIVER:
                in_transit -= 1
                delivered += 1
                if record is not None:
                    record((due, "deliver", payload.seq))
                playout_at = on_packet(payload, due)
                if playout_at is not None:
                    push(heap, (playout_at, tie(), _PLAYOUT, None))
                continue
            if kind == _SEND:
                sent += 1
                if record is not None:
                    record((due, "send", payload.seq))
                enqueue(payload, due)
                if link_busy:
                    continue
            elif kind == _SERVICE_END:
                link_busy = False
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
                    push(heap, (due + pi2_period, tie(), _PI2, None))
                else:  # _PLAYOUT
                    self._on_playout(due)
                continue
            # The link is idle: start serving the head packet, if any.
            packet = dequeue(due)
            if packet is None:
                continue
            link_busy = True
            wire_exit = due + serialization_us(packet.size_bytes, due)
            push(heap, (wire_exit, tie(), _SERVICE_END, None))
            in_transit += 1
            push(heap, (deliver(wire_exit), tie(), _DELIVER, packet))
        self.sent, self.delivered, self.in_transit, self.link_busy = (
            sent, delivered, in_transit, link_busy
        )

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


# Rates in Mbps at which an MTU that is a multiple of 125 bytes serializes
# in a whole number of microseconds, so that service ends fall on the grid
# of send times (frame rates divide a second).
GRID_MBPS = (0.5, 1.0, 2.0, 4.0, 8.0)
ms_grid = st.integers(1, 60).map(lambda ms: ms * 1_000)


@st.composite
def capacities(draw):
    shape = draw(st.sampled_from(("constant", "square", "trace")))
    if shape == "constant":
        return Constant(draw(st.sampled_from(GRID_MBPS)))
    if shape == "square":
        low, high = draw(st.lists(st.sampled_from(GRID_MBPS), min_size=2, max_size=2))
        return SquareWave(low, high, draw(st.integers(1, 20)) * 50_000)
    steps = draw(st.lists(st.integers(1, 10), min_size=1, max_size=5))
    times = [0]
    for step in steps:
        times.append(times[-1] + step * 100_000)
    rates = draw(st.lists(st.sampled_from(GRID_MBPS), min_size=len(times), max_size=len(times)))
    return TracePattern(tuple(zip(times, rates)))


@st.composite
def jitters(draw):
    delays = draw(st.lists(ms_grid, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(delays), max_size=len(delays)))
    total = sum(weights)
    return JitterProfile(tuple((d, w / total) for d, w in zip(delays, weights)))


@st.composite
def queues(draw):
    limit = draw(st.integers(1_500, 8_000))
    if draw(st.booleans()):
        return DropTailConfig(queue_limit_bytes=limit)
    return DualPi2Config(
        target_delay_us=draw(st.sampled_from((1_000, 5_000, 15_000))),
        l4s_step_threshold_us=draw(st.sampled_from((1_000, 4_000))),
        queue_limit_bytes=limit,
    )


@st.composite
def sources(draw):
    fps = draw(st.sampled_from((20, 25, 40, 50)))
    mtu = draw(st.sampled_from((250, 500, 1_000, 1_250)))
    ecn = draw(st.sampled_from((None, EcnCodepoint.ECT1, EcnCodepoint.NOT_ECT)))
    if draw(st.booleans()):
        # A fixed rate of whole packets per frame: sends and service ends
        # then fall on one coarse grid and often coincide.
        rate = draw(st.integers(1, 12)) * mtu * 8 * fps
        return SourceConfig(fps, mtu, rate, rate, rate, ecn)
    start = draw(st.sampled_from((300_000, 1_000_000, 3_000_000)))
    return SourceConfig(fps, mtu, 150_000, 5_000_000, start, ecn)


@st.composite
def scenarios(draw):
    return Scenario(
        seed=draw(st.integers(0, 2**32)),
        duration_us=draw(st.sampled_from((1_000_000, 2_000_000, 3_000_000))),
        capacity=draw(capacities()),
        forward_delay=draw(ms_grid | jitters()),
        reverse_delay_us=draw(ms_grid),
        aqm=draw(queues()),
        controller=draw(st.sampled_from(list(ControllerKind))),
        source=draw(sources()),
        feedback_interval_us=draw(st.sampled_from((50_000, 100_000))),
        dejitter_us=draw(st.integers(0, 5).map(lambda ms: ms * 1_000)),
    )


def log_calls(engine: _Engine) -> list[tuple]:
    """Make the engine's AQM and receiver log each call into them, in call
    order, as (entry point, time, seq). A PI update is logged as
    ("pi2_update", time, p_base, prev_c_delay_us), with the state it left. A
    dequeue that finds the AQM empty changes nothing and is not logged."""
    calls: list[tuple] = []
    aqm, receiver = engine.aqm, engine.receiver

    def log_packet_call(owner, name):
        method = getattr(owner, name)

        def logged(packet, now):
            calls.append((name, now, packet.seq))
            return method(packet, now)

        setattr(owner, name, logged)

    def log_tick(owner, name):
        method = getattr(owner, name)

        def logged(now):
            calls.append((name, now))
            return method(now)

        setattr(owner, name, logged)

    log_packet_call(aqm, "enqueue")
    log_packet_call(receiver, "on_packet")
    log_tick(receiver, "playout_tick")
    if isinstance(aqm, DualPi2):
        pi2_update = aqm.pi2_update

        def logged_update(now):
            pi2_update(now)
            calls.append(("pi2_update", now, aqm.p_base, aqm.prev_c_delay_us))

        aqm.pi2_update = logged_update
    dequeue = aqm.dequeue

    def logged_dequeue(now):
        if not aqm.queued_packets():
            return dequeue(now)
        packet = dequeue(now)
        calls.append(("dequeue", now, None if packet is None else packet.seq))
        return packet

    aqm.dequeue = logged_dequeue
    return calls


def sends_ect1_into_dualpi2(scenario):
    """Whether the scenario's source sends ECT(1), its own codepoint or its
    controller kind's, into a DualPi2 queue: only the L queue can fill."""
    ecn = scenario.source.ecn_mode
    ecn = ecn_mode_for(scenario.controller) if ecn is None else ecn
    return isinstance(scenario.aqm, DualPi2Config) and ecn is EcnCodepoint.ECT1


def without_pi2_updates(calls):
    return [call for call in calls if call[0] != "pi2_update"]


def outputs(engine_class, scenario):
    engine = engine_class(scenario, timeline=True)
    calls = log_calls(engine)
    log = engine.run()
    return b"".join(log.rows.chunks()), compute_metrics(log, scenario), log.audit, calls


# Scenarios on which a loop with one of the faults DECISIONS.md entry 9
# lists differed from the heap-only loop, tried on every run.
GRID_BASE = Scenario(
    seed=0,
    duration_us=1_000_000,
    capacity=Constant(0.5),
    forward_delay=1_000,
    reverse_delay_us=1_000,
    aqm=DropTailConfig(queue_limit_bytes=1_500),
    controller=ControllerKind.GCC,
    source=SourceConfig(25, 1_000, 150_000, 5_000_000, 1_000_000, EcnCodepoint.ECT1),
    feedback_interval_us=50_000,
    dejitter_us=0,
)


@settings(max_examples=150, deadline=None)
@given(scenarios())
# the first playout falls between two deliveries
@example(replace(GRID_BASE, source=replace(GRID_BASE.source, fps=20)))
# a send lands exactly at the end of the service it waits behind
@example(replace(GRID_BASE, duration_us=2_000_000, capacity=Constant(2.0), reverse_delay_us=2_000))
# a send and a PI update fall exactly at the end of a service
@example(
    replace(
        GRID_BASE,
        aqm=DualPi2Config(target_delay_us=1_000, queue_limit_bytes=1_500),
        source=replace(GRID_BASE.source, mtu_bytes=250, start_bitrate_bps=300_000),
    )
)
# the same with Not-ECT traffic, whose PI updates move p_base
@example(
    replace(
        GRID_BASE,
        aqm=DualPi2Config(target_delay_us=1_000, queue_limit_bytes=1_500),
        source=replace(
            GRID_BASE.source,
            mtu_bytes=250,
            start_bitrate_bps=300_000,
            ecn_mode=EcnCodepoint.NOT_ECT,
        ),
    )
)
# repairs arrive exactly when a service ends on an empty queue
@example(
    replace(
        GRID_BASE,
        reverse_delay_us=2_000,
        aqm=DualPi2Config(target_delay_us=1_000, queue_limit_bytes=1_500),
        source=replace(GRID_BASE.source, start_bitrate_bps=3_000_000),
    )
)
def test_engine_matches_the_heap_only_loop(scenario):
    rows, metrics, audit, calls = outputs(_Engine, scenario)
    ref_rows, ref_metrics, ref_audit, ref_calls = outputs(HeapOnlyEngine, scenario)
    assert audit == ref_audit
    assert metrics == ref_metrics
    assert rows == ref_rows
    if sends_ect1_into_dualpi2(scenario):
        # Each update of the reference finds the C queue empty and leaves
        # p_base at +0.0 and the C delay at 0, and the engine makes none
        # (DECISIONS.md entry 20).
        ticks = [call for call in ref_calls if call[0] == "pi2_update"]
        assert all(call[2:] == (0.0, 0) and math.copysign(1.0, call[2]) > 0 for call in ticks)
        assert calls == without_pi2_updates(calls)
        ref_calls = without_pi2_updates(ref_calls)
    assert calls == ref_calls
