"""Whole runs checked against values derived by hand.

A source pinned at one bitrate (`min = start = max`) takes the controller
out of the run, so what the layers below it do can be worked out in closed
form from the scenario alone. The golden lock detects change; these tests
detect error.
"""

import math

import pytest

from l4sim.aqm import DropTailConfig, DualPi2Config
from l4sim.cc import ControllerKind
from l4sim.core import US_PER_S, EcnCodepoint
from l4sim.media import Receiver, SourceConfig
from l4sim.netem import (
    Constant,
    JitterProfile,
    SquareWave,
    average_capacity_bps,
    capacity_segment,
)
from l4sim.sim import Scenario, run_scenario

RATE_BPS = 2_000_000
DURATION_US = 30_000_000
# Two links above R throughout, each with a mean of 3 Mbps over the 30 s:
# the square wave spends 20 s at 2.5 Mbps and 10 s at 4 Mbps.
CAPACITIES = [Constant(3.0), SquareWave(2.5, 4.0, 10_000_000)]


@pytest.mark.parametrize("capacity", CAPACITIES, ids=["constant", "square"])
@pytest.mark.parametrize("aqm", [DropTailConfig(), DualPi2Config()], ids=["droptail", "dualpi2"])
@pytest.mark.parametrize("ecn", [EcnCodepoint.NOT_ECT, EcnCodepoint.ECT1], ids=["not-ect", "ect1"])
def test_underload_runs_at_the_source_rate_with_no_queue(aqm, ecn, capacity):
    """A 2 Mbps source for 30 s, 6 ms each way, on a constant 3 Mbps link
    or on a square wave of 2.5 and 4 Mbps that steps every 10 s.

    *No queue.* A frame is `round(R / fps / 8)` = 8,333 bytes at 30 fps,
    sent as 7 packets paced `interval // 7` = 4,761 us apart, the last one
    of 1,133 bytes. A packet serializes at the link's rate when its service
    starts, so a 1,200-byte one takes 1,200 * 8 / C: 3,200 us on the
    constant link, and at most 3,840 us on the square wave, at its low
    rate. Each is less than the pacing gap, and the gap from a frame's last
    packet (sent 28,571 us in) to the next frame is 4,762 us. So each
    packet finds the link idle and the queue empty.

    *RTT.* A sample is the packet's time on the link and the forward delay,
    plus the 6 ms feedback echo: 12 ms plus its own serialization, above
    12 ms and at most 12 ms plus the serialization of an MTU at the lowest
    rate: 15.2 ms on the constant link and 15.84 ms on the square wave.

    *No stall, mark or drop.* Every frame completes one trip after it is
    sent, so none misses its deadline. An empty queue gives no sojourn over
    the 1 ms step threshold and no PI error above target, so DualPi2 marks
    nothing, and no queue nears its byte cap.

    *Utilization is R over the mean capacity C̄* (`average_capacity_bps`,
    3 Mbps for both links). Played bytes are whole frames of at most R /
    fps / 8 bytes, one per frame interval, so utilization is at most R/C̄ =
    0.6667. Playout starts a dejitter offset (15 ms) after frame 0
    completes, which is at most one frame interval, one MTU's serialization
    at the lowest rate and the forward delay after 0: call that start the
    lag. Frame k plays no later than the lag plus k intervals, so more than
    (T − lag) / interval frames play within the session. A frame falls
    short of R / fps / 8 bytes by under one byte of rounding, which one
    more interval more than covers: the utilization is at least R/C̄ times
    (T − lag − 1/fps) / T, 0.6646 on either link. Measured: 0.6659, for
    each link, queue and codepoint.
    """
    source = SourceConfig(
        min_bitrate_bps=RATE_BPS,
        max_bitrate_bps=RATE_BPS,
        start_bitrate_bps=RATE_BPS,
        ecn_mode=ecn,
    )
    scenario = Scenario(
        seed=1,
        duration_us=DURATION_US,
        capacity=capacity,
        forward_delay=6_000,
        reverse_delay_us=6_000,
        aqm=aqm,
        controller=ControllerKind.GCC,
        source=source,
    )
    metrics, log = run_scenario(scenario)

    fixed_us = scenario.forward_delay + scenario.reverse_delay_us
    lowest_bps = capacity_segment(capacity, 0)[0]  # the square wave starts at its low rate
    mtu_us = round(source.mtu_bytes * 8 * US_PER_S / lowest_bps)
    assert mtu_us == {Constant: 3_200, SquareWave: 3_840}[type(capacity)]
    assert min(log.rtt_samples_us) > fixed_us
    assert max(log.rtt_samples_us) <= fixed_us + mtu_us

    interval_us = US_PER_S // source.fps
    lag_us = interval_us + mtu_us + scenario.forward_delay + scenario.dejitter_us
    ratio = RATE_BPS / average_capacity_bps(capacity, DURATION_US)
    lowest = ratio * (DURATION_US - lag_us - interval_us) / DURATION_US
    assert lowest <= metrics.bandwidth_utilization <= ratio

    assert log.audit.errors() == []
    assert log.stalled_us == 0
    assert log.mark_count == 0
    assert log.audit.dropped == 0


# case4c's forward delay: (delay_us, weight) entries.
CASE4C_JITTER = ((10_000, 0.85), (18_000, 0.10), (26_000, 0.04), (34_000, 0.01))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("aqm", [DropTailConfig(), DualPi2Config()], ids=["droptail", "dualpi2"])
def test_jitter_profile_sets_the_rtt_distribution(aqm, seed):
    """An 80 kbps source at 10 fps for 120 s, on a constant 5 Mbps link
    whose forward delay is case4c's profile: 10, 18, 26 or 34 ms, drawn
    per packet with weights 0.85, 0.10, 0.04 and 0.01; 6 ms back.

    *One packet per frame, on an idle link.* A frame is `round(R / fps /
    8)` = 1,000 bytes, under the 1,200-byte MTU, so each frame is one
    packet, sent at the frame's start: 1,200 packets, 100 ms apart, the
    last at 119.9 s. Each serializes in 1,000 * 8 / 5 Mbps = 1,600 us, far
    less than the gap, so each finds the queue empty and the link idle:
    no drop, and no sojourn over DualPi2's 1 ms step threshold or PI error
    above target, so no mark.

    *The monotone clamp never acts.* The link delivers a packet at its
    wire exit plus its draw, or at the previous delivery if that is later.
    The previous packet left 100 ms earlier and drew at most 24 ms more
    than this one, so it was delivered first: each delivery is the packet's
    send time plus 1,600 us plus its own draw.

    *The RTTs.* A sample is the delivery time less the send time, plus the
    6 ms feedback echo: `delay + 1,600 + 6,000` us for the delay drawn,
    one of four values. The last packet arrives by 119.9 s + 35.6 ms, so
    all 1,200 are sampled. The draws are independent, so the count of
    each value is binomial, n = 1,200 and p the entry's weight, with mean
    n·p and standard deviation σ = √(n·p·(1 − p)): 12.4, 10.4, 6.8 and
    3.4. Each count may lie 4 σ from its mean. Measured at seeds 1–3, alike
    on both queues: {1034, 106, 51, 9}, {1025, 111, 52, 12} and {1015, 120,
    54, 11}, each within 1.4 σ.
    """
    rate = 80_000
    source = SourceConfig(
        fps=10, min_bitrate_bps=rate, max_bitrate_bps=rate, start_bitrate_bps=rate
    )
    scenario = Scenario(
        seed=seed,
        duration_us=120 * US_PER_S,
        capacity=Constant(5.0),
        forward_delay=JitterProfile(CASE4C_JITTER),
        reverse_delay_us=6_000,
        aqm=aqm,
        source=source,
    )
    _, log = run_scenario(scenario)

    n = 1_200
    fixed_us = 1_600 + scenario.reverse_delay_us  # serialization and the echo
    counts = log.rtt_samples_us
    assert sorted(counts) == [delay + fixed_us for delay, _ in CASE4C_JITTER]
    assert sum(counts.values()) == n
    for delay, weight in CASE4C_JITTER:
        sigma = math.sqrt(n * weight * (1 - weight))
        assert abs(counts[delay + fixed_us] - n * weight) <= 4 * sigma, (delay, counts)
    assert log.audit.dropped == 0
    assert log.mark_count == 0


# A source pinned above the link: 4 Mbps on a constant 3 Mbps link for 30 s.
OVERLOAD_BPS = 4_000_000
LINK_BPS = 3_000_000


def run_overload(monkeypatch, aqm):
    """Runs the pinned overload; returns its log and each delivered
    packet's (delivery time, queue delay, size). The queue delay is the
    packet's time from its send to the start of its service: its delivery
    less its send, its serialization and the forward delay."""
    delivered = []
    on_packet = Receiver.on_packet

    def logged(receiver, packet, at):
        delivered.append((at, packet.sent_at, packet.size_bytes))
        return on_packet(receiver, packet, at)

    monkeypatch.setattr(Receiver, "on_packet", logged)
    rate = OVERLOAD_BPS
    source = SourceConfig(min_bitrate_bps=rate, start_bitrate_bps=rate, max_bitrate_bps=rate)
    scenario = Scenario(
        seed=1,
        duration_us=DURATION_US,
        capacity=Constant(LINK_BPS / 1e6),
        aqm=aqm,
        source=source,
    )
    _, log = run_scenario(scenario)
    forward_us = scenario.forward_delay
    return log, [
        (at, at - sent_at - round(size * 8 * US_PER_S / LINK_BPS) - forward_us, size)
        for at, sent_at, size in delivered
    ]


def test_overload_droptail_fills_the_link_and_holds_a_full_queue(monkeypatch):
    """A 4 Mbps source for 30 s on a constant 3 Mbps link behind DropTail's
    375,000-byte queue, 6 ms each way.

    *The link never idles.* A frame is `round(R / fps / 8)` = 16,667
    bytes: 13 packets of 1,200 bytes and one of 1,067, paced `interval //
    14` = 2,380 or 2,381 us apart, and the next frame starts 2,381 or
    2,382 us after a frame's last packet. A 1,200-byte packet takes 3,200
    us to serialize at 3 Mbps, longer than any gap, so from the first send,
    at 0, each packet arrives before the link has served the one before
    it. Repairs only add sends. So the link serializes C bits a second from
    0 to T, and the bytes delivered by T are those whose serialization
    ended by T less the 6 ms forward delay: C·(T − 6 ms) / 8 = 11,247,750
    bytes, less at most the MTU in service then. Each 1,067-byte packet
    serializes in `round(2,845.3)` = 2,845 us, a third of a microsecond
    early, which adds under 1/8 byte per frame, 113 bytes in all. So the
    delivered bytes lie within one MTU of C·(T − 6 ms) / 8, and within one
    queue limit of C·T / 8. Measured: 11,247,057.

    *The queue fills, then stays full.* New packets arrive at R and leave
    at C, so the queue grows by (R − C) / 8 bytes a second and first
    overflows at `limit · 8 / (R − C)` = 3 s. Its packets wait up to 1 s,
    so every packet delivered after 5 s was sent after that overflow. At an
    overflow the queue holds more than the limit less the refused packet's
    size, and from then on it loses at most one packet's bytes between two
    arrivals, since each gap is shorter than a serialization. So a packet
    that enters waits behind more than `limit − 2·MTU` bytes, 993.6 ms at
    C; allow a third MTU, 990.4 ms. It waits behind at most `limit − size`
    queued bytes and the MTU in service, so at most `limit · 8 / C` = 1 s.
    Its RTT adds its own serialization and the two 6 ms delays: at most
    1,015.2 ms. Measured: queue delays of 994.7 to 999.8 ms after 5 s, and
    an RTT maximum of 1,015.0 ms.
    """
    aqm = DropTailConfig()
    log, delivered = run_overload(monkeypatch, aqm)

    mtu = SourceConfig().mtu_bytes
    bytes_by_t = LINK_BPS * DURATION_US // (8 * US_PER_S)
    served = LINK_BPS * (DURATION_US - 6_000) // (8 * US_PER_S)
    total = sum(size for _, _, size in delivered)
    assert served - mtu <= total <= served + mtu
    assert bytes_by_t - aqm.queue_limit_bytes <= total <= bytes_by_t

    full_us = aqm.queue_limit_bytes * 8 * US_PER_S // LINK_BPS
    mtu_us = mtu * 8 * US_PER_S // LINK_BPS
    settled = [delay for at, delay, _ in delivered if at > 5 * US_PER_S]
    assert len(settled) > 7_000
    assert full_us - 3 * mtu_us <= min(settled) and max(settled) <= full_us
    assert max(log.rtt_samples_us) <= full_us + mtu_us + 12_000
    assert log.audit.errors() == []


@pytest.mark.xfail(
    strict=True,
    reason=(
        "each drop is listed for repair every 300 ms until the seq arrives, "
        "and the repairs, sent on top of the pinned rate, keep the C queue "
        "above target; see ROADMAP item 16"
    ),
)
def test_overload_dualpi2_holds_the_classic_queue_at_most_at_target(monkeypatch):
    """The same 4 Mbps source on the same 3 Mbps link, Not-ECT, behind
    DualPi2 with its defaults: target 15 ms, α = 0.16 and β = 3.2 per
    second, an update every 16 ms, and the classic drop probability the
    square of the PI output p'.

    *Where the PI goes.* The queue is stable only when the drops take the
    new packets' excess: p'² = 1 − C/R = 1/4, so p' = 1/2. Each update adds
    α·(q − target)·16 ms + β·Δq·16 ms to p', so p' rests only where the
    sampled sojourn q averages the target, and the β term adds at most
    β·16 ms·1 s = 0.05 for a queue that moves by its whole 1 s.

    *It overshoots, and comes back from below.* Until p' nears 1/2 the
    queue grows by (R − C)/C = 1/3 s of delay a second and caps at 1 s
    after 3 s; p' integrates α·(q − target) and reaches 1/2 at about
    5 s. The queue then drains, and while it is still above the target
    p' keeps rising, to above 1/2, where the drops exceed the excess and
    the queue stays short. From there p' falls by at most α·target =
    0.0024 a second, so it needs tens of seconds to come back to 1/2, and
    until then the sojourn lies below the target. So over the last 10 s of
    the 30 s run the mean sojourn of the packets the C queue delivers is
    at most the target.

    Measured with the engine's repairs removed, the stand-in for item 16's
    fix: p' peaks at 0.68 near 10 s, and the mean sojourn is 1.3 to 1.8 ms
    from 10 s on. Today 188,740 sends, 15 times the 12,601 new packets,
    hold p' at 0.97 and the mean sojourn at 27 to 33 ms over the last 10 s.
    """
    aqm = DualPi2Config()
    log, delivered = run_overload(monkeypatch, aqm)

    last = [delay for at, delay, _ in delivered if at > DURATION_US - 10 * US_PER_S]
    assert len(last) > 1_000
    assert sum(last) / len(last) <= aqm.target_delay_us
    assert log.audit.errors() == []
