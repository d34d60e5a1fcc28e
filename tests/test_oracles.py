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
from l4sim.media import SourceConfig
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
