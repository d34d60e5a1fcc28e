"""Whole runs checked against values derived by hand.

A source pinned at one bitrate (`min = start = max`) takes the controller
out of the run, so what the layers below it do can be worked out in closed
form from the scenario alone. The golden lock detects change; these tests
detect error.
"""

import pytest

from l4sim.aqm import DropTailConfig, DualPi2Config
from l4sim.cc import ControllerKind
from l4sim.core import US_PER_S, EcnCodepoint
from l4sim.media import SourceConfig
from l4sim.netem import Constant, SquareWave, average_capacity_bps, capacity_segment
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
