import random

import pytest
from hypothesis import given, settings, strategies as st

from l4sim.aqm import DropTail, DropTailConfig, DualPi2, DualPi2Config
from l4sim.core import DELAY_US, GAIN, EcnCodepoint, Packet


def packet(seq, ecn=EcnCodepoint.ECT1, size=1200):
    return Packet(seq=seq, size_bytes=size, ecn=ecn, sent_at=0, frame_id=0, frame_packet_count=1)


def make_aqm(**overrides):
    config = DualPi2Config(**overrides)
    return DualPi2(config, random.Random(1))


def pi_step_oracle(p, c_delay_us, prev_delay_us, config):
    """Independent transcription of the PI recurrence used as the oracle."""
    err = (c_delay_us - config.target_delay_us) / 1e6
    delta = (c_delay_us - prev_delay_us) / 1e6
    p = p + (config.alpha * err + config.beta * delta) * (config.t_update_us / 1e6)
    return min(1.0, max(0.0, p))


class TestPi2Update:
    def test_zero_error_zero_delta_keeps_p(self):
        aqm = make_aqm()
        # classic head sitting exactly at the target, previous delay equal
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        aqm.prev_c_delay_us = aqm.config.target_delay_us
        aqm.p_base = 0.25
        aqm.pi2_update(aqm.config.target_delay_us)  # head delay == target
        assert aqm.p_base == 0.25

    def test_derived_probabilities(self):
        aqm = make_aqm()
        aqm.p_base = 0.1
        assert aqm.p_classic == pytest.approx(0.01)
        assert aqm.p_l4s_coupled == pytest.approx(0.2)

    def test_coupled_probability_caps_at_one(self):
        aqm = make_aqm()
        aqm.p_base = 0.7
        assert aqm.p_l4s_coupled == 1.0

    def test_constant_overload_matches_scripted_recurrence(self):
        """Queue delay pinned 10 ms above target for 10^4 updates: the
        controller trajectory must match the scripted recurrence exactly."""
        aqm = make_aqm()
        config = aqm.config
        probe = packet(0, ecn=EcnCodepoint.NOT_ECT)
        aqm.enqueue(probe, 0)
        delay = config.target_delay_us + 10_000
        expected_p = 0.0
        prev_delay = 0
        now = 0
        for step in range(10_000):
            now += config.t_update_us
            aqm.c_queue.entries[0] = (probe, now - delay)  # pin head sojourn
            aqm.pi2_update(now)
            expected_p = pi_step_oracle(expected_p, delay, prev_delay, config)
            prev_delay = delay
            assert abs(aqm.p_base - expected_p) <= 1e-9
            assert aqm.p_classic == aqm.p_base * aqm.p_base
            assert aqm.p_l4s_coupled == min(1.0, config.coupling_k * aqm.p_base)

    def test_p_base_clamped_to_unit_interval(self):
        # At the largest alpha one update over a 1 s C-queue delay adds
        # about 1,000 * 0.985 s * 0.016 s, far above 1.
        aqm = make_aqm(alpha=GAIN.hi)
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        aqm.pi2_update(1_000_000)
        assert aqm.p_base == 1.0


class TestEnqueue:
    def test_ect1_routes_to_l_queue(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0), 5)
        assert len(aqm.l_queue.entries) == 1 and len(aqm.c_queue.entries) == 0
        assert aqm.l_queue.entries[0][1] == 5  # enqueue time recorded

    def test_not_ect_routes_to_c_queue(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        assert len(aqm.c_queue.entries) == 1 and len(aqm.l_queue.entries) == 0

    def test_ce_routes_to_l_queue(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0, ecn=EcnCodepoint.CE), 0)
        assert len(aqm.l_queue.entries) == 1

    def test_each_codepoint_routes_to_its_fifo(self):
        # ECT(1) and CE are low-latency; ECT(0), which no preset sends, and
        # Not-ECT are classic.
        aqm = make_aqm()
        for seq, ecn in enumerate(EcnCodepoint):
            aqm.enqueue(packet(seq, ecn=ecn), 0)
        l_ecns = [p.ecn for p, _ in aqm.l_queue.entries]
        c_ecns = [p.ecn for p, _ in aqm.c_queue.entries]
        assert l_ecns == [EcnCodepoint.ECT1, EcnCodepoint.CE]
        assert c_ecns == [EcnCodepoint.NOT_ECT, EcnCodepoint.ECT0]

    def test_overflow_drops_and_counts(self):
        aqm = make_aqm(queue_limit_bytes=2500)
        aqm.enqueue(packet(0), 0)
        aqm.enqueue(packet(1), 0)
        assert len(aqm.l_queue.entries) == 2 and aqm.l_queue.bytes == 2400
        aqm.enqueue(packet(2), 0)
        assert len(aqm.l_queue.entries) == 2 and aqm.l_queue.bytes == 2400
        assert aqm.l_queue.dropped == 1
        assert aqm.l_queue.enqueued == 3
        assert not aqm.conservation_errors()


class TestDequeue:
    def test_empty_returns_none(self):
        assert make_aqm().dequeue(0) is None

    def test_short_sojourn_keeps_ect1(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0), 0)
        out = aqm.dequeue(500)  # 0.5 ms sojourn, threshold 1 ms, p_base 0
        assert out.ecn is EcnCodepoint.ECT1
        assert aqm.l_queue.marked == 0

    def test_sojourn_over_threshold_marks_ce(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0), 0)
        out = aqm.dequeue(5_000)  # 5 ms > 1 ms threshold
        assert out.ecn is EcnCodepoint.CE
        assert aqm.l_queue.marked == 1

    @pytest.mark.parametrize("p_base, now", [(0.0, 5_000), (0.5, 0)], ids=["step", "coupled"])
    def test_ce_packet_passes_marking_point_unchanged(self, p_base, now):
        events = []
        aqm = DualPi2(DualPi2Config(), random.Random(1), lambda e, *_: events.append(e))
        aqm.p_base = p_base
        ce = packet(0, ecn=EcnCodepoint.CE)
        aqm.enqueue(ce, 0)
        assert aqm.dequeue(now) is ce
        assert aqm.l_queue.marked == 0 and events == []
        assert aqm.l_queue.dequeued == 1 and not aqm.conservation_errors()

    def test_coupled_marking_uses_probability(self):
        aqm = make_aqm()
        aqm.p_base = 0.5  # coupled probability = min(1, 2*0.5) = 1
        aqm.enqueue(packet(0), 0)
        out = aqm.dequeue(0)
        assert out.ecn is EcnCodepoint.CE

    def test_classic_never_marked(self):
        aqm = make_aqm()
        aqm.p_base = 0.5
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        out = aqm.dequeue(10_000)
        # with p_classic = 0.25 this one survived or was dropped; survivors
        # keep their codepoint in any case
        if out is not None:
            assert out.ecn is EcnCodepoint.NOT_ECT

    def test_certain_classic_drop_empties_queue(self):
        aqm = make_aqm()
        aqm.p_base = 1.0  # p_classic = 1: every classic packet drops
        for seq in range(4):
            aqm.enqueue(packet(seq, ecn=EcnCodepoint.NOT_ECT), 0)
        assert aqm.dequeue(0) is None
        assert aqm.c_queue.dropped == 4
        assert not aqm.conservation_errors()

    def test_classic_drop_skips_to_next_head(self):
        # one low-latency packet behind a doomed classic head: the classic
        # drop must not block the emission
        aqm = make_aqm(time_shift_us=1)
        aqm.p_base = 1.0
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        aqm.enqueue(packet(1, ecn=EcnCodepoint.NOT_ECT), 1)
        out = aqm.dequeue(2)
        assert out is None
        assert aqm.c_queue.dropped == 2


def merge_oracle(l_entries, c_entries, time_shift):
    """Independent time-shifted FIFO merge: compare head enqueue times with
    the low-latency queue granted the shift; ties go to the low-latency
    queue."""
    order = []
    li = ci = 0
    while li < len(l_entries) or ci < len(c_entries):
        if ci >= len(c_entries):
            pick_l = True
        elif li >= len(l_entries):
            pick_l = False
        else:
            pick_l = l_entries[li][1] - time_shift <= c_entries[ci][1]
        if pick_l:
            order.append(l_entries[li][0])
            li += 1
        else:
            order.append(c_entries[ci][0])
            ci += 1
    return order


class TestScheduling:
    def test_time_shift_prefers_low_latency(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        aqm.enqueue(packet(1, ecn=EcnCodepoint.ECT1), 40_000)  # within 50 ms shift
        first = aqm.dequeue(40_000)
        assert first.seq == 1

    def test_old_classic_wins_beyond_shift(self):
        aqm = make_aqm()
        aqm.enqueue(packet(0, ecn=EcnCodepoint.NOT_ECT), 0)
        aqm.enqueue(packet(1, ecn=EcnCodepoint.ECT1), 60_000)  # beyond the shift
        first = aqm.dequeue(60_000)
        assert first.seq == 0

    @given(
        arrivals=st.lists(
            st.tuples(st.booleans(), st.integers(0, 100_000)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60)
    def test_merge_matches_oracle(self, arrivals):
        # The largest step threshold, above any sojourn here (at most 40 gaps
        # of 0.1 s), and p_base 0: dequeue is a pure merge.
        aqm = make_aqm(l4s_step_threshold_us=DELAY_US.hi, queue_limit_bytes=10**9)
        l_entries, c_entries = [], []
        now = 0
        for seq, (is_l4s, gap) in enumerate(arrivals):
            now += gap
            ecn = EcnCodepoint.ECT1 if is_l4s else EcnCodepoint.NOT_ECT
            aqm.enqueue(packet(seq, ecn=ecn), now)
            (l_entries if is_l4s else c_entries).append((seq, now))
        expected = merge_oracle(l_entries, c_entries, aqm.config.time_shift_us)
        drained = []
        while True:
            out = aqm.dequeue(now)
            if out is None:
                break
            drained.append(out.seq)
        assert drained == expected
        # per-queue FIFO: subsequences preserve enqueue order
        l_set = {s for s, _ in l_entries}
        assert [s for s in drained if s in l_set] == [s for s, _ in l_entries]
        assert [s for s in drained if s not in l_set] == [s for s, _ in c_entries]
        assert not aqm.conservation_errors()

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.booleans(), st.integers(200, 40_000)),
            min_size=1,
            max_size=80,
        ),
        p_base=st.floats(0, 1),
    )
    @settings(max_examples=60)
    def test_conservation_under_random_ops(self, ops, p_base):
        aqm = make_aqm(queue_limit_bytes=20_000)
        aqm.p_base = p_base
        now = 0
        seq = 0
        emitted = 0
        for op, is_l4s, size in ops:
            now += 1000
            if op < 2:
                ecn = EcnCodepoint.ECT1 if is_l4s else EcnCodepoint.NOT_ECT
                aqm.enqueue(packet(seq, ecn=ecn, size=size), now)
                seq += 1
            else:
                if aqm.dequeue(now) is not None:
                    emitted += 1
        assert not aqm.conservation_errors()
        assert aqm.l_queue.dequeued + aqm.c_queue.dequeued == emitted
        # the low-latency queue never drops after admission
        assert aqm.l_queue.enqueued == (
            aqm.l_queue.dequeued + aqm.l_queue.dropped + len(aqm.l_queue.entries)
        )


class TestDropTail:
    def test_fifo_and_overflow(self):
        dt = DropTail(DropTailConfig(queue_limit_bytes=2500))
        dt.enqueue(packet(0), 0)
        dt.enqueue(packet(1), 0)
        assert dt.queued_packets() == 2 and dt.queue.dropped == 0
        dt.enqueue(packet(2), 0)
        assert dt.queued_packets() == 2 and dt.queue.dropped == 1
        assert dt.dequeue(100).seq == 0
        assert dt.dequeue(100).seq == 1
        assert dt.dequeue(100) is None
        assert not dt.conservation_errors()

    def test_never_marks(self):
        dt = DropTail(DropTailConfig())
        dt.enqueue(packet(0), 0)
        assert dt.dequeue(10**9).ecn is EcnCodepoint.ECT1
        assert dt.total_marked() == 0
