import pytest
from hypothesis import given, settings, strategies as st

from l4sim.core import EcnCodepoint, Packet
from l4sim.media import MediaSource, Receiver, SourceConfig
from l4sim.sim import Scenario

US = 1_000_000
FRAME_US = US // 30


def make_source(**overrides):
    return MediaSource(SourceConfig(**overrides))


def make_receiver(**kwargs):
    kwargs.setdefault("fps", 30)
    kwargs.setdefault("reverse_delay_us", 6_000)
    kwargs.setdefault("dejitter_us", Scenario.dejitter_us)
    return Receiver(**kwargs)


def deliver_frame(receiver, source, target_bps, tick_us, arrival_offset_us=10_000):
    """Encode one frame and deliver every packet at a fixed offset."""
    packets = source.encode_tick(target_bps, tick_us)
    out = None
    for p in packets:
        result = receiver.on_packet(p, p.sent_at + arrival_offset_us)
        if result is not None:
            out = result
    return packets, out


class TestEncodeTick:
    def test_frame_size_3mbps(self):
        packets = make_source().encode_tick(3_000_000, 0)
        assert sum(p.size_bytes for p in packets) == 12_500  # 3e6 / 30 / 8

    def test_packet_count_for_mtu(self):
        packets = make_source().encode_tick(3_000_000, 0)
        assert len(packets) == 11  # ceil(12500 / 1200)
        assert all(p.size_bytes == 1200 for p in packets[:-1])
        assert packets[-1].size_bytes == 12_500 - 10 * 1200

    def test_ecn_mode_applied(self):
        packets = make_source().encode_tick(1_000_000, 0)
        assert all(p.ecn is EcnCodepoint.ECT1 for p in packets)
        classic = make_source(ecn_mode=EcnCodepoint.NOT_ECT).encode_tick(1_000_000, 0)
        assert all(p.ecn is EcnCodepoint.NOT_ECT for p in classic)

    def test_sequences_and_frame_metadata(self):
        source = make_source()
        first = source.encode_tick(3_000_000, 0)
        second = source.encode_tick(3_000_000, FRAME_US)
        seqs = [p.seq for p in first + second]
        assert seqs == list(range(len(seqs)))
        assert {p.frame_id for p in first} == {0}
        assert {p.frame_id for p in second} == {1}
        assert all(p.frame_packet_count == len(first) for p in first)

    def test_pacing_spreads_across_interval(self):
        packets = make_source().encode_tick(3_000_000, 1_000)
        times = [p.sent_at for p in packets]
        assert times[0] == 1_000
        assert times == sorted(times)
        assert times[-1] < 1_000 + FRAME_US
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) - min(gaps) <= 1  # even spacing up to rounding

    def test_out_of_bounds_target_rejected(self):
        source = make_source()
        with pytest.raises(ValueError):
            source.encode_tick(100_000, 0)  # below min
        with pytest.raises(ValueError):
            source.encode_tick(6_000_000, 0)  # above max

    @given(
        targets=st.lists(st.integers(150_000, 5_000_000), min_size=10, max_size=60)
    )
    @settings(max_examples=40)
    def test_emitted_bytes_track_average_target(self, targets):
        source = make_source()
        total = 0
        for i, target in enumerate(targets):
            total += sum(
                p.size_bytes for p in source.encode_tick(target, i * FRAME_US)
            )
        expected_bits = sum(t / 30 for t in targets)
        assert total * 8 == pytest.approx(expected_bits, rel=0.01)

    def test_retransmit_clones_original(self):
        source = make_source()
        originals = source.encode_tick(3_000_000, 0)
        rtx = source.make_retransmit(originals[3].seq, 99_000)
        assert rtx.seq == originals[3].seq
        assert rtx.size_bytes == originals[3].size_bytes
        assert rtx.frame_id == originals[3].frame_id
        assert rtx.is_retransmit
        assert rtx.sent_at == 99_000
        assert source.make_retransmit(10**9, 0) is None  # unknown seq


class TestReceiverCounting:
    def test_ce_and_ect1_accumulators(self):
        receiver = make_receiver()
        receiver.on_packet(
            Packet(seq=0, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0), 10
        )
        receiver.on_packet(
            Packet(seq=1, size_bytes=100, ecn=EcnCodepoint.CE, sent_at=0), 20
        )
        report = receiver.build_feedback(100_000)
        assert report.received_count == 2
        assert report.ect1_count == 1
        assert report.ce_count == 1
        assert report.ect1_count + report.ce_count <= report.received_count

    def test_gap_reported_exactly_once(self):
        receiver = make_receiver()
        for seq, when in ((10, 100), (12, 300)):
            receiver.on_packet(
                Packet(seq=seq, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0),
                when,
            )
        first = receiver.build_feedback(100_000)
        assert first.lost_seqs == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11]
        assert 11 in first.lost_seqs
        second = receiver.build_feedback(200_000)
        assert second.lost_seqs == []  # not re-reported within the timeout

    def test_unrepaired_loss_reported_again_after_timeout(self):
        receiver = make_receiver()
        receiver.on_packet(
            Packet(seq=0, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0), 10
        )
        receiver.on_packet(
            Packet(seq=2, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0), 20
        )
        assert receiver.build_feedback(100_000).lost_seqs == [1]
        assert receiver.build_feedback(200_000).lost_seqs == []
        # past the repair timeout (300 ms) the hole is reported again
        assert receiver.build_feedback(450_000).lost_seqs == [1]

    def test_repaired_loss_not_rereported(self):
        receiver = make_receiver()
        for seq, when in ((0, 10), (2, 20)):
            receiver.on_packet(
                Packet(seq=seq, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0),
                when,
            )
        assert receiver.build_feedback(100_000).lost_seqs == [1]
        receiver.on_packet(
            Packet(
                seq=1, size_bytes=100, ecn=EcnCodepoint.ECT1,
                sent_at=150_000, is_retransmit=True,
            ),
            160_000,
        )
        assert receiver.build_feedback(500_000).lost_seqs == []

    def test_duplicate_ignored(self):
        receiver = make_receiver()
        p = Packet(seq=5, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0)
        receiver.on_packet(p, 10)
        receiver.on_packet(p, 20)
        report = receiver.build_feedback(100_000)
        assert report.received_count == 1
        assert report.ect1_count == 1

    def test_retransmits_counted_but_not_sampled(self):
        receiver = make_receiver()
        rtx = Packet(
            seq=0, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0,
            is_retransmit=True,
        )
        receiver.on_packet(rtx, 10)
        report = receiver.build_feedback(100_000)
        assert report.received_count == 1
        assert report.arrival_samples == []

    def test_empty_interval_still_reports(self):
        receiver = make_receiver()
        report = receiver.build_feedback(100_000)
        assert report.received_count == 0
        assert report.interval_start == 0
        assert report.interval_end == 100_000
        follow_up = receiver.build_feedback(200_000)
        assert follow_up.interval_start == 100_000

    def test_report_sums_cover_all_deliveries(self):
        # over any run, the received counts across reports add up to the
        # delivered packets, and ECN-capable flows count ect1 + ce == received
        receiver = make_receiver()
        delivered = 0
        reports = []
        for seq in range(57):
            ecn = EcnCodepoint.CE if seq % 9 == 0 else EcnCodepoint.ECT1
            receiver.on_packet(
                Packet(seq=seq, size_bytes=100, ecn=ecn, sent_at=seq * 1000),
                seq * 1000 + 10_000,
            )
            delivered += 1
            if seq % 13 == 0:
                reports.append(receiver.build_feedback(seq * 1000 + 20_000))
        reports.append(receiver.build_feedback(10_000_000))
        assert sum(r.received_count for r in reports) == delivered
        assert all(r.ect1_count + r.ce_count == r.received_count for r in reports)
        assert receiver.total_received == delivered


class TestPlayout:
    def test_on_time_frames_never_stall(self):
        receiver = make_receiver()
        source = make_source()
        tick = None
        for f in range(12):
            _, schedule = deliver_frame(receiver, source, 1_000_000, f * FRAME_US)
            if schedule is not None:
                tick = schedule
        # run the playout clock over everything that is due
        while tick is not None and receiver.next_frame < 12:
            tick = receiver.playout_tick(tick)
        assert receiver.stalled_total_us == 0
        assert receiver.played_frames == 12

    def test_late_frame_stalls_and_shifts_deadlines(self):
        receiver = make_receiver()
        source = make_source()
        packets0, _ = deliver_frame(receiver, source, 1_000_000, 0)
        anchor = receiver.playout_anchor
        assert anchor is not None
        tick = receiver.playout_tick(anchor)  # frame 0 plays
        deadline1 = tick
        # frame 1 completes 200 ms after its deadline
        packets1 = source.encode_tick(1_000_000, FRAME_US)
        assert receiver.playout_tick(deadline1) is None  # stall begins
        resume = None
        for p in packets1:
            resume = receiver.on_packet(p, deadline1 + 200_000) or resume
        assert receiver.stalled_total_us == 200_000
        assert receiver.deadline_shift_us == 200_000
        # the next deadline is shifted by the stall
        assert resume == anchor + (2 * US) // 30 + 200_000

    def test_stall_shift_decays_during_smooth_playback(self):
        # a frame that was already complete when its deadline came claws back
        # a sliver of accumulated shift
        source = make_source()
        receiver = make_receiver()
        deliver_frame(receiver, source, 1_000_000, 0)
        receiver.deadline_shift_us = 10_000
        tick = receiver.playout_tick(receiver.deadline(0))
        assert receiver.deadline_shift_us == 10_000 - (US // 30) // 10
        assert tick is not None

    def test_stalling_rate_is_ratio_of_session(self):
        # 1.83 s of stall over a 100 s session is a 1.83% stalling rate
        receiver = make_receiver()
        receiver.stalled_total_us = 1_830_000
        assert receiver.stalled_total_us / 100_000_000 == pytest.approx(0.0183)

    def test_open_stall_accrues_to_session_end(self):
        receiver = make_receiver()
        source = make_source()
        deliver_frame(receiver, source, 1_000_000, 0)
        tick = receiver.playout_tick(receiver.playout_anchor)
        assert receiver.playout_tick(tick) is None  # frame 1 missing: stall
        receiver.finalize(tick + 500_000)
        assert receiver.stalled_total_us == 500_000

    def test_quality_counts_played_bytes(self):
        receiver = make_receiver()
        source = make_source()
        packets, _ = deliver_frame(receiver, source, 1_000_000, 0)
        receiver.playout_tick(receiver.playout_anchor)
        assert receiver.played_bytes == sum(p.size_bytes for p in packets)
