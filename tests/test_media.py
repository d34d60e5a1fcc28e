import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from l4sim.core import EcnCodepoint, Packet, apply_ce_mark
from l4sim.media import MediaSource, Receiver, SourceConfig
from l4sim.sim import Scenario

US = 1_000_000
FRAME_US = US // 30
# A frame too large to complete: receiver tests of the feedback accounting
# send its packets, so no arrival starts the playout clock.
OPEN_FRAME = {"frame_id": 0, "frame_packet_count": 1_000}


def make_source(ecn=EcnCodepoint.ECT1, **overrides):
    return MediaSource(SourceConfig(**overrides), ecn)


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
        classic = make_source(ecn=EcnCodepoint.NOT_ECT).encode_tick(1_000_000, 0)
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

    @given(data=st.data(), fps=st.integers(1, 1_000), mtu=st.integers(1, 9_000))
    def test_sizes_are_valid_where_they_originate(self, data, fps, mtu):
        # Packet does not check its size: every size the source builds must
        # already lie in 1..mtu, whatever the frame rate, MTU and bitrates.
        # Rates stay below 500 packets a frame, to bound the work.
        top = 500 * mtu * 8 * fps
        rates = data.draw(st.lists(st.integers(1, top), min_size=4, max_size=4))
        low, target, start, high = sorted(rates)
        source = make_source(
            fps=fps, mtu_bytes=mtu, min_bitrate_bps=low, start_bitrate_bps=start,
            max_bitrate_bps=high,
        )  # fmt: skip
        for now in (0, US // fps):
            packets = source.encode_tick(target, now)
            assert all(1 <= p.size_bytes <= mtu for p in packets)
            assert sum(p.size_bytes for p in packets) == max(1, round(target / fps / 8))
            assert all(p.frame_packet_count == len(packets) for p in packets)
            assert len({p.frame_id for p in packets}) == 1

    def test_retransmit_clones_original(self):
        source = make_source()
        originals = source.encode_tick(3_000_000, 0)
        rtx = source.make_retransmit(originals[3].seq, 99_000)
        assert rtx.seq == originals[3].seq
        assert rtx.size_bytes == originals[3].size_bytes
        assert rtx.frame_id == originals[3].frame_id
        assert rtx.is_retransmit
        assert rtx.sent_at == 99_000
        with pytest.raises(KeyError):
            source.make_retransmit(10**9, 0)  # unknown seq

    @pytest.mark.parametrize("ecn", [EcnCodepoint.CE, EcnCodepoint.ECT0])
    def test_codepoint_must_be_ect1_or_not_ect(self, ecn):
        with pytest.raises(ValueError, match="^source ecn_mode must be ECT1, NOT_ECT or None$"):
            SourceConfig(ecn_mode=ecn)


class TestReceiverCounting:
    def test_ce_and_ect1_accumulators(self):
        receiver = make_receiver()
        receiver.on_packet(
            Packet(seq=0, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0, **OPEN_FRAME), 10
        )
        receiver.on_packet(
            Packet(seq=1, size_bytes=100, ecn=EcnCodepoint.CE, sent_at=0, **OPEN_FRAME), 20
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
                Packet(seq=seq, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0, **OPEN_FRAME),
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
            Packet(seq=0, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0, **OPEN_FRAME), 10
        )
        receiver.on_packet(
            Packet(seq=2, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0, **OPEN_FRAME), 20
        )
        assert receiver.build_feedback(100_000).lost_seqs == [1]
        assert receiver.build_feedback(200_000).lost_seqs == []
        # past the repair timeout (300 ms) the hole is reported again
        assert receiver.build_feedback(450_000).lost_seqs == [1]

    def test_repaired_loss_not_rereported(self):
        receiver = make_receiver()
        for seq, when in ((0, 10), (2, 20)):
            receiver.on_packet(
                Packet(seq=seq, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0, **OPEN_FRAME),
                when,
            )
        assert receiver.build_feedback(100_000).lost_seqs == [1]
        receiver.on_packet(
            Packet(
                seq=1, size_bytes=100, ecn=EcnCodepoint.ECT1,
                sent_at=150_000, is_retransmit=True, **OPEN_FRAME,
            ),
            160_000,
        )
        assert receiver.build_feedback(500_000).lost_seqs == []

    @given(
        steps=st.lists(
            st.one_of(
                st.none(),  # build a feedback report
                st.tuples(st.integers(0, 30), st.booleans()),  # (seq, retransmit)
            ),
            max_size=120,
        )
    )
    @example(steps=[(1, False), (0, False), None])  # seq 0 came late, and is no loss
    @settings(max_examples=200, deadline=None)
    def test_reports_list_each_missing_seq_when_due(self, steps):
        # Any arrival order, with duplicates, repairs and reports, one step
        # each 50 ms, so a listing comes due again after exactly six steps. A
        # report lists, in order, each seq below the highest arrived that has
        # not arrived: at once if no report listed it yet, and again exactly
        # when the last report that did is REPAIR_TIMEOUT_US old.
        receiver = make_receiver()
        seen, highest, listed_at = set(), -1, {}
        now = 0
        for step in steps + [None]:
            now += 50_000
            if step is None:
                lost = receiver.build_feedback(now).lost_seqs
                assert not seen.intersection(lost)
                assert lost == [
                    seq
                    for seq in range(highest)
                    if seq not in seen
                    and now - listed_at.get(seq, -math.inf) >= Receiver.REPAIR_TIMEOUT_US
                ]
                listed_at.update(dict.fromkeys(lost, now))
                continue
            seq, retransmit = step
            packet = Packet(
                seq, 100, EcnCodepoint.ECT1, now - 20_000, **OPEN_FRAME, is_retransmit=retransmit
            )
            receiver.on_packet(packet, now)
            seen.add(seq)
            highest = max(highest, seq)

    def test_duplicate_ignored(self):
        receiver = make_receiver()
        p = Packet(seq=5, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0, **OPEN_FRAME)
        receiver.on_packet(p, 10)
        receiver.on_packet(p, 20)
        report = receiver.build_feedback(100_000)
        assert report.received_count == 1
        assert report.ect1_count == 1

    def test_retransmits_counted_but_not_sampled(self):
        receiver = make_receiver()
        rtx = Packet(
            seq=0, size_bytes=100, ecn=EcnCodepoint.ECT1, sent_at=0,
            is_retransmit=True, **OPEN_FRAME,
        )
        receiver.on_packet(rtx, 10)
        report = receiver.build_feedback(100_000)
        assert report.received_count == 1
        assert report.arrival_samples == []

    def test_empty_interval_still_reports(self):
        receiver = make_receiver()
        report = receiver.build_feedback(100_000)
        assert report.received_count == 0

    def test_report_sums_cover_all_deliveries(self):
        # over any run, the received counts across reports add up to the
        # delivered packets, and ECN-capable flows count ect1 + ce == received
        receiver = make_receiver()
        delivered = 0
        reports = []
        for seq in range(57):
            ecn = EcnCodepoint.CE if seq % 9 == 0 else EcnCodepoint.ECT1
            receiver.on_packet(
                Packet(seq=seq, size_bytes=100, ecn=ecn, sent_at=seq * 1000, **OPEN_FRAME),
                seq * 1000 + 10_000,
            )
            delivered += 1
            if seq % 13 == 0:
                reports.append(receiver.build_feedback(seq * 1000 + 20_000))
        reports.append(receiver.build_feedback(10_000_000))
        assert sum(r.received_count for r in reports) == delivered
        assert all(r.ect1_count + r.ce_count == r.received_count for r in reports)
        assert reports[-1].received_below == delivered  # seqs 0..56 all arrived


class TestPlayout:
    def test_on_time_frames_never_stall(self):
        receiver = make_receiver()
        source = make_source()
        tick = None
        sent_bytes = 0
        for f in range(12):
            packets, schedule = deliver_frame(receiver, source, 1_000_000, f * FRAME_US)
            sent_bytes += sum(p.size_bytes for p in packets)
            if schedule is not None:
                tick = schedule
        # run the playout clock over everything that is due
        while tick is not None and receiver.next_frame < 12:
            tick = receiver.playout_tick(tick)
        assert receiver.stalled_total_us == 0
        assert receiver.next_frame == 12
        assert receiver.played_bytes == sent_bytes

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


class PlainSetFeedback:
    """Reference for the receiver's arrival and feedback accounting that
    remembers every seq it has seen in one plain set."""

    def __init__(self, dejitter_us):
        self.dejitter_us = dejitter_us
        self.seen = set()
        self.highest = -1
        self.received = 0
        self.samples = []
        self.pending = []
        self.outstanding = {}
        self.frame_arrivals = {}
        self.anchored = False

    def on_packet(self, packet, now):
        if packet.seq in self.seen:
            return None
        self.seen.add(packet.seq)
        self.outstanding.pop(packet.seq, None)
        self.received += 1
        if not packet.is_retransmit:
            self.samples.append((packet.size_bytes, packet.sent_at, now))
        if packet.seq > self.highest:
            self.pending.extend(range(self.highest + 1, packet.seq))
            self.highest = packet.seq
        arrived = self.frame_arrivals.get(packet.frame_id, 0) + 1
        self.frame_arrivals[packet.frame_id] = arrived
        if packet.frame_id == 0 and arrived == packet.frame_packet_count:
            self.anchored = True
            return now + self.dejitter_us
        return None

    def build_feedback(self, now):
        # A gap seq that arrived before this report, out of order, is not lost.
        lost = [seq for seq in self.pending if seq not in self.seen] + [
            seq
            for seq, reported_at in self.outstanding.items()
            if now - reported_at >= Receiver.REPAIR_TIMEOUT_US
        ]
        lost.sort()
        for seq in lost:
            self.outstanding[seq] = now
        watermark = 0
        while watermark in self.seen:
            watermark += 1
        report = (self.received, lost, self.samples, watermark)
        self.received, self.samples, self.pending = 0, [], []
        return report


class TestReceiverWatermark:
    FRAME_PACKETS = 4

    @given(
        steps=st.lists(
            st.one_of(
                st.none(),  # build a feedback report
                st.tuples(st.integers(0, 40), st.booleans()),  # (seq, retransmit)
            ),
            max_size=120,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_set_reference(self, steps):
        # Arbitrary arrival orders with duplicates and repairs: the highest
        # seq plus the missing seqs below it must decide first arrivals
        # exactly as a set of every seq seen, in returns and in every report
        # field.
        receiver = make_receiver()
        reference = PlainSetFeedback(receiver.dejitter_us)
        now = 0
        for step in steps + [None]:
            now += 37_000
            if step is None:
                report = receiver.build_feedback(now)
                got = (
                    report.received_count,
                    report.lost_seqs,
                    report.arrival_samples,
                    report.received_below,
                )
                assert got == reference.build_feedback(now)
                continue
            seq, retransmit = step
            packet = Packet(
                seq=seq,
                size_bytes=100,
                ecn=EcnCodepoint.ECT1,
                sent_at=now - 20_000,
                frame_id=seq // self.FRAME_PACKETS,
                frame_packet_count=self.FRAME_PACKETS,
                is_retransmit=retransmit,
            )
            assert receiver.on_packet(packet, now) == reference.on_packet(packet, now)
            highest = receiver._highest_seq
            assert highest == max(reference.seen, default=-1)
            # The missing keys are the unseen seqs below it, in seq order.
            assert list(receiver._missing) == [s for s in range(highest) if s not in reference.seen]

    def test_source_forgets_below_the_watermark(self):
        source = make_source()
        packets = source.encode_tick(3_000_000, 0)  # seqs 0..10
        source.forget_below(4)
        for seq in (0, 3):
            with pytest.raises(KeyError):
                source.make_retransmit(seq, 0)
        assert source.make_retransmit(4, 0).size_bytes == packets[4].size_bytes
        assert source.make_retransmit(10, 0).size_bytes == packets[10].size_bytes
        source.forget_below(2)  # an older watermark forgets nothing more
        assert source.make_retransmit(4, 0).size_bytes == packets[4].size_bytes

    def test_repair_copies_its_sent_packet(self):
        # The source keeps the packets it built; a repair takes size, frame
        # and count from the kept one, and a CE mark on the way, which
        # copies the packet, leaves the kept one as it was sent.
        source = make_source()
        first = source.encode_tick(3_000_000, 0)  # seqs 0..10
        second = source.encode_tick(1_000_000, FRAME_US)
        apply_ce_mark(first[6])
        source.forget_below(5)
        for packet in first[5:] + second:
            repair = source.make_retransmit(packet.seq, 2 * FRAME_US)
            assert repair is not packet
            assert (repair.seq, repair.size_bytes, repair.frame_id, repair.frame_packet_count) == (
                packet.seq, packet.size_bytes, packet.frame_id, packet.frame_packet_count
            )  # fmt: skip
            assert (repair.ecn, repair.sent_at, repair.is_retransmit) == (
                EcnCodepoint.ECT1, 2 * FRAME_US, True
            )  # fmt: skip
        assert first[-1].size_bytes != first[5].size_bytes  # the sizes tell packets apart
        assert second[0].frame_packet_count != first[5].frame_packet_count

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("encode"), st.integers(150_000, 5_000_000)),
                st.tuples(st.just("forget"), st.integers(0, 60)),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_lookups_raise_for_every_seq_not_held(self, steps):
        # The records sit in a list at seq - oldest: a seq below the oldest
        # kept, negative or not yet sent must raise, never index a record.
        source = make_source()
        sizes, oldest = {}, 0
        for op, arg in steps:
            if op == "encode":
                for packet in source.encode_tick(arg, 0):
                    sizes[packet.seq] = packet.size_bytes
            elif arg <= source.next_seq:
                source.forget_below(arg)
                oldest = max(oldest, arg)
        for seq in range(-3, source.next_seq + 3):
            if oldest <= seq < source.next_seq:
                assert source.make_retransmit(seq, 0).size_bytes == sizes[seq]
            else:
                with pytest.raises(KeyError):
                    source.make_retransmit(seq, 0)
        with pytest.raises(KeyError):
            source.forget_below(source.next_seq + 1)  # no report covers an unsent seq

    @given(
        steps=st.lists(
            st.one_of(
                st.none(),  # build a feedback report
                # (seq, retransmit, one-way delay in us)
                st.tuples(st.integers(0, 40), st.booleans(), st.integers(1, 40_000)),
            ),
            max_size=120,
        )
    )
    @example(steps=[(0, False, 10_000)])  # only `finalize` counts this delivery
    @example(steps=[(0, False, 10_000), None, (1, False, 9_000), (1, True, 5_000)])
    @settings(max_examples=200, deadline=None)
    def test_rtt_tally_matches_a_per_delivery_count(self, steps):
        # Duplicates and repairs in any order, reports at any point: each
        # report counts the first arrivals of its interval, and after
        # `finalize` the tally holds one RTT per first arrival, in the
        # order the values first occurred.
        receiver = make_receiver()
        seen, received, rtts = set(), 0, Counter()
        now = 100_000
        for step in steps:
            now += 1_000
            if step is None:
                assert receiver.build_feedback(now).received_count == received
                received = 0
                continue
            seq, retransmit, delay = step
            packet = Packet(
                seq=seq,
                size_bytes=100,
                ecn=EcnCodepoint.ECT1,
                sent_at=now - delay,
                frame_id=seq // self.FRAME_PACKETS,
                frame_packet_count=self.FRAME_PACKETS,
                is_retransmit=retransmit,
            )
            receiver.on_packet(packet, now)
            if seq not in seen:
                seen.add(seq)
                received += 1
                rtts[delay + receiver.reverse_delay_us] += 1
        receiver.finalize(now)
        assert receiver.rtt_samples_us == rtts
        assert list(receiver.rtt_samples_us) == list(rtts)

    def test_played_frames_are_dropped(self):
        receiver = make_receiver()
        source = make_source()
        deliver_frame(receiver, source, 1_000_000, 0)
        deliver_frame(receiver, source, 1_000_000, FRAME_US)
        tick = receiver.playout_tick(receiver.playout_anchor)  # frame 0 plays
        assert receiver.next_frame == 1
        assert list(receiver._frames) == [1]
        receiver.playout_tick(tick)  # frame 1 plays
        assert receiver._frames == {}
