import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from l4sim.aqm import DualPi2, DualPi2Config
from l4sim.core import EcnCodepoint, FeedbackReport, Packet, apply_ce_mark


def make_packet(ecn=EcnCodepoint.ECT1, seq=0, size=1200):
    return Packet(seq=seq, size_bytes=size, ecn=ecn, sent_at=0, frame_id=0, frame_packet_count=1)


def classify(ecn):
    """The FIFO a fresh DualPi2 puts a packet of this codepoint in: 'L' or 'C'."""
    aqm = DualPi2(DualPi2Config(), random.Random(1))
    aqm.enqueue(make_packet(ecn=ecn), 0)
    queues = [name for name, q in (("L", aqm.l_queue), ("C", aqm.c_queue)) if q.entries]
    assert len(queues) == 1
    return queues[0]


class TestClassifyFlow:
    def test_ect1_is_low_latency(self):
        assert classify(EcnCodepoint.ECT1) == "L"

    def test_ect0_is_classic(self):
        assert classify(EcnCodepoint.ECT0) == "C"

    def test_not_ect_is_classic(self):
        assert classify(EcnCodepoint.NOT_ECT) == "C"

    def test_ce_is_low_latency(self):
        # RFC 9331: a node classifies CE as L4S by default
        assert classify(EcnCodepoint.CE) == "L"

    @given(st.sampled_from(list(EcnCodepoint)))
    def test_total_and_pure(self, ecn):
        first = classify(ecn)
        assert first in ("L", "C")
        assert classify(ecn) == first


class TestApplyCeMark:
    def test_marks_ect1(self):
        marked = apply_ce_mark(make_packet())
        assert marked.ecn is EcnCodepoint.CE

    def test_rejects_not_ect(self):
        with pytest.raises(ValueError):
            apply_ce_mark(make_packet(ecn=EcnCodepoint.NOT_ECT))

    def test_rejects_ect0(self):
        with pytest.raises(ValueError):
            apply_ce_mark(make_packet(ecn=EcnCodepoint.ECT0))

    def test_double_mark_rejected(self):
        marked = apply_ce_mark(make_packet())
        with pytest.raises(ValueError):
            apply_ce_mark(marked)

    @given(
        seq=st.integers(0, 10**9),
        size=st.integers(1, 65535),
        sent_at=st.integers(0, 10**12),
        frame_id=st.integers(0, 10**6),
        frame_packet_count=st.integers(1, 1_000),
        retransmit=st.booleans(),
    )
    def test_changes_only_ecn(self, seq, size, sent_at, frame_id, frame_packet_count, retransmit):
        packet = Packet(
            seq=seq,
            size_bytes=size,
            ecn=EcnCodepoint.ECT1,
            sent_at=sent_at,
            frame_id=frame_id,
            frame_packet_count=frame_packet_count,
            is_retransmit=retransmit,
        )
        marked = apply_ce_mark(packet)
        assert marked.ecn is EcnCodepoint.CE
        for field in dataclasses.fields(Packet):
            if field.name == "ecn":
                continue
            assert getattr(marked, field.name) == getattr(packet, field.name)
        # the original is untouched
        assert packet.ecn is EcnCodepoint.ECT1


class TestPacket:
    def test_feedback_report_defaults(self):
        report = FeedbackReport()
        assert report.received_count == 0
        assert report.lost_seqs == []
        assert report.ect1_count + report.ce_count <= report.received_count
