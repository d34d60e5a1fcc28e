import dataclasses

import pytest
from hypothesis import given, strategies as st

from l4sim.core import (
    EcnCodepoint,
    FeedbackReport,
    FlowClass,
    Packet,
    apply_ce_mark,
    classify_flow,
)


def make_packet(ecn=EcnCodepoint.ECT1, seq=0, size=1200):
    return Packet(seq=seq, size_bytes=size, ecn=ecn, sent_at=0)


class TestClassifyFlow:
    def test_ect1_is_low_latency(self):
        assert classify_flow(EcnCodepoint.ECT1) is FlowClass.L4S

    def test_ect0_is_classic(self):
        assert classify_flow(EcnCodepoint.ECT0) is FlowClass.CLASSIC

    def test_not_ect_is_classic(self):
        assert classify_flow(EcnCodepoint.NOT_ECT) is FlowClass.CLASSIC

    def test_ce_is_low_latency(self):
        # only the low-latency queue produces CE here, so CE is unambiguous
        assert classify_flow(EcnCodepoint.CE) is FlowClass.L4S

    @given(st.sampled_from(list(EcnCodepoint)))
    def test_total_and_pure(self, ecn):
        first = classify_flow(ecn)
        assert first in (FlowClass.L4S, FlowClass.CLASSIC)
        assert classify_flow(ecn) is first


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
        frame_id=st.one_of(st.none(), st.integers(0, 10**6)),
        retransmit=st.booleans(),
    )
    def test_changes_only_ecn(self, seq, size, sent_at, frame_id, retransmit):
        packet = Packet(
            seq=seq,
            size_bytes=size,
            ecn=EcnCodepoint.ECT1,
            sent_at=sent_at,
            frame_id=frame_id,
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
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            make_packet(size=0)

    def test_feedback_report_defaults(self):
        report = FeedbackReport(interval_start=0, interval_end=100_000)
        assert report.received_count == 0
        assert report.lost_seqs == []
        assert report.ect1_count + report.ce_count <= report.received_count
