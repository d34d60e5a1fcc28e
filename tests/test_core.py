import dataclasses
import math
import random
from typing import get_type_hints

import pytest
from hypothesis import given, strategies as st

from l4sim.aqm import DualPi2, DualPi2Config
from l4sim.cc import GccParams
from l4sim.core import US_PER_S, Config, EcnCodepoint, FeedbackReport, Packet, apply_ce_mark
from l4sim.core import number_fields
from l4sim.media import SourceConfig
from l4sim.netem import CAPACITY_MBPS, Constant, SquareWave
from l4sim.sim import Scenario


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


def config_classes(cls=Config):
    """Every subclass of `cls`, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from config_classes(sub)


CONFIGS = list(config_classes())


def bound(cls, name):
    return number_fields(cls)[name][1]


class TestDeclaredRanges:
    """Every number field of every config declares a closed range, and the
    ranges keep every product and quotient the engine forms finite
    (DECISIONS.md entry 21)."""

    def test_an_int_too_long_to_print_is_named_by_its_size(self):
        # Python prints no int of more than 4,300 digits: formatting one
        # raised its own error, without the field's name.
        with pytest.raises(ValueError) as exc:
            Scenario(seed=10**5000)
        assert str(exc.value) == (
            "seed: must be from 0 to 18446744073709551615, got an int of 16610 bits"
        )
        with pytest.raises(ValueError, match="^seed: .*, got a negative int of 16610 bits$"):
            Scenario(seed=-(10**5000))

    def test_every_config_is_walked(self):
        assert {cls.__name__ for cls in CONFIGS} >= {
            "Scenario", "Constant", "SquareWave", "DualPi2Config", "DropTailConfig",
            "SourceConfig", "GccParams", "ScalableParams",
        }  # fmt: skip

    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
    def test_every_number_field_declares_a_range(self, cls):
        numbers = {name for name, hint in get_type_hints(cls).items() if hint in (int, float)}
        assert set(number_fields(cls)) == numbers
        for name, (hint, bounds) in number_fields(cls).items():
            # Bounds of the field's own type, so an int field's message is exact.
            assert type(bounds.lo) is hint and type(bounds.hi) is hint, name
            assert bounds.lo < bounds.hi, name

    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
    def test_every_default_lies_in_its_range(self, cls):
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for name, (_hint, bounds) in number_fields(cls).items():
            if defaults[name] is not dataclasses.MISSING:
                assert bounds.lo <= defaults[name] <= bounds.hi, name

    def test_capacities_share_one_range(self):
        # A trace's rates lie in the range of the other patterns' rates.
        rates = {bound(Constant, "mbps"), bound(SquareWave, "low_mbps")}
        assert rates == {bound(SquareWave, "high_mbps"), CAPACITY_MBPS}

    def test_longest_serialization_is_finite(self):
        # The largest packet at the slowest link: `ForwardLink.serialization_us`.
        max_bits = 8 * bound(SourceConfig, "mtu_bytes").hi
        min_rate_bps = CAPACITY_MBPS.lo * 1e6
        assert math.isfinite(max_bits * US_PER_S / min_rate_bps)

    def test_longest_session_at_the_fastest_rate_is_finite(self):
        # `average_capacity_bps` sums rate times time over the session.
        max_rate_bps = CAPACITY_MBPS.hi * 1e6
        assert math.isfinite(max_rate_bps * bound(Scenario, "duration_us").hi)

    def test_largest_increase_over_the_longest_update_gap_is_finite(self):
        # `apply_rate_update` multiplies the target by eta ** dt_s, then by
        # 1.05. The longest gap between two updates is the first: a feedback
        # interval and the feedback delay.
        gap_us = bound(Scenario, "feedback_interval_us").hi + bound(Scenario, "reverse_delay_us").hi
        max_eta = bound(GccParams, "eta_increase").hi
        max_bitrate = bound(SourceConfig, "max_bitrate_bps").hi
        assert math.isfinite(max_eta ** (gap_us / US_PER_S) * max_bitrate * 1.05)
