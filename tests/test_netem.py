import random

import pytest
from hypothesis import given, strategies as st

from l4sim.core import EcnCodepoint, Packet
from l4sim.netem import (
    Constant,
    ForwardLink,
    JitterProfile,
    SquareWave,
    TracePattern,
    average_capacity_bps,
    capacity_at,
    jitter_profile_ms,
    load_trace_csv,
    normalize_trace,
    sample_jitter,
    trace_pattern,
    write_trace_csv,
)

CASE4A = jitter_profile_ms([(10, 0.85), (12, 0.10), (14, 0.04), (16, 0.01)])


def packet(seq=0, size=1500):
    return Packet(seq=seq, size_bytes=size, ecn=EcnCodepoint.ECT1, sent_at=0)


class TestCapacityAt:
    def test_constant(self):
        pattern = Constant(3.0)
        for t in (0, 1, 10**6, 10**9):
            assert capacity_at(pattern, t) == 3e6

    def test_square_wave_phases(self):
        pattern = SquareWave(2.5, 4.0, 10_000_000)
        assert capacity_at(pattern, 12_000_000) == 4e6  # second half period
        assert capacity_at(pattern, 0) == 2.5e6
        assert capacity_at(pattern, 9_999_999) == 2.5e6
        assert capacity_at(pattern, 20_000_000) == 2.5e6  # wraps

    def test_trace_step_hold(self):
        pattern = TracePattern(((0, 1.0), (5_000_000, 2.0)))
        assert capacity_at(pattern, 4_900_000) == 1e6
        assert capacity_at(pattern, 5_000_000) == 2e6
        assert capacity_at(pattern, 99_000_000) == 2e6  # holds last value

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            capacity_at(Constant(1.0), -1)

    @given(
        pattern=st.one_of(
            st.builds(Constant, st.floats(0.1, 100)),
            st.builds(
                SquareWave,
                st.floats(0.1, 10),
                st.floats(0.1, 10),
                st.integers(1, 10**8),
            ),
        ),
        t=st.integers(0, 10**10),
    )
    def test_total_and_positive(self, pattern, t):
        assert capacity_at(pattern, t) > 0

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TracePattern(())
        with pytest.raises(ValueError):
            TracePattern(((1, 1.0),))  # must start at 0
        with pytest.raises(ValueError):
            TracePattern(((0, 1.0), (0, 2.0)))  # strictly increasing
        with pytest.raises(ValueError):
            TracePattern(((0, 0.0),))  # positive rates


class TestAverageCapacity:
    def test_constant(self):
        assert average_capacity_bps(Constant(3.0), 120_000_000) == 3e6

    def test_square_partial_cycle(self):
        pattern = SquareWave(2.0, 4.0, 10_000_000)
        # 15 s: 10 s low + 5 s high
        expected = (10 * 2e6 + 5 * 4e6) / 15
        assert average_capacity_bps(pattern, 15_000_000) == pytest.approx(expected)

    def test_trace_numeric_oracle(self):
        pattern = TracePattern(((0, 1.0), (3_000_000, 2.5), (7_000_000, 0.5)))
        duration = 10_000_000
        # brute-force integral sampled every millisecond
        total = sum(capacity_at(pattern, t) for t in range(0, duration, 1000)) * 1000
        assert average_capacity_bps(pattern, duration) == pytest.approx(
            total / duration, rel=1e-6
        )


class TestSampleJitter:
    def test_empirical_frequencies(self):
        rng = random.Random(1234)
        n = 1_000_000
        counts = {10_000: 0, 12_000: 0, 14_000: 0, 16_000: 0}
        total_us = 0
        for _ in range(n):
            d = sample_jitter(CASE4A, rng)
            counts[d] += 1
            total_us += d
        for delay, prob in CASE4A.entries:
            assert abs(counts[delay] / n - prob) < 0.003  # within 0.3 pp
        # analytic mean: 0.85*10 + 0.10*12 + 0.04*14 + 0.01*16 = 10.42 ms
        assert abs(total_us / n - 10_420) < 20  # within 0.02 ms

    def test_same_seed_same_sequence(self):
        rng_a, rng_b = random.Random(99), random.Random(99)
        seq_a = [sample_jitter(CASE4A, rng_a) for _ in range(1000)]
        seq_b = [sample_jitter(CASE4A, rng_b) for _ in range(1000)]
        assert seq_a == seq_b

    def test_validation(self):
        with pytest.raises(ValueError):
            JitterProfile(((10_000, 0.5), (12_000, 0.6)))  # sums over 1
        with pytest.raises(ValueError):
            JitterProfile(((0, 1.0),))  # delay must be positive
        with pytest.raises(ValueError):
            JitterProfile(())


class TestDeliver:
    def test_serialization_plus_base_delay(self):
        link = ForwardLink(Constant(3.0), 6_000, None)
        # 1500 bytes at 3 Mbps = 4 ms serialization, plus 6 ms propagation
        assert link.deliver(packet(), 0) == 4_000 + 6_000

    def test_monotone_clamp(self):
        link = ForwardLink(Constant(3.0), 6_000, None)
        first = link.deliver(packet(seq=0, size=1500), 0)
        # a tiny packet sent right after would arrive earlier; it is clamped
        second = link.deliver(packet(seq=1, size=10), 1)
        assert second == first

    def test_jitter_histogram_matches_profile(self):
        # spaced far beyond the jitter spread, the clamp never binds and the
        # delivery delay distribution is the profile shifted by serialization
        rng = random.Random(5)
        link = ForwardLink(Constant(5.0), 6_000, CASE4A, rng)
        n = 200_000
        spacing = 50_000  # 50 ms >> max jitter
        counts = {}
        for i in range(n):
            now = i * spacing
            ser = link.serialization_us(1200, now)
            delay = link.deliver(packet(seq=i, size=1200), now) - now - ser
            counts[delay] = counts.get(delay, 0) + 1
        for delay, prob in CASE4A.entries:
            assert abs(counts.get(delay, 0) / n - prob) < 0.005

    def test_per_flow_delivery_never_decreases(self):
        rng = random.Random(11)
        link = ForwardLink(Constant(1.0), 6_000, CASE4A, rng)
        last = 0
        for i in range(5000):
            when = link.deliver(packet(seq=i, size=300), i * 100)
            assert when >= last
            last = when


class TestNormalizeTrace:
    def test_min_max_endpoints(self):
        scaled = normalize_trace([(0, 10.0), (1, 30.0), (2, 50.0)])
        assert [r for _, r in scaled] == [0.0, 2.5, 5.0]

    def test_identity_on_target_range(self):
        scaled = normalize_trace([(0, 0.0), (1, 5.0)])
        assert scaled == [(0, 0.0), (1, 5.0)]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            normalize_trace([(0, 2.0), (1, 2.0)])
        with pytest.raises(ValueError):
            normalize_trace([(0, 2.0)])

    @given(
        rates=st.lists(st.floats(0, 1000), min_size=2, max_size=40).filter(
            lambda rs: max(rs) > min(rs)
        )
    )
    def test_affine_preserves_order(self, rates):
        samples = [(i * 1000, r) for i, r in enumerate(rates)]
        scaled = normalize_trace(samples)
        for (_, a), (_, b), (_, sa), (_, sb) in zip(
            samples, samples[1:], scaled, scaled[1:]
        ):
            if a < b:
                assert sa < sb
            elif a > b:
                assert sa > sb
            else:
                assert sa == pytest.approx(sb)
        values = [r for _, r in scaled]
        assert min(values) == pytest.approx(0.0, abs=1e-12)
        assert max(values) == pytest.approx(5.0)

    def test_pattern_floors_zero_rates(self):
        pattern = trace_pattern([(0, 0.0), (1_000_000, 5.0)])
        assert capacity_at(pattern, 0) == pytest.approx(0.1e6)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        samples = [(0, 1.25), (500_000, 3.5), (1_000_000, 0.75)]
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), samples)
        assert load_trace_csv(str(path)) == samples

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,rate\n0,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1"):
            load_trace_csv(str(path))

    def test_non_monotone_line_numbered(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,mbps\n0,1\n2,1\n1,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4"):
            load_trace_csv(str(path))

    def test_negative_rate_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,mbps\n0,1\n1,-2\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3.*negative"):
            load_trace_csv(str(path))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,mbps\n0,one\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            load_trace_csv(str(path))

    def test_must_start_at_zero(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,mbps\n1,1\n2,2\n")
        with pytest.raises(ValueError, match="start at t_s=0"):
            load_trace_csv(str(path))
