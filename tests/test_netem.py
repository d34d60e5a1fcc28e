import math
import random

import pytest
from hypothesis import example, given, strategies as st

from l4sim import netem
from l4sim.core import US_PER_S
from l4sim.netem import (
    Constant,
    ForwardLink,
    JitterProfile,
    SquareWave,
    TracePattern,
    average_capacity_bps,
    capacity_at,
    capacity_segment,
    load_trace_csv,
    normalize_trace,
    sample_jitter,
    trace_pattern,
    write_trace_csv,
)

CASE4A = JitterProfile(((10_000, 0.85), (12_000, 0.10), (14_000, 0.04), (16_000, 0.01)))

STEPS = TracePattern(((0, 1.0), (5_000, 2.5), (9_000, 0.5)))


@st.composite
def trace_queries(draw):
    """A valid trace and a query time at, one microsecond either side of,
    or past one of its sample times."""
    gaps = draw(st.lists(st.integers(1, 10**7), max_size=30))
    times = [0]
    for gap in gaps:
        times.append(times[-1] + gap)
    rates = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(times), max_size=len(times)))
    anchor = draw(st.sampled_from(times))
    t = max(0, anchor + draw(st.sampled_from((-1, 0, 1))))
    t = draw(st.one_of(st.just(t), st.integers(times[-1] + 1, times[-1] + 10**9)))
    return TracePattern(tuple(zip(times, rates))), t


def step_hold_reference(pattern, t_us):
    """Linear scan: the rate of the last sample at or before t."""
    rate = pattern.samples[0][1]
    for t, mbps in pattern.samples:
        if t <= t_us:
            rate = mbps
    return rate * 1e6


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

    @given(query=trace_queries())
    @example(query=(STEPS, 0))
    @example(query=(STEPS, 5_000))
    @example(query=(STEPS, 9_000))
    def test_trace_matches_linear_scan(self, query):
        pattern, t = query
        assert capacity_at(pattern, t) == step_hold_reference(pattern, t)

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, 1e6])
    def test_trace_times_must_be_ints(self, t):
        # A nan time passes the order check and breaks the lookup's bisect.
        with pytest.raises(ValueError, match=rf"^samples\[1\]: expected an int, got {t!r}$"):
            TracePattern(((0, 1.0), (t, 2.0)))


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

    @pytest.mark.parametrize("delay", [math.nan, math.inf, 6000.5])
    def test_delays_must_be_ints(self, delay):
        with pytest.raises(ValueError, match=rf"^entries\[0\]: expected an int, got {delay!r}$"):
            JitterProfile(((delay, 1.0),))


def inverse_cdf_loop(profile, u):
    """The draw as a loop over the entries: the first whose running sum of
    probabilities exceeds u, else the last entry."""
    acc = 0.0
    for delay, prob in profile.entries:
        acc += prob
        if u < acc:
            return delay
    return profile.entries[-1][0]


class FixedVariate:
    """A random stream that always returns `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@st.composite
def profiles(draw):
    """A jitter profile with zero-probability entries allowed, so some
    running sums repeat, and sums that can fall just short of 1."""
    weights = draw(st.lists(st.integers(0, 20), min_size=1, max_size=8).filter(any))
    if draw(st.booleans()):
        probs = [w / sum(weights) for w in weights]
    else:
        probs = [0.1] * 10  # sums to 0.9999999999999999
    return JitterProfile(tuple((1_000 * (i + 1), p) for i, p in enumerate(probs)))


class TestJitterTable:
    """`sample_jitter` bisects a cumulative table built once per profile;
    each draw must be the loop's, on every running sum, either side of it,
    and up to the largest variate below 1."""

    @given(profile=profiles(), extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5))
    @example(profile=CASE4A, extra=[])
    def test_matches_the_inverse_cdf_loop(self, profile, extra):
        sums, acc = [], 0.0
        for _, prob in profile.entries:
            acc += prob
            sums.append(acc)
        variates = [0.0, math.nextafter(1.0, 0.0), *extra]
        for s in sums:
            variates += [s, math.nextafter(s, 0.0), math.nextafter(s, 1.0)]
        for u in (u for u in variates if 0.0 <= u < 1.0):
            assert sample_jitter(profile, FixedVariate(u)) == inverse_cdf_loop(profile, u)

    def test_table_takes_no_part_in_equality_or_repr(self):
        twin = JitterProfile(CASE4A.entries)
        assert twin == CASE4A and hash(twin) == hash(CASE4A)
        assert repr(twin) == f"JitterProfile(entries={CASE4A.entries!r})"


class TestDeliver:
    def test_serialization_plus_base_delay(self):
        link = ForwardLink(Constant(3.0), 6_000, random.Random(0))
        # 1500 bytes at 3 Mbps = 4 ms serialization, plus 6 ms propagation
        wire_exit = link.serialization_us(1500, 0)
        assert wire_exit == 4_000
        assert link.deliver(wire_exit) == 4_000 + 6_000

    def test_monotone_clamp(self):
        link = ForwardLink(Constant(3.0), 6_000, random.Random(0))
        first = link.deliver(0 + link.serialization_us(1500, 0))
        # a tiny packet sent right after would arrive earlier; it is clamped
        second = link.deliver(1 + link.serialization_us(10, 1))
        assert second == first

    def test_jitter_histogram_matches_profile(self):
        # spaced far beyond the jitter spread, the clamp never binds and the
        # delivery delay distribution is the profile shifted by serialization
        rng = random.Random(5)
        link = ForwardLink(Constant(5.0), CASE4A, rng)
        n = 200_000
        spacing = 50_000  # 50 ms >> max jitter
        counts = {}
        for i in range(n):
            now = i * spacing
            wire_exit = now + link.serialization_us(1200, now)
            delay = link.deliver(wire_exit) - wire_exit
            counts[delay] = counts.get(delay, 0) + 1
        for delay, prob in CASE4A.entries:
            assert abs(counts.get(delay, 0) / n - prob) < 0.005

    def test_per_flow_delivery_never_decreases(self):
        rng = random.Random(11)
        link = ForwardLink(Constant(1.0), CASE4A, rng)
        last = 0
        for i in range(5000):
            when = link.deliver(i * 100 + link.serialization_us(300, i * 100))
            assert when >= last
            last = when


@st.composite
def patterns_and_times(draw):
    """A capacity pattern of any kind and a sequence of query times that
    steps back and lands exactly on, and one microsecond either side of,
    the pattern's segment boundaries."""
    kind = draw(st.sampled_from(("constant", "square", "trace")))
    if kind == "constant":
        pattern = Constant(draw(st.floats(0.1, 100)))
        boundaries = [0]
    elif kind == "square":
        half = draw(st.integers(1, 10**7))
        pattern = SquareWave(draw(st.floats(0.1, 10)), draw(st.floats(0.1, 10)), half)
        boundaries = [k * half for k in range(6)]
    else:
        pattern, _ = draw(trace_queries())
        boundaries = [t for t, _ in pattern.samples]
    near = st.sampled_from(boundaries).flatmap(
        lambda b: st.sampled_from((b - 1, b, b + 1)).filter(lambda t: t >= 0)
    )
    times = draw(st.lists(st.one_of(near, st.integers(0, boundaries[-1] + 10**8)), max_size=40))
    for b in draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=3)):
        times += [b, max(0, b - 1), b]  # onto a boundary, back one, and forward
    return pattern, times


class TestSegmentCache:
    """The link keeps the rate segment it last looked up; every answer must
    be the one a fresh capacity lookup gives."""

    @given(
        query=patterns_and_times(),
        sizes=st.lists(st.integers(1, 9_000), min_size=1, max_size=4),
    )
    @example(
        query=(STEPS, [9_000, 4_999, 5_000, 0, 8_999, 9_000, 10**9, 5_000]),
        sizes=[1, 1_200],
    )
    @example(
        query=(SquareWave(1.0, 2.0, 1_000), [0, 999, 1_000, 1_999, 2_000, 1_000]),
        sizes=[1_200, 300],
    )
    def test_matches_fresh_lookup(self, query, sizes):
        # The same sizes recur in every segment, so a serialization time
        # memoized at an earlier segment's rate would show.
        pattern, times = query
        link = ForwardLink(pattern, 6_000, random.Random(0))
        for t in times:
            for size in sizes:
                expected = round(size * 8 * US_PER_S / capacity_at(pattern, t))
                assert link.serialization_us(size, t) == expected

    @given(query=patterns_and_times())
    def test_segment_holds_its_rate(self, query):
        pattern, times = query
        for t in times:
            rate, start, end = capacity_segment(pattern, t)
            assert start <= t < end
            last = t + 10**9 if end == math.inf else end - 1
            assert capacity_at(pattern, start) == capacity_at(pattern, last) == rate

    def test_one_lookup_per_capacity_step(self, monkeypatch):
        calls = []

        def counting(pattern, t_us):
            calls.append(t_us)
            return capacity_segment(pattern, t_us)

        monkeypatch.setattr(netem, "capacity_segment", counting)
        link = ForwardLink(SquareWave(1.0, 2.0, 1_000_000), 6_000, random.Random(0))
        for t in range(0, 3_000_000, 1_000):
            link.serialization_us(1_200, t)
        assert calls == [0, 1_000_000, 2_000_000]

    def test_negative_time_rejected(self):
        link = ForwardLink(Constant(1.0), 6_000, random.Random(0))
        link.serialization_us(1_200, 5)
        with pytest.raises(ValueError):
            link.serialization_us(1_200, -1)

    @pytest.mark.parametrize("mbps", [1e-310, 5e-324, math.nextafter(0.001, 0.0)])
    def test_rate_too_small_for_a_float_quotient_rejected(self, mbps):
        # 9,600 bits over 1e-304 b/s was beyond float range; no rate below
        # 1 kbps is a capacity now.
        message = rf"^mbps: must be from 0.001 to 100000.0, got {mbps!r}$"
        with pytest.raises(ValueError, match=message):
            Constant(mbps)

    def test_slowest_rate_serializes_the_largest_packet_as_a_float_quotient(self):
        link = ForwardLink(Constant(0.001), 6_000, random.Random(0))
        assert link.serialization_us(65_535, 0) == 524_280_000  # 65,535 * 8 bits at 1 kbps


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
    # Rates closer than float64 resolution may round to one scaled value:
    # 5e-324 and 0.0 both scale to 0.0, and so do adjacent doubles near 844.
    @example(rates=[2.0, 0.0, 5e-324])
    @example(rates=[0.0, 844.4218515250482, 844.4218515250483, 1000.0])
    def test_affine_preserves_order(self, rates):
        samples = [(i * 1000, r) for i, r in enumerate(rates)]
        scaled = normalize_trace(samples)
        resolution = 1e-9 * (max(rates) - min(rates))
        for (_, a), (_, b), (_, sa), (_, sb) in zip(
            samples, samples[1:], scaled, scaled[1:]
        ):
            # strict order only where the rates differ beyond round-off
            if a < b:
                assert sa < sb if b - a > resolution else sa <= sb
            elif a > b:
                assert sa > sb if a - b > resolution else sa >= sb
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

    @pytest.mark.parametrize(
        "row, what",
        [("inf,1", "t_s: must be from 0.0 to 86400.0, got inf"),
         ("-inf,1", "t_s: must be from 0.0 to 86400.0, got -inf"),
         ("nan,1", "t_s: must be from 0.0 to 86400.0, got nan"),
         ("1,inf", "non-finite rate"), ("1,nan", "non-finite rate")],
    )  # fmt: skip
    def test_non_finite_rejected(self, tmp_path, row, what):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_s,mbps\n0,1\n{row}\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:3: {what}"):
            load_trace_csv(str(path))

    @pytest.mark.parametrize("t_s", [1e303, math.nextafter(86_400.0, math.inf)])
    def test_time_beyond_a_day_line_numbered(self, tmp_path, t_s):
        path = tmp_path / "t.csv"
        path.write_text(f"t_s,mbps\n0,1\n{t_s!r},4\n")
        with pytest.raises(ValueError) as exc:
            load_trace_csv(str(path))
        assert str(exc.value) == f"{path}:3: t_s: must be from 0.0 to 86400.0, got {t_s!r}"
        path.write_text("t_s,mbps\n0,1\n86400,4\n")  # a day, the bound
        assert load_trace_csv(str(path)) == [(0, 1.0), (86_400 * US_PER_S, 4.0)]

    @pytest.mark.parametrize(
        "text, message",
        [("", ": empty trace file"), ("t_s,mbps\n", ": trace has no data rows"),
         ("t_s,mbps\n\n", ": trace has no data rows"),
         ("t_s,mbps\n0,1,2\n", ":2: expected 2 columns, got 3")],
        ids=["empty", "header-only", "blank-line-only", "three-columns"],
    )  # fmt: skip
    def test_file_shape_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_trace_csv(str(path))
        assert str(exc.value) == f"{path}{message}"

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_s,mbps\n0,1\n\n , \n2,3\n")
        assert load_trace_csv(str(path)) == [(0, 1.0), (2 * US_PER_S, 3.0)]

    def test_must_start_at_zero(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,mbps\n1,1\n2,2\n")
        with pytest.raises(ValueError, match="start at t_s=0"):
            load_trace_csv(str(path))
