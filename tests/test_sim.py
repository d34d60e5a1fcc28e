import gc
import math
import re
import tracemalloc
import weakref
from collections import Counter, deque
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

from l4sim import sim
from l4sim.aqm import DropTailConfig, DualPi2, DualPi2Config
from l4sim.cc import ControllerKind, GccParams, ScalableParams
from l4sim.core import DELAY_US, Config, EcnCodepoint, number_fields
from l4sim.harness import PRESET_CASES, ScenarioError, preset_scenario
from l4sim.media import MAX_PPS, Receiver, SourceConfig
from l4sim.netem import Constant, ForwardLink, SquareWave, TracePattern
from l4sim.sim import (
    RunAudit,
    Scenario,
    TimelineRows,
    _Engine,
    run_scenario,
    stream_seed,
)


def required_ones(cls):
    """The fields `cls` requires, each given 1, which every config accepts."""
    return {f.name: 1 for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}


# Each number field of every config class, with the fields its class
# requires, its type and its range; and `Scenario`'s fixed forward delay, an
# `int` in a union with a jitter profile.
NUMBER_FIELDS = [
    *(
        (cls, required_ones(cls), name, hint, bounds)
        for cls in Config.__subclasses__()
        for name, (hint, bounds) in number_fields(cls).items()
    ),
    (Scenario, {}, "forward_delay", int, DELAY_US),
]
# Values no number field may hold: a float nan or inf fails a sign check as
# no value does, and a bool is an int to `isinstance`. An int field takes no
# fraction.
BAD_NUMBERS = [
    (cls, given, name, hint, bounds, value)
    for cls, given, name, hint, bounds in NUMBER_FIELDS
    for value in (math.inf, math.nan, -math.inf, True, *((1.5, 1e6) if hint is int else ()))
]


def short(case, kind, seed=1, duration=15.0):
    return preset_scenario(case, kind, seed=seed, duration_s=duration)


def text(rows):
    """The rows' CSV text, header excluded."""
    return b"".join(rows.chunks())


def csv_text(triples):
    """The CSV text that rows of these triples are kept as."""
    return "".join(f"{t},{event},{value}\n" for t, event, value in triples).encode()


def parse(rows):
    """The rows as ``(t_us, event, value)`` triples, parsed from their text."""
    return [
        (int(t), event, int(value))
        for t, event, value in (line.split(",") for line in text(rows).decode().splitlines())
    ]


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(42, "aqm") == stream_seed(42, "aqm")

    def test_labels_independent(self):
        assert stream_seed(42, "aqm") != stream_seed(42, "jitter")

    def test_seed_changes_stream(self):
        assert stream_seed(1, "aqm") != stream_seed(2, "aqm")


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        m1, log1 = run_scenario(short("case4a", ControllerKind.L4S_GCC), timeline=True)
        m2, log2 = run_scenario(short("case4a", ControllerKind.L4S_GCC), timeline=True)
        assert m1 == m2
        assert text(log1.rows) == text(log2.rows)
        assert log1.rtt_samples_us == log2.rtt_samples_us

    def test_seed_changes_timeline(self):
        _, log1 = run_scenario(short("case4a", ControllerKind.GCC, seed=1), timeline=True)
        _, log2 = run_scenario(short("case4a", ControllerKind.GCC, seed=2), timeline=True)
        assert text(log1.rows) != text(log2.rows)

    def test_event_times_non_decreasing(self):
        _, log = run_scenario(short("case2", ControllerKind.GCC), timeline=True)
        times = [t for t, _, _ in parse(log.rows)]
        assert times == sorted(times)


class TestConservation:
    @pytest.mark.parametrize("case", ["case1", "case2", "case3", "case4c"])
    @pytest.mark.parametrize("kind", [ControllerKind.GCC, ControllerKind.L4S_GCC])
    def test_packet_conservation(self, case, kind):
        _, log = run_scenario(short(case, kind, duration=20.0))
        assert log.audit.errors() == []
        assert log.audit.sent == (
            log.audit.delivered
            + log.audit.dropped
            + log.audit.in_queue
            + log.audit.in_transit
        )

    def test_audit_names_an_end_to_end_mismatch(self):
        assert RunAudit(5, 2, 1, 0, 1, []).errors() == [
            "end-to-end: sent 5 != delivered 2 + dropped 1 + in-queue 0 + in-transit 1"
        ]
        assert RunAudit(4, 2, 1, 0, 1, ["l-queue: x"]).errors() == ["l-queue: x"]


class TestEntryPointBoundaries:
    """The engine calls the per-packet entry points of the AQM, the link and
    the receiver through their classes, once per packet event, so wrappers
    set on the classes before a run (as the benchmark's tracer sets them)
    see every call."""

    def test_wrappers_see_every_per_packet_call(self, monkeypatch):
        calls = Counter()

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(DualPi2, "enqueue")
        counting(ForwardLink, "serialization_us")
        counting(ForwardLink, "deliver")
        counting(Receiver, "on_packet")
        _, log = run_scenario(short("case4c", ControllerKind.L4S_GCC, duration=10.0))
        audit = log.audit
        assert audit.sent > 0 and audit.in_transit > 0
        assert calls["enqueue"] == audit.sent
        assert calls["serialization_us"] == calls["deliver"] == audit.delivered + audit.in_transit
        assert calls["on_packet"] == audit.delivered

    def test_every_dequeue_serves_a_packet(self, monkeypatch):
        # The engine tries the AQM only when it may hold a packet: on a run
        # without drops or overflows, each dequeue puts one on the wire.
        calls = []
        dequeue = DualPi2.dequeue

        def counting(self, now):
            calls.append(now)
            return dequeue(self, now)

        monkeypatch.setattr(DualPi2, "dequeue", counting)
        _, log = run_scenario(short("case4c", ControllerKind.L4S_GCC, duration=10.0))
        audit = log.audit
        assert audit.dropped == 0 and audit.in_transit > 0
        assert len(calls) == audit.delivered + audit.in_transit


class TestPiUpdateSchedule:
    """DualPi2's PI update runs every `t_update_us` only when the source's
    codepoint is classic: an L4S codepoint fills only the L queue, where an
    update would leave `p_base` at 0 (DECISIONS.md entry 20). The rule keys
    on the codepoint, not on the controller kind."""

    L4S_GCC = short("case1", ControllerKind.L4S_GCC, duration=10.0)
    NOT_ECT = replace(L4S_GCC, source=replace(L4S_GCC.source, ecn_mode=EcnCodepoint.NOT_ECT))

    @pytest.mark.parametrize(
        "scenario, updates",
        [
            (L4S_GCC, 0),
            (NOT_ECT, 10_000_000 // 16_000),
            (short("case1", ControllerKind.GCC, duration=10.0), 10_000_000 // 16_000),
        ],
        ids=["l4s-gcc", "l4s-gcc-not-ect", "gcc"],
    )
    def test_updates_only_for_a_classic_codepoint(self, monkeypatch, scenario, updates):
        calls = []
        pi2_update = DualPi2.pi2_update

        def counting(self, now):
            calls.append(now)
            return pi2_update(self, now)

        monkeypatch.setattr(DualPi2, "pi2_update", counting)
        engine = _Engine(scenario, timeline=False)
        engine.run()
        assert len(calls) == updates
        if not updates:
            assert engine.aqm.p_base == 0.0


class TestArrivalOrder:
    @pytest.mark.parametrize("kind", list(ControllerKind))
    @pytest.mark.parametrize("case", PRESET_CASES)
    def test_report_arrivals_never_decrease(self, case, kind):
        # The receive-rate window takes its newest arrival from the last
        # sample of a report, which holds while arrivals never go back in
        # time, within a report and from one report to the next.
        engine = _Engine(short(case, kind, duration=2.0), timeline=False)
        build = engine.receiver.build_feedback
        arrivals = []

        def recording_build(now):
            report = build(now)
            arrivals.extend(arrival for _size, _sent, arrival in report.arrival_samples)
            return report

        engine.receiver.build_feedback = recording_build
        engine.run()
        assert len(arrivals) > 100
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))


class TestDegeneratePath:
    def test_uncongested_fixed_rate_flow(self):
        scenario = Scenario(
            seed=9,
            duration_us=10_000_000,
            capacity=Constant(5.0),
            controller=ControllerKind.GCC,
            source=SourceConfig(
                min_bitrate_bps=1_000_000,
                max_bitrate_bps=1_000_000,
                start_bitrate_bps=1_000_000,
            ),
        )
        metrics, log = run_scenario(scenario)
        assert metrics.drop_count == 0
        assert metrics.mark_count == 0
        assert metrics.stalling_rate == 0.0
        # every sample is base RTT (12 ms) plus that packet's serialization
        base = scenario.forward_delay + scenario.reverse_delay_us
        sizes = {1200, 4167 - 3 * 1200}  # full MTU and the frame remainder
        expected = {base + round(size * 8 * 1e6 / 5e6) for size in sizes}
        for rtt in log.rtt_samples_us:
            assert any(abs(rtt - e) <= 1 for e in expected)


class TestValidation:
    def test_bad_duration_rejected_before_running(self):
        message = "^duration_s: must be from 1e-06 to 86400.0, got 0$"
        with pytest.raises(ScenarioError, match=message):
            short("case1", ControllerKind.GCC, duration=0)
        with pytest.raises(ValueError, match="^duration_us: must be from 1 to 86400000000, got 0$"):
            replace(short("case1", ControllerKind.GCC), duration_us=0)

    @pytest.mark.parametrize(
        "duration_us, message",
        [
            (math.inf, "expected an int, got inf"),
            (math.nan, "expected an int, got nan"),
            (1.5, "expected an int, got 1.5"),
            (1e6, "expected an int, got 1000000.0"),
            (0, "must be from 1 to 86400000000, got 0"),
            (-1, "must be from 1 to 86400000000, got -1"),
            (86_400_000_001, "must be from 1 to 86400000000, got 86400000001"),
        ],
    )
    def test_duration_us_must_be_a_positive_int(self, duration_us, message):
        # A float inf or nan would make a run that never ends.
        with pytest.raises(ValueError, match=f"^duration_us: {message}$"):
            Scenario(duration_us=duration_us)

    @pytest.mark.parametrize(
        "cls, given, name, hint, bounds, value",
        BAD_NUMBERS,
        ids=[f"{c.__name__}.{n}-{v}" for c, _, n, _, _, v in BAD_NUMBERS],
    )
    def test_every_count_and_time_must_be_an_int(self, cls, given, name, hint, bounds, value):
        # A float inf or nan passed a sign check: a nan feedback interval ran
        # to a negative minimum RTT, an inf duration would never end, and a
        # nan queue limit let every packet in. A float field's range rejects
        # nan and the infinities.
        if hint is int:
            problem = "expected an int"
        elif value is True:
            problem = "expected a number"
        else:
            problem = f"must be from {bounds.lo} to {bounds.hi}"
        message = f"^{name}: {problem}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            cls(**{**given, name: value})

    def test_every_config_class_is_covered(self):
        # The configs a scenario holds and the capacity patterns with number
        # fields; a config class added later is covered without an edit.
        assert {cls for cls, *_ in NUMBER_FIELDS} >= {
            Scenario, DualPi2Config, DropTailConfig, SourceConfig, GccParams, ScalableParams,
            Constant, SquareWave,
        }  # fmt: skip

    def test_every_time_field_is_whole_microseconds(self):
        # One rule for every time: a `SimTime` field named `*_us`, which a
        # scenario file's `_s` or `_ms` key sets where it enters.
        for cls in (Scenario, DualPi2Config, Constant, SquareWave, TracePattern):
            for f in fields(cls):
                where = f"{cls.__name__}.{f.name}"
                assert not f.name.endswith(("_s", "_ms")), where
                assert f.name.endswith("_us") == f.type.startswith("Annotated[SimTime, "), where

    @pytest.mark.parametrize(
        "kind, params",
        [
            (ControllerKind.GCC, {"scalable_params": ScalableParams(ewma_gain=1.0)}),
            (ControllerKind.SENSITIVE_GCC, {"scalable_params": ScalableParams()}),
            (ControllerKind.L4S_CC, {"gcc_params": GccParams(window=2)}),
        ],
        ids=["gcc", "sensitive-gcc", "l4s-cc"],
    )
    def test_params_the_kind_never_reads_rejected(self, kind, params):
        (name,) = params
        message = f"^{name}: not read by the {kind.value} controller$"
        with pytest.raises(ValueError, match=message):
            Scenario(controller=kind, **params)
        with pytest.raises(ValueError, match=message):
            replace(Scenario(controller=ControllerKind.L4S_GCC, **params), controller=kind)

    def test_params_the_kind_reads_accepted(self):
        both = {"gcc_params": GccParams(window=2), "scalable_params": ScalableParams()}
        Scenario(controller=ControllerKind.L4S_GCC, **both)
        Scenario(controller=ControllerKind.GCC, gcc_params=both["gcc_params"])
        Scenario(controller=ControllerKind.L4S_CC, scalable_params=both["scalable_params"])

    @pytest.mark.parametrize(
        "capacity", [Constant(3.0), SquareWave(2.5, 4.0, 10_000_000)], ids=["constant", "square"]
    )
    def test_duration_beyond_a_day_names_field(self, capacity):
        # With a square wave, 10**400 us raised OverflowError from the
        # capacity's mean over the session; with a constant one it built.
        with pytest.raises(ValueError, match="^duration_us: must be from 1 to 86400000000, got 1"):
            Scenario(capacity=capacity, duration_us=10**400)

    def test_source_packet_rate_bounded(self):
        SourceConfig(mtu_bytes=1, max_bitrate_bps=8 * MAX_PPS)  # a million 1-byte packets a second
        with pytest.raises(ValueError, match="^max_bitrate_bps must be at most 1000000 packets"):
            SourceConfig(mtu_bytes=1, max_bitrate_bps=8 * MAX_PPS + 1)

    def test_bad_source_rejected(self):
        scenario = short("case1", ControllerKind.GCC)
        with pytest.raises(ValueError, match="min <= start <= max"):
            replace(scenario, source=replace(scenario.source, min_bitrate_bps=2_000_000))
        with pytest.raises(ValueError, match="min <= start <= max"):
            SourceConfig(min_bitrate_bps=2_000_000, max_bitrate_bps=1_000_000)

    # Each config class with a field, a value its check refuses, and the
    # message that names the field.
    BAD_VALUES = [
        (DualPi2Config, "target_delay_us", 0, "target_delay_us: must be from 1 to 10000000"),
        (DropTailConfig, "queue_limit_bytes", 0, "queue_limit_bytes: must be from 1 to 1000000000"),
        (SourceConfig, "fps", 0, "fps: must be from 1 to 1000"),
        (GccParams, "window", 1, "window: must be from 2 to 1000"),
        (ScalableParams, "ewma_gain", 1.5, r"ewma_gain: must be from 0.0 to 1.0"),
        (Scenario, "feedback_interval_us", 999, "feedback_interval_us: must be from 1000 to"),
    ]

    @pytest.mark.parametrize(
        "cls, name, bad, message", BAD_VALUES, ids=[c.__name__ for c, *_ in BAD_VALUES]
    )
    def test_configs_are_immutable_and_checked_when_built(self, cls, name, bad, message):
        config = cls()
        with pytest.raises(ValueError, match=message):
            cls(**{name: bad})
        with pytest.raises(ValueError, match=message):
            replace(config, **{name: bad})
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, bad)
        assert config == cls()  # the refused assignment changed nothing


class TestTimelineLog:
    def test_single_packet_run_rows(self, tmp_path):
        # one packet per frame, one frame inside the horizon
        scenario = Scenario(
            seed=1,
            duration_us=20_000,
            capacity=Constant(5.0),
            controller=ControllerKind.GCC,
            source=SourceConfig(
                min_bitrate_bps=150_000,
                max_bitrate_bps=150_000,
                start_bitrate_bps=150_000,
            ),
        )
        metrics, log = run_scenario(scenario, timeline=True)
        events = [e for _, e, _ in parse(log.rows)]
        assert events.count("send") == 1
        assert events.count("deliver") == 1
        path = tmp_path / "timeline.csv"
        log.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t_us,event,value"
        assert len(lines) == 1 + len(log.rows)

    def test_timeline_disabled_by_default(self):
        _, log = run_scenario(short("case1", ControllerKind.L4S_CC, duration=2.0))
        assert log.rows is None
        with pytest.raises(ValueError):
            log.to_csv("/tmp/nope.csv")


EVENTS = ("send", "deliver", "rate", "mark", "drop", "overflow", "stall_begin", "stall_end")


class TestTimelineRows:
    def test_behaves_as_the_list_of_triples(self):
        triples = [(0, "send", 0), (7, "mark", 0), (9, "rate", 5_000_000), (12, "stall_end", 3)]
        # Times and values of any width and sign, and enough rows to fill
        # several 64 KiB chunks.
        triples += [(2**32, "deliver", 1), (13, "rate", 2**32), (14, "drop", -1)]
        triples += [(15 + i, EVENTS[i % 8], i) for i in range(20_000)]
        triples += [(2**40, "send", -(2**40)), (16, "deliver", 2), (17, "send", 3)]
        # Packed after every row, every 97 rows, and only when read: packed
        # and pending rows read alike, whatever the pack points.
        logs = {every: TimelineRows() for every in (1, 97, None)}
        for i, triple in enumerate(triples, 1):
            for every, log in logs.items():
                log.record(triple)
                if every and i % every == 0:
                    log.pack()
        for log in logs.values():
            assert len(log) == len(triples)
            chunks = list(log.chunks())
            assert len(chunks) > 2 and all(len(chunk) <= 65_536 for chunk in chunks)
            assert b"".join(chunks) == csv_text(triples)
            assert parse(log) == triples

    def test_reads_between_packs_leave_recording_intact(self):
        # Rows of growing width, several 64 KiB chunks in all. Every read
        # moves the file position, and recording must still append.
        triples = [(t, EVENTS[t % 8], t) for t in range(20_000)]
        triples += [(2**32 + t, EVENTS[t % 8], t) for t in range(20_000)]
        rows, whole = TimelineRows(), TimelineRows()
        for triple in triples:
            whole.record(triple)
        recorded = 0
        for upto in (7_001, 15_000, 20_000, 20_001, 33_333, len(triples)):
            for triple in triples[recorded:upto]:
                rows.record(triple)
            if upto % 2:
                rows.pack()  # otherwise the read packs the pending rows
            recorded = upto
            assert len(rows) == upto
            assert text(rows) == csv_text(triples[:upto])
            # two reads of one file, interleaved
            assert all(a == b for a, b in zip(rows.chunks(), rows.chunks()))
            next(rows.chunks())  # a read left after its first chunk
        assert text(rows) == text(whole) == csv_text(triples)


class TestBoundedState:
    """Run state follows the packets in flight, not the session length."""

    @pytest.mark.parametrize(
        "case, kind",
        [("case3", ControllerKind.GCC), ("case4c", ControllerKind.L4S_GCC)],
    )
    def test_only_in_flight_entries_kept(self, case, kind):
        # case3 gcc drops and repairs packets; case4c has the most in flight
        engine = _Engine(preset_scenario(case, kind, duration_s=120.0), timeline=False)
        log = engine.run()
        source, receiver = engine.source, engine.receiver
        assert log.audit.sent > 20_000
        assert len(source._sent) <= 300
        assert len(receiver._frames) <= 300
        assert len(receiver._missing) <= 300
        watermark = next(iter(receiver._missing), receiver._highest_seq + 1)
        assert source._oldest <= watermark <= source.next_seq

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "each listing of a missing seq sends one repair on top of the "
            "target rate, and a seq is re-listed every 300 ms until it "
            "arrives; see ROADMAP item 16"
        ),
    )
    def test_pinned_overload_grows_at_most_linearly(self, monkeypatch):
        # A source pinned at 4 Mbps on a 3 Mbps DropTail link for 15 s and
        # 30 s. Twice the session may take at most twice the sends and twice
        # the peak of the missing-seq map, plus 10%.
        peak = 0
        build_feedback = Receiver.build_feedback

        def sampled(receiver, now):
            nonlocal peak
            peak = max(peak, len(receiver._missing))
            return build_feedback(receiver, now)

        monkeypatch.setattr(Receiver, "build_feedback", sampled)
        rate = 4_000_000
        source = SourceConfig(min_bitrate_bps=rate, start_bitrate_bps=rate, max_bitrate_bps=rate)
        grown = []
        for duration_us in (15_000_000, 30_000_000):
            peak = 0
            scenario = Scenario(
                seed=1,
                duration_us=duration_us,
                capacity=Constant(3.0),
                aqm=DropTailConfig(),
                source=source,
            )
            _, log = run_scenario(scenario)
            grown.append((log.audit.sent, peak))
        (sent_15, peak_15), (sent_30, peak_30) = grown
        assert sent_30 <= 2.2 * sent_15, f"sends {sent_15} at 15 s, {sent_30} at 30 s"
        assert peak_30 <= 2.2 * peak_15, f"missing seqs {peak_15} at 15 s, {peak_30} at 30 s"

    def test_a_timeline_run_is_freed_without_the_cycle_collector(self, monkeypatch):
        engines = []

        class Watched(_Engine):
            def __init__(self, *args):
                super().__init__(*args)
                engines.append(weakref.ref(self))

        monkeypatch.setattr(sim, "_Engine", Watched)
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_scenario(short("case1", ControllerKind.L4S_GCC, duration=2.0), timeline=True)
            assert len(result[1].rows) > 0
            rows_file = result[1].rows._file
            del result
            assert engines[0]() is None, "the engine outlived its run"
            assert rows_file.closed, "the rows' file outlived its log"
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "feedback_interval_us, duration_s", [(100_000, 60.0), (100_000, 180.0), (1_000, 30.0)]
    )  # fmt: skip
    def test_timeline_peak_does_not_grow_with_rows(self, feedback_interval_us, duration_s):
        # Rows leave the process at every feedback build, and are read back
        # a chunk at a time. At a 1 ms feedback interval each pack holds 1 to
        # 3 rows, so an object kept per pack would grow with the rows.
        scenario = replace(
            preset_scenario("case2", ControllerKind.L4S_GCC, duration_s=duration_s),
            feedback_interval_us=feedback_interval_us,
        )

        def traced_peak(timeline):
            tracemalloc.start()
            try:
                _, log = run_scenario(scenario, timeline=timeline)
                if timeline:
                    deque(log.rows.chunks(), maxlen=0)  # read every row back
                return tracemalloc.get_traced_memory()[1], log
            finally:
                tracemalloc.stop()

        base, _ = traced_peak(False)
        peak, log = traced_peak(True)
        assert len(log.rows) > 35_000
        # The run's own state, plus at most one 64 KiB chunk.
        assert peak <= base + 65_536, f"{peak - base} bytes above the run without rows"

    def test_traced_peak_below_one_megabyte(self):
        scenario = preset_scenario("case4c", ControllerKind.GCC, duration_s=60.0)
        tracemalloc.start()
        try:
            run_scenario(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"traced peak {peak / 1e6:.2f} MB"
