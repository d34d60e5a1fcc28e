"""Tests of the benchmark's own code: span arithmetic, the reference check,
and the tracer leaving no wrapper behind.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import diff_fields, load_reference  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, at_reference_speed  # noqa: E402
from tracer import SPAN_LAYER, Tracer, instrument, layer_seconds, read_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Lane, expected_for_run, reference_run, run_lane  # noqa: E402


class TestSelfTime:
    def nested(self):
        """run_scenario -> deliver (x2) -> serialization_us -> capacity_at,
        on a clock the test advances by hand."""
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def capacity_at():
            now[0] += 1.0

        capacity_at = tracer.wrap("netem.capacity_at", capacity_at)

        def serialization_us():
            now[0] += 0.25
            capacity_at()

        serialization_us = tracer.wrap("netem.serialization_us", serialization_us)

        def deliver():
            now[0] += 2.0
            serialization_us()
            now[0] += 0.5

        deliver = tracer.wrap("netem.deliver", deliver)

        def run_scenario():
            now[0] += 3.0
            deliver()
            deliver()

        tracer.wrap("sim.run_scenario", run_scenario)()
        return tracer

    def test_self_time_subtracts_direct_children(self):
        summary = self.nested().summary()
        assert summary["sim.run_scenario"] == {"calls": 1, "total_s": 10.5, "self_s": 3.0}
        assert summary["netem.deliver"] == {"calls": 2, "total_s": 7.5, "self_s": 5.0}
        assert summary["netem.serialization_us"] == {"calls": 2, "total_s": 2.5, "self_s": 0.5}
        assert summary["netem.capacity_at"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}

    def test_layers_account_for_traced_total(self):
        tracer = self.nested()
        layers = layer_seconds(tracer.summary())
        assert layers == {"sim": 3.0, "netem": 7.5}
        assert tracer.top_level_s() == 10.5 == sum(layers.values())

    def test_span_file_round_trip(self, tmp_path):
        tracer = self.nested()
        tracer.write(tmp_path / "t.spans")
        names, name_id, parent, start, end = read_spans(tmp_path / "t.spans")
        assert names == tracer.names
        assert (name_id, parent, start, end) == (tracer.name_id, tracer.parent, tracer.start, tracer.end)

    def test_exception_closes_the_span(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap("aqm.enqueue", boom)()
        assert tracer.span_count() == 1
        assert tracer.end[0] >= tracer.start[0]
        assert tracer._stack == [-1]


class TestHostSpeed:
    def test_rescales_by_the_mean_of_the_adjacent_loop_timings(self):
        # A host running the loop at twice the reference time halves the run.
        loop = 2 * REFERENCE_LOOP_S
        assert at_reference_speed(3.0, 0.8 * loop, 1.2 * loop) == pytest.approx(1.5)


class TestReferenceCheck:
    def test_stored_reference_matches_and_perturbation_is_flagged(self, tmp_path):
        lane = WORKLOADS["trace-mix"][0]
        stored = load_reference()["workloads"]["trace-mix"][lane.key]
        observed, errors = reference_run(lane, DEFAULT_SEED, tmp_path)
        assert errors == []
        assert diff_fields(stored, observed) == []

        perturbed = dict(observed, rtt_avg_ms=math.nextafter(observed["rtt_avg_ms"], math.inf))
        problems = diff_fields(stored, perturbed)
        assert len(problems) == 1 and problems[0].startswith("rtt_avg_ms:")

    def test_added_field_passes_and_missing_field_fails(self):
        expected = {"sent": 10, "rtt_max_ms": 1.5}
        assert diff_fields(expected, {"sent": 10, "rtt_max_ms": 1.5, "rtt_p99_ms": 1.0}) == []
        assert diff_fields(expected, {"sent": 10}) == ["rtt_max_ms: missing (expected 1.5)"]

    def test_every_workload_lane_has_a_stored_reference(self):
        stored = load_reference()
        assert stored["seed"] == DEFAULT_SEED
        for workload, lanes in WORKLOADS.items():
            assert set(stored["workloads"][workload]) == {lane.key for lane in lanes}


class TestInstrumentation:
    LANE = Lane("case3", "l4s-gcc", 8.0)

    def patched_attributes(self):
        from l4sim import aqm, cc, cli, harness, media, netem, sim

        owners = (aqm, aqm.DualPi2, cc, cli, harness, media.MediaSource, media.Receiver,
                  netem, netem.ForwardLink, sim, sim.TimelineLog)  # fmt: skip
        return {(owner, name): value for owner in owners for name, value in vars(owner).items()}

    def test_wrappers_do_not_leak_into_untraced_runs(self, tmp_path):
        before = self.patched_attributes()
        tracer = Tracer()
        with instrument(tracer):
            _, traced, errors = run_lane(self.LANE, 3, tmp_path)
            assert errors == []
            spans = tracer.span_count()
        assert spans > 0
        assert set(tracer.names) <= set(SPAN_LAYER)
        after = self.patched_attributes()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

        _, untraced, _ = run_lane(self.LANE, 3, tmp_path)
        assert tracer.span_count() == spans
        assert untraced == traced

    def test_originals_restored_when_the_block_raises(self):
        before = self.patched_attributes()
        with pytest.raises(RuntimeError):
            with instrument(Tracer()):
                raise RuntimeError("stop")
        after = self.patched_attributes()
        assert all(after[k] is before[k] for k in before)

    def test_cli_lane_traced_output_is_bit_identical(self, tmp_path):
        lane = Lane("case2", "l4s-gcc", 8.0, via_cli=True)
        reference, errors = reference_run(lane, 5, tmp_path)
        assert errors == []
        tracer = Tracer()
        with instrument(tracer):
            _, traced, _ = run_lane(lane, 5, tmp_path)
        assert tracer.counts["cli.timeline_rows"] > 0
        assert diff_fields(expected_for_run(lane, reference), traced) == []
