import copy
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from l4sim.aqm import DropTailConfig, DualPi2Config
from l4sim.cc import SENSITIVE_GCC, ControllerKind, GccParams, ScalableParams
from l4sim.media import SourceConfig
from l4sim.harness import (
    METRIC_FIELDS,
    PRESET_CASES,
    MetricsReport,
    ScenarioError,
    compute_metrics,
    emit_metrics_csv,
    format_table_text,
    preset_scenario,
    run_comparison,
    scenario_from_dict,
    table_csv_lines,
    write_lines,
    _file_keys,
)
from l4sim import netem
from l4sim.core import DELAY_US, FRACTION, US_PER_MS, US_PER_S, EcnCodepoint, Range
from l4sim.netem import (
    Constant,
    JitterProfile,
    SquareWave,
    TracePattern,
    load_trace_csv,
    trace_pattern,
)
from l4sim.sim import RunAudit, Scenario, TimelineLog, _Engine, run_scenario


def fake_process_pools(monkeypatch, cpus):
    """Report `cpus` CPUs and replace the process pool with one that runs
    its jobs in this process; returns the `max_workers` of each pool made."""
    import concurrent.futures

    made = []

    class InlinePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return made


def sent_codepoints(scenario):
    """The codepoints of the packets a run of `scenario` sends."""
    engine = _Engine(scenario, timeline=False)
    seen = set()
    enqueue = engine.aqm.enqueue

    def logged(packet, now):
        seen.add(packet.ecn)
        return enqueue(packet, now)

    engine.aqm.enqueue = logged
    engine.run()
    return seen


def make_log(rtt_samples, stalled_us=0, played_bytes=0, duration_us=100_000_000):
    audit = RunAudit(
        sent=0, delivered=0, dropped=0, in_queue=0, in_transit=0, queue_errors=[]
    )
    return TimelineLog(
        duration_us=duration_us,
        rtt_samples_us=Counter(rtt_samples),
        stalled_us=stalled_us,
        played_bytes=played_bytes,
        mark_count=0,
        audit=audit,
    )


class TestComputeMetrics:
    def test_rtt_stats_max_min_avg(self):
        log = make_log([15_000, 29_000, 146_000])
        scenario = Scenario(capacity=Constant(3.0))
        metrics = compute_metrics(log, scenario)
        assert metrics.rtt_max_ms == pytest.approx(146.0)
        assert metrics.rtt_min_ms == pytest.approx(15.0)
        assert metrics.rtt_avg_ms == pytest.approx((15 + 29 + 146) / 3, abs=0.05)

    def test_utilization_from_quality(self):
        # 4.12 Mbps delivered over a 5 Mbps link is 82.4% utilization
        duration = 100_000_000
        played = int(4.12e6 * 100 / 8)
        log = make_log([10_000], played_bytes=played, duration_us=duration)
        metrics = compute_metrics(log, Scenario(capacity=Constant(5.0)))
        assert metrics.quality_mbps == pytest.approx(4.12)
        assert metrics.bandwidth_utilization == pytest.approx(0.824)

    def test_zero_stall(self):
        metrics = compute_metrics(make_log([1_000]), Scenario(capacity=Constant(3.0)))
        assert metrics.stalling_rate == 0.0

    def test_stall_ratio(self):
        log = make_log([1_000], stalled_us=1_830_000)
        metrics = compute_metrics(log, Scenario(capacity=Constant(3.0)))
        assert metrics.stalling_rate == pytest.approx(0.0183)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="duration_s: no packet was delivered"):
            compute_metrics(make_log([]), Scenario(capacity=Constant(3.0)))

    @pytest.mark.parametrize("case", ["case2", "case4b"])
    @pytest.mark.parametrize(
        "kind", [ControllerKind.GCC, ControllerKind.L4S_CC, ControllerKind.L4S_GCC]
    )
    def test_report_invariants_on_real_runs(self, case, kind):
        metrics, _ = run_scenario(preset_scenario(case, kind, seed=2, duration_s=15.0))
        assert metrics.rtt_min_ms <= metrics.rtt_avg_ms <= metrics.rtt_max_ms
        assert 0.0 <= metrics.stalling_rate <= 1.0
        assert 0.0 <= metrics.bandwidth_utilization <= 1.01
        assert metrics.mark_count >= 0 and metrics.drop_count >= 0


class TestPresets:
    def test_all_presets_build(self):
        for case in PRESET_CASES:
            scenario = preset_scenario(case, ControllerKind.GCC, seed=1)
            scenario.validate()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_scenario("case9", ControllerKind.GCC)

    def test_case_shapes(self):
        assert preset_scenario("case1", ControllerKind.GCC).capacity == Constant(3.0)
        case2 = preset_scenario("case2", ControllerKind.GCC).capacity
        assert case2 == SquareWave(2.5, 4.0, 10_000_000)
        assert isinstance(preset_scenario("case3", ControllerKind.GCC).capacity, TracePattern)

    def test_case4_jitter_profiles(self):
        for case, delays in (
            ("case4a", (10, 12, 14, 16)),
            ("case4b", (10, 14, 18, 22)),
            ("case4c", (10, 18, 26, 34)),
        ):
            scenario = preset_scenario(case, ControllerKind.GCC)
            assert scenario.capacity == Constant(5.0)
            entries = scenario.forward_delay.entries
            assert tuple(d // 1000 for d, _ in entries) == delays
            assert tuple(p for _, p in entries) == (0.85, 0.10, 0.04, 0.01)

    def test_ecn_mode_follows_controller(self):
        """A run sends ECT(1) under the controllers that read CE marks and
        Not-ECT under the others, whether its scenario is a preset, built in
        Python, or another kind's preset with the controller replaced; a
        codepoint the scenario sets is sent under every kind."""
        l4s = {ControllerKind.L4S_CC, ControllerKind.L4S_GCC}
        for kind in ControllerKind:
            other = ControllerKind.GCC if kind in l4s else ControllerKind.L4S_GCC
            own = EcnCodepoint.ECT1 if kind in l4s else EcnCodepoint.NOT_ECT
            preset = preset_scenario("case1", kind, duration_s=1.0)
            for scenario in (
                preset,
                Scenario(capacity=Constant(3.0), controller=kind, duration_us=1_000_000),
                replace(preset_scenario("case1", other, duration_s=1.0), controller=kind),
            ):
                assert sent_codepoints(scenario) == {own}, scenario
            for ecn in (EcnCodepoint.ECT1, EcnCodepoint.NOT_ECT):
                scenario = replace(preset, source=SourceConfig(ecn_mode=ecn))
                assert sent_codepoints(scenario) == {ecn}, scenario

    def test_python_construction_runs_as_its_preset(self):
        # The classic flow sends Not-ECT, so the L queue's step never marks it.
        built = Scenario(
            capacity=Constant(3.0), controller=ControllerKind.GCC, duration_us=30_000_000
        )
        metrics, _ = run_scenario(built)
        assert metrics.mark_count == 0
        preset = preset_scenario("case1", ControllerKind.GCC, duration_s=30.0)
        assert metrics == run_scenario(preset)[0]

    def test_bundled_trace_is_normalized(self):
        samples = load_trace_csv(str(BUNDLED_TRACE))
        rates = [r for _, r in samples]
        assert min(rates) == pytest.approx(0.0, abs=1e-9)
        assert max(rates) == pytest.approx(5.0)
        assert samples[0][0] == 0

    def test_trace_script_reproduces_the_bundled_trace(self, tmp_path):
        # The script normalizes in another order than the fixture was made
        # with, so its rates agree to within rounding, not byte for byte.
        out = tmp_path / "case3_trace.csv"
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_case3_trace.py"
        argv = [sys.executable, str(script), "--out", str(out)]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        made, bundled = load_trace_csv(str(out)), load_trace_csv(str(BUNDLED_TRACE))
        assert [t for t, _ in made] == [t for t, _ in bundled]
        for (t, rate), (_, expected) in zip(made, bundled):
            assert math.isclose(rate, expected, rel_tol=1e-15), f"t={t} us"


class TestRunComparison:
    def test_cardinality_and_aggregation_identity(self):
        rows = run_comparison(
            ["case1"],
            [ControllerKind.L4S_CC, ControllerKind.GCC],
            seeds=[1],
            duration_s=3.0,
        )
        assert [(r.case, r.controller) for r in rows] == [("case1", "l4s-cc"), ("case1", "gcc")]
        row = rows[0]
        assert row.seed_count == 1
        # single seed: the cell equals that run's report, stdev zero
        metrics, _ = run_scenario(preset_scenario("case1", ControllerKind.L4S_CC, 1, 3.0))
        assert row.means["quality_mbps"] == metrics.quality_mbps
        assert all(s == 0.0 for s in row.stdevs.values())

    def test_mean_stdev_match_independent_recomputation(self):
        (row,) = run_comparison(
            ["case4a"], [ControllerKind.L4S_GCC], seeds=[1, 2, 3], duration_s=5.0
        )
        values = [
            run_scenario(preset_scenario("case4a", ControllerKind.L4S_GCC, seed, 5.0))[0].rtt_avg_ms
            for seed in (1, 2, 3)
        ]
        assert row.means["rtt_avg_ms"] == pytest.approx(np.mean(values), abs=1e-12)
        assert row.stdevs["rtt_avg_ms"] == pytest.approx(np.std(values), abs=1e-12)

    def test_failed_run_identifies_triple(self, monkeypatch):
        # Two CPUs whatever the host, so that workers=2 reaches the pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # A valid scenario whose run fails: it ends before any packet
        # arrives (DECISIONS.md entry 12).
        message = "case=case1 controller=gcc seed=2: duration_s: no packet was delivered"
        for workers in (1, 2):  # serial and worker-pool paths
            with pytest.raises(RuntimeError, match=message):
                run_comparison(["case1"], [ControllerKind.GCC], [2], 0.001, workers=workers)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_comparison([], [ControllerKind.GCC], seeds=[1])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match=f"^--workers: must be at least 1, got {workers}$"):
            run_comparison(["case1"], [ControllerKind.GCC], seeds=[1], workers=workers)

    def test_pool_starts_at_most_one_process_per_job(self, monkeypatch):
        pools = fake_process_pools(monkeypatch, cpus=8)
        rows = run_comparison(["case1"], [ControllerKind.GCC], [1, 2], 1.0, workers=8)
        assert pools == [2]
        assert rows == run_comparison(["case1"], [ControllerKind.GCC], [1, 2], 1.0)


class TestEmission:
    def make_rows(self):
        return run_comparison(
            ["case1"],
            [ControllerKind.GCC, ControllerKind.L4S_CC],
            seeds=[1],
            duration_s=3.0,
        )

    def test_csv_layout(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "out.csv"
        write_lines(str(path), table_csv_lines(rows))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "case,controller,seed_count,rtt_max_ms,rtt_min_ms,rtt_avg_ms,"
            "stall_rate,quality_mbps,utilization,marks,drops"
        )
        assert len(lines) == 3
        assert lines[1].startswith("case1,gcc,1,")

    def test_emissions_byte_identical(self, tmp_path):
        rows = self.make_rows()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lines(str(a), table_csv_lines(rows))
        write_lines(str(b), table_csv_lines(rows))
        assert a.read_bytes() == b.read_bytes()

    def test_metrics_csv(self, tmp_path):
        metrics, _ = run_scenario(preset_scenario("case1", ControllerKind.L4S_CC, 1, 2.0))
        path = tmp_path / "m.csv"
        emit_metrics_csv(metrics, str(path))
        header, values = path.read_text().splitlines()
        assert header.split(",")[0] == "rtt_max_ms"
        assert float(values.split(",")[0]) == metrics.rtt_max_ms

    def test_unwritable_path_raises_with_path(self):
        rows = self.make_rows()
        with pytest.raises(OSError, match="/definitely/not/here"):
            write_lines("/definitely/not/here/out.csv", table_csv_lines(rows))

    def test_text_table_mentions_rows(self):
        text = format_table_text(self.make_rows())
        assert "case1" in text and "l4s-cc" in text and "gcc" in text


VALID_SCENARIO = {
    "seed": 3,
    "duration_s": 30,
    "link": {
        "capacity": {"kind": "square", "low_mbps": 2.5, "high_mbps": 4.0, "half_period_s": 10},
        "forward_delay": {"kind": "fixed", "delay_ms": 6},
        "reverse_delay_ms": 6,
    },
    "aqm": {"kind": "dualpi2", "target_delay_ms": 15},
    "controller": {"kind": "l4s-gcc"},
    "source": {"fps": 30, "mtu_bytes": 1200},
    "feedback_interval_ms": 100,
}
SQUARE = VALID_SCENARIO["link"]["capacity"]


class TestScenarioFromDict:
    def test_valid_scenario(self):
        scenario = scenario_from_dict(VALID_SCENARIO)
        assert scenario.seed == 3
        assert scenario.controller is ControllerKind.L4S_GCC
        assert isinstance(scenario.capacity, SquareWave)
        assert isinstance(scenario.aqm, DualPi2Config)

    def test_unknown_top_level_key(self):
        bad = dict(VALID_SCENARIO, typo=1)
        with pytest.raises(ScenarioError, match="typo: unknown key"):
            scenario_from_dict(bad)

    def test_unknown_nested_key_names_path(self):
        bad = dict(VALID_SCENARIO)
        bad["link"] = dict(bad["link"])
        bad["link"]["capacity"] = {"kind": "constant", "mbps": 3, "flux": 1}
        with pytest.raises(ScenarioError, match="link.capacity.flux: unknown key"):
            scenario_from_dict(bad)

    def test_bad_controller_kind(self):
        bad = dict(VALID_SCENARIO, controller={"kind": "bbr"})
        with pytest.raises(ScenarioError, match="controller.kind"):
            scenario_from_dict(bad)

    def test_missing_link(self):
        bad = {k: v for k, v in VALID_SCENARIO.items() if k != "link"}
        with pytest.raises(ScenarioError, match="link"):
            scenario_from_dict(bad)

    def test_jitter_delay_model(self):
        spec = dict(VALID_SCENARIO)
        spec["link"] = {
            "capacity": {"kind": "constant", "mbps": 5},
            "forward_delay": {
                "kind": "jitter",
                "entries": [[10, 0.85], [12, 0.10], [14, 0.04], [16, 0.01]],
            },
        }
        scenario = scenario_from_dict(spec)
        assert isinstance(scenario.forward_delay, JitterProfile)

    def test_negative_duration(self):
        bad = dict(VALID_SCENARIO, duration_s=-5)
        with pytest.raises(ScenarioError, match="duration_s"):
            scenario_from_dict(bad)

    def test_droptail_aqm(self):
        spec = dict(VALID_SCENARIO, aqm={"kind": "droptail", "queue_limit_bytes": 50000})
        scenario = scenario_from_dict(spec)
        assert isinstance(scenario.aqm, DropTailConfig)

    def test_gcc_param_overrides(self):
        spec = dict(VALID_SCENARIO, controller={"kind": "gcc", "decrease_factor": 0.7})
        scenario = scenario_from_dict(spec)
        assert scenario.gcc_params.decrease_factor == 0.7

    def test_sensitive_gcc_overrides_start_from_sensitive_params(self):
        spec = dict(VALID_SCENARIO, controller={"kind": "sensitive-gcc", "decrease_factor": 0.7})
        scenario = scenario_from_dict(spec)
        assert scenario.gcc_params == replace(GccParams(**SENSITIVE_GCC), decrease_factor=0.7)

    def test_absent_keys_keep_dataclass_defaults(self):
        spec = dict(VALID_SCENARIO, controller={"kind": "l4s-cc", "ewma_gain": 0.125})
        assert scenario_from_dict(spec).scalable_params == ScalableParams(ewma_gain=0.125)

    def test_zero_dejitter_accepted_as_in_scenario(self):
        assert scenario_from_dict(dict(VALID_SCENARIO, dejitter_ms=0)).dejitter_us == 0

    def test_integral_float_accepted_for_int_field(self):
        scenario = scenario_from_dict(dict(VALID_SCENARIO, source={"fps": 25.0}))
        assert scenario.source.fps == 25 and isinstance(scenario.source.fps, int)

    @pytest.mark.parametrize(
        "section, value, where",
        [
            ("controller", {"kind": "gcc", "window": "x"}, "controller.window"),
            ("controller", {"kind": "gcc", "loss_high": True}, "controller.loss_high"),
            ("controller", {"kind": "gcc", "loss_low": 0.5}, "controller: loss_low"),
            ("source", {"fps": 29.97}, "source.fps"),
            ("source", {"ecn_mode": "ect0"}, "source.ecn_mode"),
            ("aqm", {"queue_limit_bytes": 1.5}, "aqm.queue_limit_bytes"),
            (
                "aqm",
                {"target_delay_ms": 0},
                "aqm.target_delay_ms: must be from 0.001 to 10000.0, got 0",
            ),
            ("duration_s", math.nan, "duration_s"),
            ("duration_s", math.inf, "duration_s"),
            ("seed", 1.5, "seed"),
            ("feedback_interval_ms", True, "feedback_interval_ms"),
            (
                "link",
                {"capacity": {"kind": "constant", "mbps": 3},
                 "forward_delay": {"kind": "fixed", "delay_ms": 0.0001}},
                "link.forward_delay.delay_ms",
            ),
            (
                "link",
                {"capacity": {"kind": "constant", "mbps": 5},
                 "forward_delay": {"kind": "jitter", "entries": [[10, 0.5], [1e400, 0.5]]}},
                r"link.forward_delay.entries\[1\]",
            ),
            (
                "link",
                {"capacity": {"kind": "constant", "mbps": 3},
                 "forward_delay": {"kind": "fixed", "delay_ms": 0}},
                "link.forward_delay.delay_ms: must be from 0.001 to 10000.0, got 0",
            ),
            ("link", {"capacity": {"kind": "constant"}}, "link.capacity.mbps: expected a number"),
            ("link", {"capacity": {"kind": "trace", "path": "/nope.csv"}}, "link.capacity.path"),
            # Single-field range checks name their key; cross-field ones the section.
            ("controller", {"kind": "gcc", "window": 1}, "controller.window: must be from 2 to"),
            (
                "controller",
                {"kind": "gcc", "decrease_factor": math.nextafter(1.0, 2.0)},
                "controller.decrease_factor: must be from 0.0 to 1.0",
            ),
            (
                "controller",
                {"kind": "l4s-cc", "ewma_gain": math.nextafter(0.0, -1.0)},
                "controller.ewma_gain: must be from 0.0 to 1.0",
            ),
            (
                "controller",
                {"kind": "l4s-cc", "additive_step_bps": 0},
                "controller.additive_step_bps: must be from 1 to 100000000000, got 0",
            ),
            ("source", {"mtu_bytes": 0}, "source.mtu_bytes: must be from 1 to 65535, got 0"),
            (
                "source",
                {"min_bitrate_bps": -100, "start_bitrate_bps": -50},
                "source.min_bitrate_bps: must be from 1 to 100000000000, got -100",
            ),
            ("source", {"max_bitrate_bps": 100_000}, "source: bitrates must satisfy"),
            ("link", {"capacity": {"kind": "constant", "mbps": 0}}, "link.capacity.mbps: must be"),
            (
                "link",
                {"capacity": dict(SQUARE, low_mbps=0)},
                "link.capacity.low_mbps: must be from 0.001 to 100000.0, got 0",
            ),
            (
                "link",
                {"capacity": dict(SQUARE, high_mbps=-4)},
                "link.capacity.high_mbps: must be from 0.001 to 100000.0, got -4",
            ),
            (
                "link",
                {"capacity": dict(SQUARE, half_period_s=0)},
                "link.capacity.half_period_s: must be from 1e-06 to 86400.0, got 0",
            ),
            (
                "feedback_interval_ms",
                0,
                "^feedback_interval_ms: must be from 1.0 to 10000.0, got 0$",
            ),
            ("dejitter_ms", -1, "^dejitter_ms: must be from 0.0 to 10000.0, got -1$"),
            (
                "link",
                dict(VALID_SCENARIO["link"], reverse_delay_ms=0),
                "^link.reverse_delay_ms: must be from 0.001 to 10000.0, got 0$",
            ),
            (
                "link",
                dict(VALID_SCENARIO["link"], reverse_delay_ms="x"),
                "^link.reverse_delay_ms: expected a number",
            ),
            (
                "controller",
                {"kind": "gcc", "eta_increase": -1.08},
                "^controller.eta_increase: must be from 1.0 to 2.0, got -1.08$",
            ),
            (
                "controller",
                {"kind": "gcc", "window": 1001},
                "^controller.window: must be from 2 to 1000, got 1001$",
            ),
            ("aqm", {"alpha": -5}, "^aqm.alpha: must be from 0.0 to 1000.0, got -5$"),
            ("aqm", {"beta": -50}, "^aqm.beta: must be from 0.0 to 1000.0, got -50$"),
            ("duration_s", 1e308, r"^duration_s: must be from 1e-06 to 86400.0, got 1e\+308$"),
        ],
    )  # fmt: skip
    def test_invalid_value_names_field_path(self, section, value, where):
        with pytest.raises(ScenarioError, match=where):
            scenario_from_dict(dict(VALID_SCENARIO, **{section: value}))


CONFIG_CLASSES = (Scenario, DualPi2Config, DropTailConfig, SourceConfig, GccParams,
                  ScalableParams, Constant, SquareWave, TracePattern, JitterProfile)  # fmt: skip


def configs_made(monkeypatch, build):
    """How many of each config class `build()` makes, by class name."""
    made = Counter()
    for cls in CONFIG_CLASSES:

        def counted(self, _check=cls.__post_init__, _name=cls.__name__):
            made[_name] += 1
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    build()
    return made


class TestOneObjectPerConfig:
    def test_a_file_setting_every_section_makes_each_config_once(self, monkeypatch):
        data = {
            "seed": 2,
            "duration_s": 10,
            "link": {
                "capacity": {"kind": "constant", "mbps": 4},
                "forward_delay": {"kind": "fixed", "delay_ms": 8},
                "reverse_delay_ms": 7,
            },
            "aqm": {"kind": "dualpi2", "alpha": 0.2},
            "controller": {"kind": "l4s-gcc", "window": 30, "ewma_gain": 0.125},
            "source": {"fps": 25, "ecn_mode": "ect1"},
            "feedback_interval_ms": 50,
            "dejitter_ms": 10,
        }
        assert configs_made(monkeypatch, lambda: scenario_from_dict(data)) == Counter(
            Scenario=1, DualPi2Config=1, SourceConfig=1, GccParams=1, ScalableParams=1, Constant=1
        )

    def test_a_preset_makes_only_the_configs_it_holds(self, monkeypatch):
        made = configs_made(
            monkeypatch, lambda: preset_scenario("case4c", ControllerKind.SENSITIVE_GCC)
        )
        assert made == Counter(
            Scenario=1, DualPi2Config=1, SourceConfig=1, Constant=1, JitterProfile=1
        )


BUNDLED_TRACE = resources.files("l4sim").joinpath("data/case3_trace.csv")
_JITTER_ENTRIES = {
    "case4a": [[10, 0.85], [12, 0.10], [14, 0.04], [16, 0.01]],
    "case4b": [[10, 0.85], [14, 0.10], [18, 0.04], [22, 0.01]],
    "case4c": [[10, 0.85], [18, 0.10], [26, 0.04], [34, 0.01]],
}


def python_preset(case, kind, seed, duration_us):
    """The smallest Python construction of a preset: every setting it does
    not name keeps the `Scenario` default, as an absent file key does."""
    if case == "case1":
        link = {"capacity": Constant(3.0)}
    elif case == "case2":
        link = {"capacity": SquareWave(2.5, 4.0, 10_000_000)}
    elif case == "case3":
        link = {"capacity": trace_pattern(load_trace_csv(str(BUNDLED_TRACE)))}
    else:
        entries = tuple((ms * 1_000, p) for ms, p in _JITTER_ENTRIES[case])
        link = {"capacity": Constant(5.0), "forward_delay": JitterProfile(entries)}
    return Scenario(seed=seed, duration_us=duration_us, controller=kind, **link)


# The name is kept from when this compared a hand-written minimal file, so
# that its test ids stay stable; it now checks a second construction path,
# Python, against the scenario-file builder that makes the presets.
@pytest.mark.parametrize("case", PRESET_CASES)
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_minimal_file_equals_preset(case, kind):
    scenario = python_preset(case, kind, seed=5, duration_us=30_000_000)
    assert scenario == preset_scenario(case, kind, seed=5, duration_s=30.0)


_GCC_FILE_KEYS = {"window", "threshold_gain", "gamma_init_ms", "gamma_min_ms", "gamma_max_ms",
                  "k_up", "k_down", "overuse_time_ms", "eta_increase", "decrease_factor",
                  "loss_high", "loss_low"}  # fmt: skip
_SCALABLE_FILE_KEYS = {"ewma_gain", "additive_step_bps"}

# Every section of a scenario file with the keys it accepts, one entry per
# kind where the kind selects the keys.
ACCEPTED_KEYS = [
    ("", None, {"seed", "duration_s", "link", "aqm", "controller", "source",
                "feedback_interval_ms", "dejitter_ms"}),
    ("link", None, {"capacity", "forward_delay", "reverse_delay_ms"}),
    ("link.capacity", {"kind": "constant", "mbps": 3}, {"kind", "mbps"}),
    ("link.capacity", {"kind": "square", "low_mbps": 1, "high_mbps": 2, "half_period_s": 1},
     {"kind", "low_mbps", "high_mbps", "half_period_s"}),
    ("link.capacity", {"kind": "trace", "path": str(BUNDLED_TRACE)}, {"kind", "path"}),
    ("link.forward_delay", {"kind": "fixed", "delay_ms": 6}, {"kind", "delay_ms"}),
    ("link.forward_delay", {"kind": "jitter", "entries": [[10, 1.0]]}, {"kind", "entries"}),
    ("aqm", {"kind": "dualpi2"}, {"kind", "target_delay_ms", "t_update_ms", "alpha", "beta",
                                  "coupling_k", "l4s_step_threshold_ms", "queue_limit_bytes",
                                  "time_shift_ms"}),
    ("aqm", {"kind": "droptail"}, {"kind", "queue_limit_bytes"}),
    # VALID_SCENARIO's controller is l4s-gcc, which reads both key sets.
    ("controller", None, {"kind", *_GCC_FILE_KEYS, *_SCALABLE_FILE_KEYS}),
    ("controller", {"kind": "gcc"}, {"kind", *_GCC_FILE_KEYS}),
    ("controller", {"kind": "sensitive-gcc"}, {"kind", *_GCC_FILE_KEYS}),
    ("controller", {"kind": "l4s-cc"}, {"kind", *_SCALABLE_FILE_KEYS}),
    ("source", None, {"fps", "mtu_bytes", "min_bitrate_bps", "max_bitrate_bps",
                      "start_bitrate_bps", "ecn_mode"}),
]  # fmt: skip


def _candidate_keys():
    """Every accepted key plus each config field name in its `_us`, `_ms`
    and `_s` spellings, so a field that leaks into the file schema shows."""
    keys = set().union(*(accepted for _, _, accepted in ACCEPTED_KEYS))
    for cls in (Scenario, DualPi2Config, DropTailConfig, GccParams, ScalableParams,
                SourceConfig, Constant, SquareWave):  # fmt: skip
        for f in fields(cls):
            keys.add(f.name)
            if f.name.endswith("_us"):
                keys.update({f.name[:-3] + "_ms", f.name[:-3] + "_s"})
    return sorted(keys)


def _section(data, path):
    for part in filter(None, path.split(".")):
        data = data[part]
    return data


@pytest.mark.parametrize(
    "path, spec, accepted",
    ACCEPTED_KEYS,
    ids=[f"{p or 'top'}-{(s or {}).get('kind', '')}" for p, s, _ in ACCEPTED_KEYS],
)
def test_accepted_key_set_per_section(path, spec, accepted):
    base = copy.deepcopy(VALID_SCENARIO)
    if spec is not None:
        parent, _, name = path.rpartition(".")
        _section(base, parent)[name] = spec
    found = set()
    for key in _candidate_keys():
        data = copy.deepcopy(base)
        _section(data, path)[key] = 2
        try:
            scenario_from_dict(data)
        except ScenarioError as exc:
            if str(exc) == f"{path + '.' if path else ''}{key}: unknown key":
                continue
        found.add(key)
    assert found == accepted


# The README table's rows that are not a config class's number field: each
# with its range, in the unit the row names.
_README_ELEMENT_RANGES = {
    "`link.forward_delay.entries`: each delay, in ms": Range(
        DELAY_US.lo / US_PER_MS, DELAY_US.hi / US_PER_MS
    ),
    "`link.forward_delay.entries`: each probability": FRACTION,
    "`link.capacity.path`: each time, `t_s`": netem._TRACE_S,
    "`link.capacity.path`: each rate, floored at 0.1": netem.CAPACITY_MBPS,
    "`link.forward_delay.delay_ms`": Range(DELAY_US.lo / US_PER_MS, DELAY_US.hi / US_PER_MS),
}
# Each section of a file with the config classes whose fields are its keys.
_SECTION_CLASSES = [
    ("", Scenario), ("link.capacity", Constant), ("link.capacity", SquareWave),
    ("aqm", DualPi2Config), ("aqm", DropTailConfig), ("controller", GccParams),
    ("controller", ScalableParams), ("source", SourceConfig),
]  # fmt: skip


def test_readme_range_table_agrees_with_the_declared_ranges():
    expected = {row: f"{r.lo} to {r.hi}" for row, r in _README_ELEMENT_RANGES.items()}
    for section, cls in _SECTION_CLASSES:
        for key, (_name, _hint, r, unit) in _file_keys(cls).items():
            # `reverse_delay_ms` is the one `Scenario` key that the link section holds.
            path = "link" if key == "reverse_delay_ms" else section
            shown = r if unit == 1 else Range(r.lo / unit, r.hi / unit)
            expected[f"`{path + '.' if path else ''}{key}`"] = f"{shown.lo} to {shown.hi}"
    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    table = text.split("  | key | range |\n  |---|---|\n")[1].split("\n\n")[0]
    found = {}
    for line in table.splitlines():
        cell, shown = (part.strip() for part in line.strip().strip("|").split("|"))
        if cell in _README_ELEMENT_RANGES:
            found[cell] = shown
            continue
        first, *more = re.findall(r"`([^`]+)`", cell)  # `a.b.key`, `key`: keys of one section
        section = first.rpartition(".")[0]
        for key in [first, *(f"{section}.{key}" for key in more)]:
            found[f"`{key}`"] = shown
    assert found == expected


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_PATHS = sorted({path for path, _, _ in ACCEPTED_KEYS})
_KEYS = sorted(set().union(*(accepted for _, _, accepted in ACCEPTED_KEYS)))


def _builds_or_rejects(data):
    try:
        assert isinstance(scenario_from_dict(data), Scenario)
    except ScenarioError:
        pass


@given(_JSON)
def test_any_json_value_builds_or_raises_scenario_error(data):
    _builds_or_rejects(data)


@given(st.lists(st.tuples(st.sampled_from(_PATHS), st.sampled_from(_KEYS), _JSON), max_size=4))
@settings(max_examples=300)
def test_any_edit_of_a_valid_file_builds_or_raises_scenario_error(edits):
    data = copy.deepcopy(VALID_SCENARIO)
    data["link"]["forward_delay"] = {"kind": "jitter", "entries": [[10, 0.5], [12, 0.5]]}
    for path, key, value in edits:
        try:
            section = _section(data, path)
        except (KeyError, TypeError):
            continue
        if isinstance(section, dict):
            section[key] = value
    _builds_or_rejects(data)


def _beside_bounds(hint, bounds, unit=1):
    """Each bound of a field's range, just inside it and just outside it, in
    its file key's unit (`unit` microseconds), each with whether the field
    takes it. A step is 1 for an `int` field and one float for a `float`
    one."""
    if hint is int:
        values = [(bounds.lo - 1, False), (bounds.lo, True), (bounds.lo + 1, True),
                  (bounds.hi - 1, True), (bounds.hi, True), (bounds.hi + 1, False)]  # fmt: skip
        return [(value / unit if unit > 1 else value, inside) for value, inside in values]
    lo, hi, step = bounds.lo, bounds.hi, math.nextafter
    return [(step(lo, -math.inf), False), (lo, True), (step(lo, math.inf), True),
            (step(hi, -math.inf), True), (hi, True), (step(hi, math.inf), False)]  # fmt: skip


def _key_bounds(cls, key):
    """`_beside_bounds` of the field that file key `key` of `cls` sets."""
    _name, hint, bounds, unit = _file_keys(cls)[key]
    return _beside_bounds(hint, bounds, unit)


def _near_bounds(draws):
    return st.sampled_from([value for value, _inside in draws])


_GAIN_KEYS = [("aqm", "alpha"), ("aqm", "beta")] + [
    ("controller", key) for key in sorted(_GCC_FILE_KEYS | _SCALABLE_FILE_KEYS)
]


def _gain_class(section, key):
    if section == "aqm":
        return DualPi2Config
    return GccParams if key in _GCC_FILE_KEYS else ScalableParams


def _gain(section, key):
    cls = _gain_class(section, key)
    values = (
        st.integers(-(10**300), 10**300) if _file_keys(cls)[key][1] is int
        else st.floats(-1e300, 1e300)
    )  # fmt: skip
    return st.tuples(st.just(section), st.just(key), _near_bounds(_key_bounds(cls, key)) | values)


@given(st.one_of(*(_gain(*k) for k in _GAIN_KEYS)), st.integers(1, 1_500))
@settings(deadline=None)
@example(("controller", "eta_increase", -1.08), 100)
@example(("controller", "eta_increase", 2.0), 1_500)
def test_any_gain_runs_cleanly_or_names_its_key(gain, feedback_interval_ms):
    """A gain either runs to a clean audit or is rejected with its key's
    path. Feedback up to 1.5 s apart makes rate updates more than 1 s apart.
    Each gain is drawn at its bounds, beside them, and anywhere."""
    section, key, value = gain
    data = {
        "duration_s": 3,
        "link": {"capacity": {"kind": "constant", "mbps": 3}},
        "aqm": {},
        "controller": {"kind": "l4s-gcc"},
        "feedback_interval_ms": feedback_interval_ms,
    }
    data[section][key] = value
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError as exc:
        # A cross-field check names the section, then the fields it compares.
        message = str(exc)
        assert message.startswith(f"{section}.{key}: ") or (
            message.startswith(f"{section}: ") and key in message
        ), message
        return
    metrics, log = run_scenario(scenario)
    assert isinstance(metrics, MetricsReport)
    assert log.audit.errors() == []


# Delays in milliseconds: at the bounds of their range and beside them,
# zero, negative and positive ones in whole milliseconds and microseconds,
# fractions of a microsecond, and any finite float, most of which outlast a
# 1 s session.
_DELAY_BOUNDS = _beside_bounds(int, DELAY_US, US_PER_MS)
_PROBABILITY_BOUNDS = _beside_bounds(float, FRACTION)
_DELAY_MS = (
    _near_bounds(_DELAY_BOUNDS)
    | st.integers(-5, 2_000)
    | st.integers(-5_000, 2_000_000).map(lambda us: us / 1_000)
    | st.floats(-10.0, 2_000.0)
    | st.floats(-1e300, 1e300)
)


@st.composite
def _link_delays(draw):
    """One of `link.forward_delay` (fixed or jitter) and
    `link.reverse_delay_ms`, with the path its errors must start with."""
    key = draw(st.sampled_from(("fixed", "jitter", "reverse")))
    if key == "reverse":
        return "reverse_delay_ms", draw(_DELAY_MS), "link.reverse_delay_ms"
    if key == "fixed":
        delay = {"kind": "fixed", "delay_ms": draw(_DELAY_MS)}
        return "forward_delay", delay, "link.forward_delay.delay_ms"
    delays = draw(st.lists(_DELAY_MS, max_size=5))
    # Weights that sum to 1, or any finite ones, those of a probability's
    # bounds among them.
    any_weight = _near_bounds(_PROBABILITY_BOUNDS) | st.floats(-2.0, 2.0)
    weights = draw(
        st.lists(st.integers(1, 20), min_size=len(delays), max_size=len(delays)).map(
            lambda ws: [w / sum(ws) for w in ws]
        )
        | st.lists(any_weight, min_size=len(delays), max_size=len(delays))
    )
    entries = [[d, w] for d, w in zip(delays, weights)]
    return "forward_delay", {"kind": "jitter", "entries": entries}, "link.forward_delay.entries"


@given(_link_delays(), st.sampled_from(list(ControllerKind)))
@settings(max_examples=200, deadline=None)
@example(("forward_delay", {"kind": "fixed", "delay_ms": 0}, "link.forward_delay.delay_ms"),
         ControllerKind.GCC)
@example(("forward_delay", {"kind": "fixed", "delay_ms": 2_000}, "link.forward_delay.delay_ms"),
         ControllerKind.GCC)
@example(("forward_delay", {"kind": "jitter", "entries": [[10, 0.5], [5_000, 0.5]]},
          "link.forward_delay.entries"), ControllerKind.L4S_GCC)
@example(("reverse_delay_ms", 1e300, "link.reverse_delay_ms"), ControllerKind.L4S_CC)
def test_any_link_delay_runs_cleanly_or_names_its_key(delay, kind):
    """A link delay either runs 1 s to a clean audit, is rejected with its
    key's path, or delivers no packet in the session, which is an input
    error that names `duration_s` (DECISIONS.md entry 12)."""
    key, value, path = delay
    data = {
        "duration_s": 1,
        "link": {"capacity": {"kind": "constant", "mbps": 3}, key: value},
        "controller": {"kind": kind.value},
    }
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError as exc:
        assert str(exc).startswith(path), str(exc)
        event("rejected")
        return
    try:
        metrics, log = run_scenario(scenario)
    except ValueError as exc:
        assert str(exc).startswith("duration_s: no packet was delivered in 1 s"), str(exc)
        event("no packet delivered")
        return
    event("ran")
    assert isinstance(metrics, MetricsReport)
    assert log.audit.errors() == []


# Every other number key of a scenario file, with the section object it sits
# in and the config class that reads it: the source, a constant and a square
# capacity (a 1 s session crosses this square wave's steps), the rest of the
# AQM keys of both kinds, and the top-level keys.
_SQUARE_1S = {"kind": "square", "low_mbps": 2.5, "high_mbps": 4.0, "half_period_s": 0.25}
_DUALPI2_KEYS = ("target_delay_ms", "t_update_ms", "coupling_k", "l4s_step_threshold_ms",
                 "queue_limit_bytes", "time_shift_ms")  # fmt: skip
_SOURCE_KEYS = ("fps", "mtu_bytes", "min_bitrate_bps", "max_bitrate_bps", "start_bitrate_bps")
_OTHER_KEYS = [
    *(("source", {}, key, SourceConfig) for key in _SOURCE_KEYS),
    ("link.capacity", {"kind": "constant", "mbps": 3}, "mbps", Constant),
    *(("link.capacity", _SQUARE_1S, key, SquareWave)
      for key in ("low_mbps", "high_mbps", "half_period_s")),
    *(("aqm", {"kind": "dualpi2"}, key, DualPi2Config) for key in _DUALPI2_KEYS),
    ("aqm", {"kind": "droptail"}, "queue_limit_bytes", DropTailConfig),
    *(("", None, key, Scenario)
      for key in ("seed", "duration_s", "feedback_interval_ms", "dejitter_ms")),
]  # fmt: skip
_ANY_NUMBER = st.integers(-(10**300), 10**300) | st.floats()


def test_every_number_key_is_fuzzed_end_to_end():
    fuzzed = {(path, key) for path, _, key, _ in _OTHER_KEYS} | set(_GAIN_KEYS) | {
        ("link", "reverse_delay_ms"), ("link.forward_delay", "delay_ms"),
        ("link.forward_delay", "entries"),
    }  # fmt: skip
    not_numbers = {"kind", "link", "capacity", "forward_delay", "aqm", "controller", "source",
                   "path", "ecn_mode"}  # fmt: skip
    assert fuzzed == {
        (path, key) for path, _, accepted in ACCEPTED_KEYS for key in accepted - not_numbers
    }


def _file_with(path, spec, key, value, kind=ControllerKind.L4S_GCC):
    """A 1 s scenario file on a constant 3 Mbps link whose `path` section is
    `spec` (None: as it is) with `key` set to `value`."""
    data = {
        "duration_s": 1,
        "link": {"capacity": {"kind": "constant", "mbps": 3}},
        "controller": {"kind": kind.value},
    }
    if spec is not None:
        parent, _, name = path.rpartition(".")
        _section(data, parent)[name] = copy.deepcopy(spec)
    _section(data, path)[key] = value
    return data


def _runs_cleanly_or_names(data, path, key_path):
    """What `data` does: it is rejected with the path of the drawn key,
    `key_path` (or, for a check across fields, its section's, `path`); it
    is built and not run, as its session could not finish in 1 s; it
    delivers no packet, which names `duration_s`; or it runs to a clean
    audit, finite metrics and a utilization that is positive exactly when
    it plays a frame."""
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError as exc:
        message = str(exc)
        assert message.startswith(f"{key_path}: ") or (
            path and message.startswith(f"{path}: ")
        ), message
        return "rejected"
    if scenario.duration_us > US_PER_S:
        return "built, not run"  # a longer session is valid; its work grows with its length
    try:
        metrics, log = run_scenario(scenario)
    except ValueError as exc:
        assert str(exc).startswith("duration_s: no packet was delivered in "), str(exc)
        return "no packet delivered"
    assert all(math.isfinite(getattr(metrics, name)) for name in METRIC_FIELDS), metrics
    # Utilization divides quality by the mean capacity: an infinite mean read 0.
    assert (metrics.bandwidth_utilization > 0) == (metrics.quality_mbps > 0), metrics
    assert log.audit.errors() == []
    return "ran"


@st.composite
def _other_key(draw):
    path, spec, key, cls = draw(st.sampled_from(_OTHER_KEYS))
    return path, spec, key, draw(_near_bounds(_key_bounds(cls, key)) | _ANY_NUMBER)


@given(_other_key(), st.sampled_from(list(ControllerKind)))
@settings(max_examples=400, deadline=None)
@example(("link.capacity", {"kind": "constant", "mbps": 3}, "mbps", 1e303), ControllerKind.GCC)
@example(("link.capacity", _SQUARE_1S, "high_mbps", 1e303), ControllerKind.GCC)
@example(("link.capacity", _SQUARE_1S, "low_mbps", 1e302), ControllerKind.L4S_GCC)
@example(("source", {}, "mtu_bytes", 1), ControllerKind.L4S_GCC)
@example(("aqm", {"kind": "droptail"}, "queue_limit_bytes", 1), ControllerKind.GCC)
@example(("", None, "duration_s", 1e300), ControllerKind.GCC)
def test_any_other_key_runs_cleanly_or_names_its_key(drawn, kind):
    """Any value of any other number key, drawn at its bounds, beside them
    or anywhere, is rejected with its key's path, is built and not run, or
    runs cleanly (`_runs_cleanly_or_names`)."""
    path, spec, key, value = drawn
    key_path = f"{path}.{key}" if path else key
    event(_runs_cleanly_or_names(_file_with(path, spec, key, value, kind), path, key_path))


# Every number key of a file at each bound of its range, just inside it and
# just outside it, in a 1 s l4s-gcc scenario, which reads every controller
# key: (file, the path a rejection names, the value, whether it is in range).
_BOUND_DRAWS = [
    *(
        (_file_with(path, spec, key, value), f"{path}.{key}" if path else key, value, inside)
        for path, spec, key, cls in [
            *_OTHER_KEYS,
            *((section, {"kind": "dualpi2"} if section == "aqm" else None, key,
               _gain_class(section, key)) for section, key in _GAIN_KEYS),
            ("link", None, "reverse_delay_ms", Scenario),
        ]
        for value, inside in _key_bounds(cls, key)
    ),
    *(
        (_file_with("link.forward_delay", {"kind": "fixed"}, "delay_ms", value),
         "link.forward_delay.delay_ms", value, inside)
        for value, inside in _DELAY_BOUNDS
    ),
    *(
        (_file_with("link.forward_delay", {"kind": "jitter"}, "entries", [[value, 1.0]]),
         "link.forward_delay.entries[0]", value, inside)
        for value, inside in _DELAY_BOUNDS
    ),
    *(
        (_file_with("link.forward_delay", {"kind": "jitter"}, "entries",
                    [[10, value], [12, 1.0 - value]]),
         "link.forward_delay.entries[0]", value, inside)
        for value, inside in _PROBABILITY_BOUNDS
    ),
]  # fmt: skip


@pytest.mark.parametrize(
    "data, where, value, inside", _BOUND_DRAWS, ids=[f"{w}={v!r}" for _, w, v, _ in _BOUND_DRAWS]
)
def test_every_number_key_at_and_beside_its_bounds(data, where, value, inside):
    """A value just outside a key's range is rejected with the key's path
    and its range; one at a bound or just inside runs cleanly, or is
    rejected only by a check across fields (`_runs_cleanly_or_names`)."""
    if not inside:
        with pytest.raises(ScenarioError, match=rf"^{re.escape(where)}: must be from "):
            scenario_from_dict(data)
        return
    try:
        scenario_from_dict(data)
    except ScenarioError as exc:  # only a check across fields may refuse a value in range
        section = where.rpartition(".")[0]
        assert section and str(exc).startswith(f"{section}: "), str(exc)
        return
    assert _runs_cleanly_or_names(data, "", where) != "rejected"
