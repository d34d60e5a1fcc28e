import copy
import math
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l4sim.aqm import DropTailConfig, DualPi2Config
from l4sim.cc import ControllerKind, GccParams, ScalableParams
from l4sim.media import SourceConfig
from l4sim.harness import (
    PRESET_CASES,
    ScenarioError,
    bundled_case3_samples,
    compute_metrics,
    emit_metrics_csv,
    emit_table_csv,
    format_table_text,
    parse_table_csv,
    preset_scenario,
    run_comparison,
    scenario_from_dict,
    table_csv_lines,
)
from l4sim.netem import Constant, SquareWave, TracePattern, JitterProfile
from l4sim.sim import RunAudit, Scenario, TimelineLog, run_scenario


def make_log(rtt_samples, stalled_us=0, played_bytes=0, duration_us=100_000_000):
    audit = RunAudit(
        sent=0, delivered=0, dropped=0, in_queue=0, in_transit=0, queue_errors=[]
    )
    return TimelineLog(
        duration_us=duration_us,
        rtt_samples_us=rtt_samples,
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
        with pytest.raises(ValueError, match="empty run"):
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
            entries = scenario.jitter.entries
            assert tuple(d // 1000 for d, _ in entries) == delays
            assert tuple(p for _, p in entries) == (0.85, 0.10, 0.04, 0.01)

    def test_ecn_mode_follows_controller(self):
        from l4sim.core import EcnCodepoint

        assert (
            preset_scenario("case1", ControllerKind.GCC).source.ecn_mode
            is EcnCodepoint.NOT_ECT
        )
        assert (
            preset_scenario("case1", ControllerKind.L4S_GCC).source.ecn_mode
            is EcnCodepoint.ECT1
        )

    def test_bundled_trace_is_normalized(self):
        samples = bundled_case3_samples()
        rates = [r for _, r in samples]
        assert min(rates) == pytest.approx(0.0, abs=1e-9)
        assert max(rates) == pytest.approx(5.0)
        assert samples[0][0] == 0


class TestRunComparison:
    def test_cardinality_and_aggregation_identity(self):
        table = run_comparison(
            ["case1"],
            [ControllerKind.L4S_CC, ControllerKind.GCC],
            seeds=[1],
            duration_s=3.0,
        )
        assert len(table.rows) == 2
        row = table.row("case1", "l4s-cc")
        assert row.seed_count == 1
        # single seed: the cell equals that run's report, stdev zero
        metrics, _ = run_scenario(preset_scenario("case1", ControllerKind.L4S_CC, 1, 3.0))
        assert row.means["quality_mbps"] == metrics.quality_mbps
        assert all(s == 0.0 for s in row.stdevs.values())

    def test_mean_stdev_match_independent_recomputation(self):
        table = run_comparison(
            ["case4a"], [ControllerKind.L4S_GCC], seeds=[1, 2, 3], duration_s=5.0
        )
        row = table.rows[0]
        values = [m.rtt_avg_ms for m in row.runs]
        assert row.means["rtt_avg_ms"] == pytest.approx(np.mean(values), abs=1e-12)
        assert row.stdevs["rtt_avg_ms"] == pytest.approx(np.std(values), abs=1e-12)

    def test_failed_run_identifies_triple(self):
        for workers in (1, 2):  # serial and worker-pool paths
            with pytest.raises(RuntimeError, match="case=case9 controller=gcc seed=1: unknown"):
                run_comparison(["case9"], [ControllerKind.GCC], seeds=[1], workers=workers)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_comparison([], [ControllerKind.GCC], seeds=[1])


class TestEmission:
    def make_table(self):
        return run_comparison(
            ["case1"],
            [ControllerKind.GCC, ControllerKind.L4S_CC],
            seeds=[1],
            duration_s=3.0,
        )

    def test_csv_layout(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.csv"
        emit_table_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "case,controller,seed_count,rtt_max_ms,rtt_min_ms,rtt_avg_ms,"
            "stall_rate,quality_mbps,utilization,marks,drops"
        )
        assert len(lines) == 3
        assert lines[1].startswith("case1,gcc,1,")

    def test_emissions_byte_identical(self, tmp_path):
        table = self.make_table()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_table_csv(table, str(a))
        emit_table_csv(table, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.csv"
        emit_table_csv(table, str(path))
        parsed = parse_table_csv(str(path))
        assert table_csv_lines(parsed) == table_csv_lines(table)

    def test_metrics_csv(self, tmp_path):
        metrics, _ = run_scenario(preset_scenario("case1", ControllerKind.L4S_CC, 1, 2.0))
        path = tmp_path / "m.csv"
        emit_metrics_csv(metrics, str(path))
        header, values = path.read_text().splitlines()
        assert header.split(",")[0] == "rtt_max_ms"
        assert float(values.split(",")[0]) == metrics.rtt_max_ms

    def test_unwritable_path_raises_with_path(self):
        table = self.make_table()
        with pytest.raises(OSError, match="/definitely/not/here"):
            emit_table_csv(table, "/definitely/not/here/out.csv")

    def test_text_table_mentions_rows(self):
        text = format_table_text(self.make_table())
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
        assert isinstance(scenario.jitter, JitterProfile)

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
        assert scenario.gcc_params == replace(GccParams.sensitive(), decrease_factor=0.7)

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
            ("aqm", {"target_delay_ms": 0}, "aqm: target_delay_us"),
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
                "link: forward_delay_us must be positive",
            ),
            ("link", {"capacity": {"kind": "constant"}}, "link.capacity.mbps: expected a number"),
            ("link", {"capacity": {"kind": "trace", "path": "/nope.csv"}}, "link.capacity.path"),
        ],
    )  # fmt: skip
    def test_invalid_value_names_field_path(self, section, value, where):
        with pytest.raises(ScenarioError, match=where):
            scenario_from_dict(dict(VALID_SCENARIO, **{section: value}))


BUNDLED_TRACE = resources.files("l4sim").joinpath("data/case3_trace.csv")
_JITTER_ENTRIES = {
    "case4a": [[10, 0.85], [12, 0.10], [14, 0.04], [16, 0.01]],
    "case4b": [[10, 0.85], [14, 0.10], [18, 0.04], [22, 0.01]],
    "case4c": [[10, 0.85], [18, 0.10], [26, 0.04], [34, 0.01]],
}


def minimal_file(case, kind, seed, duration_s):
    """The smallest scenario file describing a preset."""
    if case == "case1":
        link = {"capacity": {"kind": "constant", "mbps": 3}}
    elif case == "case2":
        link = {
            "capacity": {"kind": "square", "low_mbps": 2.5, "high_mbps": 4, "half_period_s": 10}
        }
    elif case == "case3":
        link = {"capacity": {"kind": "trace", "path": str(BUNDLED_TRACE)}}
    else:
        link = {
            "capacity": {"kind": "constant", "mbps": 5},
            "forward_delay": {"kind": "jitter", "entries": _JITTER_ENTRIES[case]},
        }
    return {
        "seed": seed,
        "duration_s": duration_s,
        "link": link,
        "controller": {"kind": kind.value},
    }


@pytest.mark.parametrize("case", PRESET_CASES)
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_minimal_file_equals_preset(case, kind):
    scenario = scenario_from_dict(minimal_file(case, kind, seed=5, duration_s=30))
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
