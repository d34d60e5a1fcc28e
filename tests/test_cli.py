import csv
import json
import math
import os
import sys
import tempfile
from importlib import resources

import pytest

from l4sim import cli, harness
from l4sim.cli import main
from l4sim.netem import load_trace_csv, write_trace_csv


BUNDLED_TRACE = resources.files("l4sim").joinpath("data/case3_trace.csv")


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_preset_run_writes_metrics_and_timeline(self, tmp_path):
        out = tmp_path / "metrics.csv"
        timeline = tmp_path / "timeline.csv"
        code = run_cli(
            "run",
            "--scenario", "case1",
            "--controller", "l4s-gcc",
            "--seed", "7",
            "--duration", "3",
            "--out", str(out),
            "--timeline", str(timeline),
        )
        assert code == 0
        assert out.read_text().startswith("rtt_max_ms,")
        assert timeline.read_text().startswith("t_us,event,value")

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            tl = tmp_path / f"{name}_tl.csv"
            assert run_cli(
                "run", "--scenario", "case4a", "--controller", "gcc",
                "--seed", "3", "--duration", "3",
                "--out", str(out), "--timeline", str(tl),
            ) == 0
            paths.append((out.read_bytes(), tl.read_bytes()))
        assert paths[0] == paths[1]

    def test_preset_requires_controller(self, capsys):
        assert run_cli("run", "--scenario", "case1") == 1
        assert "controller" in capsys.readouterr().err

    def test_scenario_file(self, tmp_path):
        scenario = {
            "seed": 1,
            "duration_s": 2,
            "link": {"capacity": {"kind": "constant", "mbps": 3}},
            "controller": {"kind": "l4s-cc"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "m.csv"
        assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
        assert out.exists()

    def test_invalid_scenario_file_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"controller": {"kind": "gcc"}, "oops": 1}))
        assert run_cli("run", "--scenario", str(path)) == 1
        assert "oops" in capsys.readouterr().err

    def test_file_that_is_not_an_object_fails_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr().err == "l4sim: error: scenario: expected an object, got []\n"

    def test_file_that_is_not_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr().err == (
            f"l4sim: error: {path}: not valid JSON: Expecting property name enclosed in double"
            " quotes: line 1 column 2 (char 1)\n"
        )

    def test_file_nested_beyond_the_parser_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli("run", "--scenario", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"l4sim: error: {path}: not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"aqm": {"alpha": -5, "beta": -50}}, "aqm.alpha: must be from 0.0 to 1000.0, got -5"),
            (
                {"controller": {"kind": "l4s-gcc", "eta_increase": -1.08}},
                "controller.eta_increase: must be from 1.0 to 2.0, got -1.08",
            ),
        ],
    )
    def test_gain_out_of_range_fails_with_one_line(self, tmp_path, capsys, edit, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "duration_s": 5,
            "link": {"capacity": {"kind": "constant", "mbps": 3}},
            "controller": {"kind": "l4s-gcc"},
            **edit,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr().err == f"l4sim: error: {message}\n"

    def test_overrides_apply_before_file_defaults_are_derived(self, tmp_path):
        # The source ECN mode derives from the controller kind, so a gcc file
        # run as l4s-cc must match the same file written for l4s-cc.
        outputs = []
        for kind, extra in (("gcc", ["--controller", "l4s-cc"]), ("l4s-cc", [])):
            scenario = {
                "seed": 9,
                "duration_s": 60,
                "link": {"capacity": {"kind": "constant", "mbps": 0.8}},
                "controller": {"kind": kind},
            }
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(scenario))
            out = tmp_path / f"{kind}.csv"
            assert run_cli(
                "run", "--scenario", str(path), "--seed", "2", "--duration", "5",
                "--out", str(out), *extra,
            ) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_controller_flag_supplies_missing_controller_object(self, tmp_path, capsys):
        link = {"capacity": {"kind": "constant", "mbps": 3}}
        bare, full = tmp_path / "bare.json", tmp_path / "full.json"
        bare.write_text(json.dumps({"link": link, "duration_s": 3}))
        full.write_text(json.dumps({"link": link, "duration_s": 3, "controller": {"kind": "gcc"}}))
        assert run_cli("run", "--scenario", str(bare)) == 1
        assert capsys.readouterr().err.startswith("l4sim: error: controller: expected an object")
        outputs = []
        for path, extra in ((bare, ["--controller", "gcc"]), (full, [])):
            out = tmp_path / f"{path.stem}.csv"
            assert run_cli("run", "--scenario", str(path), "--out", str(out), *extra) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_override_kind_rejects_keys_it_never_reads(self, tmp_path, capsys):
        path = tmp_path / "gcc.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "constant", "mbps": 3}},
            "controller": {"kind": "gcc", "window": 30},
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path), "--controller", "l4s-cc") == 1
        assert capsys.readouterr().err == "l4sim: error: controller.window: unknown key\n"

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_non_finite_duration_names_field(self, tmp_path, capsys, duration, from_file):
        scenario = "case1"
        if from_file:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(
                {"link": {"capacity": {"kind": "constant", "mbps": 3}}, "controller": {"kind": "gcc"}}
            ))  # fmt: skip
            scenario = str(path)
        code = run_cli("run", "--scenario", scenario, "--controller", "gcc", "--duration", duration)
        assert code == 1
        assert capsys.readouterr().err.startswith("l4sim: error: duration_s")

    @pytest.mark.parametrize("duration", [math.nextafter(86_400.0, math.inf), 1e300, 1e308])
    @pytest.mark.parametrize("case", ["case1", "case2"], ids=["constant", "square"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_duration_beyond_a_day_names_field(
        self, tmp_path, capsys, monkeypatch, duration, case, from_file
    ):
        # 1e300 s built a run that would never end, and with a square-wave
        # capacity it was rejected as the capacity's fault. 1e308 s is not
        # even a finite number of microseconds. No run may start.
        def started(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(cli, "run_scenario", started)
        if from_file:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({
                "link": harness.PRESETS[case],
                "controller": {"kind": "gcc"},
                "duration_s": duration,
            }))  # fmt: skip
            argv = ["--scenario", str(path)]
        else:
            argv = ["--scenario", case, "--controller", "gcc", "--duration", repr(duration)]
        assert run_cli("run", *argv) == 1
        err = capsys.readouterr().err
        assert err == f"l4sim: error: duration_s: must be from 1e-06 to 86400.0, got {duration!r}\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"max_bitrate_bps": 1e15, "start_bitrate_bps": 1e15},
             "source.max_bitrate_bps: must be from 1 to 100000000000, got 1000000000000000.0"),
            # 10 Gbps of 1,200-byte packets is 1,041,667 packets per second.
            ({"max_bitrate_bps": 10**10, "start_bitrate_bps": 10**10},
             "source: max_bitrate_bps must be at most 1000000 packets of mtu_bytes per second,"
             " 9600000000, got 10000000000"),
            ({"mtu_bytes": 1, "max_bitrate_bps": 8_000_001},
             "source: max_bitrate_bps must be at most 1000000 packets of mtu_bytes per second,"
             " 8000000, got 8000001"),
        ],
        ids=["1e15-bps", "10-gbps", "mtu-1"],
    )  # fmt: skip
    def test_source_beyond_a_million_packets_per_second_names_source(
        self, tmp_path, capsys, monkeypatch, source, message
    ):
        # At 1e15 b/s the first frame alone would be 3,472,222,223 packets.
        def started(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr(cli, "run_scenario", started)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "constant", "mbps": 3}},
            "controller": {"kind": "gcc"},
            "source": source,
            "duration_s": 1,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == ("", f"l4sim: error: {message}\n")

    def test_frame_rate_beyond_the_bound_names_field(self, tmp_path, capsys):
        # 2 * 10**6 fps makes a zero-microsecond frame interval; a 2 s run
        # of it did not finish in 20 s before fps was bounded.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "constant", "mbps": 3}},
            "controller": {"kind": "gcc"},
            "source": {"fps": 2_000_000},
            "duration_s": 2,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr().err.startswith("l4sim: error: source.fps: must be from 1 to 1000")

    @pytest.mark.parametrize("duration", [1e-7, 4.9e-7, math.nextafter(1e-6, 0.0)])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_duration_rounding_to_zero_microseconds_names_field(
        self, tmp_path, capsys, duration, from_file
    ):
        # Such a run used to end in "empty run: no RTT samples to aggregate".
        if from_file:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({
                "link": {"capacity": {"kind": "constant", "mbps": 3}},
                "controller": {"kind": "gcc"},
                "duration_s": duration,
            }))  # fmt: skip
            argv = ["--scenario", str(path)]
        else:
            argv = ["--scenario", "case1", "--controller", "gcc", "--duration", str(duration)]
        assert run_cli("run", *argv) == 1
        err = capsys.readouterr().err
        assert err == f"l4sim: error: duration_s: must be from 1e-06 to 86400.0, got {duration!r}\n"

    @pytest.mark.parametrize("source", ["file", "preset", "compare"])
    def test_duration_of_no_whole_microseconds_names_field(self, tmp_path, capsys, source):
        # 1.0000004 s is 1,000,000.4 us: rejected, not rounded to 1 s.
        if source == "file":
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({
                "link": {"capacity": {"kind": "constant", "mbps": 3}},
                "controller": {"kind": "gcc"},
                "duration_s": 1.0000004,
            }))  # fmt: skip
            argv = ["run", "--scenario", str(path)]
        elif source == "preset":
            argv = ["run", "--scenario", "case1", "--controller", "gcc", "--duration", "1.0000004"]
        else:
            argv = ["compare", "--cases", "case1", "--controllers", "gcc", "--seeds", "1",
                    "--duration", "1.0000004"]  # fmt: skip
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == (
            "",
            "l4sim: error: duration_s: expected a whole number of microseconds, got 1.0000004\n",
        )

    def test_run_that_delivers_nothing_names_fields(self, tmp_path, capsys):
        # A link at the slowest capacity, 1 kbps, serializes no 1,200-byte
        # packet in 2 s. Such a run used to end in "empty run: no RTT
        # samples to aggregate", naming no field.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "constant", "mbps": 0.001}},
            "controller": {"kind": "gcc"},
            "duration_s": 2,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("l4sim: error: duration_s: no packet was delivered in 2 s;")
        assert "link.capacity (mean 0.001 Mbps)" in err

    @pytest.mark.parametrize(
        "row, message",
        [("inf,2", "t_s: must be from 0.0 to 86400.0, got inf"), ("1,nan", "non-finite rate"),
         ("1,inf", "non-finite rate")],
        ids=["time-inf", "rate-nan", "rate-inf"],
    )  # fmt: skip
    def test_non_finite_trace_value_names_field_and_line(self, tmp_path, capsys, row, message):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t_s,mbps\n0,1\n{row}\n")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "trace", "path": str(trace)}},
            "controller": {"kind": "gcc"},
            "duration_s": 1,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr().err.startswith(
            f"l4sim: error: link.capacity.path: {trace}:3: {message}"
        )

    @pytest.mark.parametrize(
        "capacity, duration_s, message",
        [
            ({"kind": "constant", "mbps": 1e303}, 1,
             "link.capacity.mbps: must be from 0.001 to 100000.0, got 1e+303"),
            ({"kind": "square", "low_mbps": 2.5, "high_mbps": 1e303, "half_period_s": 10}, 1,
             "link.capacity.high_mbps: must be from 0.001 to 100000.0, got 1e+303"),
            # Each rate is finite in bits/s, but 20 s of both overflowed the mean's sum.
            ({"kind": "square", "low_mbps": 1e302, "high_mbps": 1e302, "half_period_s": 10}, 30,
             "link.capacity.low_mbps: must be from 0.001 to 100000.0, got 1e+302"),
            ({"kind": "constant", "mbps": math.nextafter(1e5, math.inf)}, 1,
             "link.capacity.mbps: must be from 0.001 to 100000.0, got 100000.00000000001"),
        ],
        ids=["constant", "square", "square-mean", "constant-bound"],
    )  # fmt: skip
    def test_capacity_above_100_gbps_names_field(
        self, tmp_path, capsys, capacity, duration_s, message
    ):
        # The first three ran to `bandwidth_utilization 0.0`, before rates
        # were bounded: an infinite rate serializes in 0 us, and utilization
        # divided by an infinite mean.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": capacity},
            "controller": {"kind": "gcc"},
            "duration_s": duration_s,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == ("", f"l4sim: error: {message}\n")

    def test_trace_rate_above_100_gbps_names_field_and_sample(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t_s,mbps\n0,1\n1,1e303\n")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "trace", "path": str(trace)}},
            "controller": {"kind": "gcc"},
            "duration_s": 1,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == ("", (
            "l4sim: error: link.capacity.path: samples[1]: must be from 0.001 to 100000.0,"
            " got 1e+303\n"
        ))  # fmt: skip

    def test_trace_with_no_rate_at_the_floor_names_field(self, tmp_path, capsys):
        # Rates in another unit, Gbps here, used to run floored into a
        # constant 0.1 Mbps link. A trace with one rate at the floor builds,
        # as does the bundled one, whose low samples lie under it.
        low, at_floor = tmp_path / "low.csv", tmp_path / "at_floor.csv"
        low.write_text("t_s,mbps\n0,0.003\n1,0.004\n")
        at_floor.write_text("t_s,mbps\n0,0.003\n1,0.1\n")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "trace", "path": str(low)}},
            "controller": {"kind": "gcc"},
            "duration_s": 1,
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == ("", (
            "l4sim: error: link.capacity.path: no rate reaches the 0.1 Mbps floor;"
            " rates are in Mbps\n"
        ))  # fmt: skip
        assert min(r for _, r in load_trace_csv(str(BUNDLED_TRACE))) < 0.1
        for trace in (BUNDLED_TRACE, at_floor):
            link = {"capacity": {"kind": "trace", "path": str(trace)}}
            harness.scenario_from_dict({"link": link, "controller": {"kind": "gcc"}})

    def test_trace_time_beyond_a_day_names_field_and_line(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("t_s,mbps\n0,1\n1e303,4\n")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "trace", "path": str(trace)}},
            "controller": {"kind": "gcc"},
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == ("", (
            f"l4sim: error: link.capacity.path: {trace}:3: t_s: must be from 0.0 to 86400.0,"
            " got 1e+303\n"
        ))  # fmt: skip

    def test_trace_that_is_not_utf8_names_field_and_file(self, tmp_path, capsys):
        # The bad byte lies past the text the first read decodes. The
        # decoder's own message named no file.
        trace = tmp_path / "t.csv"
        rows = b"".join(b"%d,1\n" % t for t in range(2_000))
        trace.write_bytes(b"t_s,mbps\n" + rows + b"9\xe9,1\n")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": {"kind": "trace", "path": str(trace)}},
            "controller": {"kind": "gcc"},
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == ("", (
            f"l4sim: error: link.capacity.path: {trace}: not UTF-8 text"
            " (invalid continuation byte)\n"
        ))  # fmt: skip

    @pytest.mark.parametrize(
        "capacity, key, rate",
        [
            ({"kind": "constant", "mbps": 1e-310}, "mbps", "1e-310"),
            ({"kind": "constant", "mbps": 5e-324}, "mbps", "5e-324"),
            ({"kind": "square", "low_mbps": 1e-320, "high_mbps": 4, "half_period_s": 1},
             "low_mbps", "1e-320"),
            ({"kind": "constant", "mbps": math.nextafter(0.001, 0.0)}, "mbps",
             "0.0009999999999999998"),
        ],
        ids=["constant-1e-310", "constant-5e-324", "square-low-1e-320", "constant-bound"],
    )  # fmt: skip
    def test_capacity_below_1_kbps_names_field(self, tmp_path, capsys, capacity, key, rate):
        # 1,200 bytes at the first three rates took longer than a float
        # holds, in microseconds, before rates were bounded.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "link": {"capacity": capacity}, "controller": {"kind": "gcc"}, "duration_s": 2
        }))  # fmt: skip
        assert run_cli("run", "--scenario", str(path)) == 1
        assert capsys.readouterr() == (
            "", f"l4sim: error: link.capacity.{key}: must be from 0.001 to 100000.0, got {rate}\n"
        )

    def test_tiny_high_rate_runs_as_a_larger_tiny_one(self, tmp_path):
        # Packets sent in the first, low half period arrive; none served in
        # the high half does, at the slowest capacity (1,200 bytes take
        # 9.6 s) as at twice that rate. Only utilization, which divides by
        # the mean capacity, differs.
        outputs = []
        for high in (0.001, 0.002):
            path = tmp_path / f"{high}.json"
            path.write_text(json.dumps({
                "link": {"capacity": {"kind": "square", "low_mbps": 2.5, "high_mbps": high,
                                      "half_period_s": 1}},
                "controller": {"kind": "gcc"},
                "duration_s": 3,
            }))  # fmt: skip
            out = tmp_path / f"{high}.csv"
            assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                (row,) = csv.DictReader(fh)
            mean_mbps = (2 * 2.5 + high) / 3
            assert float(row.pop("bandwidth_utilization")) == float(row["quality_mbps"]) / mean_mbps
            outputs.append(row)
        assert outputs[0] == outputs[1]

    def test_missing_file(self, capsys):
        assert run_cli("run", "--scenario", "/nope/missing.json") == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_temporary_directory_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        # The timeline's rows go to a temporary file while the run lasts.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        unraisable = []  # errors in finalizers, which print and are ignored
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        timeline = tmp_path / "timeline.csv"
        argv = ["--scenario", "case1", "--controller", "gcc", "--duration", "1"]
        assert run_cli("run", *argv, "--timeline", str(timeline)) == 1
        assert capsys.readouterr().err == (
            "l4sim: error: the timeline needs a writable temporary directory, and no file"
            f" can be made in {tmp_path / 'missing'}: No such file or directory\n"
        )
        assert unraisable == []
        assert not timeline.exists()

    def test_unknown_controller_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--scenario", "case1", "--controller", "bbr")
        assert exc.value.code == 2

    def test_prints_metrics_without_out(self, capsys):
        assert run_cli(
            "run", "--scenario", "case1", "--controller", "l4s-cc", "--duration", "2"
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("rtt_max_ms,")


class TestCompare:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            "compare",
            "--cases", "case1",
            "--controllers", "gcc,l4s-cc",
            "--seeds", "2",
            "--duration", "2",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["case"], r["controller"]) for r in rows] == [
            ("case1", "gcc"),
            ("case1", "l4s-cc"),
        ]
        assert all(r["seed_count"] == "2" for r in rows)

    def test_text_format(self, capsys):
        code = run_cli(
            "compare",
            "--cases", "case1",
            "--controllers", "l4s-cc",
            "--seeds", "1",
            "--duration", "2",
            "--format", "table",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "l4s-cc" in out and "case1" in out

    def test_bad_case_fails(self, capsys):
        assert run_cli(
            "compare", "--cases", "case99", "--controllers", "gcc", "--seeds", "1"
        ) == 1
        assert "case99" in capsys.readouterr().err

    def test_unknown_controller_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--cases", "case1", "--controllers", "gcc,bbr")
        assert exc.value.code == 2
        assert "--controllers: expected one of" in capsys.readouterr().err

    def test_bad_seed_count(self, capsys):
        assert run_cli(
            "compare", "--cases", "case1", "--controllers", "gcc", "--seeds", "0"
        ) == 1
        assert capsys.readouterr().err == "l4sim: error: --seeds: expected at least one value\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_fails(self, tmp_path, capsys, workers):
        out = tmp_path / "table.csv"
        code = run_cli(
            "compare", "--cases", "case1", "--controllers", "gcc", "--seeds", "1",
            "--workers", workers, "--out", str(out),
        )  # fmt: skip
        assert code == 1
        err = capsys.readouterr().err
        assert f"l4sim: error: --workers: must be at least 1, got {workers}\n" in err
        assert not out.exists()

    def test_more_workers_than_cpus_fails_before_any_process_starts(
        self, tmp_path, capsys, monkeypatch
    ):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "table.csv"
        code = run_cli(
            "compare", "--cases", "case1", "--controllers", "gcc", "--seeds", "1",
            "--workers", "5000", "--out", str(out),
        )  # fmt: skip
        assert code == 1
        err = capsys.readouterr().err
        assert "l4sim: error: --workers: must be at most the CPU count, 2, got 5000\n" in err
        assert not out.exists()


class TestInputsCheckedBeforeAnyRun:
    """`compare` builds every job's scenario before its first run, so a bad
    input fails with the flag or field it came from, and no worker process
    starts."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--cases", ",", "--cases: expected at least one value"),
            ("--cases", "case1,case99", "--cases: unknown preset 'case99'; choose one of case1,"),
            ("--controllers", ",", "--controllers: expected at least one value"),
            ("--duration", "-1", "duration_s: must be from 1e-06 to 86400.0, got -1.0"),
            ("--duration", "1e-9", "duration_s: must be from 1e-06 to 86400.0, got 1e-09"),
        ],
    )
    def test_bad_input_fails_before_any_run(
        self, tmp_path, monkeypatch, capsys, flag, value, message
    ):
        import concurrent.futures

        from l4sim import harness

        def started(*args, **kwargs):
            raise AssertionError("a process pool or a run was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started)
        monkeypatch.setattr(harness, "run_scenario", started)
        args = {"--cases": "case1,case3", "--controllers": "gcc,l4s-gcc", "--duration": "2"}
        args[flag] = value
        out = tmp_path / "table.csv"
        argv = [item for pair in args.items() for item in pair]
        code = run_cli("compare", *argv, "--seeds", "2", "--workers", "2", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"l4sim: error: {message}")
        assert not out.exists()


class TestUnwritableOutput:
    """Every output file that cannot be written is reported the same way."""

    RUN = ("run", "--scenario", "case1", "--controller", "gcc", "--duration", "1")
    COMPARE = ("compare", "--cases", "case1", "--controllers", "gcc", "--seeds", "1",
               "--duration", "1")  # fmt: skip
    NORMALIZE = ("normalize-trace", "--in", str(BUNDLED_TRACE))

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (RUN, "--out"),
            (RUN, "--timeline"),
            (COMPARE + ("--format", "csv"), "--out"),
            (COMPARE + ("--format", "table"), "--out"),
            (NORMALIZE, "--out"),
        ],
        ids=["metrics", "timeline", "comparison-csv", "comparison-table", "normalized-trace"],
    )
    def test_names_the_path(self, tmp_path, capsys, argv, flag):
        path = str(tmp_path / "missing" / "out.csv")
        assert run_cli(*argv, flag, path) == 1
        assert capsys.readouterr().err.startswith(
            f"l4sim: error: cannot write output file {path!r}: [Errno 2] No such file"
        )


class TestNormalizeTrace:
    def test_normalizes_file(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_trace_csv(str(raw), [(0, 10.0), (1_000_000, 30.0), (2_000_000, 50.0)])
        out = tmp_path / "norm.csv"
        assert run_cli(
            "normalize-trace", "--in", str(raw), "--out", str(out), "--max-mbps", "5"
        ) == 0
        assert [r for _, r in load_trace_csv(str(out))] == [0.0, 2.5, 5.0]

    def test_non_finite_rate_fails(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("t_s,mbps\n0,1\n1,inf\n")
        out = tmp_path / "norm.csv"
        assert run_cli("normalize-trace", "--in", str(raw), "--out", str(out)) == 1
        assert f"{raw}:3: non-finite rate inf" in capsys.readouterr().err
        assert not out.exists()

    def test_time_beyond_a_day_fails(self, tmp_path, capsys):
        raw = tmp_path / "t.csv"
        raw.write_text("t_s,mbps\n0,1\n1e303,4\n")
        out = tmp_path / "norm.csv"
        assert run_cli("normalize-trace", "--in", str(raw), "--out", str(out)) == 1
        assert capsys.readouterr() == (
            "", f"l4sim: error: {raw}:3: t_s: must be from 0.0 to 86400.0, got 1e+303\n"
        )
        assert not out.exists()

    def test_trace_that_is_not_utf8_fails_naming_it(self, tmp_path, capsys):
        raw = tmp_path / "bad.csv"
        raw.write_bytes(b"\xff\xfet_s,mbps\n0,1\n")
        out = tmp_path / "norm.csv"
        assert run_cli("normalize-trace", "--in", str(raw), "--out", str(out)) == 1
        assert capsys.readouterr() == (
            "", f"l4sim: error: {raw}: not UTF-8 text (invalid start byte)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("max_mbps", ["nan", "inf", "-1", "0", "1e303"])
    def test_bad_max_mbps_fails(self, tmp_path, capsys, max_mbps):
        raw = tmp_path / "raw.csv"
        write_trace_csv(str(raw), [(0, 10.0), (1_000_000, 30.0)])
        out = tmp_path / "norm.csv"
        code = run_cli(
            "normalize-trace", "--in", str(raw), "--out", str(out), "--max-mbps", max_mbps
        )
        assert code == 1
        assert "max_mbps: must be from 0.001 to 100000.0, got " in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_trace_fails(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_trace_csv(str(raw), [(0, 2.0), (1_000_000, 2.0)])
        out = tmp_path / "norm.csv"
        assert run_cli("normalize-trace", "--in", str(raw), "--out", str(out)) == 1
        assert "degenerate" in capsys.readouterr().err
        assert not out.exists()
