import json

import pytest

from l4sim.cli import main
from l4sim.harness import parse_table_csv
from l4sim.netem import load_trace_csv, write_trace_csv


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

    def test_missing_file(self, capsys):
        assert run_cli("run", "--scenario", "/nope/missing.json") == 1
        assert "error" in capsys.readouterr().err

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
        table = parse_table_csv(str(out))
        assert [(r.case, r.controller) for r in table.rows] == [
            ("case1", "gcc"),
            ("case1", "l4s-cc"),
        ]
        assert all(r.seed_count == 2 for r in table.rows)

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

    def test_bad_seed_count(self, capsys):
        assert run_cli(
            "compare", "--cases", "case1", "--controllers", "gcc", "--seeds", "0"
        ) == 1


class TestNormalizeTrace:
    def test_normalizes_file(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_trace_csv(str(raw), [(0, 10.0), (1_000_000, 30.0), (2_000_000, 50.0)])
        out = tmp_path / "norm.csv"
        assert run_cli(
            "normalize-trace", "--in", str(raw), "--out", str(out), "--max-mbps", "5"
        ) == 0
        assert [r for _, r in load_trace_csv(str(out))] == [0.0, 2.5, 5.0]

    def test_degenerate_trace_fails(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        write_trace_csv(str(raw), [(0, 2.0), (1_000_000, 2.0)])
        assert run_cli("normalize-trace", "--in", str(raw), "--out", "/tmp/x.csv") == 1
        assert "degenerate" in capsys.readouterr().err
