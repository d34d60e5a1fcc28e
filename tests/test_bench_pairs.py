"""The summary that `scripts/bench_pairs.py` prints for parent/change pairs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"sim_speed": "higher", "setup_s": "lower"}


def result(sim_speed, setup_s, correct=True):
    return {
        "correct": correct,
        "metrics": {"sim_speed": {"value": sim_speed}, "setup_s": {"value": setup_s}},
    }


def test_wins_follow_each_metrics_direction():
    pairs = [
        (result(100.0, 0.050), result(120.0, 0.060)),
        (result(110.0, 0.050), result(105.0, 0.040)),
        (result(100.0, 0.050), result(100.0, 0.050)),  # a tie is no win
    ]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    assert summary["pairs"] == 3
    assert summary["metrics"]["sim_speed"]["change_wins"] == 1
    assert summary["metrics"]["setup_s"]["change_wins"] == 1


def test_medians_quartiles_and_ratio():
    parent = [100.0, 104.0, 96.0, 98.0, 102.0]
    change = [130.0, 126.0, 124.0, 128.0, 122.0]
    pairs = [(result(p, 0.05), result(c, 0.05)) for p, c in zip(parent, change)]
    row = bench_pairs.summarize(pairs, DIRECTIONS)["metrics"]["sim_speed"]
    assert row["parent"] == {"median": 100.0, "q1": 97.0, "q3": 103.0}
    assert row["change"] == {"median": 126.0, "q1": 123.0, "q3": 129.0}
    assert row["change_over_parent"] == pytest.approx(1.26)
    assert row["change_wins"] == 5
    assert row["better"] == "higher"


def test_one_pair_and_correct_counts():
    pairs = [(result(100.0, 0.05, correct=False), result(90.0, 0.05))]
    summary = bench_pairs.summarize(pairs, DIRECTIONS)
    assert summary["correct"] == {"parent": 0, "change": 1}
    row = summary["metrics"]["sim_speed"]
    assert row["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert row["change_wins"] == 0


def test_directions_come_from_the_benchmark_file():
    directions = bench_pairs.metric_directions(SCRIPT.parents[1] / "BENCHMARK.json")
    assert directions["sim_speed"] == "higher"
    assert directions["peak_rss_mb"] == "lower"


@pytest.mark.parametrize("cached", bench_pairs.SIDES)
def test_a_bytecode_cache_in_either_checkout_stops_the_script(
    cached, tmp_path, monkeypatch, capsys
):
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        checkout.mkdir()
    (checkouts[cached] / "src" / "l4sim" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(checkouts["parent"]), str(checkouts["change"]), "--workload", "w"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    for side, checkout in checkouts.items():
        assert (str(checkout / "src" / "l4sim" / "__pycache__") in err) == (side == cached)


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    seen = {}

    def fake_run(command, **kwargs):
        seen.update(kwargs)
        line = json.dumps({"correct": True, "metrics": {}})
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(tmp_path, "jitter-dense", 1)["correct"] is True
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
