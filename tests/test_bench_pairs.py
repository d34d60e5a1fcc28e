"""The summary that `scripts/bench_pairs.py` prints for parent/change pairs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {
    "sim_speed": {"better": "higher", "bound": 0.25},
    "setup_s": {"better": "lower", "bound": 0.25},
}


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
    summary = bench_pairs.summarize(pairs, SPECS)
    assert summary["pairs"] == 3
    assert summary["metrics"]["sim_speed"]["change_wins"] == 1
    assert summary["metrics"]["setup_s"]["change_wins"] == 1


def test_medians_quartiles_and_ratio():
    parent = [100.0, 104.0, 96.0, 98.0, 102.0]
    change = [130.0, 126.0, 124.0, 128.0, 122.0]
    pairs = [(result(p, 0.05), result(c, 0.05)) for p, c in zip(parent, change)]
    row = bench_pairs.summarize(pairs, SPECS)["metrics"]["sim_speed"]
    assert row["parent"] == {"median": 100.0, "q1": 97.0, "q3": 103.0}
    assert row["change"] == {"median": 126.0, "q1": 123.0, "q3": 129.0}
    assert row["change_over_parent"] == pytest.approx(1.26)
    assert row["change_wins"] == 5
    assert row["better"] == "higher"


def test_raw_values_and_python_version_are_kept():
    parent, change = [100.0, 104.0, 96.0], [130.0, 126.0, 124.0]
    pairs = [(result(p, 0.05), result(c, 0.04)) for p, c in zip(parent, change)]
    summary = json.loads(json.dumps(bench_pairs.summarize(pairs, SPECS)))
    assert summary["python"] == sys.version
    assert summary["metrics"]["sim_speed"]["values"] == {"parent": parent, "change": change}
    assert summary["metrics"]["setup_s"]["values"] == {"parent": [0.05] * 3, "change": [0.04] * 3}


def test_one_pair_and_correct_counts():
    pairs = [(result(100.0, 0.05, correct=False), result(90.0, 0.05))]
    summary = bench_pairs.summarize(pairs, SPECS)
    assert summary["correct"] == {"parent": 0, "change": 1}
    row = summary["metrics"]["sim_speed"]
    assert row["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert row["change_wins"] == 0


def test_directions_come_from_the_benchmark_file():
    specs = bench_pairs.metric_specs(SCRIPT.parents[1] / "BENCHMARK.json")
    assert specs["sim_speed"]["better"] == "higher"
    assert specs["peak_rss_mb"]["better"] == "lower"
    assert specs["peak_rss_mb"]["bound"] == 0.1


def sim_speed_verdict(parent, change):
    pairs = [(result(p, 0.05), result(c, 0.05)) for p, c in zip(parent, change)]
    return bench_pairs.summarize(pairs, SPECS)["metrics"]["sim_speed"]["verdict"]


def peak_rss_verdict(parent, change):
    specs = {"peak_rss_mb": {"better": "lower", "bound": 0.1}}
    pairs = [
        ({"correct": True, "metrics": {"peak_rss_mb": {"value": p}}},
         {"correct": True, "metrics": {"peak_rss_mb": {"value": c}}})
        for p, c in zip(parent, change)
    ]  # fmt: skip
    return bench_pairs.summarize(pairs, specs)["metrics"]["peak_rss_mb"]["verdict"]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parents_quartiles():
    # the parent's quartiles are 99.375 and 100.625: a gap of 1.25
    ahead = [p + 3.0 for p in PARENT]
    assert sim_speed_verdict(PARENT, ahead) == "gain"
    one_loss = ahead[:9] + [PARENT[9] - 1.0]  # 9 of 10 pairs still won
    assert sim_speed_verdict(PARENT, one_loss) == "gain"
    two_losses = ahead[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert sim_speed_verdict(PARENT, two_losses) == "ok"
    inside_the_spread = [p + 0.5 for p in PARENT]  # wins every pair, gap 0.5
    assert sim_speed_verdict(PARENT, inside_the_spread) == "ok"


def test_regressed_when_the_median_is_worse_by_more_than_the_bound():
    assert sim_speed_verdict(PARENT, [p * 0.74 for p in PARENT]) == "regressed"
    assert sim_speed_verdict(PARENT, [p * 0.76 for p in PARENT]) == "ok"


def test_a_peak_memory_regression_like_29_4_to_33_4_mb_is_caught():
    parent = [29.40, 29.41, 29.39, 29.40, 29.42]
    assert peak_rss_verdict(parent, [33.40, 33.41, 33.39, 33.42, 33.40]) == "regressed"
    assert peak_rss_verdict(parent, [29.39, 29.40, 29.41, 29.40, 29.39]) == "ok"


def test_unresolved_when_the_spread_is_wider_than_the_bound():
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 65.0, 135.0, 100.0]
    assert sim_speed_verdict(PARENT, noisy) == "unresolved"  # the change's spread
    assert sim_speed_verdict(noisy, PARENT) == "unresolved"  # the parent's spread
    # a wide spread is resolved when every change run beats every parent run
    assert sim_speed_verdict(noisy, [v + 100.0 for v in noisy]) == "gain"
    # ... and then reads `ok` when the gap is still inside the parent's
    # quartiles (68.75 to 131.25 against a gap of 45.5)
    assert sim_speed_verdict(noisy, [141.0 + k for k in range(10)]) == "ok"


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


def test_out_writes_the_printed_line_with_each_sides_commit(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run(["git", "init", "-q", str(parent)], check=True)
    subprocess.run(
        [*git, "-C", str(parent), "commit", "-q", "--allow-empty", "-m", "parent"], check=True
    )
    head = subprocess.run(
        ["git", "-C", str(parent), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    (parent / "sub").mkdir()  # inside the parent's work tree, not its top
    speeds = {parent: 100.0, change: 120.0}
    runs = []

    def fake_run_once(checkout, workload, seed):
        runs.append((checkout, workload, seed))
        value = speeds[checkout]
        return {
            "correct": True,
            "metrics": {
                name: {"value": value}
                for name in ("sim_speed", "pkt_rate", "peak_rss_mb", "setup_s")
            },
        }

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "pairs.json"
    argv = [str(parent), str(change), "--workload", "w", "--seed", "3", "--pairs", "2"]
    assert bench_pairs.main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == printed
    summary = json.loads(printed)
    assert summary["commits"] == {"parent": head, "change": None}
    assert summary["workload"] == "w" and summary["seed"] == 3 and summary["pairs"] == 2
    values = summary["metrics"]["sim_speed"]["values"]
    assert values == {"parent": [100.0] * 2, "change": [120.0] * 2}
    assert runs == [(parent, "w", 3), (change, "w", 3), (change, "w", 3), (parent, "w", 3)]
    assert bench_pairs.commit_of(parent / "sub") is None
