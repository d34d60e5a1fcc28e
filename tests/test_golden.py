"""Golden-digest lock: the outputs of every preset, controller and seed pair
must stay byte-identical across commits.

Each run is a short preset run with timeline recording. Its digests are the
SHA-256 of the metrics CSV and the timeline CSV it writes (the files of
`l4sim run --out` and `--timeline`), compared against the checked-in
`golden_digests.json`. That file changes only with a deliberate change of
simulated behaviour or output format; regenerate it by running this module
as a script (`PYTHONPATH=src python tests/test_golden.py`). The file also
records the interpreter and platform it was written with, and a mismatch
names them next to the running ones.

The preset runs never fill a 375 kB queue and use one ECN mode each, so two
further groups lock the branches they miss: case3 runs behind a 6 kB queue
(overflow drops, DropTail in the engine), and a seeded call sequence on each
queue discipline with mixed traffic (coupled marks, classic random drops,
the time-shifted scheduler with both queues occupied). A group of longer runs
reaches what no 10 s run does: case2 across the square wave's capacity steps
at 10 s and 20 s, case3 `gcc` long enough for classic random drops and their
repairs, at two seeds that differ there, and the three trendline controllers
on case4c's jitter for 120 s at seed 2, where every `rate` row of the
timeline follows the delay fit. A last group locks the two output formats of
`l4sim compare`, at two seeds and at four. One more test re-checks some of
these with Python 3.12's float `sum` emulated.
"""

import dataclasses
import hashlib
import json
import math
import platform
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from l4sim import cc, harness
from l4sim.aqm import DropTail, DropTailConfig, DualPi2, DualPi2Config
from l4sim.cc import ControllerKind
from l4sim.cli import main as cli_main
from l4sim.core import EcnCodepoint, Packet
from l4sim.harness import PRESET_CASES, emit_metrics_csv, preset_scenario
from l4sim.sim import Scenario, run_scenario

DIGEST_PATH = Path(__file__).resolve().parent / "golden_digests.json"
DURATION_S = 10.0
SEEDS = (1, 2)
MATRIX = [
    (case, kind, seed) for case in PRESET_CASES for kind in ControllerKind for seed in SEEDS
]


def run_key(case: str, kind: ControllerKind, seed: int) -> str:
    return f"{case}/{kind.value}/{seed}"


def run_digests(case: str, kind: ControllerKind, seed: int) -> dict[str, str]:
    return scenario_digests(preset_scenario(case, kind, seed=seed, duration_s=DURATION_S))


def scenario_digests(scenario: Scenario) -> dict[str, str]:
    """SHA-256 of the metrics and timeline CSV files the run writes."""
    metrics, log = run_scenario(scenario, timeline=True)
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path, timeline_path = Path(tmp, "metrics.csv"), Path(tmp, "timeline.csv")
        emit_metrics_csv(metrics, str(metrics_path))
        log.to_csv(str(timeline_path))
        return {
            "metrics": hashlib.sha256(metrics_path.read_bytes()).hexdigest(),
            "timeline": hashlib.sha256(timeline_path.read_bytes()).hexdigest(),
        }


def load_digests() -> dict:
    with open(DIGEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def interpreter() -> dict[str, str]:
    """The running interpreter and platform, as `write_digests` records them."""
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
    }


def assert_golden(digests, group: str, key: str) -> None:
    """`digests` equal the stored ones of `group`/`key`. A mismatch names the
    interpreter the stored digests were written with and the running one."""
    stored = load_digests()
    running = interpreter()
    assert digests == stored[group][key], (
        f"{group}/{key} differs from its golden digest, recorded with"
        f" {stored.get('python')} on {stored.get('platform')}; running"
        f" {running['python']} on {running['platform']}"
    )


def test_digest_file_covers_the_matrix():
    stored = load_digests()
    assert stored["duration_s"] == DURATION_S
    assert set(stored["runs"]) == {run_key(*triple) for triple in MATRIX}


def test_a_mismatch_names_the_recorded_and_the_running_interpreter():
    stored = load_digests()
    with pytest.raises(AssertionError) as mismatch:
        assert_golden("0" * 64, "aqm_sequences", "droptail")
    message = str(mismatch.value)
    for name in (stored["python"], stored["platform"], *interpreter().values()):
        assert name in message


@pytest.mark.parametrize(
    "case, kind, seed", MATRIX, ids=[run_key(*triple) for triple in MATRIX]
)
def test_outputs_match_golden_digests(case, kind, seed):
    assert_golden(run_digests(case, kind, seed), "runs", run_key(case, kind, seed))


# -- small-queue runs: overflow drops and DropTail in the engine --------------

SMALL_QUEUE_BYTES = 6_000
SMALL_QUEUE_AQMS = {
    "droptail": DropTailConfig(queue_limit_bytes=SMALL_QUEUE_BYTES),
    "dualpi2": DualPi2Config(queue_limit_bytes=SMALL_QUEUE_BYTES),
}
SMALL_QUEUE_MATRIX = [
    (kind, aqm) for kind in (ControllerKind.GCC, ControllerKind.L4S_GCC) for aqm in SMALL_QUEUE_AQMS
]


def small_queue_key(kind: ControllerKind, aqm: str) -> str:
    return f"case3/{kind.value}/1/{aqm}-{SMALL_QUEUE_BYTES}"


def small_queue_digests(kind: ControllerKind, aqm: str) -> dict[str, str]:
    scenario = preset_scenario("case3", kind, seed=1, duration_s=DURATION_S)
    return scenario_digests(dataclasses.replace(scenario, aqm=SMALL_QUEUE_AQMS[aqm]))


@pytest.mark.parametrize(
    "kind, aqm", SMALL_QUEUE_MATRIX, ids=[small_queue_key(*pair) for pair in SMALL_QUEUE_MATRIX]
)
def test_small_queue_outputs_match_golden_digests(kind, aqm):
    assert_golden(small_queue_digests(kind, aqm), "small_queue_runs", small_queue_key(kind, aqm))


# -- long runs: capacity steps, classic random drops and repairs --------------

LONG_RUNS = (
    ("case2", ControllerKind.GCC, 1, 30.0),
    ("case2", ControllerKind.L4S_GCC, 1, 30.0),
    ("case3", ControllerKind.GCC, 1, 120.0),
    ("case3", ControllerKind.GCC, 2, 120.0),
    ("case4c", ControllerKind.GCC, 2, 120.0),
    ("case4c", ControllerKind.SENSITIVE_GCC, 2, 120.0),
    ("case4c", ControllerKind.L4S_GCC, 2, 120.0),
)


def long_run_key(case: str, kind: ControllerKind, seed: int, duration_s: float) -> str:
    return f"{case}/{kind.value}/{seed}/{duration_s:g}s"


def long_run_digests(case: str, kind: ControllerKind, seed: int, duration_s: float) -> dict:
    return scenario_digests(preset_scenario(case, kind, seed=seed, duration_s=duration_s))


@pytest.mark.parametrize(
    "case, kind, seed, duration_s", LONG_RUNS, ids=[long_run_key(*run) for run in LONG_RUNS]
)
def test_long_run_outputs_match_golden_digests(case, kind, seed, duration_s):
    digests = long_run_digests(case, kind, seed, duration_s)
    assert_golden(digests, "long_runs", long_run_key(case, kind, seed, duration_s))


def test_long_case3_seeds_differ():
    """The two case3 seeds lock different runs, not one run twice."""
    stored = load_digests()["long_runs"]
    assert stored[long_run_key(*LONG_RUNS[2])] != stored[long_run_key(*LONG_RUNS[3])]


# -- AQM call sequences: every enqueue, dequeue and PI branch -----------------

AQM_KINDS = ("dualpi2", "droptail")
AQM_STEPS = 20_000
# Cycles of 2 s overload (arrivals outpace service, the classic delay drives
# p_base up) and 1 s light load (short sojourns, so marks are coupled ones).
AQM_CYCLE_US = 3_000_000
AQM_OVERLOAD_US = 2_000_000
# Times on a 100 us grid, so that the scheduler meets exact ties.
AQM_TICK_US = 100
AQM_ECNS = (
    EcnCodepoint.ECT1, EcnCodepoint.ECT1, EcnCodepoint.CE, EcnCodepoint.NOT_ECT, EcnCodepoint.NOT_ECT
)


def aqm_sequence(kind: str) -> tuple[str, Counter]:
    """Drive one queue discipline through a seeded call sequence.

    Returns the SHA-256 of its transcript (every call, returned seq and ECN,
    observer event, `p_base` and the audit totals) and the count of each
    branch reached. Packets carry their enqueue time as `sent_at`, so a
    mark's sojourn tells a step mark from a coupled one, and a packet that
    arrived CE and leaves past the step threshold is a CE pass-through.
    """
    ops = random.Random(1)
    transcript: list[str] = []
    counts: Counter = Counter()
    step_threshold = DualPi2Config().l4s_step_threshold_us
    is_l: dict[int, bool] = {}
    arrived_ce: set[int] = set()
    queued = {True: 0, False: 0}  # occupancy by "is low-latency"

    def observer(event: str, packet: Packet, now: int) -> None:
        transcript.append(f"{event} {packet.seq} {packet.ecn.name} {now}")
        counts[event] += 1
        if event == "mark":
            sojourn = now - packet.sent_at
            counts["step mark" if sojourn > step_threshold else "coupled mark"] += 1
        elif event == "drop":
            queued[False] -= 1

    if kind == "dualpi2":
        config = DualPi2Config(queue_limit_bytes=SMALL_QUEUE_BYTES)
        aqm = DualPi2(config, random.Random(1), observer)
        next_update = config.t_update_us
    else:
        aqm = DropTail(DropTailConfig(queue_limit_bytes=SMALL_QUEUE_BYTES), observer)
        next_update = None

    def totals() -> str:
        return (
            f"{aqm.queued_packets()} {aqm.total_dropped()} {aqm.total_marked()} "
            f"{aqm.conservation_errors()}"
        )

    now = 0
    for seq in range(AQM_STEPS):
        overload = now % AQM_CYCLE_US < AQM_OVERLOAD_US
        now += ops.randrange(0, 2_000 if overload else 600, AQM_TICK_US)
        if next_update is not None and now >= next_update:
            aqm.pi2_update(now)
            transcript.append(f"update {now} {aqm.p_base!r} {totals()}")
            next_update = now + config.t_update_us
        r = ops.random()
        if r < (0.6 if overload else 0.5):
            ecn = ops.choice(AQM_ECNS)
            size = ops.randrange(100, 1501)
            is_l[seq] = ecn in (EcnCodepoint.ECT1, EcnCodepoint.CE)
            if ecn is EcnCodepoint.CE:
                arrived_ce.add(seq)
            transcript.append(f"enqueue {seq} {ecn.name} {size} {now}")
            overflows = counts["overflow"]
            aqm.enqueue(Packet(seq, size, ecn, now, frame_id=0, frame_packet_count=1), now)
            if counts["overflow"] == overflows:
                queued[is_l[seq]] += 1
        elif r < (0.7 if overload else 1.0):
            both = queued[True] > 0 and queued[False] > 0
            packet = aqm.dequeue(now)
            if packet is None:
                transcript.append(f"dequeue {now} None")
                continue
            transcript.append(f"dequeue {now} {packet.seq} {packet.ecn.name}")
            queued[is_l[packet.seq]] -= 1
            if packet.seq in arrived_ce and now - packet.sent_at > step_threshold:
                counts["ce pass-through"] += 1
            if both:
                counts["l over c" if is_l[packet.seq] else "c over l"] += 1
    transcript.append(f"end {now} {totals()}")
    return hashlib.sha256("\n".join(transcript).encode("utf-8")).hexdigest(), counts


@pytest.mark.parametrize("kind", AQM_KINDS)
def test_aqm_sequence_matches_golden_digest(kind):
    digest, _ = aqm_sequence(kind)
    assert_golden(digest, "aqm_sequences", kind)


def test_aqm_sequences_reach_every_branch():
    _, counts = aqm_sequence("dualpi2")
    for branch in (
        "overflow", "drop", "step mark", "coupled mark", "ce pass-through", "l over c", "c over l"
    ):
        assert counts[branch] > 0, branch
    _, counts = aqm_sequence("droptail")
    for branch in ("overflow", "l over c", "c over l"):
        assert counts[branch] > 0, branch


# -- comparison table: `l4sim compare` CSV and text -----------------------------

COMPARISON_CASES = "case1,case3,case4c"
COMPARISON_SEEDS = 2
# With two or three seeds every mean and stdev of these runs is the same
# under Python 3.12's compensated float `sum`; with four seeds two of the
# twelve rows differ in their last digits, so that table locks the order in
# which the comparison adds floats.
SUMMATION_SEEDS = 4
COMPARISON_FORMATS = ("csv", "table")


def comparison_digest(fmt: str, seeds: int = COMPARISON_SEEDS) -> str:
    """SHA-256 of the file `l4sim compare --format fmt --out` writes."""
    controllers = ",".join(kind.value for kind in ControllerKind)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, f"compare.{fmt}")
        code = cli_main([
            "compare", "--cases", COMPARISON_CASES, "--controllers", controllers,
            "--seeds", str(seeds), "--duration", str(DURATION_S),
            "--format", fmt, "--out", str(out),
        ])  # fmt: skip
        assert code == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", COMPARISON_FORMATS)
def test_comparison_matches_golden_digest(fmt):
    assert_golden(comparison_digest(fmt), "comparison", fmt)


@pytest.mark.parametrize("fmt", COMPARISON_FORMATS)
def test_four_seed_comparison_matches_golden_digest(fmt):
    assert_golden(comparison_digest(fmt, SUMMATION_SEEDS), "comparison_4_seeds", fmt)


# -- Python 3.12's float `sum` ---------------------------------------------------


def compensated_sum(values, start=0):
    """The builtin `sum` as Python 3.12 computes it: floats are added with
    Neumaier's compensated summation, ints exactly, as before."""
    total, compensation = start, 0.0
    for x in values:
        if isinstance(total, float) and isinstance(x, float):
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        else:
            total = total + x
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total


def test_digests_hold_under_compensated_float_sum(monkeypatch):
    # The builtin `sum` adds floats with a new algorithm from Python 3.12
    # on. No output path calls it on floats (DECISIONS.md entry 14), so
    # these runs change no digest under it; a change that makes one depend
    # on the summation algorithm fails here.
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    if sys.version_info < (3, 12):
        assert sum([1e16, 1.0, -1e16]) == 0.0  # the patch changes something
    monkeypatch.setattr(cc, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(harness, "sum", compensated_sum, raising=False)
    for case in PRESET_CASES:
        for kind in (ControllerKind.GCC, ControllerKind.SENSITIVE_GCC, ControllerKind.L4S_GCC):
            assert_golden(run_digests(case, kind, 1), "runs", run_key(case, kind, 1))
    for fmt in COMPARISON_FORMATS:
        assert_golden(comparison_digest(fmt), "comparison", fmt)
        assert_golden(comparison_digest(fmt, SUMMATION_SEEDS), "comparison_4_seeds", fmt)


def write_digests() -> None:
    data = {
        **interpreter(),
        "duration_s": DURATION_S,
        "runs": {run_key(*triple): run_digests(*triple) for triple in MATRIX},
        "small_queue_runs": {
            small_queue_key(*pair): small_queue_digests(*pair) for pair in SMALL_QUEUE_MATRIX
        },
        "long_runs": {long_run_key(*run): long_run_digests(*run) for run in LONG_RUNS},
        "aqm_sequences": {kind: aqm_sequence(kind)[0] for kind in AQM_KINDS},
        "comparison": {fmt: comparison_digest(fmt) for fmt in COMPARISON_FORMATS},
        "comparison_4_seeds": {
            fmt: comparison_digest(fmt, SUMMATION_SEEDS) for fmt in COMPARISON_FORMATS
        },
    }
    with open(DIGEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_digests()
