#!/usr/bin/env python3
"""l4sim benchmark: simulated time per host second, packet rate, peak memory
and set-up time, with every run checked for correctness.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace-mix --seed 3 --seconds 25 --trace 0

With `--trace 0` the end-to-end metrics are measured with no
instrumentation. With `--trace 1` untraced and traced rounds alternate and
the per-layer metrics come from the traced ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The line
before it gives each metric's median, quartiles and sample count.

`--write-reference` re-records perfbench/reference.json at the default seed;
do that only for a deliberate change of the simulator's outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

from checks import diff_fields, load_reference, write_reference  # noqa: E402
from hostspeed import at_reference_speed, reference_loop_s  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Lane,
    expected_for_run,
    reference_run,
    run_lane,
)

SETUP_REPEATS = 21
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "sim_speed": "sim_s/s",
    "pkt_rate": "pkt/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> unit. Times are medians over traced rounds; counts are
# per round and must repeat exactly from round to round.
PER_LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.share": "ratio",
    "sim.packets_sent": "count",
    "netem.self_s": "s",
    "netem.share": "ratio",
    "netem.us_per_pkt": "us/pkt",
    "netem.capacity_at.per_pkt": "calls/pkt",
    "aqm.self_s": "s",
    "aqm.share": "ratio",
    "aqm.us_per_pkt": "us/pkt",
    "aqm.marks": "count",
    "aqm.drops": "count",
    "aqm.mark_ratio": "ratio",
    "core.self_s": "s",
    "core.ce_copies": "count",
    "media.source.self_s": "s",
    "media.receiver.self_s": "s",
    "media.share": "ratio",
    "media.packets_built": "count",
    "media.retransmits": "count",
    "media.feedback.calls": "count",
    "cc.self_s": "s",
    "cc.share": "ratio",
    "cc.update.calls": "count",
    "cc.update.us_per_call": "us/call",
    "cc.trendline.calls": "count",
    "harness.setup_s": "s",
    "harness.metrics_s": "s",
    "cli.emit_s": "s",
    "cli.timeline_rows": "count",
    "trace.total_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}
COUNT_METRICS = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "calls/pkt")}


class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {what}: {problem}", file=sys.stderr)
        return not problems


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up seconds from fresh interpreters, one per probe, at reference
    host speed (the host-speed loop runs in this process, around each probe,
    so that the probe's own imports stay cold)."""
    samples = []
    loop_before = reference_loop_s()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        loop_after = reference_loop_s()
        setup_s = float(proc.stdout.strip().splitlines()[-1])
        samples.append(at_reference_speed(setup_s, loop_before, loop_after))
        loop_before = loop_after
    return samples


def import_l4sim() -> None:
    """Import l4sim from this checkout, whatever else is installed."""
    sys.path.insert(0, str(SRC))
    import l4sim
    import l4sim.cli  # noqa: F401

    if Path(l4sim.__file__).resolve().parent != (SRC / "l4sim").resolve():
        raise RuntimeError(f"imported l4sim from {l4sim.__file__}, not from {SRC}")


def reference_outcomes(lanes, seed: int, tally: Tally, label: str) -> dict[str, dict]:
    """Direct, audited runs of every lane at `seed` (untimed)."""
    out = {}
    for lane in lanes:
        try:
            outcome, errors = reference_run(lane, seed, OUT_DIR)
        except Exception:  # a failing run is counted, not fatal
            tally.record(f"{label} {lane.key}", [traceback.format_exc()])
            continue
        if tally.record(f"{label} {lane.key}", errors):
            out[lane.key] = outcome
    return out


def check_stored_reference(workload: str, lanes, seed: int, own: dict, tally: Tally) -> None:
    """Compare the default seed's outcomes with reference.json by field."""
    stored = load_reference()
    if stored["seed"] != DEFAULT_SEED:
        raise RuntimeError("reference.json was not recorded at the default seed")
    expected = stored["workloads"][workload]
    if seed == DEFAULT_SEED:
        observed = own
    else:
        observed = reference_outcomes(lanes, DEFAULT_SEED, tally, "default-seed run")
    for lane in lanes:
        if lane.key in observed:
            problems = diff_fields(expected[lane.key], observed[lane.key])
            tally.record(f"stored reference {lane.key}", problems)


def run_round(lanes, seed: int, reference: dict, tally: Tally) -> list[tuple[float, float]] | None:
    """Each lane once, with the host-speed loop timed between lanes. Returns
    per lane, in lane order, (host seconds, host seconds at reference speed),
    or None when any lane failed: a failed round gives no timing sample."""
    hosts = []
    loop_before = reference_loop_s()
    for lane in lanes:
        what = f"seed {seed} {lane.key}"
        if lane.key not in reference:
            tally.record(what, ["no audited reference for this lane"])
            continue
        try:
            host_s, outcome, errors = run_lane(lane, seed, OUT_DIR)
        except Exception:
            tally.record(what, [traceback.format_exc()])
            continue
        loop_after = reference_loop_s()
        problems = errors + diff_fields(expected_for_run(lane, reference[lane.key]), outcome)
        if tally.record(what, problems):
            hosts.append((host_s, at_reference_speed(host_s, loop_before, loop_after)))
        loop_before = loop_after
    return hosts if len(hosts) == len(lanes) else None


def measure_end_to_end(lanes, seed: int, seconds: float, reference: dict, tally: Tally):
    """Rounds until `seconds` have passed. Each lane's host time at
    reference speed is summarised by its median over rounds, and a rate is
    the lanes' work over the sum of those medians (quartiles likewise). The
    same rates from raw host time are returned as `*_raw`."""
    rounds = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts == 0 or time.perf_counter() < deadline:
        attempts += 1
        gc.collect()
        hosts = run_round(lanes, seed, reference, tally)
        if hosts is not None:
            rounds.append(hosts)
    if not rounds:
        return None
    sim_s = sum(lane.duration_s for lane in lanes)
    sent = sum(reference[lane.key]["sent"] for lane in lanes)
    stats = {}
    for suffix, col in (("", 1), ("_raw", 0)):
        per_lane = [quartiles([hosts[i][col] for hosts in rounds]) for i in range(len(lanes))]
        host = {q: sum(p[q] for p in per_lane) for q in ("median", "q1", "q3")}
        for name, work in (("sim_speed", sim_s), ("pkt_rate", sent)):
            stats[name + suffix] = {
                "median": work / host["median"],
                "q1": work / host["q3"],
                "q3": work / host["q1"],
                "n": len(rounds),
            }
    stats["peak_rss_mb"] = quartiles([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    return stats


def layer_metrics(tracer, reference: dict, lanes) -> dict[str, float]:
    """Per-layer values of one traced round."""
    from tracer import layer_seconds

    summary = tracer.summary()
    layers = layer_seconds(summary)
    total = tracer.top_level_s()
    sent = sum(reference[lane.key]["sent"] for lane in lanes)
    counts = tracer.counts

    def secs(layer: str) -> float:
        return layers.get(layer, 0.0)

    def calls(span: str) -> int:
        return summary.get(span, {}).get("calls", 0)

    if not math.isclose(sum(layers.values()), total, rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError(f"layer self times sum to {sum(layers.values())}, traced total is {total}")
    update_calls = calls("cc.update")
    l_dequeues = counts["aqm.l_dequeues"]
    media_s = secs("media.source") + secs("media.receiver")
    return {
        "sim.self_s": secs("sim"),
        "sim.share": secs("sim") / total,
        "sim.packets_sent": sent,
        "netem.self_s": secs("netem"),
        "netem.share": secs("netem") / total,
        "netem.us_per_pkt": secs("netem") / sent * 1e6,
        "netem.capacity_at.per_pkt": calls("netem.capacity_at") / sent,
        "aqm.self_s": secs("aqm"),
        "aqm.share": secs("aqm") / total,
        "aqm.us_per_pkt": secs("aqm") / sent * 1e6,
        "aqm.marks": counts["aqm.marks"],
        "aqm.drops": counts["aqm.drops"],
        "aqm.mark_ratio": counts["aqm.marks"] / l_dequeues if l_dequeues else 0.0,
        "core.self_s": secs("core"),
        "core.ce_copies": calls("core.apply_ce_mark"),
        "media.source.self_s": secs("media.source"),
        "media.receiver.self_s": secs("media.receiver"),
        "media.share": media_s / total,
        "media.packets_built": counts["media.packets_built"],
        "media.retransmits": counts["media.retransmits"],
        "media.feedback.calls": calls("media.receiver.build_feedback"),
        "cc.self_s": secs("cc"),
        "cc.share": secs("cc") / total,
        "cc.update.calls": update_calls,
        "cc.update.us_per_call": (
            summary["cc.update"]["total_s"] / update_calls * 1e6 if update_calls else 0.0
        ),
        "cc.trendline.calls": calls("cc.trendline_slope"),
        "harness.setup_s": secs("harness.setup"),
        "harness.metrics_s": secs("harness.metrics"),
        "cli.emit_s": secs("cli.emit"),
        "cli.timeline_rows": counts["cli.timeline_rows"],
        "trace.total_s": total,
        "trace.spans": tracer.span_count(),
    }


def measure_per_layer(workload: str, lanes, seed: int, seconds: float, reference: dict, tally: Tally):
    """Alternate untraced and traced rounds until `seconds` have passed and
    both kinds have at least one successful round."""
    from tracer import Tracer, instrument

    untraced, traced, per_round = [], [], []
    last_tracer = None
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < 2 or time.perf_counter() < deadline:
        with_trace = attempts % 2 == 1
        attempts += 1
        gc.collect()
        if not with_trace:
            hosts = run_round(lanes, seed, reference, tally)
            if hosts is not None:
                untraced.append(sum(normalised for _, normalised in hosts))
            continue
        tracer = Tracer()
        with instrument(tracer):
            hosts = run_round(lanes, seed, reference, tally)
        if hosts is not None:
            traced.append(sum(normalised for _, normalised in hosts))
            per_round.append(layer_metrics(tracer, reference, lanes))
            last_tracer = tracer
    if not untraced or not traced:
        return None, True
    stats = {}
    repeat_ok = True
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead":
            continue
        values = [r[name] for r in per_round]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                print(f"FAIL count {name} differs between traced rounds: {values}", file=sys.stderr)
                repeat_ok = False
            values = values[:1]  # reported exactly, not as a float quantile
        stats[name] = quartiles(values)
        stats[name]["n"] = len(per_round)
    baseline = statistics.median(untraced)
    stats["trace.overhead"] = quartiles([t / baseline for t in traced])
    last_tracer.write(OUT_DIR / f"{workload}.spans")
    return stats, repeat_ok


def write_all_references() -> int:
    import_l4sim()
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    outcomes = {}
    for workload, lanes in WORKLOADS.items():
        got = reference_outcomes(lanes, DEFAULT_SEED, tally, f"{workload} reference")
        outcomes[workload] = {
            key: {k: v for k, v in outcome.items() if k != "timeline_sha256"}
            for key, outcome in got.items()
        }
    if tally.failed:
        print("not writing reference.json: runs failed", file=sys.stderr)
        return 1
    write_reference(outcomes, DEFAULT_SEED)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "l4sim" / "__init__.py").is_file():
        print(f"perfbench: error: no l4sim sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_all_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    lanes: tuple[Lane, ...] = WORKLOADS[args.workload]
    setup = None if args.trace else quartiles(setup_samples(args.workload, args.seed))
    import_l4sim()
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    reference = reference_outcomes(lanes, args.seed, tally, f"seed {args.seed} reference")
    check_stored_reference(args.workload, lanes, args.seed, reference, tally)

    correct = True
    if args.trace:
        stats, correct = measure_per_layer(
            args.workload, lanes, args.seed, args.seconds, reference, tally
        )
        units = PER_LAYER_UNITS
    else:
        stats = measure_end_to_end(lanes, args.seed, args.seconds, reference, tally)
        if stats is not None:
            stats["setup_s"] = setup
        units = END_TO_END_UNITS
    if stats is None:
        print("perfbench: error: no round completed without failures", file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_fail_share": tally.failed / tally.attempted,
        "stats": stats,
    }))  # fmt: skip
    print(json.dumps({
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
