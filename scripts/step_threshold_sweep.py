#!/usr/bin/env python3
"""Sweep DualPi2's L-queue step threshold on the paper's comparison presets.

For each of case1, case3 and case4a/b/c and each seed, the script runs
`l4s-gcc` once per step threshold (1.0, 1.5, 2.0, 3.2 and 4.0 ms) and
`gcc` once, whose classic packets never meet the step rule. Each run is
the preset's scenario file with `aqm.l4s_step_threshold_ms` set, built by
`harness.scenario_from_dict` as any scenario file is. It prints one
Markdown table row per cell, with the means over the seeds of bandwidth
utilization, stall rate and L-queue marks, and the utilization gap to
`gcc` in percentage points.

Example:
    python3 scripts/step_threshold_sweep.py

It makes 150 runs of 120 s at seeds 1-5, about 40 s on one core of a
2-vCPU machine with Python 3.11, so it is no part of the test suite.
Standard library only.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from l4sim.cc import ControllerKind  # noqa: E402
from l4sim.harness import PRESETS, scenario_from_dict  # noqa: E402
from l4sim.sim import Scenario, run_scenario  # noqa: E402

CASES = ("case1", "case3", "case4a", "case4b", "case4c")
THRESHOLDS_MS = (1.0, 1.5, 2.0, 3.2, 4.0)
SEEDS = (1, 2, 3, 4, 5)
DURATION_S = 120.0


def scenario(case: str, kind: ControllerKind, seed: int, threshold_ms: float | None) -> Scenario:
    """The preset's 120 s scenario file, with the step threshold set when
    one is given; `None` keeps DualPi2's default."""
    data = {
        "seed": seed,
        "duration_s": DURATION_S,
        "link": PRESETS[case],
        "controller": {"kind": kind.value},
    }
    if threshold_ms is not None:
        data["aqm"] = {"l4s_step_threshold_ms": threshold_ms}
    return scenario_from_dict(data)


def cell(case: str, kind: ControllerKind, threshold_ms: float | None) -> list[float]:
    """Utilization, stall rate and marks, each the mean over the seeds."""
    runs = [run_scenario(scenario(case, kind, seed, threshold_ms))[0] for seed in SEEDS]
    return [
        statistics.fmean(getattr(metrics, name) for metrics in runs)
        for name in ("bandwidth_utilization", "stalling_rate", "mark_count")
    ]


def main() -> int:
    print(f"{DURATION_S:g} s, seeds {SEEDS[0]}-{SEEDS[-1]}; means over the seeds")
    print("| case | controller | step (ms) | utilization | gap to gcc (points) | stall | marks |")
    print("|---|---|---|---|---|---|---|")
    for case in CASES:
        gcc_util = None
        for kind, threshold in [(ControllerKind.GCC, None)] + [
            (ControllerKind.L4S_GCC, t) for t in THRESHOLDS_MS
        ]:
            util, stall, marks = cell(case, kind, threshold)
            gcc_util = util if gcc_util is None else gcc_util
            step = "-" if threshold is None else f"{threshold:g}"
            print(
                f"| {case} | {kind.value} | {step} | {util:.3f} | {100 * (util - gcc_util):+.1f}"
                f" | {stall:.2%} | {marks:,.0f} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
