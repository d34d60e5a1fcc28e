#!/usr/bin/env python3
"""Reproduce the comparative experiments: every preset case against every
controller, aggregated over seeds.

Writes one comparison CSV per table (stable-bandwidth cases and jitter
cases) plus an aligned text summary, all under --out.

Example:
    python scripts/run_cases.py --out results/ --seeds 5 --duration 120
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from l4sim.cc import ControllerKind  # noqa: E402
from l4sim.harness import (  # noqa: E402
    emit_table_csv,
    format_table_text,
    run_comparison,
)
from l4sim.sim import Scenario  # noqa: E402

STABLE_CASES = ["case1", "case2", "case3"]
JITTER_CASES = ["case4a", "case4b", "case4c"]
CONTROLLERS = list(ControllerKind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--duration", type=float, default=Scenario.duration_s)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(range(1, args.seeds + 1))

    for name, cases in (("stable_cases", STABLE_CASES), ("jitter_cases", JITTER_CASES)):
        started = time.monotonic()
        rows = run_comparison(
            cases, CONTROLLERS, seeds, duration_s=args.duration, workers=args.workers
        )
        elapsed = time.monotonic() - started
        csv_path = out_dir / f"{name}.csv"
        emit_table_csv(rows, str(csv_path))
        text = format_table_text(rows)
        (out_dir / f"{name}.txt").write_text(text)
        print(f"== {name} ({len(cases) * len(CONTROLLERS) * len(seeds)} runs, {elapsed:.0f}s)")
        print(text)
        print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
