#!/usr/bin/env python3
"""Write the synthetic cellular-style bandwidth trace that case3 is built on.

Piecewise-linear anchor points with seeded noise, sampled at 0.5 s, then
min-max normalized onto 0..5 Mbps. The anchors sketch a cellular session:
mostly 2-5 Mbps with a couple of deep fades and recoveries.

The bundled `src/l4sim/data/case3_trace.csv` is a fixture that this script
reproduces to within 1e-15 of each rate, not byte for byte: the normalization
has since changed its order of operations. So the output path is required,
and the fixture is never rewritten by accident.

    python3 scripts/make_case3_trace.py --out case3_trace.csv
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from l4sim.netem import TRACE_MAX_MBPS, normalize_trace, write_trace_csv  # noqa: E402

ANCHORS = [
    (0.0, 3.2),
    (8.0, 4.6),
    (15.0, 2.2),
    (22.0, 3.8),
    (30.0, 1.4),
    (34.0, 0.6),
    (38.0, 2.8),
    (47.0, 4.9),
    (55.0, 3.4),
    (60.0, 1.8),
    (66.0, 0.9),
    (70.0, 2.2),
    (78.0, 4.2),
    (86.0, 3.0),
    (92.0, 1.5),
    (97.0, 3.6),
    (104.0, 4.7),
    (112.0, 2.4),
    (120.0, 3.1),
]

STEP_S = 0.5
NOISE_STDEV = 0.18
SEED = 20240214


def interpolate(t: float) -> float:
    for (t0, v0), (t1, v1) in zip(ANCHORS, ANCHORS[1:]):
        if t0 <= t <= t1:
            frac = (t - t0) / (t1 - t0)
            return v0 + frac * (v1 - v0)
    return ANCHORS[-1][1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="write the trace CSV here")
    args = parser.parse_args()
    rng = random.Random(SEED)
    samples = []
    t = 0.0
    while t <= ANCHORS[-1][0] + 1e-9:
        rate = interpolate(t) + rng.gauss(0.0, NOISE_STDEV)
        samples.append((int(round(t * 1_000_000)), max(0.15, rate)))
        t += STEP_S
    normalized = normalize_trace(samples, max_mbps=TRACE_MAX_MBPS)
    write_trace_csv(args.out, normalized)
    rates = [r for _, r in normalized]
    print(
        f"wrote {args.out} ({len(normalized)} samples,"
        f" min {min(rates):.3f}, max {max(rates):.3f})"
    )


if __name__ == "__main__":
    main()
