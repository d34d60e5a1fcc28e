#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Each pair runs `perfbench/run.py --trace 0` once in each checkout, the
parent first in even pairs and the change first in odd ones, so that a
drift of the host's speed favours neither side. The script prints one JSON
line, which also carries the Python version (`sys.version`) and each
side's commit (`git rev-parse HEAD` of its checkout, or null for a
checkout that is not the top of a git work tree). Per end-to-end metric it
gives each side's value in every pair with their median and quartiles, in
how many pairs the change did better, and a verdict:

- `gain`: the change did better in at least nine tenths of the pairs, and
  the medians differ, in its favour, by more than the distance between the
  parent's quartiles;
- `regressed`: the change's median is worse than the parent's by more than
  the metric's bound (a fraction of the parent's median);
- `unresolved`: either side's quartile distance is wider than the bound,
  and not every run of the change is better than every run of the parent;
- `ok`: none of these.

Example:
    python3 scripts/bench_pairs.py ../parent . --workload jitter-dense --seed 1 --pairs 10

`--out PATH` also writes that line to PATH.

The direction of each metric ("better": "higher" or "lower") and its bound
come from BENCHMARK.json at the root of this checkout. Standard library only.

Both sides run with PYTHONDONTWRITEBYTECODE=1, and the script refuses a
checkout that already holds `src/l4sim/__pycache__`: the set-up time
includes compiling l4sim, so a cached side would measure less set-up than
a fresh one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
BYTECODE_CACHE = Path("src", "l4sim", "__pycache__")


def metric_specs(benchmark: Path) -> dict[str, dict]:
    """End-to-end metric name -> its BENCHMARK.json entry, which holds
    `better` ("higher" or "lower") and `bound`."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def bytecode_caches(*checkouts: Path) -> list[Path]:
    """The l4sim bytecode caches present in the given checkouts."""
    caches = (checkout / BYTECODE_CACHE for checkout in checkouts)
    return [cache for cache in caches if cache.exists()]


def commit_of(checkout: Path) -> str | None:
    """The commit checked out at `checkout`, or None when it is not the top
    of a git work tree (an enclosing repository's commit is not its own)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=checkout,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:  # no git on this host
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    top, commit = lines
    return commit if Path(top).resolve() == checkout.resolve() else None


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One end-to-end benchmark run of the benchmark's own length; returns
    its last output line, parsed."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0",
        ],
        cwd=checkout,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=False,
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: benchmark exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def verdict(values: dict[str, list[float]], row: dict, bound: float) -> str:
    """`gain`, `regressed`, `unresolved` or `ok` for one metric (see the
    module docstring), from each side's runs and the summary row of them."""
    sign = 1 if row["better"] == "higher" else -1
    parent, change = row["parent"], row["change"]
    gap = sign * (change["median"] - parent["median"])
    if 10 * row["change_wins"] >= 9 * len(values["parent"]) and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if gap < -bound * abs(parent["median"]):
        return "regressed"
    wide = any(
        row[side]["q3"] - row[side]["q1"] > bound * abs(row[side]["median"]) for side in SIDES
    )
    if wide and min(sign * v for v in values["change"]) <= max(sign * v for v in values["parent"]):
        return "unresolved"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]], specs: dict[str, dict]) -> dict:
    """Summarise (parent, change) pairs of run results.

    Each result is a benchmark output line: `correct` plus `metrics`, each
    metric a `{"value": ...}`. Per metric it gives each side's values in
    pair order, their median and quartiles, the ratio of the medians
    (change over parent), the number of pairs in which the change was
    strictly better, and the verdict.
    """
    out: dict = {
        "pairs": len(pairs),
        "python": sys.version,
        "correct": {side: sum(run[i]["correct"] for run in pairs) for i, side in enumerate(SIDES)},
        "metrics": {},
    }
    for name, spec in specs.items():
        values = {
            side: [run[i]["metrics"][name]["value"] for run in pairs]
            for i, side in enumerate(SIDES)
        }
        better = spec["better"]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        row = {side: spread(values[side]) for side in SIDES}
        row["values"] = values
        parent_median = row["parent"]["median"]
        ratio = row["change"]["median"] / parent_median if parent_median else None
        row["change_over_parent"] = ratio
        row["change_wins"] = wins
        row["better"] = better
        row["verdict"] = verdict(values, row, spec["bound"])
        out["metrics"][name] = row
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="also write the JSON line to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    caches = bytecode_caches(args.parent, args.change)
    if caches:
        parser.error(f"remove the bytecode cache first: {', '.join(map(str, caches))}")

    specs = metric_specs(ROOT / "BENCHMARK.json")
    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        result = {
            side: run_once(getattr(args, side), args.workload, args.seed)
            for side in order
        }
        pairs.append((result["parent"], result["change"]))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)
    summary = summarize(pairs, specs)
    summary.update(
        workload=args.workload,
        seed=args.seed,
        commits={side: commit_of(getattr(args, side)) for side in SIDES},
    )
    line = json.dumps(summary, sort_keys=True)
    print(line)
    if args.out is not None:
        args.out.write_text(line + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
