"""The benchmark's workloads and how one run of each lane is executed.

A workload is a fixed list of lanes; a lane is one simulated session. Every
round runs each lane once, back to back (a closed loop with one client).
This module imports l4sim only inside functions, after the caller has put
the checkout's `src` directory on `sys.path`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
CONTROLLERS = ("gcc", "sensitive-gcc", "l4s-cc", "l4s-gcc")

# Values a cli lane cannot observe from its own output files; they come from
# the audited direct run of the same scenario and seed.
CLI_UNOBSERVED = ("sent", "delivered")


@dataclass(frozen=True)
class Lane:
    case: str
    controller: str
    duration_s: float
    via_cli: bool = False

    @property
    def key(self) -> str:
        return f"{self.case}/{self.controller}"


WORKLOADS: dict[str, tuple[Lane, ...]] = {
    # Bundled trace: netem trace lookup is the largest layer; deep queues
    # give classic drops and retransmits (the repair path).
    "trace-mix": tuple(Lane("case3", c, 120.0) for c in CONTROLLERS),
    # Constant capacity with wide delay jitter: the most packets per set, so
    # per-packet engine, heap, AQM and allocation work dominates, and trace
    # lookup is bypassed.
    "jitter-dense": tuple(Lane("case4c", c, 120.0) for c in CONTROLLERS),
    # `l4sim run` with --timeline and --out over three default sessions: the
    # only workload with recording on, and the one whose state grows with
    # session length.
    "long-timeline": (Lane("case2", "l4s-gcc", 360.0, via_cli=True),),
}


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_metrics_csv(path: Path) -> dict[str, int | float]:
    """Parse the two-line metrics CSV that `l4sim run --out` writes."""
    with open(path, encoding="utf-8") as fh:
        header, values = fh.read().splitlines()
    out: dict[str, int | float] = {}
    for name, text in zip(header.split(","), values.split(","), strict=True):
        try:
            out[name] = int(text)
        except ValueError:
            out[name] = float(text)
    return out


def _paths(lane: Lane, out_dir: Path, tag: str) -> tuple[Path, Path]:
    stem = f"{lane.case}-{lane.controller}-{tag}"
    return out_dir / f"{stem}.metrics.csv", out_dir / f"{stem}.timeline.csv"


def build_scenario(lane: Lane, seed: int):
    from l4sim import harness
    from l4sim.cc import ControllerKind

    return harness.preset_scenario(
        lane.case, ControllerKind(lane.controller), seed=seed, duration_s=lane.duration_s
    )


def run_lane(lane: Lane, seed: int, out_dir: Path) -> tuple[float, dict, list[str]]:
    """One timed run: (host seconds, observed outcome, audit errors).

    Preset lanes time `run_scenario` plus the metrics CSV a sweep writes per
    run; the scenario is built before the clock starts, since set-up is its
    own metric. Cli lanes time the whole `l4sim run` invocation.
    """
    from l4sim import cli, harness, sim

    metrics_path, timeline_path = _paths(lane, out_dir, "run")
    if lane.via_cli:
        argv = [
            "run", "--scenario", lane.case, "--controller", lane.controller,
            "--seed", str(seed), "--duration", repr(lane.duration_s),
            "--timeline", str(timeline_path), "--out", str(metrics_path),
        ]  # fmt: skip
        start = time.perf_counter()
        code = cli.main(argv)
        host_s = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"l4sim run exited with code {code}")
        outcome = read_metrics_csv(metrics_path)
        outcome["timeline_sha256"] = file_sha256(timeline_path)
        return host_s, outcome, []
    scenario = build_scenario(lane, seed)
    start = time.perf_counter()
    metrics, log = sim.run_scenario(scenario)
    harness.emit_metrics_csv(metrics, str(metrics_path))
    host_s = time.perf_counter() - start
    outcome = dataclasses.asdict(metrics)
    outcome["sent"] = log.audit.sent
    outcome["delivered"] = log.audit.delivered
    return host_s, outcome, log.audit.errors()


def reference_run(lane: Lane, seed: int, out_dir: Path) -> tuple[dict, list[str]]:
    """Direct `run_scenario` of a lane: the full outcome and its audit.

    For a cli lane the run records a timeline, so its digest must match the
    file `l4sim run --timeline` writes for the same scenario and seed.
    """
    from l4sim import sim

    metrics, log = sim.run_scenario(build_scenario(lane, seed), timeline=lane.via_cli)
    outcome = dataclasses.asdict(metrics)
    outcome["sent"] = log.audit.sent
    outcome["delivered"] = log.audit.delivered
    if lane.via_cli:
        _, timeline_path = _paths(lane, out_dir, "reference")
        log.to_csv(str(timeline_path))
        outcome["timeline_sha256"] = file_sha256(timeline_path)
    return outcome, log.audit.errors()


def expected_for_run(lane: Lane, reference: dict) -> dict:
    """The part of a reference outcome that `run_lane` can reproduce."""
    if not lane.via_cli:
        return reference
    return {k: v for k, v in reference.items() if k not in CLI_UNOBSERVED}
