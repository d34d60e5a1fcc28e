"""Experiment harness: metric computation, preset scenarios reproducing the
four comparison cases, the multi-seed comparison runner, and CSV emission.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from typing import Iterable, Sequence, get_type_hints

from .aqm import DropTailConfig, DualPi2Config
from .cc import ControllerKind, ScalableParams, default_gcc_params
from .core import US_PER_MS, US_PER_S, EcnCodepoint, SimTime
from .media import SourceConfig
from .netem import (
    CapacityPattern,
    Constant,
    JitterProfile,
    SquareWave,
    average_capacity_bps,
    jitter_profile_ms,
    load_trace_csv,
    trace_pattern,
)
from .sim import Scenario, TimelineLog, run_scenario

PRESET_CASES = ("case1", "case2", "case3", "case4a", "case4b", "case4c")

_JITTER_PROFILES_MS = {
    "case4a": ((10, 0.85), (12, 0.10), (14, 0.04), (16, 0.01)),
    "case4b": ((10, 0.85), (14, 0.10), (18, 0.04), (22, 0.01)),
    "case4c": ((10, 0.85), (18, 0.10), (26, 0.04), (34, 0.01)),
}


@dataclass(frozen=True)
class MetricsReport:
    """Per-run summary metrics."""

    rtt_max_ms: float
    rtt_min_ms: float
    rtt_avg_ms: float
    stalling_rate: float
    quality_mbps: float
    bandwidth_utilization: float
    mark_count: int
    drop_count: int


METRIC_FIELDS = tuple(f.name for f in fields(MetricsReport))


def compute_metrics(log: TimelineLog, scenario: Scenario) -> MetricsReport:
    """Reduce a run log to the report metrics.

    RTT statistics cover every per-packet sample (send-to-arrival plus the
    feedback echo delay). Quality counts bytes of frames actually played;
    utilization divides by the time-average forward capacity.
    """
    samples = log.rtt_samples_us
    if not samples:
        raise ValueError("empty run: no RTT samples to aggregate")
    duration_s = log.duration_us / 1e6
    quality_bps = log.played_bytes * 8 / duration_s
    avg_capacity = average_capacity_bps(scenario.capacity, log.duration_us)
    return MetricsReport(
        rtt_max_ms=max(samples) / 1_000.0,
        rtt_min_ms=min(samples) / 1_000.0,
        rtt_avg_ms=sum(samples) / len(samples) / 1_000.0,
        stalling_rate=log.stalled_us / log.duration_us,
        quality_mbps=quality_bps / 1e6,
        bandwidth_utilization=quality_bps / avg_capacity,
        mark_count=log.mark_count,
        drop_count=log.audit.dropped,
    )


def bundled_case3_samples() -> list[tuple[SimTime, float]]:
    """The synthetic cellular-style trace shipped with the package,
    already normalized onto 0..5 Mbps."""
    ref = resources.files("l4sim").joinpath("data/case3_trace.csv")
    with resources.as_file(ref) as path:
        return load_trace_csv(str(path))


def _source_for(kind: ControllerKind) -> SourceConfig:
    ecn = (
        EcnCodepoint.ECT1
        if kind in (ControllerKind.L4S_CC, ControllerKind.L4S_GCC)
        else EcnCodepoint.NOT_ECT
    )
    return SourceConfig(ecn_mode=ecn)


def preset_scenario(
    case: str,
    controller: ControllerKind,
    seed: int = Scenario.seed,
    duration_s: float = Scenario.duration_s,
) -> Scenario:
    """Build one of the named comparison scenarios.

    case1: constant 3 Mbps, no jitter. case2: 2.5/4 Mbps square wave.
    case3: bundled normalized trace. case4a/b/c: 5 Mbps with delay jitter
    profiles of growing spread (85/10/4/1% weights).
    """
    if case not in PRESET_CASES:
        raise ValueError(f"unknown preset {case!r}; choose one of {', '.join(PRESET_CASES)}")
    jitter: JitterProfile | None = None
    if case == "case1":
        capacity = Constant(3.0)
    elif case == "case2":
        capacity = SquareWave(2.5, 4.0, 10_000_000)
    elif case == "case3":
        capacity = trace_pattern(bundled_case3_samples())
    else:
        capacity = Constant(5.0)
        jitter = jitter_profile_ms(_JITTER_PROFILES_MS[case])
    return Scenario(
        seed=seed,
        duration_s=duration_s,
        capacity=capacity,
        jitter=jitter,
        controller=controller,
        source=_source_for(controller),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """Aggregated cell for one (case, controller) pair."""

    case: str
    controller: str
    seed_count: int
    means: dict[str, float]
    stdevs: dict[str, float]
    runs: tuple[MetricsReport, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def row(self, case: str, controller: str) -> ComparisonRow:
        for r in self.rows:
            if r.case == case and r.controller == controller:
                return r
        raise KeyError(f"no row for ({case}, {controller})")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _pstdev(values: Sequence[float]) -> float:
    # Population stdev: a single seed aggregates to exactly its own report.
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def _aggregate(case: str, controller: str, runs: Sequence[MetricsReport]) -> ComparisonRow:
    means = {}
    stdevs = {}
    for name in METRIC_FIELDS:
        values = [float(getattr(r, name)) for r in runs]
        means[name] = _mean(values)
        stdevs[name] = _pstdev(values)
    return ComparisonRow(
        case=case,
        controller=controller,
        seed_count=len(runs),
        means=means,
        stdevs=stdevs,
        runs=tuple(runs),
    )


def _run_one(args: tuple[str, str, int, float]) -> MetricsReport:
    case, controller_value, seed, duration_s = args
    try:
        scenario = preset_scenario(case, ControllerKind(controller_value), seed, duration_s)
        metrics, _log = run_scenario(scenario)
    except Exception as exc:  # identify the offending triple, in workers too
        raise RuntimeError(
            f"run failed for case={case} controller={controller_value} seed={seed}: {exc}"
        ) from exc
    return metrics


def run_comparison(
    cases: Sequence[str],
    controllers: Sequence[ControllerKind],
    seeds: Sequence[int],
    duration_s: float = Scenario.duration_s,
    workers: int = 1,
) -> ComparisonTable:
    """Run every (case, controller, seed) triple and aggregate mean/stdev.

    Runs are independent, so they may execute in parallel; results are
    collected in input order either way, keeping the table deterministic.
    """
    if not cases or not controllers or not seeds:
        raise ValueError("cases, controllers, and seeds must be non-empty")
    jobs = [
        (case, controller.value, seed, duration_s)
        for case in cases
        for controller in controllers
        for seed in seeds
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = list(map(_run_one, jobs))
    rows = []
    per_cell = len(seeds)
    idx = 0
    for case in cases:
        for controller in controllers:
            cell_runs = results[idx : idx + per_cell]
            idx += per_cell
            rows.append(_aggregate(case, controller.value, cell_runs))
    return ComparisonTable(rows=tuple(rows))


# -- emission ----------------------------------------------------------------

TABLE_COLUMNS = (
    "case",
    "controller",
    "seed_count",
    "rtt_max_ms",
    "rtt_min_ms",
    "rtt_avg_ms",
    "stall_rate",
    "quality_mbps",
    "utilization",
    "marks",
    "drops",
)

_COLUMN_TO_METRIC = {
    "rtt_max_ms": "rtt_max_ms",
    "rtt_min_ms": "rtt_min_ms",
    "rtt_avg_ms": "rtt_avg_ms",
    "stall_rate": "stalling_rate",
    "quality_mbps": "quality_mbps",
    "utilization": "bandwidth_utilization",
    "marks": "mark_count",
    "drops": "drop_count",
}


def table_csv_lines(table: ComparisonTable) -> list[str]:
    lines = [",".join(TABLE_COLUMNS)]
    for row in table.rows:
        cells = [row.case, row.controller, str(row.seed_count)]
        for column in TABLE_COLUMNS[3:]:
            cells.append(repr(row.means[_COLUMN_TO_METRIC[column]]))
        lines.append(",".join(cells))
    return lines


def emit_table_csv(table: ComparisonTable, path: str) -> None:
    _write_lines(path, table_csv_lines(table))


def parse_table_csv(path: str) -> ComparisonTable:
    """Read back an emitted comparison CSV (means only)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != ",".join(TABLE_COLUMNS):
        raise ValueError(f"{path}: not a comparison table CSV")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        means = {
            _COLUMN_TO_METRIC[col]: float(cell) for col, cell in zip(TABLE_COLUMNS[3:], cells[3:])
        }
        rows.append(
            ComparisonRow(
                case=cells[0],
                controller=cells[1],
                seed_count=int(cells[2]),
                means=means,
                stdevs={name: 0.0 for name in means},
            )
        )
    return ComparisonTable(rows=tuple(rows))


def format_table_text(table: ComparisonTable) -> str:
    """Aligned text table, mean +/- stdev per metric."""
    headers = ["case", "controller", "rtt max/min/avg (ms)", "stall", "quality (Mbps)", "util"]
    body = []
    for row in table.rows:
        m, s = row.means, row.stdevs
        body.append(
            [
                row.case,
                row.controller,
                f"{m['rtt_max_ms']:.1f}/{m['rtt_min_ms']:.1f}/{m['rtt_avg_ms']:.1f}",
                f"{100 * m['stalling_rate']:.2f}%+-{100 * s['stalling_rate']:.2f}",
                f"{m['quality_mbps']:.2f}+-{s['quality_mbps']:.2f}",
                f"{100 * m['bandwidth_utilization']:.1f}%+-{100 * s['bandwidth_utilization']:.1f}",
            ]
        )
    widths = [max(len(r[i]) for r in [headers] + body) for i in range(len(headers))]
    out = []
    for r in [headers] + body:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


def metrics_csv_lines(report: MetricsReport) -> list[str]:
    header = ",".join(METRIC_FIELDS)
    values = ",".join(repr(getattr(report, name)) for name in METRIC_FIELDS)
    return [header, values]


# -- scenario files ------------------------------------------------------------
#
# A scenario file mirrors `Scenario`. A numeric key overrides one field of a
# config dataclass and an absent key keeps that field's default, so each
# default is defined once, in its dataclass. Range checks stay in the classes'
# `validate()`/`__post_init__`, so files and code obey the same rules.


class ScenarioError(ValueError):
    """Invalid scenario configuration; the message names the field path."""


# A `_ms` or `_s` file key sets the `_us` field of the same stem, if any.
_US_PER_UNIT = {"_ms": US_PER_MS, "_s": US_PER_S}
_SCENARIO_KEYS = ("seed", "duration_s", "feedback_interval_ms", "dejitter_ms")
_GCC_KEYS = (
    "window", "threshold_gain", "gamma_init_ms", "gamma_min_ms", "gamma_max_ms", "k_up",
    "k_down", "overuse_time_ms", "eta_increase", "decrease_factor", "loss_high", "loss_low",
)  # fmt: skip
_SCALABLE_KEYS = ("ewma_gain", "additive_step_bps")
_SOURCE_KEYS = ("fps", "mtu_bytes", "min_bitrate_bps", "max_bitrate_bps", "start_bitrate_bps")
# The keys each controller kind reads; any other key is rejected.
_CONTROLLER_KEYS = {
    ControllerKind.GCC.value: _GCC_KEYS,
    ControllerKind.SENSITIVE_GCC.value: _GCC_KEYS,
    ControllerKind.L4S_CC.value: _SCALABLE_KEYS,
    ControllerKind.L4S_GCC.value: _GCC_KEYS + _SCALABLE_KEYS,
}
_CAPACITY_KEYS = {
    "constant": ("mbps",), "square": ("low_mbps", "high_mbps", "half_period_s"), "trace": ("path",)
}  # fmt: skip
_DELAY_KEYS = {"fixed": ("delay_ms",), "jitter": ("entries",)}
_AQM_KEYS = {
    "dualpi2": ("target_delay_ms", "t_update_ms", "alpha", "beta", "coupling_k",
                "l4s_step_threshold_ms", "queue_limit_bytes", "time_shift_ms"),
    "droptail": ("queue_limit_bytes",),
}  # fmt: skip
_ECN_MODES = {"ect1": EcnCodepoint.ECT1, "not-ect": EcnCodepoint.NOT_ECT}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(spec, path: str, allowed: Sequence[str]) -> dict:
    """`spec`, checked to be an object holding only `allowed` keys."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path or 'scenario'}: expected an object, got {spec!r}")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ScenarioError(f"{_join(path, min(unknown, key=str))}: unknown key")
    return spec


def _choice(value, path: str, choices: dict):
    if not isinstance(value, str) or value not in choices:
        raise ScenarioError(f"{path}: expected one of {'/'.join(choices)}, got {value!r}")
    return choices[value]


def _kind(spec, path: str, keys_by_kind: dict, default: str | None = None) -> str:
    """The `kind` of object `spec`, which may hold only that kind's keys."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path}: expected an object, got {spec!r}")
    kind = spec.get("kind", default)
    _object(spec, path, ("kind", *_choice(kind, _join(path, "kind"), keys_by_kind)))
    return kind


def _number(value, path: str, integral: bool, scale: int = 1) -> int | float:
    """`value` times `scale`, which must be a finite number and, for an
    `integral` field, whole."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if integral and isinstance(value, int):
        return value * scale
    try:
        scaled = float(value) * scale
    except OverflowError:  # an int beyond float range
        scaled = math.inf
    if not math.isfinite(scaled):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    if integral and not math.isclose(scaled, round(scaled), rel_tol=1e-12):
        unit = " of microseconds" if scale > 1 else ""
        raise ScenarioError(f"{path}: expected a whole number{unit}, got {value!r}")
    return round(scaled) if integral else scaled


def _build(start, spec: dict, path: str, keys: Sequence[str], **given):
    """`start` with each of `keys` present in `spec` overriding its field,
    then range-checked by the class. `start` is an instance whose values
    stand for absent keys, or a class whose keys are all required (an absent
    key reads as null)."""
    cls = start if isinstance(start, type) else type(start)
    hints = get_type_hints(cls)
    values = dict(given)
    for key in (k for k in keys if start is cls or k in spec):
        name, scale = key, 1
        for suffix, us_per_unit in _US_PER_UNIT.items():
            if key.endswith(suffix) and key[: -len(suffix)] + "_us" in hints:
                name, scale = key[: -len(suffix)] + "_us", us_per_unit
        values[name] = _number(spec.get(key), _join(path, key), hints[name] is int, scale)
    try:
        config = cls(**values) if start is cls else replace(start, **values)
        if hasattr(config, "validate"):
            config.validate()
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}" if path else str(exc)) from exc
    return config


def _capacity(spec) -> CapacityPattern:
    path = "link.capacity"
    kind = _kind(spec, path, _CAPACITY_KEYS)
    if kind != "trace":
        return _build(Constant if kind == "constant" else SquareWave, spec, path, _CAPACITY_KEYS[kind])
    trace = spec.get("path")
    if not isinstance(trace, str):
        raise ScenarioError(f"{path}.path: expected a file path string, got {trace!r}")
    try:
        return trace_pattern(load_trace_csv(trace))
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{path}.path: {exc}") from exc


def _forward_delay(spec) -> dict:
    """The `Scenario` fields that `link.forward_delay` sets."""
    path = "link.forward_delay"
    if _kind(spec, path, _DELAY_KEYS) == "fixed":
        delay = _number(spec.get("delay_ms"), f"{path}.delay_ms", True, US_PER_MS)
        return {"forward_delay_us": delay}
    entries, path = spec.get("entries"), f"{path}.entries"
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 2 for e in entries):
        raise ScenarioError(f"{path}: expected [delay_ms, probability] pairs")
    pairs = tuple(
        (_number(d, f"{path}[{i}]", True, US_PER_MS), _number(p, f"{path}[{i}]", False))
        for i, (d, p) in enumerate(entries)
    )
    return {"jitter": _build(JitterProfile, {}, path, (), entries=pairs)}


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a JSON-compatible mapping. Absent keys keep the
    config dataclasses' defaults; unknown keys and invalid values are
    rejected with a field-path message."""
    _object(data, "", _SCENARIO_KEYS + ("link", "aqm", "controller", "source"))
    link = _object(data.get("link"), "link", ("capacity", "forward_delay", "reverse_delay_ms"))
    delay = _forward_delay(link["forward_delay"]) if "forward_delay" in link else {}
    capacity = _capacity(link.get("capacity"))
    linked = _build(Scenario(), link, "link", ("reverse_delay_ms",), capacity=capacity, **delay)
    ctl = data.get("controller")
    kind = ControllerKind(_kind(ctl, "controller", _CONTROLLER_KEYS))

    def params(start, keys):  # None, the controller's own default, unless a key is set
        return _build(start, ctl, "controller", keys) if ctl.keys() & set(keys) else None

    aqm = data.get("aqm", {})
    aqm_kind = _kind(aqm, "aqm", _AQM_KEYS, default="dualpi2")
    aqm_start = DualPi2Config() if aqm_kind == "dualpi2" else DropTailConfig()
    source = _object(data.get("source", {}), "source", _SOURCE_KEYS + ("ecn_mode",))
    ecn = source.get("ecn_mode")  # absent: the mode follows the controller kind
    source_start = (
        _source_for(kind) if ecn is None
        else SourceConfig(ecn_mode=_choice(ecn, "source.ecn_mode", _ECN_MODES))
    )  # fmt: skip
    return _build(
        linked, data, "", _SCENARIO_KEYS,
        aqm=_build(aqm_start, aqm, "aqm", _AQM_KEYS[aqm_kind]),
        controller=kind,
        gcc_params=params(default_gcc_params(kind), _GCC_KEYS),
        scalable_params=params(ScalableParams(), _SCALABLE_KEYS),
        source=_build(source_start, source, "source", _SOURCE_KEYS),
    )  # fmt: skip


def emit_metrics_csv(report: MetricsReport, path: str) -> None:
    _write_lines(path, metrics_csv_lines(report))


def _write_lines(path: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc
