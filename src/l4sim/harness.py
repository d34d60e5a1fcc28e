"""Experiment harness: metric computation, preset scenarios reproducing the
four comparison cases, the multi-seed comparison runner, and CSV emission.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import cache
from typing import Iterable, Sequence

from .aqm import DropTailConfig, DualPi2Config
from .cc import PARAMS_BY_KIND, ControllerKind, GccParams, ScalableParams, gcc_departures
from .core import DELAY_US, FRACTION, US_PER_MS, US_PER_S, EcnCodepoint, Range, SimTime
from .core import check_number, number_fields
from .media import SourceConfig
from .netem import (
    CapacityPattern,
    Constant,
    JitterProfile,
    SquareWave,
    average_capacity_bps,
    load_trace_csv,
    trace_pattern,
)
from .sim import Scenario, TimelineLog, run_scenario


def _jitter_case(*delays_ms: int) -> dict:
    """5 Mbps with a forward delay of `delays_ms` at 85/10/4/1% weights."""
    entries = [[delay, weight] for delay, weight in zip(delays_ms, (0.85, 0.10, 0.04, 0.01))]
    return {
        "capacity": {"kind": "constant", "mbps": 5.0},
        "forward_delay": {"kind": "jitter", "entries": entries},
    }


_CASE3_TRACE = os.path.join(os.path.dirname(__file__), "data", "case3_trace.csv")
# The `link` section of each named comparison scenario, in the scenario-file
# schema. case1: constant 3 Mbps, no jitter. case2: 2.5/4 Mbps square wave.
# case3: the bundled synthetic cellular-style trace, already normalized onto
# 0..5 Mbps. case4a/b/c: jitter profiles of growing spread.
PRESETS = {
    "case1": {"capacity": {"kind": "constant", "mbps": 3.0}},
    "case2": {
        "capacity": {"kind": "square", "low_mbps": 2.5, "high_mbps": 4.0, "half_period_s": 10}
    },
    "case3": {"capacity": {"kind": "trace", "path": _CASE3_TRACE}},
    "case4a": _jitter_case(10, 12, 14, 16),
    "case4b": _jitter_case(10, 14, 18, 22),
    "case4c": _jitter_case(10, 18, 26, 34),
}
PRESET_CASES = tuple(PRESETS)
# The session length of a preset or a comparison run, in the seconds they take.
DEFAULT_DURATION_S = Scenario.duration_us / US_PER_S


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
    feedback echo delay), read from the run's exact count per microsecond
    value, so the integer sum and the average are those of the sample list.
    Quality counts bytes of frames actually played; utilization divides by
    the time-average forward capacity.
    """
    samples = log.rtt_samples_us
    count = samples.total()
    avg_capacity = average_capacity_bps(scenario.capacity, log.duration_us)
    duration_s = log.duration_us / US_PER_S
    if not count:  # an input error, not a result (DECISIONS.md entry 12)
        raise ValueError(
            f"duration_s: no packet was delivered in {duration_s:g} s; the session"
            f" must outlast a packet's trip over link.capacity (mean {avg_capacity / 1e6:g}"
            " Mbps) and link.forward_delay"
        )
    quality_bps = log.played_bytes * 8 / duration_s
    return MetricsReport(
        rtt_max_ms=max(samples) / 1_000.0,
        rtt_min_ms=min(samples) / 1_000.0,
        rtt_avg_ms=sum(rtt * n for rtt, n in samples.items()) / count / 1_000.0,
        stalling_rate=log.stalled_us / log.duration_us,
        quality_mbps=quality_bps / 1e6,
        bandwidth_utilization=quality_bps / avg_capacity,
        mark_count=log.mark_count,
        drop_count=log.audit.dropped,
    )


def preset_scenario(
    case: str,
    controller: ControllerKind,
    seed: int = Scenario.seed,
    duration_s: float = DEFAULT_DURATION_S,
) -> Scenario:
    """Build one of the named comparison scenarios: the scenario file whose
    link section is `PRESETS[case]`."""
    if case not in PRESETS:
        raise ValueError(f"unknown preset {case!r}; choose one of {', '.join(PRESET_CASES)}")
    return scenario_from_dict({
        "seed": seed,
        "duration_s": duration_s,
        "link": PRESETS[case],
        "controller": {"kind": controller.value},
    })  # fmt: skip


@dataclass(frozen=True)
class ComparisonRow:
    """Aggregated cell for one (case, controller) pair."""

    case: str
    controller: str
    seed_count: int
    means: dict[str, float]
    stdevs: dict[str, float]


def _sum_in_order(values: Iterable[float]) -> float:
    """Floats added left to right. The builtin `sum` compensates its rounding
    from Python 3.12 on, which changes the last digits of a comparison table
    of four or more seeds (ROADMAP item 6)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _mean(values: Sequence[float]) -> float:
    return _sum_in_order(values) / len(values)


def _pstdev(values: Sequence[float]) -> float:
    # Population stdev: a single seed aggregates to exactly its own report.
    m = _mean(values)
    return math.sqrt(_sum_in_order((v - m) ** 2 for v in values) / len(values))


def _aggregate(case: str, controller: str, runs: Sequence[MetricsReport]) -> ComparisonRow:
    values = {name: [float(getattr(r, name)) for r in runs] for name in METRIC_FIELDS}
    return ComparisonRow(
        case=case,
        controller=controller,
        seed_count=len(runs),
        means={name: _mean(v) for name, v in values.items()},
        stdevs={name: _pstdev(v) for name, v in values.items()},
    )


def _run_one(job: tuple[str, Scenario]) -> MetricsReport:
    case, scenario = job
    try:
        metrics, _log = run_scenario(scenario)
    except Exception as exc:  # identify the offending triple, in workers too
        raise RuntimeError(
            f"run failed for case={case} controller={scenario.controller.value}"
            f" seed={scenario.seed}: {exc}"
        ) from exc
    return metrics


def run_comparison(
    cases: Sequence[str],
    controllers: Sequence[ControllerKind],
    seeds: Sequence[int],
    duration_s: float = DEFAULT_DURATION_S,
    workers: int = 1,
) -> tuple[ComparisonRow, ...]:
    """Run every (case, controller, seed) triple and aggregate mean/stdev
    into one row per (case, controller) pair.

    Runs are independent, so they may execute in parallel; results are
    collected in input order either way, keeping the table deterministic.
    Every scenario is built, and so checked, before the first run starts.
    """
    for flag, values in (("--cases", cases), ("--controllers", controllers), ("--seeds", seeds)):
        if not values:
            raise ValueError(f"{flag}: expected at least one value")
    if workers < 1:
        raise ValueError(f"--workers: must be at least 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise ValueError(f"--workers: must be at most the CPU count, {cpus}, got {workers}")
    for case in cases:
        if case not in PRESETS:
            choices = ", ".join(PRESET_CASES)
            raise ValueError(f"--cases: unknown preset {case!r}; choose one of {choices}")
    cells = [(case, controller) for case in cases for controller in controllers]
    jobs = [
        (case, preset_scenario(case, controller, seed, duration_s))
        for case, controller in cells
        for seed in seeds
    ]
    if workers > 1:
        # Imported here: only a parallel comparison needs it, and it costs
        # l4sim's import about a tenth of its time.
        import concurrent.futures

        # A pool starts all its processes at the first submit: no more than there are jobs.
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = list(map(_run_one, jobs))
    n = len(seeds)
    return tuple(
        _aggregate(case, controller.value, results[i * n : (i + 1) * n])
        for i, (case, controller) in enumerate(cells)
    )


# -- emission ----------------------------------------------------------------

# Comparison CSV column names that differ from the metric's field name.
_COLUMN_NAMES = {
    "stalling_rate": "stall_rate",
    "bandwidth_utilization": "utilization",
    "mark_count": "marks",
    "drop_count": "drops",
}


def table_csv_lines(rows: Sequence[ComparisonRow]) -> list[str]:
    columns = [_COLUMN_NAMES.get(name, name) for name in METRIC_FIELDS]
    lines = [",".join(["case", "controller", "seed_count", *columns])]
    for row in rows:
        means = [repr(row.means[name]) for name in METRIC_FIELDS]
        lines.append(",".join([row.case, row.controller, str(row.seed_count), *means]))
    return lines


def format_table_text(rows: Sequence[ComparisonRow]) -> str:
    """Aligned text table, mean +/- stdev per metric."""
    headers = ["case", "controller", "rtt max/min/avg (ms)", "stall", "quality (Mbps)", "util"]
    body = []
    for row in rows:
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
# default is defined once, in its dataclass. Each range is the one its field
# declares (`core.Config`), so files and code obey the same rules; a key's is
# checked in the key's unit, which its message then names.


class ScenarioError(ValueError):
    """Invalid scenario configuration; the message names the field path."""


# A `_us` field's file key is spelled in milliseconds, or in seconds for these.
_SECONDS_FIELDS = ("duration_us", "half_period_us")


@cache
def _file_keys(cls) -> dict[str, tuple[str, type, Range, int]]:
    """The file keys of config class `cls`, one per number field in field
    order: key -> (field, its type, its range, microseconds per unit)."""
    keys = {}
    for name, (hint, bounds) in number_fields(cls).items():  # others have their own sections
        key, unit = name, 1
        if name in _SECONDS_FIELDS:
            key, unit = name[:-3] + "_s", US_PER_S
        elif name.endswith("_us"):
            key, unit = name[:-3] + "_ms", US_PER_MS
        keys[key] = (name, hint, bounds, unit)
    return keys


# Each kind of a section: its config class, or the keys it reads where no one class takes them.
_CAPACITY_KINDS = {"constant": Constant, "square": SquareWave, "trace": ("path",)}
_DELAY_KINDS = {"fixed": ("delay_ms",), "jitter": ("entries",)}
_AQM_KINDS = {"dualpi2": DualPi2Config, "droptail": DropTailConfig}
_PARAMS = {"gcc_params": GccParams, "scalable_params": ScalableParams}
# The keys each controller kind reads, those of its parameter sets; any other is rejected.
_CONTROLLER_KEYS = {
    kind.value: tuple(key for name in PARAMS_BY_KIND[kind] for key in _file_keys(_PARAMS[name]))
    for kind in ControllerKind
}
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


def _kind(spec, path: str, kinds: dict, default: str | None = None) -> str:
    """The `kind` of object `spec`, which may hold only that kind's keys."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path}: expected an object, got {spec!r}")
    kind = spec.get("kind", default)
    keys = _choice(kind, _join(path, "kind"), kinds)
    _object(spec, path, ("kind", *(_file_keys(keys) if isinstance(keys, type) else keys)))
    return kind


def _number(value, path: str, hint: type, bounds: Range, unit: int = 1) -> int | float:
    """`value`, a number within the field range `bounds` in the key's unit,
    as the field of type `hint` holds it: times `unit` microseconds, which
    for an `int` field must come to a whole number."""
    if unit > 1:  # only `int` fields have a unit
        bounds = Range(bounds.lo / unit, bounds.hi / unit)
    try:
        check_number(path, value, float, bounds)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    if hint is float:
        return float(value)
    scaled = value * unit
    if isinstance(value, float) and not math.isclose(scaled, round(scaled), rel_tol=1e-12):
        whole = " of microseconds" if unit > 1 else ""
        raise ScenarioError(f"{path}: expected a whole number{whole}, got {value!r}")
    return round(scaled)


def _build(cls, spec: dict, path: str, **given):
    """One `cls`, made from `given` and each of its file keys present in
    `spec`. Each key is checked against its field's range under its own path,
    so what the class then rejects is the object, named by `path`. A key
    overrides a given value, and an absent key keeps the class default; for a
    field with no default, an absent key reads as null."""
    values = dict(given)
    for key, (name, hint, bounds, unit) in _file_keys(cls).items():
        if key in spec or not hasattr(cls, name):  # a field's default is its class attribute
            values[name] = _number(spec.get(key), _join(path, key), hint, bounds, unit)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}" if path else str(exc)) from exc


def _capacity(spec) -> CapacityPattern:
    path = "link.capacity"
    kind = _kind(spec, path, _CAPACITY_KINDS)
    if kind != "trace":
        return _build(_CAPACITY_KINDS[kind], spec, path)
    trace = spec.get("path")
    if not isinstance(trace, str):
        raise ScenarioError(f"{path}.path: expected a file path string, got {trace!r}")
    try:
        return trace_pattern(load_trace_csv(trace))
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{path}.path: {exc}") from exc


def _forward_delay(spec) -> SimTime | JitterProfile:
    """The forward delay that `link.forward_delay` sets."""
    path = "link.forward_delay"
    if _kind(spec, path, _DELAY_KINDS) == "fixed":
        return _number(spec.get("delay_ms"), f"{path}.delay_ms", int, DELAY_US, US_PER_MS)
    entries, path = spec.get("entries"), f"{path}.entries"
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 2 for e in entries):
        raise ScenarioError(f"{path}: expected [delay_ms, probability] pairs")
    pairs = tuple(
        (_number(d, f"{path}[{i}]", int, DELAY_US, US_PER_MS),
         _number(p, f"{path}[{i}]", float, FRACTION))
        for i, (d, p) in enumerate(entries)
    )  # fmt: skip
    return _build(JitterProfile, {}, path, entries=pairs)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a JSON-compatible mapping. Absent keys keep the
    config dataclasses' defaults; unknown keys and invalid values are
    rejected with a field-path message."""
    # `reverse_delay_ms` is the one `Scenario` key that another section, `link`, holds.
    top = _file_keys(Scenario).keys() - {"reverse_delay_ms"}
    _object(data, "", (*top, "link", "aqm", "controller", "source"))
    link = _object(data.get("link"), "link", ("capacity", "forward_delay", "reverse_delay_ms"))
    delay = {}
    if "forward_delay" in link:
        delay["forward_delay"] = _forward_delay(link["forward_delay"])
    if "reverse_delay_ms" in link:
        name, *field = _file_keys(Scenario)["reverse_delay_ms"]
        delay[name] = _number(link["reverse_delay_ms"], "link.reverse_delay_ms", *field)
    capacity = _capacity(link.get("capacity"))
    ctl = data.get("controller")
    kind = ControllerKind(_kind(ctl, "controller", _CONTROLLER_KEYS))

    def params(cls, **given):  # None, the controller's own default, unless a key is set
        return _build(cls, ctl, "controller", **given) if ctl.keys() & _file_keys(cls) else None

    aqm = data.get("aqm", {})
    aqm_kind = _kind(aqm, "aqm", _AQM_KINDS, default="dualpi2")
    source = _object(data.get("source", {}), "source", (*_file_keys(SourceConfig), "ecn_mode"))
    ecn = source.get("ecn_mode")  # absent: None, the controller kind's codepoint
    ecn = None if ecn is None else _choice(ecn, "source.ecn_mode", _ECN_MODES)
    return _build(
        Scenario, data, "",
        capacity=capacity,
        **delay,
        aqm=_build(_AQM_KINDS[aqm_kind], aqm, "aqm"),
        controller=kind,
        gcc_params=params(GccParams, **gcc_departures(kind)),
        scalable_params=params(ScalableParams),
        source=_build(SourceConfig, source, "source", ecn_mode=ecn),
    )  # fmt: skip


def emit_metrics_csv(report: MetricsReport, path: str) -> None:
    write_lines(path, metrics_csv_lines(report))


def write_lines(path: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write output file {path!r}: {exc}") from exc
