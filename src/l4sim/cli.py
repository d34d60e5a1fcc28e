"""Command-line interface.

Subcommands:
  run              simulate one scenario (preset name or JSON file)
  compare          sweep cases x controllers x seeds into a comparison table
  normalize-trace  min-max scale a bandwidth trace CSV
"""

from __future__ import annotations

import argparse
import json
import sys

from .cc import ControllerKind
from .harness import (
    DEFAULT_DURATION_S,
    PRESET_CASES,
    ScenarioError,
    emit_metrics_csv,
    format_table_text,
    metrics_csv_lines,
    preset_scenario,
    run_comparison,
    scenario_from_dict,
    table_csv_lines,
    write_lines,
)
from .netem import TRACE_MAX_MBPS, load_trace_csv, normalize_trace, write_trace_csv
from .sim import Scenario, run_scenario


def _controller(value: str) -> ControllerKind:
    try:
        return ControllerKind(value)
    except ValueError:
        valid = ", ".join(k.value for k in ControllerKind)
        raise argparse.ArgumentTypeError(f"expected one of {valid}, got {value!r}") from None


def _controllers(value: str) -> list[ControllerKind]:
    return [_controller(c.strip()) for c in value.split(",") if c.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l4sim",
        description="Low-latency media transport simulator: dual-queue AQM, "
        "ECN feedback, and delay-gradient rate control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario")
    run_p.add_argument(
        "--scenario",
        required=True,
        help=f"preset name ({', '.join(PRESET_CASES)}) or path to a scenario JSON file",
    )
    run_p.add_argument(
        "--controller",
        type=_controller,
        default=None,
        help="controller kind (required for presets, overrides scenario files)",
    )
    run_p.add_argument(
        "--seed", type=int, default=None, help=f"defaults to {Scenario.seed} for presets"
    )
    run_p.add_argument(
        "--duration",
        type=float,
        default=None,
        help=f"session seconds, defaults to {DEFAULT_DURATION_S} for presets",
    )
    run_p.add_argument("--timeline", default=None, help="write per-event timeline CSV here")
    run_p.add_argument("--out", default=None, help="write the metrics CSV here")

    cmp_p = sub.add_parser("compare", help="multi-seed comparison across presets")
    cmp_p.add_argument("--cases", required=True, help="comma-separated preset names")
    cmp_p.add_argument(
        "--controllers", type=_controllers, required=True, help="comma-separated controller kinds"
    )
    cmp_p.add_argument("--seeds", type=int, default=5, help="number of seeds (1..n)")
    cmp_p.add_argument("--duration", type=float, default=DEFAULT_DURATION_S)
    cmp_p.add_argument("--workers", type=int, default=1, help="parallel runs")
    cmp_p.add_argument("--format", choices=("csv", "table"), default="csv")
    cmp_p.add_argument("--out", default=None, help="write the table here")

    norm_p = sub.add_parser("normalize-trace", help="min-max scale a trace CSV")
    norm_p.add_argument("--in", dest="infile", required=True)
    norm_p.add_argument("--out", dest="outfile", required=True)
    norm_p.add_argument("--max-mbps", type=float, default=TRACE_MAX_MBPS)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {"seed": args.seed, "duration_s": args.duration}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.scenario in PRESET_CASES:
        if args.controller is None:
            raise ScenarioError("preset scenarios need --controller")
        scenario = preset_scenario(args.scenario, args.controller, **overrides)
    else:
        with open(args.scenario, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too deep
                raise ScenarioError(f"{args.scenario}: not valid JSON: {exc}") from exc
        # Overrides go into the file's own keys, so that the builder checks
        # them and starts a file's GCC keys from the overriding kind's
        # parameters. --controller alone supplies the object a file leaves out.
        if isinstance(data, dict):
            controller = data.get("controller", {})
            if args.controller is not None and isinstance(controller, dict):
                data["controller"] = dict(controller, kind=args.controller.value)
            data.update(overrides)
        scenario = scenario_from_dict(data)
    metrics, log = run_scenario(scenario, timeline=args.timeline is not None)
    if args.timeline is not None:
        log.to_csv(args.timeline)
    if args.out is not None:
        emit_metrics_csv(metrics, args.out)
    else:
        for line in metrics_csv_lines(metrics):
            print(line)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cases = [c.strip() for c in args.cases.split(",") if c.strip()]
    seeds = list(range(1, args.seeds + 1))
    rows = run_comparison(
        cases, args.controllers, seeds, duration_s=args.duration, workers=args.workers
    )
    if args.format == "table":
        lines = format_table_text(rows).splitlines()
    else:
        lines = table_csv_lines(rows)
    if args.out is not None:
        write_lines(args.out, lines)
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    samples = load_trace_csv(args.infile)
    write_trace_csv(args.outfile, normalize_trace(samples, max_mbps=args.max_mbps))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_normalize(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"l4sim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
