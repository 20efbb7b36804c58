"""Command-line front end: budget, simulate, compare.

Exit codes:
  0  success, no deadline violations
  1  usage or configuration error (bad flags, malformed scenario,
     incomparable reports)
  2  simulation completed but deadline violations exist (for CI gating)
  3  output could not be written
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys

from .linkmodel import (
    PCIE_ALLOWED_LANES,
    PCIE_GENERATIONS,
    InvalidSpecError,
    OverheadModel,
    aggregate_rate,
    camera_stream_rate,
    feasible,
)
from .metrics import (
    IncomparableRunsError,
    budget_table,
    compare,
    export_structured,
    export_tabular,
    import_structured,
)
from .scenario import ScenarioError, load_scenario
from .simcore import run
from .topology import LinkStage

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with 2."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="acqsim", description="Image-acquisition link budgets and pipeline simulation")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("budget", parents=[], help="print effective link rates")
    b.add_argument("--gen", type=int, help="restrict to one PCIe generation (1..5)")
    b.add_argument("--lanes", type=int, help="restrict to one lane width (1/2/4/8/16)")
    b.add_argument("--efficiency", type=float, default=None, help="protocol efficiency in (0, 1]")
    b.add_argument("--max-payload", type=int, default=None, help="derive efficiency: payload bytes per packet")
    b.add_argument("--header-overhead", type=int, default=None, help="derive efficiency: header bytes per packet")
    b.add_argument("--flow-control", type=float, default=None, help="derive efficiency: flow-control factor")
    b.add_argument("--all", action="store_true", help="full matrix plus interface presets")
    b.add_argument(
        "--presets",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include non-PCIe interface presets",
    )

    s = sub.add_parser("simulate", help="run a scenario file and write report files")
    s.add_argument("scenario", help="scenario JSON file")
    s.add_argument("--output", "-o", default=None, help="output stem (default: <scenario>-report)")
    s.add_argument(
        "--format",
        choices=["structured", "tabular", "both"],
        default="both",
        help="which report files to write",
    )
    s.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    c = sub.add_parser("compare", help="delta table between two structured reports")
    c.add_argument("report_a", help="baseline structured report (JSON)")
    c.add_argument("report_b", help="candidate structured report (JSON)")
    c.add_argument("--output", "-o", default=None, help="also write the delta table as JSON")
    return p


# --- budget -----------------------------------------------------------------


def _cmd_budget(args) -> int:
    if args.gen is not None and args.gen not in PCIE_GENERATIONS:
        print(f"error: --gen must be 1..5, got {args.gen}", file=sys.stderr)
        return EXIT_CONFIG
    if args.lanes is not None and args.lanes not in PCIE_ALLOWED_LANES:
        print(f"error: --lanes must be one of 1/2/4/8/16, got {args.lanes}", file=sys.stderr)
        return EXIT_CONFIG

    if args.efficiency is not None:
        efficiency = args.efficiency
    elif any(v is not None for v in (args.max_payload, args.header_overhead, args.flow_control)):
        overhead = OverheadModel(
            max_payload_bytes=args.max_payload if args.max_payload is not None else 256,
            header_overhead_bytes=args.header_overhead if args.header_overhead is not None else 28,
            flow_control_factor=args.flow_control if args.flow_control is not None else 1.0,
        )
        efficiency = overhead.efficiency
    else:
        efficiency = 1.0

    generations = (args.gen,) if args.gen is not None else PCIE_GENERATIONS
    lanes = (args.lanes,) if args.lanes is not None else PCIE_ALLOWED_LANES
    if args.presets is not None:
        include_presets = args.presets
    else:
        # A narrowed query prints just the asked-for rows unless --all.
        include_presets = args.all or (args.gen is None and args.lanes is None)
    if args.all:
        generations, lanes = PCIE_GENERATIONS, PCIE_ALLOWED_LANES

    try:
        rows = budget_table(
            generations=generations,
            lane_set=lanes,
            include_presets=include_presets,
            protocol_efficiency=efficiency,
        )
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"# protocol efficiency: {efficiency:.6f}")
    print(f"{'link':<20} {'rate_gbps':>12}")
    for row in rows:
        print(f"{row.label:<20} {row.rate_gbps:>12.3f}")
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stem = args.output if args.output is not None else f"{args.scenario.rsplit('.', 1)[0]}-report"
    configs = scenario.configs()
    if args.seed is not None:
        configs = [dataclasses.replace(c, seed=args.seed + i) for i, c in enumerate(configs)]

    multi = len(scenario.pipelines) > 1
    bases = [f"{stem}-cam{i}" for i in range(len(configs))] if multi else [stem]
    suffixes = {"structured": (".json",), "tabular": (".csv",), "both": (".json", ".csv")}[args.format]
    for path in (base + suffix for base in bases for suffix in suffixes):
        if os.path.exists(path) and os.path.samefile(path, args.scenario):
            print(f"error: output {path} would overwrite the scenario file", file=sys.stderr)
            return EXIT_CONFIG
    if multi:
        demand = aggregate_rate(scenario.cameras)
        print(f"aggregate camera demand: {demand:.3f} Gb/s over {len(scenario.cameras)} pipelines")

    total_violations = 0
    for i, (topo, cfg) in enumerate(zip(scenario.pipelines, configs)):
        for stage in topo.stages:
            if isinstance(stage, LinkStage):
                verdict = feasible(topo.camera, stage.link)
                if not verdict.feasible:
                    print(
                        f"warning: {topo.name}: camera demand "
                        f"{camera_stream_rate(topo.camera):.3f} Gb/s exceeds a link by "
                        f"{-verdict.margin_gbps:.3f} Gb/s",
                        file=sys.stderr,
                    )
        try:
            report = run(topo, cfg)
        except InvalidSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

        base = bases[i]
        try:
            if args.format in ("structured", "both"):
                _write(base + ".json", export_structured(report))
                print(f"wrote {base}.json")
            if args.format in ("tabular", "both"):
                _write(base + ".csv", export_tabular(report))
                print(f"wrote {base}.csv")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO

        a = report.aggregates
        print(
            f"{topo.name}: generated={a.generated} delivered={a.delivered} "
            f"dropped={a.dropped} in_flight={a.in_flight}"
        )
        print(
            f"{topo.name}: latency ns min={a.latency_min_ns} p50={a.latency_p50_ns} "
            f"p99={a.latency_p99_ns} max={a.latency_max_ns} "
            f"throughput={a.throughput_gbps:.6f} Gb/s"
        )
        print(
            f"{topo.name}: timestamp rms={a.timestamp_rms_ns:.3f} ns, "
            f"violations: safety={a.safety_violations} control={a.control_violations} "
            f"timestamp={a.timestamp_violations}"
        )
        total_violations += len(a.violations)

    return EXIT_VIOLATIONS if total_violations else EXIT_OK


# --- compare ----------------------------------------------------------------


def _cmd_compare(args) -> int:
    try:
        with open(args.report_a, "r", encoding="utf-8") as fh:
            report_a = import_structured(fh.read())
        with open(args.report_b, "r", encoding="utf-8") as fh:
            report_b = import_structured(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        table = compare(report_a, report_b)
    except IncomparableRunsError as exc:
        print(f"error: incomparable runs: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    print(f"# a: {report_a.scenario} ({report_a.digest})")
    print(f"# b: {report_b.scenario} ({report_b.digest})")
    print(f"{'metric':<24} {'a':>16} {'b':>16} {'delta (b-a)':>16}")
    for metric, cells in table.items():
        va, vb, delta = cells["a"], cells["b"], cells["delta"]
        if isinstance(va, float) or isinstance(vb, float):
            print(f"{metric:<24} {va:>16.6f} {vb:>16.6f} {delta:>16.6f}")
        else:
            print(f"{metric:<24} {va:>16} {vb:>16} {delta:>16}")

    if args.output is not None:
        try:
            _write(args.output, json.dumps(table, sort_keys=True, indent=2) + "\n")
            print(f"wrote {args.output}")
        except OSError as exc:
            print(f"error: cannot write delta table: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG

    commands = {"budget": _cmd_budget, "simulate": _cmd_simulate, "compare": _cmd_compare}
    # The frame graphs a command builds hold no reference cycles
    # (tests/test_simcore.py::TestReferenceCycles), so collector passes over
    # them reclaim nothing; pause it for the command, then restore it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return commands[args.command](args)
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
