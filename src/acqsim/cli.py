"""Command-line front end: budget, simulate, compare.

Exit codes:
  0  success, no deadline violations
  1  usage or configuration error (bad flags, malformed scenario,
     incomparable reports)
  2  simulation completed but deadline violations exist (for CI gating)
  3  output could not be written: a report file, or stdout

A command that cannot go on raises; main alone prints its one `error: `
line and picks the exit code. A command writes its files, then its
stdout: main holds what the command prints and writes it once, at the
end, after any error line. Where os.fork exists, `simulate
--format both` and `compare` split their work with a forked child, one
core each (_parallel), to the same files, stdout and exit code.

`simulate --format both` opens each pipeline's .json before the fork, so
a .json that cannot be opened exits 3 before any .csv is written. The
child then builds and writes the .csv while this process builds and
writes the .json; a .csv that cannot be written comes back as the
child's OSError and exits 3 once the .json is written. A .json write
that fails partway (a full disk) may leave the .csv written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import sys
import threading
import warnings

from . import metrics
from .linkmodel import (
    PCIE_ALLOWED_LANES,
    PCIE_GENERATIONS,
    EnvelopeWarning,
    InvalidSpecError,
    OverheadModel,
    aggregate_rate,
    budget_table,
    camera_stream_rate,
    feasible,
)
from .metrics import (
    IncomparableRunsError,
    compare,
    export_structured,
    export_tabular,
    # Not called here, but perfbench/traced.py wraps cli.import_structured by name.
    import_structured,  # noqa: F401
    import_summary,
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


class _Failure(Exception):
    """_Failure(code, message): the command stops, and main prints `error: <message>` and exits with code."""


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
    # Efficiency flags are stored only when given, the overhead ones under OverheadModel's field names.
    omit = argparse.SUPPRESS
    b.add_argument("--efficiency", type=float, default=omit, help="protocol efficiency in (0, 1]")
    b.add_argument("--max-payload", dest="max_payload_bytes", type=int, default=omit,
                   help="derive efficiency: payload bytes per packet")
    b.add_argument("--header-overhead", dest="header_overhead_bytes", type=int, default=omit,
                   help="derive efficiency: header bytes per packet")
    b.add_argument("--flow-control", dest="flow_control_factor", type=float, default=omit,
                   help="derive efficiency: flow-control factor")
    b.add_argument("--all", action="store_true", help="full matrix plus interface presets")

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
        raise _Failure(EXIT_CONFIG, f"--gen must be 1..5, got {args.gen}")
    if args.lanes is not None and args.lanes not in PCIE_ALLOWED_LANES:
        raise _Failure(EXIT_CONFIG, f"--lanes must be one of 1/2/4/8/16, got {args.lanes}")

    given = vars(args)
    overhead = {f.name: given[f.name] for f in dataclasses.fields(OverheadModel) if f.name in given}
    if overhead and "efficiency" in given:
        flags = "--max-payload, --header-overhead or --flow-control"
        raise _Failure(EXIT_CONFIG, f"--efficiency cannot be combined with {flags}")

    generations = (args.gen,) if args.gen is not None else PCIE_GENERATIONS
    lanes = (args.lanes,) if args.lanes is not None else PCIE_ALLOWED_LANES
    # A narrowed query prints just the asked-for rows unless --all.
    include_presets = args.all or (args.gen is None and args.lanes is None)
    if args.all:
        generations, lanes = PCIE_GENERATIONS, PCIE_ALLOWED_LANES

    efficiency = OverheadModel(**overhead).efficiency if overhead else given.get("efficiency", 1.0)
    rows = budget_table(
        generations=generations,
        lane_set=lanes,
        include_presets=include_presets,
        protocol_efficiency=efficiency,
    )
    print(f"# protocol efficiency: {efficiency:.6f}")
    print(f"{'link':<20} {'rate_gbps':>12}")
    for row in rows:
        print(f"{row.label:<20} {row.rate_gbps:>12.3f}")
    return EXIT_OK


# --- two parts at once -------------------------------------------------------


_LOAD_ERRORS = (OSError, ValueError)


def _parallel(here, there) -> tuple:
    """(here(), there()), with there() run in a forked child while this process runs here().

    The child sends there()'s result, or its error if it is one of
    _LOAD_ERRORS, pickled over a pipe, and leaves through os._exit, so it
    writes no buffer it inherited. here()'s error wins, and the child is
    then killed. there() runs here instead when os.fork is missing, when
    other threads run, when the pipe or the fork fails, or when the child
    ends without a result (a crash, a kill, any other error, or one that
    does not pickle), so an unexpected error shows its own traceback.
    """
    pid = None
    if hasattr(os, "fork") and threading.active_count() == 1:  # forking other threads is unsafe
        import pickle  # only here, so that the commands that do not fork do not import it

        try:
            read_fd, write_fd = os.pipe()
        except OSError:  # no descriptor to spare
            pass
        else:
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read_fd)
                os.close(write_fd)
    if pid is None:
        return here(), there()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = there()
            except _LOAD_ERRORS as exc:
                result = exc
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            code = 0
        finally:
            os._exit(code)  # no exit handlers, no flush of the parent's files

    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            result_here = here()
            payload = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)  # here() failed, so there()'s result is not wanted
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if payload and os.waitstatus_to_exitcode(status) == 0:
        result = pickle.loads(payload)
    else:  # the child ended without a result
        result = there()
    if isinstance(result, BaseException):
        raise result
    return result_here, result


# --- simulate ---------------------------------------------------------------


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _same_file(a: str, b: str) -> bool:
    """Whether both paths name one existing file."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # either is missing or cannot be read
        return False


def _cmd_simulate(args) -> int:
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", EnvelopeWarning)
            scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise _Failure(EXIT_CONFIG, f"cannot read scenario: {exc}")
    for message in dict.fromkeys(str(w.message) for w in caught):  # each distinct message once, in order
        print(f"warning: {message}", file=sys.stderr)

    stem = args.output if args.output is not None else f"{os.path.splitext(args.scenario)[0]}-report"
    if args.seed is not None:
        scenario.base_config = dataclasses.replace(scenario.base_config, seed=args.seed)
    configs = scenario.configs()

    multi = len(scenario.pipelines) > 1
    bases = [f"{stem}-cam{i}" for i in range(len(configs))] if multi else [stem]
    suffixes = {"structured": (".json",), "tabular": (".csv",), "both": (".json", ".csv")}[args.format]
    # Built per call, not at import, so that a wrapper installed on this module's exporters is the one called.
    exporters = {".json": export_structured, ".csv": export_tabular}
    # A wrapper keeps what it records in the process that calls it, so a wrapped CSV exporter is called
    # here. This keeps the benchmark's tracer working until it times _parallel itself (ROADMAP).
    parallel = args.format == "both" and export_tabular is metrics.export_tabular
    for path in (base + suffix for base in bases for suffix in suffixes):
        if _same_file(path, args.scenario):
            raise _Failure(EXIT_CONFIG, f"output {path} would overwrite the scenario file")
    if multi:
        demand = aggregate_rate(scenario.cameras)
        print(f"aggregate camera demand: {demand:.3f} Gb/s over {len(scenario.cameras)} pipelines")

    total_violations = 0
    for i, (topo, cfg) in enumerate(zip(scenario.pipelines, configs)):
        for stage in topo.stages:
            if isinstance(stage, LinkStage):
                verdict = feasible(topo.camera, stage.link)
                if not verdict.feasible:
                    excess = -verdict.margin_gbps
                    # Three decimals, or three significant digits where three decimals would read 0.
                    shown = f"{excess:.3f}" if excess >= 0.001 else f"{excess:.3g}"
                    print(
                        f"warning: {topo.name}: camera demand "
                        f"{camera_stream_rate(topo.camera):.3f} Gb/s exceeds a link by {shown} Gb/s",
                        file=sys.stderr,
                    )
        report = run(topo, cfg)

        base = bases[i]
        try:
            if parallel:
                # Opened before the fork, so that a .json that cannot be opened fails before the child writes
                # the .csv. The child builds and writes the .csv itself, and sends back only None or its error.
                with open(base + ".json", "w", encoding="utf-8") as fh:
                    _parallel(lambda: fh.write(export_structured(report)),
                              lambda: _write(base + ".csv", export_tabular(report)))
            else:
                for suffix in suffixes:
                    _write(base + suffix, exporters[suffix](report))
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot write report: {exc}")
        for suffix in suffixes:
            print(f"wrote {base}{suffix}")

        a = report.aggregates
        print(
            f"{topo.name}: generated={a.generated} delivered={a.delivered} "
            f"dropped={a.dropped} in_flight={a.in_flight}"
        )
        latency = (
            f"min={a.latency_min_ns} p50={a.latency_p50_ns} p99={a.latency_p99_ns} max={a.latency_max_ns}"
            if a.delivered
            else "n/a (no frame delivered)"  # the report keeps its zeros
        )
        print(f"{topo.name}: latency ns {latency} throughput={a.throughput_gbps:.6f} Gb/s")
        print(
            f"{topo.name}: timestamp rms={a.timestamp_rms_ns:.3f} ns, "
            f"violations: safety={a.safety_violations} control={a.control_violations} "
            f"timestamp={a.timestamp_violations}"
        )
        total_violations += a.safety_violations + a.control_violations + a.timestamp_violations

    return EXIT_VIOLATIONS if total_violations else EXIT_OK


# --- compare ----------------------------------------------------------------


def _read_summary(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return import_summary(fh.read())
    except ValueError as exc:  # a JSON, UTF-8, nesting or schema fault; an OSError names its path
        raise ValueError(f"{path}: {exc}") from None


def _cmd_compare(args) -> int:
    for path in (args.report_a, args.report_b):
        if args.output is not None and _same_file(args.output, path):
            raise _Failure(EXIT_CONFIG, f"output {args.output} would overwrite the report {path}")
    try:
        report_a, report_b = _parallel(
            lambda: _read_summary(args.report_a), lambda: _read_summary(args.report_b)
        )
    except _LOAD_ERRORS as exc:
        raise _Failure(EXIT_CONFIG, f"cannot load reports: {exc}")
    try:
        table = compare(report_a, report_b)
    except IncomparableRunsError as exc:
        raise _Failure(EXIT_CONFIG, f"incomparable runs: {exc}")

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
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot write delta table: {exc}")
        print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    commands = {"budget": _cmd_budget, "simulate": _cmd_simulate, "compare": _cmd_compare}
    # The frame graphs a command builds hold no reference cycles
    # (tests/test_simcore.py::TestReferenceCycles), so collector passes over
    # them reclaim nothing; pause it for the command, then restore it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as held:  # written below, after every file
            args = parser.parse_args(argv)  # --help prints and exits in here
            code = commands[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # from --help
        code = exc.code
    except (_Failure, ScenarioError, InvalidSpecError) as exc:
        code, message = exc.args if isinstance(exc, _Failure) else (EXIT_CONFIG, str(exc))
        print(f"error: {message}", file=sys.stderr)
    finally:
        if was_enabled:
            gc.enable()

    text = held.getvalue()
    if not text:
        return code
    if sys.stdout is None:  # closed from the start, as by `>&-`
        print("error: cannot write stdout: it is closed", file=sys.stderr)
        return EXIT_IO
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # Send what is still buffered to the null device, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that has gone needs no message
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
