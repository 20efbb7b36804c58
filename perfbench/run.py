#!/usr/bin/env python3
"""Benchmark of acqsim's host time and memory, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all      # every workload, untraced then traced
  python3 perfbench/run.py --self-check        # every workload once, tiny, through the gate

Every number is host time (how long the simulator takes) or host memory,
never simulated time.  Runs are closed-loop: one child process at a time,
each started after the previous one ended.  The seed goes into the
scenario's ``sim.seed`` and nowhere else.

With ``--trace 0`` the run times the real CLI in fresh interpreters,
scales each wall time to a reference host speed measured by
``calibrate.py`` around it, and reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it
runs the CLI under the layer wrappers of ``traced.py``, reads per-phase
RSS with ``phase_rss.py`` and reports the per-layer metrics.  Every
simulate output goes through the correctness gate of ``gate.py``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACED = os.path.join(HERE, "traced.py")
PHASE_RSS = os.path.join(HERE, "phase_rss.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")

MODEL_NOTE = (
    "The model is unvalidated against hardware: the repository holds no reference "
    "measurements, so the benchmark reports no accuracy figure."
)
SELF_CHECK_FRAMES = 40
CHILD_TIMEOUT_S = 100  # a hung child is killed, so a run still ends within three minutes
SETUP_CODE = "import sys, acqsim.cli; acqsim.cli.load_scenario(sys.argv[1])"
# Raw measurements printed and recorded beside the end-to-end metrics.
RAW = {"setup_wall_s": "s", "simulate_wall_s": "s", "compare_wall_s": "s", "calibration_s": "s"}


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def summary(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with the sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        head = read_text(os.path.join(ROOT, ".git", "HEAD")).strip()
        if head.startswith("ref: "):
            return read_text(os.path.join(ROOT, ".git", head[5:])).strip()
        return head
    except OSError:
        return "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_values(sim_doc: dict, cmp_doc: dict, generated: int) -> dict:
    """Per-layer values of one traced simulate and one traced compare."""
    spans = sim_doc["spans"]
    first = {}
    for s in spans:
        first.setdefault(s["name"], s)

    def self_time(name: str) -> float:
        span = first[name]
        return _duration(span) - sum(_duration(c) for c in spans if c["parent"] == span["id"])

    engine_self = self_time("simcore.run")
    inner = sim_doc["inner"]
    compare_spans = cmp_doc["spans"]
    return {
        "cli.import_s": _duration(first["cli.import"]),
        "scenario.load_s": _duration(first["scenario.load_scenario"]),
        "simcore.run_s": _duration(first["simcore.run"]),
        "simcore.engine_self_s": engine_self,
        "simcore.frames_per_s": generated / engine_self,
        "simcore.serialization.calls": inner["simcore.serialization"]["calls"],
        "simcore.serialization.s": inner["simcore.serialization"]["s"],
        "simcore.effective_rate.calls": inner["simcore.effective_rate"]["calls"],
        "timing.sample_timestamp.calls": inner["timing.sample_timestamp"]["calls"],
        "timing.sample_timestamp.s": inner["timing.sample_timestamp"]["s"],
        "metrics.build_report_s": _duration(first["metrics.build_report"]),
        "timing.check_deadlines_s": _duration(first["timing.check_deadlines"]),
        "metrics.export_structured_s": _duration(first["metrics.export_structured"]),
        "metrics.export_structured_bytes": first["metrics.export_structured"]["bytes"],
        "metrics.export_tabular_s": _duration(first["metrics.export_tabular"]),
        "metrics.export_tabular_bytes": first["metrics.export_tabular"]["bytes"],
        "cli.self_s": self_time("cli.main"),
        "metrics.import_structured_s": sum(
            _duration(s) for s in compare_spans if s["name"] == "metrics.import_structured"
        ),
        "metrics.compare_s": sum(_duration(s) for s in compare_spans if s["name"] == "metrics.compare"),
    }


class Run:
    """One benchmark run: one workload at one seed and size, traced or not."""

    def __init__(self, workload: str, seed: int, size: int, reference, default_seed: bool,
                 calibration_ref_s: float):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.scenario = workloads.SCENARIOS[workload](seed, size)
        self.expected_exit = workloads.EXPECTED_EXIT[workload]
        self.reference = reference
        self.default_seed = default_seed
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        with open(os.path.join(self.dir, "scenario.json"), "w", encoding="utf-8") as fh:
            json.dump(self.scenario, fh)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.samples = defaultdict(list)
        self.spans: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.outputs = None  # sha256 of both exports of the first fully checked run
        self.counts: dict = {}
        self.calibration_ref_s = calibration_ref_s
        self.calibration_digest = None
        self.last_calibration = None  # wall s of the calibration that ended the previous iteration

    # -- children ------------------------------------------------------------

    def spawn(self, argv: list, tag: str):
        """Run one child to its end; returns (exit code, wall s, peak RSS MB)."""
        base = os.path.join(self.dir, tag)
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, cwd=self.dir, env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # keep the maximum over every child so far.
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        return child.returncode, wall, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB

    def record(self, tag: str, failures: list) -> None:
        if failures:
            self.failed += 1
            self.failures += [f"{tag}: {f}" for f in failures]

    def check_exports(self, stem: str, code: int, expected_exit: int) -> list:
        """Gate the files a simulation wrote under stem."""
        if code != expected_exit:
            return [f"exit code {code}, expected {expected_exit}"]
        try:
            structured = read_text(os.path.join(self.dir, stem + ".json"))
            tabular = read_text(os.path.join(self.dir, stem + ".csv"))
        except OSError as exc:
            return [f"missing output: {exc}"]
        digests = (gate.sha256(structured), gate.sha256(tabular))
        if self.outputs is not None:
            return [] if digests == self.outputs else ["output differs from the first run with the same inputs"]
        try:
            failures = gate.check_simulation(self.scenario, structured, tabular, self.reference, self.default_seed)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]
        if not failures:
            self.outputs = digests
            self.counts = gate.counts(json.loads(structured))
        return failures

    def calibrate(self) -> float:
        """Wall s of one run of calibrate.py, which uses no acqsim code."""
        code, wall, _ = self.spawn([CALIBRATE], "calibrate")
        digest = read_text(os.path.join(self.dir, "calibrate.out")).strip() if code == 0 else None
        if self.calibration_digest is None:
            self.calibration_digest = digest
        ok = code == 0 and digest == self.calibration_digest
        self.record("calibrate", [] if ok else [f"exit code {code}, digest {digest}"])
        self.samples["calibration_s"].append(wall)
        return wall

    def setup(self) -> float:
        code, wall, _ = self.spawn(["-c", SETUP_CODE, "scenario.json"], "setup")
        self.record("setup", [] if code == 0 else [f"exit code {code}"])
        return wall

    def simulate(self, stem: str, traced_as=None):
        cli = ["simulate", "scenario.json", "--output", stem]
        spans_path = os.path.join(self.dir, stem + "-spans.json")
        argv = ["-m", "acqsim", *cli] if traced_as is None else [TRACED, traced_as, spans_path, "--", *cli]
        code, wall, rss = self.spawn(argv, stem)
        self.record(f"simulate {stem}", self.check_exports(stem, code, self.expected_exit))
        return wall, rss, spans_path

    def compare(self, stem: str, traced_as=None):
        cli = ["compare", stem + ".json", stem + ".json"]
        spans_path = os.path.join(self.dir, stem + "-compare-spans.json")
        argv = ["-m", "acqsim", *cli] if traced_as is None else [TRACED, traced_as, spans_path, "--", *cli]
        code, wall, _ = self.spawn(argv, stem + "-compare")
        self.record(f"compare {stem}", self.check_compare(code, stem + "-compare"))
        return wall, spans_path

    def check_compare(self, code: int, tag: str) -> list:
        """A report compared with itself exits 0 with every delta zero."""
        if code != 0:
            return [f"exit code {code}, expected 0"]
        lines = read_text(os.path.join(self.dir, tag + ".out")).splitlines()
        rows = [line.split() for line in lines if not line.startswith("#")][1:]  # after the header
        try:
            if rows and all(len(r) == 4 and float(r[3]) == 0 for r in rows):
                return []
        except ValueError:
            pass
        return ["compare of a report with itself does not print a zero delta for every metric"]

    def phase_rss(self, stem: str) -> dict:
        out = os.path.join(self.dir, stem + "-rss.json")
        code, _, _ = self.spawn([PHASE_RSS, "scenario.json", stem, out], stem)
        failures = self.check_exports(stem, code, 0)
        self.record(f"phase_rss {stem}", failures)
        return {} if failures else load_json(out)

    # -- iterations ----------------------------------------------------------

    def untraced(self, i: int) -> None:
        """Times setup, simulate and compare, each between two calibrations.

        The host's speed drifts by tens of percent within a minute, and
        calibrate.py drifts with it.  Each timing is therefore reported
        at the reference speed: its wall time times the reference
        calibration time over the mean of the calibrations either side.
        """
        if self.last_calibration is None:
            self.last_calibration = self.calibrate()
        setup = self.setup()
        simulate, rss, _ = self.simulate("report")
        middle = self.calibrate()
        compare = self.compare("report")[0]
        after = self.calibrate()
        before_scale = 2 * self.calibration_ref_s / (self.last_calibration + middle)
        after_scale = 2 * self.calibration_ref_s / (middle + after)
        for name, wall, scale in (("setup", setup, before_scale), ("simulate", simulate, before_scale),
                                  ("compare", compare, after_scale)):
            self.samples[name + "_s"].append(wall * scale)
            self.samples[name + "_wall_s"].append(wall)
        self.samples["peak_rss_mb"].append(rss)
        self.last_calibration = after

    def traced(self, i: int) -> None:
        trace_id = f"{self.workload}-s{self.seed}-{i}"
        plain_wall, _, _ = self.simulate("plain")
        wall, _, sim_spans = self.simulate("traced", trace_id)
        _, cmp_spans = self.compare("traced", trace_id)
        try:
            sim_doc, cmp_doc = load_json(sim_spans), load_json(cmp_spans)
        except (OSError, ValueError) as exc:
            self.record("traced", [f"no spans: {exc}"])
            return
        self.spans += sim_doc["spans"] + cmp_doc["spans"]
        if self.counts:
            values = layer_values(sim_doc, cmp_doc, self.counts["frames.generated"])
            values["trace.overhead_s"] = wall - plain_wall
            values.update(self.phase_rss("phase"))
            for name, value in values.items():
                self.samples[name].append(value)

    def measure(self, iteration, seconds: float) -> int:
        """Repeat iteration until the next one would end past the deadline."""
        deadline = time.perf_counter() + seconds
        durations: list = []
        while True:
            start = time.perf_counter()
            iteration(len(durations))
            durations.append(time.perf_counter() - start)
            if time.perf_counter() + statistics.median(durations) > deadline:
                return len(durations)


def run_workload(spec: dict, references: dict, workload: str, seed: int, seconds: float, trace: bool,
                 size=None, out=sys.stdout) -> dict:
    """One benchmark run; prints metric lines and returns the result object."""
    reference = references["workloads"][workload] if size is None else None
    run = Run(workload, seed, size or references["frames"], reference, seed == references["default_seed"],
              references["calibration_s"])
    try:
        iterations = run.measure(run.traced if trace else run.untraced, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if trace:
        for name, value in run.counts.items():
            run.samples[name] = [value]
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in metric_specs if not run.samples[m["name"]]]
    stats = {m["name"]: summary(run.samples[m["name"]]) for m in metric_specs if m["name"] not in missing}
    shown = {**stats, **{name: summary(run.samples[name]) for name in RAW if run.samples[name]}}
    units = {**{m["name"]: m["unit"] for m in metric_specs}, **RAW}
    for f in run.failures:
        print(f"FAILED {workload}: {f}", file=sys.stderr)
    for name, s in shown.items():
        print(f"{workload} {name}: {_fmt(s['median'])} {units[name]} "
              f"(q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n={s['n']})", file=out)
    print(f"{workload} runs_failed: {run.failed / run.attempted:.6g} share "
          f"({run.failed} of {run.attempted} runs)", file=out)
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                    for m in metric_specs if m["name"] in stats},
    }
    write_results(spec, run, trace, iterations, shown, missing, result)
    if missing:
        print(f"no samples for: {', '.join(missing)}", file=sys.stderr)
    return result


def write_results(spec, run: Run, trace: bool, iterations: int, stats: dict, missing: list, result) -> None:
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{run.workload}-f{run.size}-s{run.seed}-trace{int(trace)}"
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(run.workload)
    doc = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": run.workload,
        "why": why,
        "seed": run.seed,
        "frames": run.size,
        "iterations": iterations,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "missing": missing,
        "model": MODEL_NOTE,
        "metrics": stats,
        "result": result,
    }
    with open(os.path.join(results_dir, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if trace:
        with open(os.path.join(results_dir, name + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(run.spans, fh)


def self_check(spec: dict, references: dict) -> int:
    """Every workload once at a tiny size, both modes, plus a gate that must reject bad output."""
    problems = []
    for workload in workloads.SCENARIOS:
        for trace in (False, True):
            result = run_workload(spec, references, workload, references["default_seed"], 0, trace,
                                  size=SELF_CHECK_FRAMES, out=sys.stderr)
            wanted = {m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])}
            if not result["correct"] or set(result["metrics"]) != wanted:
                problems.append(f"{workload} trace={int(trace)}: {json.dumps(result)}")
    scenario = workloads.SCENARIOS["overload-oldest"](1, SELF_CHECK_FRAMES)
    import acqsim.metrics
    from acqsim.scenario import parse_scenario
    from acqsim.simcore import run as simulate

    parsed = parse_scenario(scenario)
    report = simulate(parsed.pipelines[0], parsed.configs()[0])
    structured, tabular = acqsim.metrics.export_structured(report), acqsim.metrics.export_tabular(report)
    if gate.check_simulation(scenario, structured, tabular, None, False):
        problems.append("gate rejects a correct in-process run")
    bad = json.loads(structured)
    bad["aggregates"]["delivered"] += 1
    bad_text = json.dumps(bad, sort_keys=True, separators=(",", ":")) + "\n"
    if not gate.check_simulation(scenario, bad_text, tabular, None, False):
        problems.append("gate accepts a report that breaks frame conservation")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "acqsim", "cli.py")):
        print(f"error: no acqsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Users do not pay for bytecode compilation on every run, so neither does the first timed child.
    compileall.compile_dir(os.path.join(SRC, "acqsim"), quiet=1)
    from acqsim.linkmodel import EnvelopeWarning

    # overload-oldest's 32 KiB frames are outside the camera envelope on purpose.
    warnings.filterwarnings("ignore", category=EnvelopeWarning)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    references = load_json(os.path.join(HERE, "reference.json"))
    if args.self_check:
        return self_check(spec, references)
    seed = references["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        ok = True
        for workload in workloads.SCENARIOS:
            for trace in (False, True):
                ok &= run_workload(spec, references, workload, seed, seconds, trace)["correct"]
        print(f"model: {MODEL_NOTE}")
        return 0 if ok else 1
    if args.workload not in workloads.SCENARIOS:
        parser.error(f"--workload must be one of {', '.join(workloads.SCENARIOS)} or all")
    result = run_workload(spec, references, args.workload, seed, seconds, bool(args.trace))
    if len(result["metrics"]) != len(spec["per_layer"] if args.trace else spec["end_to_end"]):
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
