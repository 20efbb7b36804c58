"""Correctness gate for one ``acqsim simulate`` run of a workload.

``check_simulation`` returns failure messages; an empty list means the
run passed.  The harness checks the first simulation of a benchmark run
in full and requires every later one to write byte-identical files,
compared by ``sha256``.
"""

from __future__ import annotations

import csv
import hashlib
import json


def counts(report: dict) -> dict:
    """Exact counts of a structured report.

    For the benchmark's workloads none of them depends on the seed: the
    seed only moves clock jitter and processing draws, and no workload
    queues on either.
    """
    a = report["aggregates"]
    reasons = [f["drop_reason"] for f in report["frames"]]
    kinds = [v["kind"] for v in a["violations"]]
    return {
        "frames.generated": a["generated"],
        "frames.delivered": a["delivered"],
        "frames.dropped.buffer_overflow": reasons.count("buffer_overflow"),
        "frames.dropped.backpressure": reasons.count("backpressure"),
        "frames.in_flight": a["in_flight"],
        "timing.violations.safety": kinds.count("safety"),
        "timing.violations.control": kinds.count("control"),
        "timing.violations.timestamp": kinds.count("timestamp"),
        "simcore.occupancy_points": sum(len(t) for t in report["occupancy"].values()),
    }


def expected_generated(scenario: dict) -> int:
    """Frames the scenario's stop condition implies (one camera)."""
    sim = scenario["sim"]
    if "n_frames" in sim:
        return sim["n_frames"]
    period = max(1, round(1e9 / scenario["camera"]["frame_rate"]))
    return sim["duration_ns"] // period + 1


def _tabular_aggregates(tabular: str) -> dict:
    block = tabular.split("\n\n", 1)[1]
    rows = list(csv.reader(block.splitlines()))
    return {key: float(value) if "." in value or "e" in value else int(value) for key, value in rows[1:]}


def _structured_aggregates(report: dict) -> dict:
    a = report["aggregates"]
    kinds = [v["kind"] for v in a["violations"]]
    out = {k: v for k, v in a.items() if k not in ("violations", "high_water_bytes")}
    out["empty"] = int(a["empty"])
    for kind in ("safety", "control", "timestamp"):
        out[f"{kind}_violations"] = kinds.count(kind)
    out["elapsed_ns"] = report["elapsed_ns"]
    for idx, value in a["high_water_bytes"].items():
        out[f"high_water_stage{idx}_bytes"] = value
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_simulation(scenario: dict, structured: str, tabular: str, reference: dict | None,
                     default_seed: bool) -> list:
    """Full gate: conservation, frame count, round trip, CSV block, references."""
    from acqsim.metrics import export_structured, import_structured

    failures = []
    report = json.loads(structured)
    a = report["aggregates"]
    if a["generated"] != a["delivered"] + a["dropped"] + a["in_flight"]:
        failures.append("frame conservation: generated != delivered + dropped + in_flight")
    if a["generated"] != len(report["frames"]):
        failures.append("aggregates.generated differs from the number of exported frames")
    want = expected_generated(scenario)
    if a["generated"] != want:
        failures.append(f"generated {a['generated']} frames, the stop condition implies {want}")
    if export_structured(import_structured(structured)) != structured:
        failures.append("structured export does not re-export byte-identically")
    if _tabular_aggregates(tabular) != _structured_aggregates(report):
        failures.append("tabular aggregates block differs from the structured aggregates")
    if reference is not None:
        got = counts(report)
        for name, value in reference["counts"].items():
            if got[name] != value:
                failures.append(f"{name} = {got[name]}, reference {value}")
        if default_seed and sha256(structured) != reference["sha256"]:
            failures.append("structured export differs from the reference sha256")
    return failures

