"""Report assembly, canonical serialization and comparison.

Structured exports are canonical JSON: sorted keys, compact separators,
shortest round-trip float formatting.  Byte equality of two exports is
therefore a meaningful determinism check.  Tabular exports are a flat
per-frame CSV table followed by a metric/value aggregates block.

Percentiles use the nearest-rank method (no interpolation) so every
implementation of the same definition reproduces them exactly.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain, islice
from typing import NamedTuple

from .linkmodel import InvalidSpecError
from .simcore import (
    DISPOSITION_DELIVERED,
    DISPOSITION_DROPPED,
    DISPOSITION_IN_FLIGHT,
    FRAME_VALUES,
    FrameTable,
    SimConfig,
)
from .timing import DeadlineViolation, check_deadlines, timestamp_rms
from .topology import (
    INT_KEYED,
    JSON_FORMS,
    Topology,
    check_columns,
    check_int_keyed,
    check_runnable,
    copy_count,
    decode_int_keyed,
    from_dict,
    one,
    to_dict,
    topology_digest,
)

SCHEMA_VERSION = 1


class IncomparableRunsError(ValueError):
    """Two reports cannot be compared metric-by-metric."""


def nearest_rank(sorted_values, percentile: int):
    """Nearest-rank percentile of an ascending list (integer percentile)."""
    n = len(sorted_values)
    if n == 0:
        return 0
    k = -(-percentile * n // 100)  # ceil(percentile/100 * n), exact
    return sorted_values[max(0, k - 1)]


@dataclass
class Aggregates:
    """Run-level metrics; a pure function of the run's recorded data."""

    empty: bool
    generated: int
    delivered: int
    dropped: int
    in_flight: int
    throughput_gbps: float
    latency_min_ns: int
    latency_mean_ns: float
    latency_p50_ns: int
    latency_p99_ns: int
    latency_max_ns: int
    copy_count: int
    high_water_bytes: dict
    timestamp_rms_ns: float
    # Deadline misses by kind: delivered frames over each latency budget, and 1 if the RMS is over its budget.
    safety_violations: int
    control_violations: int
    timestamp_violations: int


def summarize(frames: FrameTable, topology: Topology, elapsed_ns: int, occupancy: dict) -> Aggregates:
    """Aggregate a run's frame table into run metrics.

    A run without frames yields zeroed aggregates with the `empty` flag
    set.  High-water mark i is the peak of occupancy trace i: frame spans
    cannot recover it, because equal-time admits and releases run in push
    order.
    """
    disposition = frames.disposition
    latencies = sorted(latency for latency in frames.latency_ns() if latency is not None)
    high_water = {idx: max((b for _, b in trace), default=0) for idx, trace in occupancy.items()}

    delivered_bits = sum(s for s, d in zip(frames.size_bytes, disposition) if d == DISPOSITION_DELIVERED) * 8
    throughput = delivered_bits / elapsed_ns if elapsed_ns > 0 else 0.0
    try:
        mean = sum(latencies) / len(latencies) if latencies else 0.0
    except OverflowError:
        raise InvalidSpecError("latencies too large for a finite mean") from None

    rms = timestamp_rms(frames) if disposition else 0.0
    deadlines = topology.deadlines

    return Aggregates(
        empty=not disposition,
        generated=len(disposition),
        delivered=len(latencies),
        dropped=disposition.count(DISPOSITION_DROPPED),
        in_flight=disposition.count(DISPOSITION_IN_FLIGHT),
        throughput_gbps=throughput,
        latency_min_ns=latencies[0] if latencies else 0,
        latency_mean_ns=mean,
        latency_p50_ns=nearest_rank(latencies, 50),
        latency_p99_ns=nearest_rank(latencies, 99),
        latency_max_ns=latencies[-1] if latencies else 0,
        copy_count=copy_count(topology),
        high_water_bytes=high_water,
        timestamp_rms_ns=rms,
        safety_violations=len(latencies) - bisect_right(latencies, deadlines.safety_ns),
        control_violations=len(latencies) - bisect_right(latencies, deadlines.control_ns),
        timestamp_violations=int(rms > deadlines.timestamp_rms_ns),
    )


@dataclass
class SimReport:
    """Everything a run produced, losslessly serializable."""

    scenario: str
    topology: Topology
    digest: str
    config: SimConfig
    elapsed_ns: int
    frames: FrameTable
    occupancy: dict
    link_busy_ns: dict
    aggregates: Aggregates
    schema_version: int


def build_report(topology: Topology, config: SimConfig, frames: FrameTable, elapsed_ns: int, occupancy: dict,
                 link_busy_ns: dict) -> SimReport:
    """The report of a run, around the engine's own frame table.  occupancy maps stage index to
    [(t, bytes_after)] (holding stages), link_busy_ns to total serialization ns (link stages)."""
    aggregates = summarize(frames, topology, elapsed_ns=elapsed_ns, occupancy=occupancy)
    return SimReport(
        scenario=topology.name,
        topology=topology,
        digest=topology_digest(topology),
        config=config,
        elapsed_ns=elapsed_ns,
        frames=frames,
        occupancy=occupancy,
        link_busy_ns=link_busy_ns,
        aggregates=aggregates,
        schema_version=SCHEMA_VERSION,
    )


# The int and float aggregates in field order, the order the tabular export writes them and compare reports them.
_SCALAR_METRICS = tuple(f.name for f in fields(Aggregates) if f.type in ("int", "float"))


# --- Structured (JSON) export ----------------------------------------------


# FrameTable's fields define the frame record.  Its list[<scalar>] fields are the frame's scalar keys, each with
# its JSON type, in field order, the order of the tabular export.  Its stage-major fields follow, in the JSON
# frame as the [ingress, egress] pairs of stage_times and the buffer_bytes map, and in the CSV three per stage.
_FRAME_SCALARS = {f.name: f.type.removeprefix("list[")[:-1] for f in fields(FrameTable) if "list[list[" not in f.type}
_STAGE_COLUMNS = tuple(f.name for f in fields(FrameTable) if "list[list[" in f.type)
_FRAME_KEYS = {**_FRAME_SCALARS, "stage_times": None, "buffer_bytes": None}


def _pairs(items, types: set) -> bool:
    """Whether each of items is a two-element array of values of types (json.loads gives every array as a list)."""
    return (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}
            and set(map(type, chain.from_iterable(items))) <= types)


def check_frames(docs, n_stages: int) -> dict:
    """Key -> column of docs, once checked to be a JSON array of frames of the exported shape: the
    frame keys and scalars as check_columns checks them, stage_times n_stages [ingress, egress] pairs
    of integers or nulls and buffer_bytes an object from stage index to an integer, a column at a time."""
    columns = check_columns("frame", _FRAME_KEYS, FRAME_VALUES, docs)
    spans = columns["stage_times"]
    if not set(map(type, spans)) <= {list} or not _pairs(list(chain.from_iterable(spans)), {int, type(None)}):
        raise InvalidSpecError("a frame's stage_times must be a JSON array of [ingress, egress] pairs, "
                               "each an integer or null")
    if set(map(len, spans)) - {n_stages}:
        raise InvalidSpecError("a frame's stage_times must hold one [ingress, egress] pair per topology stage")
    held = columns["buffer_bytes"]
    if not set(map(type, held)) <= {dict}:
        check_int_keyed(next(m for m in held if type(m) is not dict))  # raises, naming the first non-object
    keys = dict.fromkeys(chain.from_iterable(held))  # every frame's keys at once
    stage_keys = set(map(str, range(n_stages)))
    if not keys.keys() <= stage_keys:
        check_int_keyed(keys)  # names a key that is no stage index at all
        past = next(k for k in keys if k not in stage_keys)
        raise InvalidSpecError(f"a frame's buffer_bytes names stage {past} of a {n_stages}-stage topology")
    if not set(map(type, chain.from_iterable(map(dict.values, held)))) <= {int}:
        raise InvalidSpecError("a frame's buffer_bytes must map each stage index to an integer")
    return columns


def _frame_docs(t: FrameTable):
    """One JSON object per frame, straight from the table's columns, with its
    keys and its buffer_bytes keys in canonical order ("10" before "2")."""
    keys = sorted(map(str, range(len(t.buffer_bytes))))  # a runnable topology has stages
    rows = zip(*(t.buffer_bytes[int(k)] for k in keys))  # per frame, the bytes it held at each stage, in key order
    held = ({k: b for k, b in zip(keys, row) if b is not None} for row in rows)
    spans = zip(*map(zip, t.ingress_ns, t.egress_ns))  # per frame, its (ingress, egress) per stage
    return (
        {"buffer_bytes": held, "camera_timestamp_ns": stamp, "disposition": d, "drop_reason": reason,
         "drop_stage": stage, "drop_time_ns": dropped_at, "frame_id": f, "generated_at_ns": generated,
         "size_bytes": size, "stage_times": times, "timestamp_clamped": clamped}
        for held, stamp, d, reason, stage, dropped_at, f, generated, size, times, clamped in zip(
            held, t.camera_timestamp_ns, t.disposition, t.drop_reason, t.drop_stage, t.drop_time_ns, t.frame_id,
            t.generated_at_ns, t.size_bytes, spans, t.timestamp_clamped)
    )


def _check_trace(v) -> list:
    if type(v) is not list or not _pairs(v, {int}):
        raise InvalidSpecError("an occupancy trace must be a JSON array of [time_ns, bytes] pairs of integers")
    return v


# Schema v1 holds a record per deadline miss where Aggregates holds the counts by kind.
_VIOLATION_COUNTS = {"safety": "safety_violations", "control": "control_violations",
                     "timestamp": "timestamp_violations"}
_VIOLATION_KEYS = {f.name: f.type for f in fields(DeadlineViolation)}


def _aggregates_from_v1(d) -> Aggregates:
    """Aggregates from their v1 JSON object: every violation record is checked
    as from_dict checks a DeadlineViolation, and its kind against the known
    kinds, but only the counts by kind are kept."""
    if not isinstance(d, dict):
        return from_dict(Aggregates, d)  # raises, naming the fault
    if "violations" not in d:
        raise InvalidSpecError("Aggregates: missing key 'violations'")
    if counted := d.keys() & _VIOLATION_COUNTS.values():
        raise InvalidSpecError(f"Aggregates: unknown keys {sorted(counted)}")
    d = dict(d)
    kinds = Counter(check_columns("violation", _VIOLATION_KEYS, {"kind": tuple(_VIOLATION_COUNTS)},
                                  d.pop("violations"))["kind"])
    d.update({key: kinds[kind] for kind, key in _VIOLATION_COUNTS.items()})
    return from_dict(Aggregates, d)


def _supported_version(version: int) -> int:
    if version != SCHEMA_VERSION:
        raise InvalidSpecError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    return version


JSON_FORMS[Aggregates] = {"high_water_bytes": INT_KEYED}
JSON_FORMS[SimReport] = {
    # Decoded first, so a report of another version is named as such before its other keys are read.
    "schema_version": (int, _supported_version),
    "topology": one(Topology),
    "config": one(SimConfig),
    # Checked here, built only by import_structured.
    "occupancy": (INT_KEYED[0], lambda occ: decode_int_keyed(occ, _check_trace)),
    "link_busy_ns": INT_KEYED,
    "aggregates": (to_dict, _aggregates_from_v1),
}


# export_structured builds every value it encodes, without cycles, so nothing needs checking for one.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_IN_ORDER = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode  # for dicts in canonical key order


def _array(records) -> list:
    """Text pieces of the JSON array of records, an iterator of dicts in
    canonical key order, encoded 1,000 records at a time."""
    pieces, comma = ["["], ""
    while chunk := list(islice(records, 1000)):
        pieces += (comma, _IN_ORDER(chunk)[1:-1])
        comma = ","
    return pieces + ["]"]


def export_structured(report: SimReport) -> str:
    """Canonical JSON: sorted keys, compact, shortest-round-trip floats; each top-level
    value encoded once, the frames and the deadline misses 1,000 records at a time."""
    forms, pieces = JSON_FORMS[SimReport], ["{"]
    misses = check_deadlines(report.frames, report.topology.deadlines, report.aggregates.timestamp_rms_ns)
    for name, value in sorted(vars(report).items()):
        pieces.append(f'"{name}":')
        if name == "frames":
            pieces += _array(_frame_docs(value))
        elif name == "aggregates":  # v1 holds the deadline misses themselves, which follow from the frames
            value = {k: v for k, v in to_dict(value).items() if k not in _VIOLATION_COUNTS.values()}
            records = ({"budget_ns": v.budget_ns, "frame_id": v.frame_id, "kind": v.kind, "measured_ns": v.measured_ns}
                       for v in misses)
            # "violations" sorts after every other aggregate key.
            pieces += (_CANONICAL(value)[:-1], ',"violations":', *_array(records), "}")
        else:
            pieces.append(_CANONICAL(forms[name][0](value) if name in forms else value))
        pieces.append(",")
    pieces[-1] = "}\n"
    return "".join(pieces)


def _import(text: str) -> tuple:
    """A structured report of this schema version that carries the digest and
    name of its runnable topology and whose frames are still their checked
    JSON objects, and those frames' columns (check_frames)."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested past the decoder's limit
        raise InvalidSpecError(str(exc)) from exc
    report = from_dict(SimReport, doc)
    check_runnable(report.topology)
    for key, expected in (("digest", topology_digest(report.topology)), ("scenario", report.topology.name)):
        if getattr(report, key) != expected:
            raise InvalidSpecError(f"report {key} {getattr(report, key)!r} is not its topology's {expected!r}")
    return report, check_frames(report.frames, len(report.topology.stages))


def import_structured(text: str) -> SimReport:
    report, columns = _import(text)
    spans, held, stages = columns["stage_times"], columns["buffer_bytes"], range(len(report.topology.stages))
    # The stage-major columns, in field order: ingress and egress from the stage_times pairs, then buffer_bytes.
    stage_columns = (*([[s[i][k] for s in spans] for i in stages] for k in (0, 1)),
                     [[b.get(str(i)) for b in held] for i in stages])
    report.frames = FrameTable(**{key: columns[key] for key in _FRAME_SCALARS},
                               **dict(zip(_STAGE_COLUMNS, stage_columns)))
    report.occupancy = {i: list(map(tuple, trace)) for i, trace in report.occupancy.items()}
    return report


class ReportSummary(NamedTuple):
    """What compare reads of a report: its identity, topology and aggregates."""

    scenario: str
    digest: str
    topology: Topology
    aggregates: Aggregates


def import_summary(text: str) -> ReportSummary:
    """The parts of a structured report that compare reads.

    The whole document is checked as import_structured checks it, and
    every part but the frames, the occupancy traces and the violation
    records is decoded: those are checked, not built.
    """
    report, _ = _import(text)
    return ReportSummary(report.scenario, report.digest, report.topology, report.aggregates)


# --- Tabular (CSV) export ---------------------------------------------------

def export_tabular(report: SimReport) -> str:
    """Flat per-frame table, a blank line, then a metric/value block."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    t = report.frames
    header = [*_FRAME_SCALARS, "latency_ns"]
    columns = [*(map(int, getattr(t, key)) if a == "bool" else getattr(t, key) for key, a in _FRAME_SCALARS.items()),
               t.latency_ns()]  # a bool column is written as 0/1
    for i in range(len(report.topology.stages)):
        header += (f"stage{i}_{name}" for name in _STAGE_COLUMNS)
        columns += (getattr(t, name)[i] for name in _STAGE_COLUMNS)
    w.writerow(header)
    w.writerows(zip(*columns))
    w.writerow([])
    w.writerow(["metric", "value"])
    a = report.aggregates
    w.writerow(["empty", int(a.empty)])
    w.writerows([name, getattr(a, name)] for name in _SCALAR_METRICS)  # csv writes a float as its repr
    w.writerow(["elapsed_ns", report.elapsed_ns])
    w.writerows([f"high_water_stage{idx}_bytes", a.high_water_bytes[idx]] for idx in sorted(a.high_water_bytes))
    return out.getvalue()


# --- Comparison -------------------------------------------------------------


def compare(a: SimReport | ReportSummary, b: SimReport | ReportSummary) -> dict:
    """Per-metric deltas (b - a) between two runs of the same workload.

    Only the topologies' cameras and the aggregates are read, so a
    ReportSummary serves as well as a full report.

    Runs are comparable when they used the same camera and generated the
    same number of frames; topologies are expected to differ (that is the
    point of the comparison).
    """
    if a.topology.camera != b.topology.camera:
        raise IncomparableRunsError("runs use different cameras")
    if a.aggregates.generated != b.aggregates.generated:
        raise IncomparableRunsError(
            f"runs generated different frame counts "
            f"({a.aggregates.generated} vs {b.aggregates.generated})"
        )
    table = {}
    for metric in _SCALAR_METRICS:
        va = getattr(a.aggregates, metric)
        vb = getattr(b.aggregates, metric)
        table[metric] = {"a": va, "b": vb, "delta": vb - va}
    return table
