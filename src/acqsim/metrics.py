"""Report assembly, canonical serialization, comparison, budget tables.

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
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .linkmodel import (
    PCIE_ALLOWED_LANES,
    PCIE_GENERATIONS,
    CameraLinkIf,
    CLHSIf,
    CoaXPressIf,
    GigEVisionIf,
    InvalidSpecError,
    PCIeLink,
    USB3If,
    effective_link_rate,
)
from .simcore import (
    DISPOSITION_DELIVERED,
    DISPOSITION_DROPPED,
    DISPOSITION_IN_FLIGHT,
    FrameTable,
    RunResult,
    SimConfig,
)
from .timing import DeadlineViolation, check_deadlines, timestamp_rms
from .topology import (
    INT_KEYED,
    JSON_FORMS,
    Topology,
    check_int_keyed,
    copy_count,
    decode_int_keyed,
    from_dict,
    many,
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
    violations: list

    @property
    def safety_violations(self) -> int:
        return sum(1 for v in self.violations if v.kind == "safety")

    @property
    def control_violations(self) -> int:
        return sum(1 for v in self.violations if v.kind == "control")

    @property
    def timestamp_violations(self) -> int:
        return sum(1 for v in self.violations if v.kind == "timestamp")


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
    violations = check_deadlines(frames, topology.deadlines, rms)

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
        violations=violations,
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
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        # Frames decode without the topology, so their stage count is checked
        # here, and a table without frames gets one column per stage here.
        n, frames = len(self.topology.stages), self.frames
        if not frames.frame_id:
            frames.ingress_ns, frames.egress_ns = [[] for _ in range(n)], [[] for _ in range(n)]
        elif len(frames.ingress_ns) != n:
            raise InvalidSpecError(_BAD_WIDTH)


def build_report(topology: Topology, config: SimConfig, result: RunResult) -> SimReport:
    aggregates = summarize(
        result.frames,
        topology,
        elapsed_ns=result.elapsed_ns,
        occupancy=result.occupancy,
    )
    return SimReport(
        scenario=topology.name,
        topology=topology,
        digest=topology_digest(topology),
        config=config,
        elapsed_ns=result.elapsed_ns,
        frames=result.frames,
        occupancy=result.occupancy,
        link_busy_ns=result.link_busy_ns,
        aggregates=aggregates,
    )


# --- Structured (JSON) export ----------------------------------------------


# A frame's scalar keys, each both a JSON key and a FrameTable column, in
# the order of the tabular export.
_FRAME_SCALARS = ("frame_id", "size_bytes", "generated_at_ns", "camera_timestamp_ns", "timestamp_clamped",
                  "disposition", "drop_stage", "drop_reason", "drop_time_ns")
_FRAME_KEYS = frozenset((*_FRAME_SCALARS, "stage_times", "buffer_bytes"))
_BAD_FRAME = f"a frame must be a JSON object with exactly the keys {sorted(_FRAME_KEYS)}"
_BAD_WIDTH = "a frame's stage_times must hold one [ingress, egress] pair per topology stage"


def _is_pairs(v) -> bool:
    """Whether v is an array of two-element arrays (to_dict leaves occupancy
    pairs and a frame's stage_times as tuples, which json writes as arrays)."""
    if type(v) not in (list, tuple):
        return False
    for p in v:
        if type(p) not in (list, tuple) or len(p) != 2:
            return False
    return True


def check_frames(docs, n_stages: Optional[int] = None) -> list:
    """docs itself, once checked to be a JSON array of frames of the exported
    shape: exactly the frame keys, stage_times an array of n_stages [ingress,
    egress] pairs (by default as many as the first frame has) and
    buffer_bytes an object keyed by stage index."""
    if not isinstance(docs, list):
        raise InvalidSpecError(f"frames must be a JSON array, got {type(docs).__name__}")
    for d in docs:
        if not isinstance(d, dict) or d.keys() != _FRAME_KEYS:
            raise InvalidSpecError(_BAD_FRAME)
        spans = d["stage_times"]
        if not _is_pairs(spans):
            raise InvalidSpecError("a frame's stage_times must be a JSON array of [ingress, egress] pairs")
        if n_stages is None:
            n_stages = len(spans)
        if len(spans) != n_stages:
            raise InvalidSpecError(_BAD_WIDTH)
        check_int_keyed(d["buffer_bytes"])
    return docs


def _frames_to_docs(t: FrameTable) -> list:
    """One JSON object per frame, straight from the table's columns."""
    # Per frame, its (ingress, egress) per stage; zipping frame_id in keeps every frame without stages.
    spans = (row[1:] for row in zip(t.frame_id, *map(zip, t.ingress_ns, t.egress_ns)))
    columns = (t.frame_id, t.size_bytes, t.generated_at_ns, t.camera_timestamp_ns, t.timestamp_clamped, spans,
               t.buffer_bytes, t.disposition, t.drop_stage, t.drop_reason, t.drop_time_ns)
    return [
        {"frame_id": f, "size_bytes": size, "generated_at_ns": generated, "camera_timestamp_ns": stamp,
         "timestamp_clamped": clamped, "stage_times": times, "buffer_bytes": {str(k): v for k, v in held.items()},
         "disposition": d, "drop_stage": stage, "drop_reason": reason, "drop_time_ns": dropped_at}
        for f, size, generated, stamp, clamped, times, held, d, stage, reason, dropped_at in zip(*columns)
    ]


def _frames_from_docs(docs) -> FrameTable:
    """The frame table of a JSON array of frames of the exported shape."""
    check_frames(docs)

    def column(key):
        return [d[key] for d in docs]

    spans = column("stage_times")
    stages = range(len(spans[0]) if spans else 0)
    return FrameTable(
        **{key: column(key) for key in _FRAME_SCALARS},
        ingress_ns=[[s[i][0] for s in spans] for i in stages],
        egress_ns=[[s[i][1] for s in spans] for i in stages],
        buffer_bytes=[{int(k): v for k, v in b.items()} for b in column("buffer_bytes")],
    )


def _occupancy_trace(v) -> list:
    if not _is_pairs(v):
        raise InvalidSpecError("an occupancy trace must be a JSON array of [time_ns, bytes] pairs")
    return [(t, b) for t, b in v]


JSON_FORMS[Aggregates] = {"high_water_bytes": INT_KEYED, "violations": many(DeadlineViolation)}
JSON_FORMS[SimReport] = {
    "topology": one(Topology),
    "config": one(SimConfig),
    "frames": (_frames_to_docs, _frames_from_docs),
    "occupancy": (INT_KEYED[0], lambda occ: decode_int_keyed(occ, _occupancy_trace)),
    "link_busy_ns": INT_KEYED,
    "aggregates": one(Aggregates),
}


def export_structured(report: SimReport) -> str:
    """Canonical JSON: sorted keys, compact, shortest-round-trip floats."""
    # to_dict builds a fresh tree without cycles, so nothing needs checking for one.
    return json.dumps(to_dict(report), sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def import_structured(text: str) -> SimReport:
    return from_dict(SimReport, json.loads(text))


class ReportSummary(NamedTuple):
    """What compare reads of a report: its identity, topology and aggregates."""

    scenario: str
    digest: str
    topology: Topology
    aggregates: Aggregates


def import_summary(text: str) -> ReportSummary:
    """The parts of a structured report that compare reads.

    The whole document is checked as import_structured checks it, and
    every part but the frames is decoded: the frames are checked, not built.
    """
    doc = json.loads(text)
    docs = None
    if isinstance(doc, dict) and "frames" in doc:
        docs, doc["frames"] = doc["frames"], []
    report = from_dict(SimReport, doc)  # frameless, so it is never returned
    check_frames(docs, len(report.topology.stages))
    return ReportSummary(report.scenario, report.digest, report.topology, report.aggregates)


# --- Tabular (CSV) export ---------------------------------------------------

_FRAME_COLUMNS = (*_FRAME_SCALARS, "latency_ns")


def export_tabular(report: SimReport) -> str:
    """Flat per-frame table, a blank line, then a metric/value block."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    t = report.frames
    header = list(_FRAME_COLUMNS)
    columns = [t.frame_id, t.size_bytes, t.generated_at_ns, t.camera_timestamp_ns, map(int, t.timestamp_clamped),
               t.disposition, t.drop_stage, t.drop_reason, t.drop_time_ns, t.latency_ns()]
    for i, (ingress, egress) in enumerate(zip(t.ingress_ns, t.egress_ns)):  # three columns per stage
        header += [f"stage{i}_ingress_ns", f"stage{i}_egress_ns", f"stage{i}_buffer_bytes"]
        columns += [ingress, egress, [b.get(i) for b in t.buffer_bytes]]
    w.writerow(header)
    w.writerows(zip(*columns))
    w.writerow([])
    w.writerow(["metric", "value"])
    a = report.aggregates
    for key, value in (
        ("empty", int(a.empty)),
        ("generated", a.generated),
        ("delivered", a.delivered),
        ("dropped", a.dropped),
        ("in_flight", a.in_flight),
        ("throughput_gbps", repr(a.throughput_gbps)),
        ("latency_min_ns", a.latency_min_ns),
        ("latency_mean_ns", repr(a.latency_mean_ns)),
        ("latency_p50_ns", a.latency_p50_ns),
        ("latency_p99_ns", a.latency_p99_ns),
        ("latency_max_ns", a.latency_max_ns),
        ("copy_count", a.copy_count),
        ("timestamp_rms_ns", repr(a.timestamp_rms_ns)),
        ("safety_violations", a.safety_violations),
        ("control_violations", a.control_violations),
        ("timestamp_violations", a.timestamp_violations),
        ("elapsed_ns", report.elapsed_ns),
    ):
        w.writerow([key, value])
    for idx in sorted(a.high_water_bytes):
        w.writerow([f"high_water_stage{idx}_bytes", a.high_water_bytes[idx]])
    return out.getvalue()


# --- Comparison -------------------------------------------------------------

_COMPARE_METRICS = (
    "generated",
    "delivered",
    "dropped",
    "in_flight",
    "throughput_gbps",
    "latency_min_ns",
    "latency_mean_ns",
    "latency_p50_ns",
    "latency_p99_ns",
    "latency_max_ns",
    "copy_count",
    "timestamp_rms_ns",
    "safety_violations",
    "control_violations",
    "timestamp_violations",
)


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
    for metric in _COMPARE_METRICS:
        va = getattr(a.aggregates, metric)
        vb = getattr(b.aggregates, metric)
        table[metric] = {"a": va, "b": vb, "delta": vb - va}
    return table


# --- Link budget table ------------------------------------------------------


@dataclass(frozen=True)
class BudgetRow:
    label: str
    kind: str
    generation: Optional[int]
    lanes: Optional[int]
    rate_gbps: float


def budget_table(
    generations=PCIE_GENERATIONS,
    lane_set=PCIE_ALLOWED_LANES,
    include_presets: bool = True,
    protocol_efficiency: float = 1.0,
) -> list[BudgetRow]:
    """Effective rates for every (generation, lanes) pair plus presets."""
    rows = []
    for gen in generations:
        for lanes in lane_set:
            link = PCIeLink(generation=gen, lanes=lanes, protocol_efficiency=protocol_efficiency)
            rows.append(
                BudgetRow(
                    label=f"pcie-gen{gen}-x{lanes}",
                    kind="pcie",
                    generation=gen,
                    lanes=lanes,
                    rate_gbps=effective_link_rate(link),
                )
            )
    if include_presets:
        presets = [
            ("camera-link-base", CameraLinkIf(config="base", protocol_efficiency=protocol_efficiency)),
            ("camera-link-medium", CameraLinkIf(config="medium", protocol_efficiency=protocol_efficiency)),
            ("camera-link-full", CameraLinkIf(config="full", protocol_efficiency=protocol_efficiency)),
        ]
        for grade in ("cxp1", "cxp2", "cxp3", "cxp5", "cxp6", "cxp10", "cxp12"):
            presets.append(
                (grade, CoaXPressIf(speed_grade=grade, links=1, protocol_efficiency=protocol_efficiency))
            )
        presets += [
            ("gige-1g", GigEVisionIf(rate_preset="1g", protocol_efficiency=protocol_efficiency)),
            ("gige-10g", GigEVisionIf(rate_preset="10g", protocol_efficiency=protocol_efficiency)),
            ("clhs-x1", CLHSIf(lanes=1, protocol_efficiency=protocol_efficiency)),
            ("usb3", USB3If(protocol_efficiency=protocol_efficiency)),
        ]
        for label, link in presets:
            rows.append(
                BudgetRow(
                    label=label,
                    kind=link.kind,
                    generation=None,
                    lanes=None,
                    rate_gbps=effective_link_rate(link),
                )
            )
    return rows
