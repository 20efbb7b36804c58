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
from dataclasses import dataclass, fields
from typing import Optional

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
    FrameRecord,
    RunResult,
    SimConfig,
    StageSpan,
)
from .timing import DeadlineSpec, DeadlineViolation, check_deadlines, timestamp_rms
from .topology import (
    INT_KEYED,
    JSON_FORMS,
    Topology,
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


def _high_water_from_frames(frames, topology: Topology) -> dict:
    """Occupancy sweep from frame residency spans (releases before admits)."""
    events: dict[int, list[tuple[int, int, int]]] = {}
    for r in frames:
        for idx, amount in r.buffer_bytes.items():
            span = r.stage_times[idx]
            if span.ingress_ns is None:
                continue
            events.setdefault(idx, []).append((span.ingress_ns, 1, amount))
            exit_t = span.egress_ns
            if exit_t is None and r.drop_time_ns is not None and r.drop_stage == idx:
                exit_t = r.drop_time_ns
            if exit_t is not None:
                events.setdefault(idx, []).append((exit_t, 0, -amount))
    high: dict[int, int] = {}
    for idx, evs in events.items():
        evs.sort(key=lambda e: (e[0], e[1]))
        occ = peak = 0
        for _, _, delta in evs:
            occ += delta
            peak = max(peak, occ)
        high[idx] = peak
    return high


def summarize(
    frames,
    topology: Topology,
    elapsed_ns: int = 0,
    occupancy: Optional[dict] = None,
    deadlines: Optional[DeadlineSpec] = None,
) -> Aggregates:
    """Aggregate per-frame records into run metrics.

    An empty frame list yields zeroed aggregates with the `empty` flag
    set.  High-water marks come from the engine occupancy traces when
    provided, else from a sweep over frame residency spans.
    """
    frames = list(frames)
    delivered = [r for r in frames if r.disposition == DISPOSITION_DELIVERED]
    dropped = sum(1 for r in frames if r.disposition == DISPOSITION_DROPPED)
    in_flight = sum(1 for r in frames if r.disposition == DISPOSITION_IN_FLIGHT)

    latencies = sorted(r.latency_ns for r in delivered)
    if occupancy is not None:
        high_water = {idx: max((b for _, b in trace), default=0) for idx, trace in occupancy.items()}
    else:
        high_water = _high_water_from_frames(frames, topology)

    delivered_bits = sum(r.size_bytes for r in delivered) * 8
    throughput = delivered_bits / elapsed_ns if elapsed_ns > 0 else 0.0

    rms = timestamp_rms(frames) if frames else 0.0
    violations = check_deadlines(frames, deadlines or topology.deadlines)

    return Aggregates(
        empty=not frames,
        generated=len(frames),
        delivered=len(delivered),
        dropped=dropped,
        in_flight=in_flight,
        throughput_gbps=throughput,
        latency_min_ns=latencies[0] if latencies else 0,
        latency_mean_ns=sum(latencies) / len(latencies) if latencies else 0.0,
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
    frames: list
    occupancy: dict
    link_busy_ns: dict
    aggregates: Aggregates
    schema_version: int = SCHEMA_VERSION


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


def _frame_to_dict(r: FrameRecord) -> dict:
    return {
        "frame_id": r.frame_id,
        "size_bytes": r.size_bytes,
        "generated_at_ns": r.generated_at_ns,
        "camera_timestamp_ns": r.camera_timestamp_ns,
        "timestamp_clamped": r.timestamp_clamped,
        "stage_times": [[s.ingress_ns, s.egress_ns] for s in r.stage_times],
        "buffer_bytes": {str(k): v for k, v in r.buffer_bytes.items()},
        "disposition": r.disposition,
        "drop_stage": r.drop_stage,
        "drop_reason": r.drop_reason,
        "drop_time_ns": r.drop_time_ns,
    }


_FRAME_KEYS = sorted(f.name for f in fields(FrameRecord))
_BAD_FRAME = f"a frame must be a JSON object with exactly the keys {_FRAME_KEYS}"


def _frame_from_dict(d: dict) -> FrameRecord:
    # Counting keys is cheaper than comparing them: with the right count, a
    # missing frame key (the KeyError below) means an unknown one is present.
    if not isinstance(d, dict) or len(d) != len(_FRAME_KEYS):
        raise InvalidSpecError(_BAD_FRAME)
    try:
        return FrameRecord(
            frame_id=d["frame_id"],
            size_bytes=d["size_bytes"],
            generated_at_ns=d["generated_at_ns"],
            camera_timestamp_ns=d["camera_timestamp_ns"],
            timestamp_clamped=d["timestamp_clamped"],
            stage_times=[StageSpan(a, b) for a, b in d["stage_times"]],
            buffer_bytes={int(k): v for k, v in d["buffer_bytes"].items()},
            disposition=d["disposition"],
            drop_stage=d["drop_stage"],
            drop_reason=d["drop_reason"],
            drop_time_ns=d["drop_time_ns"],
        )
    except KeyError:
        raise InvalidSpecError(_BAD_FRAME) from None


JSON_FORMS[Aggregates] = {"high_water_bytes": INT_KEYED, "violations": many(DeadlineViolation)}
JSON_FORMS[SimReport] = {
    "topology": one(Topology),
    "config": one(SimConfig),
    "frames": (
        lambda frames: [_frame_to_dict(r) for r in frames],
        lambda docs: [_frame_from_dict(d) for d in docs],
    ),
    "occupancy": (INT_KEYED[0], lambda occ: decode_int_keyed(occ, lambda v: [(t, b) for t, b in v])),
    "link_busy_ns": INT_KEYED,
    "aggregates": one(Aggregates),
}


def export_structured(report: SimReport) -> str:
    """Canonical JSON: sorted keys, compact, shortest-round-trip floats."""
    return json.dumps(to_dict(report), sort_keys=True, separators=(",", ":")) + "\n"


def export(report: SimReport, format: str) -> str:
    """Render a report as a document in the named format."""
    if format == "structured":
        return export_structured(report)
    if format == "tabular":
        return export_tabular(report)
    raise ValueError(f"unknown export format {format!r} (expected structured or tabular)")


def import_structured(text: str) -> SimReport:
    return from_dict(SimReport, json.loads(text))


# --- Tabular (CSV) export ---------------------------------------------------

_FRAME_COLUMNS = (
    "frame_id",
    "size_bytes",
    "generated_at_ns",
    "camera_timestamp_ns",
    "timestamp_clamped",
    "disposition",
    "drop_stage",
    "drop_reason",
    "drop_time_ns",
    "latency_ns",
)


def export_tabular(report: SimReport) -> str:
    """Flat per-frame table, a blank line, then a metric/value block."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    n_stages = len(report.topology.stages)
    header = list(_FRAME_COLUMNS)
    for i in range(n_stages):
        header += [f"stage{i}_ingress_ns", f"stage{i}_egress_ns", f"stage{i}_buffer_bytes"]
    w.writerow(header)
    for r in report.frames:
        row = [
            r.frame_id,
            r.size_bytes,
            r.generated_at_ns,
            r.camera_timestamp_ns,
            int(r.timestamp_clamped),
            r.disposition,
            r.drop_stage,
            r.drop_reason,
            r.drop_time_ns,
            r.latency_ns,
        ]
        for i in range(n_stages):
            span = r.stage_times[i]
            row += [span.ingress_ns, span.egress_ns, r.buffer_bytes.get(i)]
        w.writerow(row)
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


def _opt_int(cell: str):
    return int(cell) if cell != "" else None


def import_tabular(text: str):
    """Parse a tabular export back into (frames, aggregates_dict)."""
    lines = text.splitlines()
    try:
        split = lines.index("")
    except ValueError as exc:
        raise ValueError("tabular document has no aggregates block") from exc
    frame_rows = list(csv.reader(lines[:split]))
    agg_rows = list(csv.reader(lines[split + 1 :]))

    header = frame_rows[0]
    n_stages = (len(header) - len(_FRAME_COLUMNS)) // 3
    frames = []
    for row in frame_rows[1:]:
        spans = []
        buffer_bytes = {}
        for i in range(n_stages):
            base = len(_FRAME_COLUMNS) + 3 * i
            spans.append(StageSpan(_opt_int(row[base]), _opt_int(row[base + 1])))
            contrib = _opt_int(row[base + 2])
            if contrib is not None:
                buffer_bytes[i] = contrib
        frames.append(
            FrameRecord(
                frame_id=int(row[0]),
                size_bytes=int(row[1]),
                generated_at_ns=int(row[2]),
                camera_timestamp_ns=int(row[3]),
                timestamp_clamped=bool(int(row[4])),
                stage_times=spans,
                buffer_bytes=buffer_bytes,
                disposition=row[5],
                drop_stage=_opt_int(row[6]),
                drop_reason=row[7] or None,
                drop_time_ns=_opt_int(row[8]),
            )
        )
    aggregates = {}
    for row in agg_rows[1:]:
        if not row:
            continue
        key, value = row[0], row[1]
        aggregates[key] = float(value) if ("." in value or "e" in value or "inf" in value) else int(value)
    return frames, aggregates


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


def compare(a: SimReport, b: SimReport) -> dict:
    """Per-metric deltas (b - a) between two runs of the same workload.

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
