"""Report assembly, canonical serialization and comparison.

Structured exports are canonical JSON: sorted keys, compact separators,
shortest round-trip float formatting.  Byte equality of two exports is
therefore a meaningful determinism check.  Tabular exports are a flat
per-frame CSV table followed by a metric/value aggregates block.

Percentiles use the nearest-rank method (no interpolation) so every
implementation of the same definition reproduces them exactly.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cached_property, lru_cache, partial
from itertools import chain
from typing import NamedTuple

from .linkmodel import InvalidSpecError, Table, record
from .simcore import DISPOSITION_DELIVERED, DISPOSITION_DROPPED, DISPOSITION_IN_FLIGHT, FRAME_VALUES, FrameTable
from .simcore import SimConfig, link_busy_ns
from .timing import DeadlineMisses, check_deadlines, timestamp_rms
from .topology import CANONICAL, INT_KEYED, JSON_FORMS, Topology, check_columns, check_int_keyed, check_runnable
from .topology import copy_count, decode_int_keyed, from_dict, holding_stages, one, to_dict, topology_digest

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


@record
class Aggregates(Table):
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


# Each kind of deadline miss -> the Aggregates field <kind>_violations that counts it.
_VIOLATION_COUNTS = {f.name.removesuffix("_violations"): f.name for f in fields(Aggregates) if "_violations" in f.name}


def _miss_counts(kinds: list) -> dict:
    """The Aggregates miss counts of a DeadlineMisses kind column."""
    return {key: kinds.count(kind) for kind, key in _VIOLATION_COUNTS.items()}


def summarize(frames: FrameTable, topology: Topology, elapsed_ns: int, occupancy: dict) -> Aggregates:
    """Aggregate a run's frame table into run metrics.

    A run without frames yields zeroed aggregates with the `empty` flag
    set.  High-water mark i is the peak of occupancy trace i: frame spans
    cannot recover it, because equal-time admits and releases run in push
    order.
    """
    disposition = frames.disposition
    latency_ns = frames.latency_ns()
    latencies = sorted(latency for latency in latency_ns if latency is not None)
    high_water = {idx: max((b for _, b in trace), default=0) for idx, trace in occupancy.items()}

    delivered_bits = sum(s for s, d in zip(frames.size_bytes, disposition) if d == DISPOSITION_DELIVERED) * 8
    throughput = delivered_bits / elapsed_ns if elapsed_ns > 0 else 0.0
    try:
        mean = sum(latencies) / len(latencies) if latencies else 0.0
    except OverflowError:
        raise InvalidSpecError("latencies too large for a finite mean") from None

    rms = timestamp_rms(frames) if disposition else 0.0
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
        **_miss_counts(check_deadlines(frames, topology.deadlines, rms, latency_ns).kind),
    )


@record
class SimReport(Table):
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


def _record_keys(table) -> dict:
    """A column table class's record keys, each with its JSON type: its list[<scalar>] fields, in field order."""
    return {f.name: f.type.removeprefix("list[")[:-1] for f in fields(table) if "list[list[" not in f.type}


# FrameTable's fields define the frame record.  Its list[<scalar>] fields are the frame's scalar keys, in field
# order, the order of the tabular export.  Its stage-major fields follow, in the JSON frame as the
# [ingress, egress] pairs of stage_times and the buffer_bytes map, and in the CSV three per stage.
_FRAME_SCALARS = _record_keys(FrameTable)
_STAGE_COLUMNS = tuple(f.name for f in fields(FrameTable) if "list[list[" in f.type)
_FRAME_KEYS = {**_FRAME_SCALARS, "stage_times": None, "buffer_bytes": None}


def _pairs(items, types: set) -> bool:
    """Whether each of items is a two-element array of values of types (json.loads gives every array as a list)."""
    return (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}
            and set(map(type, chain.from_iterable(items))) <= types)


def check_frames(docs, topology: Topology) -> dict:
    """Key -> column of docs, once checked to be a JSON array of frames of the exported shape: the
    frame keys and scalars as check_columns checks them, each frame_id its index and each size_bytes
    the camera's frame size, stage_times one [ingress, egress] pair of integers or nulls per stage of
    topology, with both latency ends set in a delivered frame, and buffer_bytes an object from a
    holding stage's index to an integer, a column at a time."""
    columns = check_columns("frame", _FRAME_KEYS, FRAME_VALUES, docs)
    if columns["frame_id"] != list(range(len(docs))):
        raise InvalidSpecError("a frame's frame_id must be its index in frames")
    if set(columns["size_bytes"]) - {size := topology.camera.frame_size_bytes}:
        raise InvalidSpecError(f"a frame's size_bytes must be the camera's frame size, {size}")
    spans = columns["stage_times"]
    if not set(map(type, spans)) <= {list} or not _pairs(list(chain.from_iterable(spans)), {int, type(None)}):
        raise InvalidSpecError("a frame's stage_times must be a JSON array of [ingress, egress] pairs, "
                               "each an integer or null")
    if set(map(len, spans)) - {len(topology.stages)}:
        raise InvalidSpecError("a frame's stage_times must hold one [ingress, egress] pair per topology stage")
    # A delivered frame's latency runs from the sensor's egress to the processor's (FrameTable.latency_ns).
    if any(s[0][1] is None or s[-1][1] is None
           for d, s in zip(columns["disposition"], spans) if d == DISPOSITION_DELIVERED):
        raise InvalidSpecError("a delivered frame must have an egress time at its first and last stage")
    held = columns["buffer_bytes"]
    if not set(map(type, held)) <= {dict}:
        check_int_keyed(next(m for m in held if type(m) is not dict))  # raises, naming the first non-object
    keys = dict.fromkeys(chain.from_iterable(held))  # every frame's keys at once
    holding = holding_stages(topology)
    if not keys.keys() <= (names := set(map(str, holding))):
        check_int_keyed(keys)  # names a key that is no stage index at all
        other = next(k for k in keys if k not in names)
        raise InvalidSpecError(f"a frame's buffer_bytes names stage {other}, not one of the holding stages {holding}")
    if not set(map(type, chain.from_iterable(map(dict.values, held)))) <= {int}:
        raise InvalidSpecError("a frame's buffer_bytes must map each stage index to an integer")
    return columns


def _check_trace(v) -> list:
    if type(v) is not list or not _pairs(v, {int}):
        raise InvalidSpecError("an occupancy trace must be a JSON array of [time_ns, bytes] pairs of integers")
    return v


# Schema v1 holds a record per deadline miss, which DeadlineMisses' fields define, where Aggregates holds counts.
_VIOLATION_KEYS = _record_keys(DeadlineMisses)


def _aggregates_from_v1(d) -> tuple:
    """(Aggregates, which counts the violation records by kind, and the records' columns, which _import
    checks against the report's frames) from the v1 aggregates object."""
    if not isinstance(d, dict):
        return from_dict(Aggregates, d)  # raises, naming the fault
    if "violations" not in d:
        raise InvalidSpecError("Aggregates: missing key 'violations'")
    if counted := d.keys() & _VIOLATION_COUNTS.values():
        raise InvalidSpecError(f"Aggregates: unknown keys {sorted(counted)}")
    d = dict(d)
    records = check_columns("violation", _VIOLATION_KEYS, {"kind": tuple(_VIOLATION_COUNTS)}, d.pop("violations"))
    return from_dict(Aggregates, {**d, **_miss_counts(records["kind"])}), records


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


_IN_ORDER = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode  # for a column's values


_CHUNK = 1000  # records encoded at a time


def _weaver(layout: list):
    """A function of (lo, hi) to the text of records lo to hi, at most _CHUNK of them, of layout,
    one record's text in order: a str is written as it is, and a slot, a function of (lo, hi) to a
    token per record, is called once and its tokens woven in by slice assignment.  One list holds
    the records' pieces from call to call, so its text is laid in once and no chunk allocates it."""
    stride = len(layout)
    pieces = [part if type(part) is str else None for part in layout] * _CHUNK
    slots = [(i, slot) for i, slot in enumerate(layout) if type(slot) is not str]

    def weave(lo: int, hi: int) -> str:
        records = pieces if hi - lo == _CHUNK else pieces[:stride * (hi - lo)]
        for i, slot in slots:
            tokens = slot(lo, hi)
            if len(tokens) != hi - lo:  # a comma inside a token split it
                raise InvalidSpecError("cannot write a report value whose text holds a comma")
            records[i::stride] = tokens
        return "".join(records)

    return weave


class _Column:
    """A distinct column of one _Slots: its values, their types, and the C encoder's text of a chunk's
    slice, brackets off, from which its forms (_Slots) are made: its JSON tokens and its CSV cells or flags."""

    def __init__(self, values):
        self.values, self.text = values, lru_cache(1)(lambda lo, hi: _IN_ORDER(values[lo:hi])[1:-1])

    types = cached_property(lambda self: set(map(type, self.values)))
    tokens = lambda self, lo, hi: self.text(lo, hi).split(",")

    def cells(self, lo: int, hi: int) -> list:
        """Cells as csv.writer writes them.  Refused: other types, a string with a comma or a JSON escape."""
        text = ("," + self.text(lo, hi)).replace(",null", ",").replace('"', "")
        if not self.types <= {int, str, type(None)} or "\\" in text:
            raise InvalidSpecError("a CSV cell must be an integer, null, or a string that JSON does not escape")
        return text[1:].split(",")

    def flags(self, lo: int, hi: int) -> list:
        """Cells of a column of bools, as 0/1.  Refused: any other value."""
        if not self.types <= {bool}:
            raise InvalidSpecError("a CSV flag column must hold only bools")
        return self.text(lo, hi).replace("true", "1").replace("false", "0").split(",")


class _Slots(dict):
    """The column slots (_weaver) of one array of records, by (_Column, form).  Equal columns share a _Column
    if they hold the same types, ints or bools beside strings and nulls: 0 == False, but not in JSON."""

    def __call__(self, values, form=_Column.tokens):
        """The slot of form(column, lo, hi), column the _Column of values, made once a chunk for every use."""
        new = _Column(values)
        column = next((c for c, _ in self if c.values == values and c.types == new.types
                       and any(new.types <= {one, str, type(None)} for one in (int, bool))), new)
        return self.setdefault((column, form), lru_cache(1)(partial(form, column)))


def _entries(key: str):
    """A form (_Slots) of the ',"key":<token>' object entries of records, "" for a None value.  The encoder
    escapes every control character, so "\\0" and "\\1" can mark the null tokens and the entries' ends."""
    head = f'\1,"{key}":'
    return lambda column, lo, hi: (("," + column.text(lo, hi)).replace(",null", "\0").replace(",", head)
                                   .replace("\0", "\1").split("\1")[1:])


def _object(slots):
    """A slot of JSON objects, each of its record's entries from slots (_entries), in order."""
    weave = _weaver(["{", *slots, "}\1"])
    # No token holds a comma (_weaver), so "{," only starts an object whose first entries were left out.
    return lambda lo, hi: weave(lo, hi).replace("{,", "{").split("\1")[:-1]


def _array(layout: list, n: int) -> list:
    """Text pieces of the JSON array of n records laid out by layout (_record), _CHUNK records at a time."""
    weave = _weaver(layout)
    pieces = ["[", *(weave(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))]
    if n:
        pieces[-1] = pieces[-1][:-1]  # the comma after the last record
    return pieces + ["]"]


def _record(fields: dict) -> list:
    """The layout (_weaver) of a JSON object followed by a comma: fields maps each key to the
    layout of its value, and the keys are written in canonical order, adjacent text joined."""
    layout = ["{"]
    for part in chain.from_iterable((f'"{key}":', *fields[key], ",") for key in sorted(fields)):
        if type(part) is str and type(layout[-1]) is str:
            layout[-1] += part
        else:
            layout.append(part)
    layout[-1] = layout[-1][:-1] + "},"
    return layout


def _frame_record(t: FrameTable, slot: _Slots) -> list:
    """The frame record's layout, its keys _FRAME_KEYS, its slots from slot: the stage_times pairs and
    the buffer_bytes entries ("10" before "2") from the stage-major columns, the rest a column each."""
    spans = [part for ingress, egress in zip(t.ingress_ns, t.egress_ns)
             for part in (",[", slot(ingress), ",", slot(egress), "]")]
    spans[0] = "[["  # a runnable topology has stages
    held = sorted(map(str, range(len(t.buffer_bytes))))
    staged = {"stage_times": [*spans, "]"],
              "buffer_bytes": [_object([slot(t.buffer_bytes[int(k)], _entries(k)) for k in held])]}
    return _record({key: staged[key] if key in staged else [slot(getattr(t, key))] for key in _FRAME_KEYS})


def _v1_aggregates(report: SimReport, slot: _Slots) -> list:
    """Text pieces of the v1 aggregates object, which holds the deadline misses themselves, as
    records that follow from the frames, where Aggregates holds their counts."""
    misses = check_deadlines(report.frames, report.topology.deadlines, report.aggregates.timestamp_rms_ns)
    value = {k: v for k, v in to_dict(report.aggregates).items() if k not in _VIOLATION_COUNTS.values()}
    records = _record({key: [slot(getattr(misses, key))] for key in _VIOLATION_KEYS})
    # "violations" sorts after every other aggregate key.
    return [CANONICAL(value)[:-1], ',"violations":', *_array(records, len(misses.kind)), "}"]


def export_structured(report: SimReport) -> str:
    """Canonical JSON: sorted keys, compact, shortest-round-trip floats.  Each top-level value is encoded once,
    but the frames and the deadline misses are written from columns, 1,000 records at a time, with no dict per
    record: the C encoder writes a chunk's slice of each distinct column once, and its tokens are woven with the
    key text into the records (_weaver).  Each array has its own _Slots, freed with its cached slices."""
    forms, pieces = JSON_FORMS[SimReport], ["{"]
    for name, value in sorted(vars(report).items()):
        pieces.append(f'"{name}":')
        if name == "frames":
            pieces += _array(_frame_record(value, _Slots()), len(value.frame_id))
        elif name == "aggregates":
            pieces += _v1_aggregates(report, _Slots())
        else:
            pieces.append(CANONICAL(forms[name][0](value) if name in forms else value))
        pieces.append(",")
    pieces[-1] = "}\n"
    return "".join(pieces)


# What check_deadlines reads of checked frame columns, without a FrameTable: ids, and what latency_ns reads.
_Ends = NamedTuple("_Ends", [("frame_id", list), ("disposition", list), ("egress_ns", tuple)])
_Ends.latency_ns = FrameTable.latency_ns


def _import(text: str) -> tuple:
    """A structured report of this schema version, whose topology, config, deadline misses and link
    busy times are as the export writes them and whose digest and name are its topology's, with its
    frames still their checked JSON objects, and those frames' columns (check_frames)."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested past the decoder's limit
        raise InvalidSpecError(str(exc)) from exc
    report = from_dict(SimReport, doc)
    report.aggregates, records = report.aggregates  # _aggregates_from_v1
    check_runnable(report.topology)
    for key, expected in (("digest", topology_digest(report.topology)), ("scenario", report.topology.name)):
        if getattr(report, key) != expected:
            raise InvalidSpecError(f"report {key} {getattr(report, key)!r} is not its topology's {expected!r}")
    for key in ("topology", "config"):  # as the export writes them, so that no default is filled in
        if to_dict(getattr(report, key)) != doc[key]:
            raise InvalidSpecError(f"report {key} must hold each field of its records, and only those")
    holding = holding_stages(report.topology)
    if not report.occupancy.keys() == report.aggregates.high_water_bytes.keys() == set(holding):
        raise InvalidSpecError(f"report occupancy and high_water_bytes must be keyed by the holding stages {holding}")
    columns = check_frames(report.frames, report.topology)
    spans = columns["stage_times"]
    ends = _Ends(columns["frame_id"], columns["disposition"], ([s[0][1] for s in spans], [s[-1][1] for s in spans]))
    misses = check_deadlines(ends, report.topology.deadlines, report.aggregates.timestamp_rms_ns)
    # The same values of the same JSON types: only a float column can hold equal values of two types (1 == 1.0).
    if any(records[k] != getattr(misses, k)
           or a == "float" and [*map(type, records[k])] != [*map(type, getattr(misses, k))]
           for k, a in _VIOLATION_KEYS.items()):
        raise InvalidSpecError("aggregates.violations are not the deadline misses of the report's frames")
    if report.link_busy_ns != link_busy_ns(report.topology, lambda i: [s[i][0] for s in spans]):
        raise InvalidSpecError("link_busy_ns is not one serialization time per transmission of the report's frames")
    return report, columns


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
    """The parts of a structured report that compare reads, once the whole of it is checked as
    import_structured checks it: the frames, occupancy traces and violation records are not built."""
    report, _ = _import(text)
    return ReportSummary(report.scenario, report.digest, report.topology, report.aggregates)


# --- Tabular (CSV) export ---------------------------------------------------

def export_tabular(report: SimReport) -> str:
    """Flat per-frame table, a blank line, then a metric/value block.  The frame rows are woven from
    CSV cells (_weaver), 1,000 rows at a time, each distinct column's slice encoded once (_Slots)."""
    t, slot, n, a = report.frames, _Slots(), len(report.frames.frame_id), report.aggregates
    header = [*_FRAME_SCALARS, "latency_ns"]
    columns = [*(getattr(t, key) for key in _FRAME_SCALARS), t.latency_ns()]
    for i in range(len(report.topology.stages)):
        header += (f"stage{i}_{name}" for name in _STAGE_COLUMNS)
        columns += (getattr(t, name)[i] for name in _STAGE_COLUMNS)
    # timestamp_clamped, FrameTable's one bool field, is written as flags; no other column may hold a bool.
    cells = [slot(values, _Column.flags if _FRAME_SCALARS.get(name) == "bool" else _Column.cells)
             for name, values in zip(header, columns)]
    weave = _weaver([part for cell in cells for part in (",", cell)][1:] + ["\n"])
    # The lines csv.writer writes for these names and numbers: each name as it is, each number as its repr.
    block = [("metric", "value"), ("empty", int(a.empty)), *((name, getattr(a, name)) for name in _SCALAR_METRICS),
             ("elapsed_ns", report.elapsed_ns),
             *((f"high_water_stage{idx}_bytes", a.high_water_bytes[idx]) for idx in sorted(a.high_water_bytes))]
    return "".join([",".join(header), "\n", *(weave(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)),
                    "\n", *(f"{name},{value}\n" for name, value in block)])


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
