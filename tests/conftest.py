"""Shared randomized-case generators for property and acceptance tests."""

import csv
import importlib.util
import io
import json
from pathlib import Path
from random import Random

import pytest

from acqsim import (
    CameraSpec,
    CameraLinkIf,
    ClockModel,
    CoaXPressIf,
    DeadlineSpec,
    FixedProcessing,
    FrameTable,
    GigEVisionIf,
    NormalProcessing,
    PCIeLink,
    SimConfig,
    UniformProcessing,
    USB3If,
    build_classic,
    build_direct,
)
from acqsim.simcore import DROP_NEWEST, DROP_OLDEST
from acqsim.topology import (
    CUT_THROUGH,
    STORE_AND_FORWARD,
    BufferStage,
    Topology,
)


def base_doc(**overrides):
    """A valid one-camera direct-chain scenario document, with overrides."""
    doc = {
        "schema_version": 1,
        "name": "unit",
        "camera": {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000},
        "architecture": "direct",
        "pcie": {"kind": "pcie", "generation": 3, "lanes": 1},
        "sim": {"seed": 5, "n_frames": 1},
    }
    doc.update(overrides)
    return doc


def make_camera(rng: Random) -> CameraSpec:
    """Small, fast-to-simulate cameras."""
    return CameraSpec(
        resolution_pixels=rng.randint(1_000, 50_000),
        bit_depth=rng.choice([8, 10, 12, 16]),
        frame_rate=rng.choice([1e5, 2e5, 5e5, 1e6]),
    )


def make_link(rng: Random):
    kind = rng.randrange(5)
    eff = rng.choice([1.0, 0.9, 0.75])
    length = rng.choice([0.0, 10.0, 300.0])
    if kind == 0:
        return PCIeLink(
            generation=rng.randint(1, 5),
            lanes=rng.choice([1, 2, 4, 8, 16]),
            cable_length_m=length,
            protocol_efficiency=eff,
        )
    if kind == 1:
        return CameraLinkIf(config=rng.choice(["base", "medium", "full"]), cable_length_m=length)
    if kind == 2:
        return CoaXPressIf(
            speed_grade=rng.choice(["cxp2", "cxp6", "cxp12"]),
            links=rng.randint(1, 4),
            cable_length_m=length,
        )
    if kind == 3:
        return GigEVisionIf(rate_preset=rng.choice(["1g", "10g"]), cable_length_m=length)
    return USB3If(cable_length_m=length, protocol_efficiency=eff)


def make_processing(rng: Random):
    pick = rng.randrange(3)
    if pick == 0:
        return FixedProcessing(rng.randint(0, 50_000))
    if pick == 1:
        lo = rng.randint(0, 10_000)
        return UniformProcessing(lo, lo + rng.randint(0, 20_000))
    return NormalProcessing(rng.uniform(0, 20_000), rng.uniform(0, 5_000))


def make_topology(rng: Random, generous_capacity: bool = False) -> Topology:
    """A random valid classic or direct pipeline, sometimes drop-prone."""
    cam = make_camera(rng)
    frame = cam.frame_size_bytes
    if generous_capacity:
        cap = 64 * 1024 * 1024
    else:
        # Tight capacities force overflow and eviction paths; every buffer holds one whole frame.
        cap = rng.choice([frame + frame // 2, frame, 2 * frame, 8 * frame, 64 * 1024 * 1024])
    deadlines = DeadlineSpec(
        safety_ns=rng.choice([100_000, 10_000_000]),
        control_ns=20_000_000,
        timestamp_rms_ns=50.0,
    )
    kwargs = dict(
        camera_buffer_capacity_bytes=max(cap, frame),
        camera_buffer_forwarding=rng.choice([STORE_AND_FORWARD, CUT_THROUGH]),
        sensor_latency_ns=rng.randint(0, 1_000),
        host_latency_ns=rng.randint(0, 1_000),
        processing=make_processing(rng),
        processor_latency_ns=rng.randint(0, 1_000),
        deadlines=deadlines,
    )
    if rng.random() < 0.5:
        return build_direct(cam, make_link(rng), name=f"rand-direct-{rng.randrange(10**6)}", **kwargs)
    return build_classic(
        cam,
        make_link(rng),
        make_link(rng),
        cap,
        name=f"rand-classic-{rng.randrange(10**6)}",
        grabber_latency_ns=rng.randint(0, 1_000),
        **kwargs,
    )


def make_config(rng: Random) -> SimConfig:
    clock = ClockModel(
        offset_ns=rng.choice([0.0, 25.0, -25.0]),
        drift_ppm=rng.choice([0.0, 10.0]),
        jitter_sigma_ns=rng.choice([0.0, 5.0, 20.0]),
    )
    policy = rng.choice([DROP_NEWEST, DROP_OLDEST])
    if rng.random() < 0.25:
        return SimConfig(
            seed=rng.getrandbits(32),
            duration_ns=rng.randint(0, 200_000),
            drop_policy=policy,
            clock=clock,
        )
    return SimConfig(
        seed=rng.getrandbits(32),
        n_frames=rng.randint(0, 8),
        drop_policy=policy,
        clock=clock,
    )


def insertable_buffer(rng: Random) -> BufferStage:
    return BufferStage(
        capacity_bytes=64 * 1024 * 1024,
        forwarding=rng.choice([STORE_AND_FORWARD, CUT_THROUGH]),
        fixed_latency_ns=rng.randint(0, 2_000),
    )


def insert_stage(topo: Topology, stage, position: int) -> Topology:
    stages = topo.stages[:position] + (stage,) + topo.stages[position:]
    return Topology(name=topo.name + "+ins", stages=stages, camera=topo.camera, deadlines=topo.deadlines)


def frame_table(records) -> FrameTable:
    """A two-stage FrameTable of stand-in frames that have generated_at_ns and
    camera_timestamp_ns, and may have frame_id (default: the position) and
    latency_ns (default None).  A frame is delivered, with that latency,
    exactly when its latency is not None; otherwise it is in flight."""
    n = len(records)
    latency = [getattr(r, "latency_ns", None) for r in records]
    return FrameTable(
        frame_id=[getattr(r, "frame_id", k) for k, r in enumerate(records)],
        size_bytes=[1] * n,
        generated_at_ns=[r.generated_at_ns for r in records],
        camera_timestamp_ns=[r.camera_timestamp_ns for r in records],
        timestamp_clamped=[False] * n,
        ingress_ns=[[0] * n, [0] * n],
        egress_ns=[[0] * n, [0 if v is None else v for v in latency]],
        buffer_bytes=[[None] * n, [None] * n],
        disposition=["in_flight" if v is None else "delivered" for v in latency],
        drop_stage=[None] * n,
        drop_reason=[None] * n,
        drop_time_ns=[None] * n,
    )


def benchmark_workloads() -> dict:
    """perfbench/workloads.py's scenario builders by workload name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SCENARIOS


# --- An independent reader of the tabular report --------------------------
# It uses csv alone and follows docs/report-schema.md, so it checks the
# exporter against the schema rather than against acqsim's own records.

FRAME_COLUMNS = [
    "frame_id", "size_bytes", "generated_at_ns", "camera_timestamp_ns", "timestamp_clamped",
    "disposition", "drop_stage", "drop_reason", "drop_time_ns", "latency_ns",
]


def read_tabular(text: str):
    """(header, frame rows, {metric: value}) of a tabular export, every cell a string."""
    table, _, block = text.partition("\n\n")
    header, *rows = csv.reader(table.splitlines())
    metric_header, *metrics = csv.reader(block.splitlines())
    assert metric_header == ["metric", "value"]
    return header, rows, dict(metrics)


def _cells(values: dict) -> dict:
    """Values as tabular cells: null is empty, a flag is 0 or 1."""
    return {k: "" if v is None else str(int(v) if isinstance(v, bool) else v) for k, v in values.items()}


def tabular_frame(frame: dict) -> dict:
    """The tabular row, by column, that the schema gives a structured-export frame."""
    spans = frame["stage_times"]
    row = {key: frame[key] for key in FRAME_COLUMNS[:-1]}
    row["latency_ns"] = spans[-1][1] - spans[0][1] if frame["disposition"] == "delivered" else None
    for i, (ingress, egress) in enumerate(spans):
        row[f"stage{i}_ingress_ns"], row[f"stage{i}_egress_ns"] = ingress, egress
        row[f"stage{i}_buffer_bytes"] = frame["buffer_bytes"].get(str(i))
    return _cells(row)


def tabular_metrics(doc: dict) -> dict:
    """The tabular metric block that the schema gives a structured export."""
    a = doc["aggregates"]
    block = {k: v for k, v in a.items() if k not in ("high_water_bytes", "violations")}
    for kind in ("safety", "control", "timestamp"):
        block[f"{kind}_violations"] = sum(v["kind"] == kind for v in a["violations"])
    block["elapsed_ns"] = doc["elapsed_ns"]
    block.update({f"high_water_stage{i}_bytes": b for i, b in a["high_water_bytes"].items()})
    return _cells(block)


def assert_tabular_matches_structured(structured: str, tabular: str) -> None:
    """The two exports of one report hold the same frames and scalars, cell for cell."""
    doc = json.loads(structured)
    header, rows, metrics = read_tabular(tabular)
    stages = range(len(doc["topology"]["stages"]))
    assert header == FRAME_COLUMNS + [
        f"stage{i}_{column}" for i in stages for column in ("ingress_ns", "egress_ns", "buffer_bytes")
    ]
    assert [dict(zip(header, row)) for row in rows] == [tabular_frame(f) for f in doc["frames"]]
    assert metrics == tabular_metrics(doc)


def tabular_table(report) -> str:
    """The frame table of a tabular export as csv.writer writes it, a row at a time from the
    report's FrameTable, through the blank line that ends it: the reference of the woven rows."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    t, stages = report.frames, range(len(report.topology.stages))
    w.writerow(FRAME_COLUMNS + [f"stage{i}_{c}" for i in stages for c in ("ingress_ns", "egress_ns", "buffer_bytes")])
    for f, latency in enumerate(t.latency_ns()):
        row = [int(t.timestamp_clamped[f]) if key == "timestamp_clamped" else getattr(t, key)[f]
               for key in FRAME_COLUMNS[:-1]]  # a flag is written as 0/1
        w.writerow(row + [latency] + [c[i][f] for i in stages for c in (t.ingress_ns, t.egress_ns, t.buffer_bytes)])
    w.writerow([])
    return out.getvalue()


def json_nodes(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def replace_node(doc, path, value):
    """doc with the node at path (keys and indices from the root) set to value."""
    if not path:
        return value
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    return doc


@pytest.fixture(scope="session")
def run_pool():
    """1000 randomized (topology, config, report) cases, shared by suites."""
    from acqsim import run

    rng = Random(20260810)
    pool = []
    for _ in range(1000):
        topo = make_topology(rng)
        cfg = make_config(rng)
        pool.append((topo, cfg, run(topo, cfg)))
    return pool
