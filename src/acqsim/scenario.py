"""Scenario files: a versioned JSON description of one simulation run.

A scenario names a camera (or several), picks an architecture (classic,
direct, or a custom stage list), configures links, packetization
overhead, clock error, deadlines and the run itself.  Multi-camera
scenarios expand into independent pipelines; pipeline i runs with
seed + i so jitter streams differ per camera.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

from .linkmodel import (
    InvalidSpecError,
    OverheadModel,
    camera_from_dict,
    link_from_dict,
    overhead_from_dict,
)
from .simcore import SimConfig
from .timing import clock_from_dict, deadlines_from_dict
from .topology import (
    CUT_THROUGH,
    STORE_AND_FORWARD,
    DEFAULT_BUFFER_CAPACITY,
    LinkStage,
    ProcessingModel,
    Topology,
    build_classic,
    build_direct,
    processing_from_dict,
    stage_from_dict,
    validate,
)

SCENARIO_SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version",
    "name",
    "camera",
    "cameras",
    "architecture",
    "pcie",
    "camera_interface",
    "grabber_capacity_bytes",
    "grabber_latency_ns",
    "camera_buffer_capacity_bytes",
    "camera_buffer_forwarding",
    "sensor_latency_ns",
    "host_latency_ns",
    "processing_time_ns",
    "processor_latency_ns",
    "stages",
    "overhead",
    "clock",
    "deadlines",
    "sim",
}


class ScenarioError(ValueError):
    """The scenario document is malformed or internally inconsistent."""


@dataclass
class Scenario:
    name: str
    cameras: list
    pipelines: list          # one Topology per camera
    base_config: SimConfig   # pipeline i runs with seed + i

    def configs(self) -> list[SimConfig]:
        base = self.base_config
        return [replace(base, seed=base.seed + i) for i in range(len(self.pipelines))]


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ScenarioError(f"{context} requires {key!r}")
    return d[key]


def _link_with_overhead(link_dict: dict, overhead: Optional[OverheadModel]):
    """Parse a link; PCIe links inherit the overhead-derived efficiency
    when they do not state a protocol efficiency of their own."""
    if not isinstance(link_dict, dict):
        raise ScenarioError("link specification must be an object")
    d = dict(link_dict)
    if overhead is not None and d.get("kind") == "pcie" and "protocol_efficiency" not in d:
        d["protocol_efficiency"] = overhead.efficiency
    try:
        return link_from_dict(d)
    except InvalidSpecError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_processing(value) -> ProcessingModel:
    if value is None:
        return ProcessingModel.fixed(0)
    if isinstance(value, int):
        return ProcessingModel.fixed(value)
    if isinstance(value, dict):
        return processing_from_dict(value)
    raise ScenarioError("processing_time_ns must be an integer or a distribution object")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {version!r} (expected {SCENARIO_SCHEMA_VERSION})"
        )
    name = doc.get("name", "scenario")

    if ("camera" in doc) == ("cameras" in doc):
        raise ScenarioError("set exactly one of 'camera' or 'cameras'")
    try:
        if "camera" in doc:
            cameras = [camera_from_dict(doc["camera"])]
        else:
            cameras = [camera_from_dict(c) for c in doc["cameras"]]
    except InvalidSpecError as exc:
        raise ScenarioError(str(exc)) from exc
    if not cameras:
        raise ScenarioError("'cameras' must name at least one camera")

    overhead = overhead_from_dict(doc["overhead"]) if "overhead" in doc else None
    clock = clock_from_dict(doc.get("clock", {}))
    deadlines = deadlines_from_dict(doc.get("deadlines", {}))
    processing = _parse_processing(doc.get("processing_time_ns"))

    sim = _require(doc, "sim", "scenario")
    if not isinstance(sim, dict):
        raise ScenarioError("'sim' must be an object")
    if "seed" not in sim:
        raise ScenarioError("sim requires an explicit 'seed'")
    seed = sim["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"sim 'seed' must be an integer, got {seed!r}")
    if ("n_frames" in sim) == ("duration_ns" in sim):
        raise ScenarioError("sim requires exactly one of 'n_frames' or 'duration_ns'")
    try:
        base_config = SimConfig(
            seed=seed,
            n_frames=sim.get("n_frames"),
            duration_ns=sim.get("duration_ns"),
            drop_policy=sim.get("drop_policy", "drop_newest"),
            clock=clock,
        )
    except InvalidSpecError as exc:
        raise ScenarioError(str(exc)) from exc

    architecture = _require(doc, "architecture", "scenario")
    pipelines = []
    for i, cam in enumerate(cameras):
        pipeline_name = name if len(cameras) == 1 else f"{name}-cam{i}"
        try:
            if architecture == "direct":
                topo = build_direct(
                    cam,
                    _link_with_overhead(_require(doc, "pcie", "direct architecture"), overhead),
                    name=pipeline_name,
                    camera_buffer_capacity_bytes=doc.get(
                        "camera_buffer_capacity_bytes", DEFAULT_BUFFER_CAPACITY
                    ),
                    camera_buffer_forwarding=doc.get("camera_buffer_forwarding", CUT_THROUGH),
                    sensor_latency_ns=doc.get("sensor_latency_ns", 0),
                    host_latency_ns=doc.get("host_latency_ns", 0),
                    processing=processing,
                    processor_latency_ns=doc.get("processor_latency_ns", 0),
                    deadlines=deadlines,
                )
            elif architecture == "classic":
                topo = build_classic(
                    cam,
                    _link_with_overhead(
                        _require(doc, "camera_interface", "classic architecture"), overhead
                    ),
                    _link_with_overhead(_require(doc, "pcie", "classic architecture"), overhead),
                    doc.get("grabber_capacity_bytes", DEFAULT_BUFFER_CAPACITY),
                    name=pipeline_name,
                    camera_buffer_capacity_bytes=doc.get(
                        "camera_buffer_capacity_bytes", DEFAULT_BUFFER_CAPACITY
                    ),
                    camera_buffer_forwarding=doc.get("camera_buffer_forwarding", STORE_AND_FORWARD),
                    sensor_latency_ns=doc.get("sensor_latency_ns", 0),
                    grabber_latency_ns=doc.get("grabber_latency_ns", 0),
                    host_latency_ns=doc.get("host_latency_ns", 0),
                    processing=processing,
                    processor_latency_ns=doc.get("processor_latency_ns", 0),
                    deadlines=deadlines,
                )
            elif architecture == "custom":
                stage_docs = _require(doc, "stages", "custom architecture")
                stages = []
                for sd in stage_docs:
                    if not isinstance(sd, dict):
                        raise ScenarioError("stage specification must be an object")
                    if sd.get("kind") == "link":
                        stages.append(LinkStage(link=_link_with_overhead(sd.get("link", {}), overhead)))
                    else:
                        stages.append(stage_from_dict(sd))
                topo = Topology(
                    name=pipeline_name, stages=tuple(stages), camera=cam, deadlines=deadlines
                )
            else:
                raise ScenarioError(f"unknown architecture {architecture!r}")
        except InvalidSpecError as exc:
            raise ScenarioError(str(exc)) from exc
        problems = validate(topo)
        if problems:
            rules = "; ".join(v.rule for v in problems)
            raise ScenarioError(f"scenario resolves to an invalid topology: {rules}")
        pipelines.append(topo)

    return Scenario(name=name, cameras=cameras, pipelines=pipelines, base_config=base_config)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; JSON errors become ScenarioError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(doc)
