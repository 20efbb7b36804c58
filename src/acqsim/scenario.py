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

from .linkmodel import LINK_KINDS, CameraSpec, InvalidSpecError, OverheadModel
from .simcore import SimConfig
from .timing import DeadlineSpec
from .topology import (
    DEFAULT_BUFFER_CAPACITY,
    STAGE_KINDS,
    ProcessingModel,
    Topology,
    build_classic,
    build_direct,
    check_json_types,
    from_dict,
    scalar_checks,
    validate,
)

SCENARIO_SCHEMA_VERSION = 1

# Every top-level key, with the JSON type of each scalar; the values
# marked None are objects or arrays, decoded by from_dict.
_TOP_LEVEL_KEYS = {
    "schema_version": "int",
    "name": "str",
    "camera": None,
    "cameras": None,
    "architecture": "str",
    "pcie": None,
    "camera_interface": None,
    "grabber_capacity_bytes": "int",
    "grabber_latency_ns": "int",
    "camera_buffer_capacity_bytes": "int",
    "camera_buffer_forwarding": "str",
    "sensor_latency_ns": "int",
    "host_latency_ns": "int",
    "processing_time_ns": None,  # an integer or a ProcessingModel object
    "processor_latency_ns": "int",
    "stages": None,
    "overhead": None,
    "clock": None,
    "deadlines": None,
    "sim": None,
}
_TOP_LEVEL_CHECKS = scalar_checks(_TOP_LEVEL_KEYS)

# Top-level keys passed on to build_classic and build_direct as they are;
# an absent key takes the builder's default (the forwarding default is
# store-and-forward for classic, cut-through for direct).
_BUILDER_KEYS = (
    "camera_buffer_capacity_bytes",
    "camera_buffer_forwarding",
    "sensor_latency_ns",
    "host_latency_ns",
    "processor_latency_ns",
)


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


def _with_overhead(doc, overhead: Optional[OverheadModel]):
    """A link or link-stage document in which a PCIe link that states no
    protocol efficiency of its own inherits the overhead-derived one."""
    if overhead is None or not isinstance(doc, dict):
        return doc
    if doc.get("kind") == "link" and "link" in doc:
        return {**doc, "link": _with_overhead(doc["link"], overhead)}
    if doc.get("kind") == "pcie" and "protocol_efficiency" not in doc:
        return {**doc, "protocol_efficiency": overhead.efficiency}
    return doc


def _parse_processing(value) -> ProcessingModel:
    if value is None:
        return ProcessingModel()
    if type(value) is int:
        return ProcessingModel.fixed(value)
    if isinstance(value, dict):
        return from_dict(ProcessingModel, value)
    raise ScenarioError(f"processing_time_ns must be an integer or a distribution object, got {value!r}")


def parse_scenario(doc: dict) -> Scenario:
    """Decode a scenario document; every malformed part raises ScenarioError."""
    try:
        return _parse(doc)
    except InvalidSpecError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(doc) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    check_json_types("scenario", _TOP_LEVEL_CHECKS, doc)
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {version!r} (expected {SCENARIO_SCHEMA_VERSION})"
        )
    name = doc.get("name", "scenario")

    if ("camera" in doc) == ("cameras" in doc):
        raise ScenarioError("set exactly one of 'camera' or 'cameras'")
    camera_docs = [doc["camera"]] if "camera" in doc else doc["cameras"]
    if not isinstance(camera_docs, list) or not camera_docs:
        raise ScenarioError("'cameras' must be a non-empty array of cameras")
    cameras = [from_dict(CameraSpec, c) for c in camera_docs]

    overhead = from_dict(OverheadModel, doc["overhead"]) if "overhead" in doc else None
    deadlines = from_dict(DeadlineSpec, doc.get("deadlines", {}))
    processing = _parse_processing(doc.get("processing_time_ns"))

    sim = _require(doc, "sim", "scenario")
    if not isinstance(sim, dict):
        raise ScenarioError("'sim' must be an object")
    if "seed" not in sim:
        raise ScenarioError("sim requires an explicit 'seed'")
    if "clock" in sim:
        raise ScenarioError("'clock' is a top-level key, not a sim key")
    base_config = from_dict(SimConfig, {**sim, "clock": doc.get("clock", {})})

    architecture = _require(doc, "architecture", "scenario")
    if architecture == "custom":
        stage_docs = _require(doc, "stages", "custom architecture")
        if not isinstance(stage_docs, list):
            raise ScenarioError("'stages' must be an array of stages")
        stages = tuple(from_dict(STAGE_KINDS, _with_overhead(sd, overhead)) for sd in stage_docs)
        topo = Topology(name=name, stages=stages, camera=cameras[0], deadlines=deadlines)
    elif architecture in ("classic", "direct"):
        kwargs = {key: doc[key] for key in _BUILDER_KEYS if key in doc}
        kwargs.update(name=name, processing=processing, deadlines=deadlines)
        pcie_doc = _require(doc, "pcie", f"{architecture} architecture")
        pcie = from_dict(LINK_KINDS, _with_overhead(pcie_doc, overhead))
        if architecture == "direct":
            topo = build_direct(cameras[0], pcie, **kwargs)
        else:
            ci_doc = _require(doc, "camera_interface", "classic architecture")
            topo = build_classic(
                cameras[0],
                from_dict(LINK_KINDS, _with_overhead(ci_doc, overhead)),
                pcie,
                doc.get("grabber_capacity_bytes", DEFAULT_BUFFER_CAPACITY),
                grabber_latency_ns=doc.get("grabber_latency_ns", 0),
                **kwargs,
            )
    else:
        raise ScenarioError(f"unknown architecture {architecture!r}")
    problems = validate(topo)
    if problems:
        rules = "; ".join(v.rule for v in problems)
        raise ScenarioError(f"scenario resolves to an invalid topology: {rules}")

    # The stages do not depend on the camera: each camera gets its own
    # pipeline by swapping the camera and the name.
    if len(cameras) == 1:
        pipelines = [topo]
    else:
        pipelines = [replace(topo, name=f"{name}-cam{i}", camera=cam) for i, cam in enumerate(cameras)]
    return Scenario(name=name, cameras=cameras, pipelines=pipelines, base_config=base_config)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; JSON errors become ScenarioError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(doc)
