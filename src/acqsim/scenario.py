"""Scenario files: a versioned JSON description of one simulation run.

A scenario names a camera (or several), picks an architecture (classic,
direct, or a custom stage list), configures links, packetization
overhead, clock error, deadlines and the run itself.  Multi-camera
scenarios expand into independent pipelines; pipeline i runs with
seed + i so jitter streams differ per camera.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional

from .linkmodel import LINK_KINDS, CameraSpec, InvalidSpecError, OverheadModel, Table, record, warn_outside_envelope
from .simcore import SimConfig, check_generable
from .timing import DeadlineSpec
from .topology import (
    PROCESSING_KINDS,
    STAGE_KINDS,
    Topology,
    build_classic,
    build_direct,
    check_column,
    check_runnable,
    from_dict,
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
    "processing_time_ns": None,  # an integer or a processing object (PROCESSING_KINDS)
    "processor_latency_ns": "int",
    "stages": None,
    "overhead": None,
    "clock": None,
    "deadlines": None,
    "sim": None,
}

# Per architecture: its builder (None for custom, whose document lists the
# stages), the keys it requires (a builder's links, in argument order) and
# the keys it passes to the builder, as they are except processing_time_ns,
# which becomes `processing`.  An absent key takes the builder's default.
_CHAIN_KEYS = (
    "camera_buffer_capacity_bytes",
    "camera_buffer_forwarding",
    "sensor_latency_ns",
    "host_latency_ns",
    "processing_time_ns",
    "processor_latency_ns",
)
_ARCHITECTURES = {
    "classic": (
        build_classic,
        ("camera_interface", "pcie"),
        ("grabber_capacity_bytes", "grabber_latency_ns", *_CHAIN_KEYS),
    ),
    "direct": (build_direct, ("pcie",), _CHAIN_KEYS),
    "custom": (None, ("stages",), ()),
}
# The keys every architecture reads: the top-level keys no architecture owns.
_COMMON_KEYS = set(_TOP_LEVEL_KEYS).difference(*(req + own for _, req, own in _ARCHITECTURES.values()))


class ScenarioError(ValueError):
    """The scenario document is malformed or internally inconsistent."""


@record
class Scenario(Table):
    """A parsed scenario: its cameras, one pipeline per camera, and the run configuration they share."""

    name: str
    cameras: list
    pipelines: list          # one Topology per camera
    base_config: SimConfig   # pipeline i runs with seed + i

    def configs(self) -> list[SimConfig]:
        base = self.base_config
        return [replace(base, seed=base.seed + i) for i in range(len(self.pipelines))]


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


def _parse_processing(value):
    if type(value) is not int and not isinstance(value, dict):
        raise ScenarioError(f"processing_time_ns must be an integer or a distribution object, got {value!r}")
    return from_dict(PROCESSING_KINDS, {"fixed_ns": value} if type(value) is int else value)


def parse_scenario(doc: dict) -> Scenario:
    """Decode a scenario document; every malformed part raises ScenarioError.

    Each camera outside the operating envelope issues an EnvelopeWarning."""
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
    for key, annotation in _TOP_LEVEL_KEYS.items():
        if key in doc:
            check_column("scenario", key, annotation, [doc[key]])
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
    for cam in cameras:
        warn_outside_envelope(cam)

    overhead = from_dict(OverheadModel, doc["overhead"]) if "overhead" in doc else None
    deadlines = from_dict(DeadlineSpec, doc.get("deadlines", {}))

    sim = doc.get("sim")
    if not isinstance(sim, dict):
        raise ScenarioError("scenario requires a 'sim' object")
    if "seed" not in sim:
        raise ScenarioError("sim requires an explicit 'seed'")
    if "clock" in sim:
        raise ScenarioError("'clock' is a top-level key, not a sim key")
    base_config = from_dict(SimConfig, {**sim, "clock": doc.get("clock", {})})

    architecture = doc.get("architecture")
    if architecture not in _ARCHITECTURES:
        raise ScenarioError(f"'architecture' must be one of {sorted(_ARCHITECTURES)}, got {architecture!r}")
    builder, required, own = _ARCHITECTURES[architecture]
    for key in required:
        if key not in doc:
            raise ScenarioError(f"{architecture} architecture requires {key!r}")
    foreign = sorted(set(doc) - _COMMON_KEYS - set(required) - set(own))
    if foreign:
        raise ScenarioError(f"{architecture} architecture does not read {', '.join(map(repr, foreign))}")
    if builder is None:
        stage_docs = doc["stages"]
        if not isinstance(stage_docs, list):
            raise ScenarioError("'stages' must be an array of stages")
        stages = tuple(from_dict(STAGE_KINDS, _with_overhead(sd, overhead)) for sd in stage_docs)
        topo = Topology(name=name, stages=stages, camera=cameras[0], deadlines=deadlines)
    else:
        kwargs = {key: doc[key] for key in own if key in doc}
        if "processing_time_ns" in kwargs:
            kwargs["processing"] = _parse_processing(kwargs.pop("processing_time_ns"))
        links = [from_dict(LINK_KINDS, _with_overhead(doc[key], overhead)) for key in required]
        topo = builder(cameras[0], *links, name=name, deadlines=deadlines, **kwargs)

    # The stages do not depend on the camera: each camera gets its own pipeline by swapping the camera and the
    # name.  Whether a buffer holds its frame and the camera can generate its frames does, so each is checked.
    if len(cameras) == 1:
        pipelines = [topo]
    else:
        pipelines = [replace(topo, name=f"{name}-cam{i}", camera=cam) for i, cam in enumerate(cameras)]
    for pipeline in pipelines:
        check_runnable(pipeline)
        check_generable(pipeline, base_config)  # the pipelines' configs differ only in their seeds
    return Scenario(name=name, cameras=cameras, pipelines=pipelines, base_config=base_config)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; JSON errors become ScenarioError.

    Text that is not UTF-8, and arrays or objects nested past the
    decoder's recursion limit, are JSON errors too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(doc)
