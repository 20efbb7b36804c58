"""Pipeline construction and validation for the two acquisition layouts.

The classic chain routes the camera through a dedicated capture card:

    Sensor -> Buffer(camera FPGA) -> Link(camera interface)
           -> FrameGrabber -> Link(PCIe) -> HostMemory -> Processor

The direct chain puts the host bus right behind the camera FPGA:

    Sensor -> Buffer(camera FPGA) -> Link(PCIe) -> HostMemory -> Processor

copy_count() counts the stages where a full frame is materialized in a
memory (camera buffer, grabber, host RAM): 3 hops classic, 2 direct.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import KW_ONLY, field
from operator import itemgetter
from random import Random
from typing import Optional

from .linkmodel import LINK_KINDS, CameraSpec, InvalidSpecError, Kinds, Link, Record, record
from .timing import DeadlineSpec

STORE_AND_FORWARD = "store_and_forward"
CUT_THROUGH = "cut_through"

DEFAULT_BUFFER_CAPACITY = 64 * 1024 * 1024  # 64 MiB, holds any in-envelope frame

# --- Processing: per-frame compute time, fixed or a seeded random draw ---------


@record
class FixedProcessing(Record):
    """A processing time of fixed_ns for every frame."""

    fixed_ns: int

    distribution = "fixed"

    def __post_init__(self):
        if self.fixed_ns < 0:
            raise InvalidSpecError("fixed processing time must be >= 0")

    def draw(self, rng: Random) -> int:
        return self.fixed_ns


@record
class UniformProcessing(Record):
    """A processing time drawn uniformly from the integers low_ns..high_ns."""

    low_ns: int
    high_ns: int

    distribution = "uniform"

    def __post_init__(self):
        if not 0 <= self.low_ns <= self.high_ns:
            raise InvalidSpecError("uniform processing time needs 0 <= low <= high")

    def draw(self, rng: Random) -> int:
        return rng.randint(self.low_ns, self.high_ns)


@record
class NormalProcessing(Record):
    """A processing time drawn from a normal distribution, rounded to ns and clamped at zero."""

    mean_ns: float
    sigma_ns: float

    distribution = "normal"

    def __post_init__(self):
        if self.sigma_ns < 0 or self.mean_ns < 0:
            raise InvalidSpecError("normal processing time needs mean, sigma >= 0")

    def draw(self, rng: Random) -> int:
        return max(0, round(rng.gauss(self.mean_ns, self.sigma_ns)))  # clamped at zero


# Processing records by the "distribution" tag that names them in JSON; an untagged object is fixed.
PROCESSING_KINDS = Kinds((FixedProcessing, UniformProcessing, NormalProcessing), "distribution", "fixed")


# --- Stage kinds -----------------------------------------------------------


@record
class Stage(Record):
    """A stage that holds a frame: the fixed latency every kind but a link shares."""

    _: KW_ONLY
    fixed_latency_ns: int = 0

    def __post_init__(self):
        if self.fixed_latency_ns < 0:
            raise InvalidSpecError("fixed_latency_ns must be >= 0")


@record
class Sensor(Stage):
    """The head of every chain: it generates the frames and hands each on whole once read out."""

    kind = "sensor"


@record
class BufferStage(Stage):
    """A frame memory with a forwarding discipline.

    Store-and-forward holds the whole frame before sending it on;
    cut-through starts forwarding fixed_latency_ns after the first byte
    arrives and buffers only the rate-mismatch residue.
    """

    capacity_bytes: int
    forwarding: str = STORE_AND_FORWARD

    kind = "buffer"

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise InvalidSpecError("buffer capacity must be positive")
        if self.forwarding not in (STORE_AND_FORWARD, CUT_THROUGH):
            raise InvalidSpecError(f"unknown forwarding mode {self.forwarding!r}")
        super().__post_init__()


@record
class LinkStage(Record):
    """A link between two stages: it holds no frame and sends one at a time."""

    link: Link

    kind = "link"


@record
class FrameGrabber(Stage):
    """Capture card buffer; always store-and-forward by construction."""

    capacity_bytes: int

    kind = "frame_grabber"

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise InvalidSpecError("frame grabber capacity must be positive")
        super().__post_init__()


@record
class HostMemory(Stage):
    """Infinite sink; holds frames until the next stage picks them up."""

    kind = "host_memory"


@record
class Processor(Stage):
    """Single-server consumer; service time = fixed latency + drawn compute."""

    processing: FixedProcessing | UniformProcessing | NormalProcessing = FixedProcessing(0)

    kind = "processor"


# The link kinds a LinkStage can carry: the bare Link base has no raw rate.
_LINK_CLASSES = tuple(LINK_KINDS.values())
# Stages that can hold a complete frame and feed a downstream link.
EMITTER_KINDS = (BufferStage, FrameGrabber)
# Stages where a full frame is materialized in a memory.
COPY_KINDS = (BufferStage, FrameGrabber, HostMemory)


@record
class Topology(Record):
    """A named chain of stages, head to tail, with its camera and its deadline budgets."""

    name: str
    stages: tuple
    camera: CameraSpec
    deadlines: DeadlineSpec = field(default_factory=DeadlineSpec)


class InvalidTopologyError(InvalidSpecError):
    """The topology breaks a rule of check_runnable and cannot be simulated."""


def check_runnable(t: Topology) -> None:
    """Structural rule check: raise InvalidTopologyError naming each rule
    that t breaks, as `<rule>` or `<rule> (stage i)`; return None if t is runnable."""
    stages = t.stages
    broken = []
    if not stages:
        broken.append("chain is non-empty")
    else:
        frame = t.camera.frame_size_bytes
        if not isinstance(stages[0], Sensor):
            broken.append("first stage is Sensor (stage 0)")
        if not isinstance(stages[-1], Processor):
            broken.append(f"last stage is Processor (stage {len(stages) - 1})")
        if not any(isinstance(s, LinkStage) for s in stages):
            broken.append("at least one LinkStage present")
    for i, s in enumerate(stages):
        if isinstance(s, Sensor) and i != 0:
            broken.append(f"Sensor only at the head (stage {i})")
        if isinstance(s, Processor) and i != len(stages) - 1:
            broken.append(f"Processor only at the tail (stage {i})")
        if isinstance(s, LinkStage) and (i == 0 or not isinstance(stages[i - 1], EMITTER_KINDS)):
            broken.append(f"LinkStage preceded by an emitting stage (stage {i})")
        if isinstance(s, LinkStage) and i + 1 < len(stages) and isinstance(stages[i + 1], Processor):
            broken.append(f"LinkStage followed by a holding stage (stage {i})")
        if isinstance(s, LinkStage) and not isinstance(s.link, _LINK_CLASSES):
            broken.append(f"LinkStage carries a link of a known kind (stage {i})")
        # A buffer holds a whole frame, except a cut-through one fed by a link, which holds only the residue.
        if isinstance(s, (BufferStage, FrameGrabber)) and s.capacity_bytes < frame:
            residue = getattr(s, "forwarding", None) == CUT_THROUGH and i > 0 and isinstance(stages[i - 1], LinkStage)
            if not residue:
                broken.append(f"buffer holds a whole frame (stage {i})")
    if broken:
        raise InvalidTopologyError(f"topology is not runnable: {'; '.join(broken)}")


def copy_count(t: Topology) -> int:
    """Number of full-frame memory hops along the chain."""
    return sum(1 for s in t.stages if isinstance(s, COPY_KINDS))


def holding_stages(t: Topology) -> list:
    """The indices of t's holding stages, each with an occupancy trace: every stage but a link or the processor."""
    return [i for i, s in enumerate(t.stages) if not isinstance(s, (LinkStage, Processor))]


def build_direct(
    cam: CameraSpec,
    pcie: Link,
    *,
    name: str = "direct",
    camera_buffer_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY,
    camera_buffer_forwarding: str = CUT_THROUGH,
    sensor_latency_ns: int = 0,
    host_latency_ns: int = 0,
    processing: Optional[FixedProcessing | UniformProcessing | NormalProcessing] = None,
    processor_latency_ns: int = 0,
    deadlines: Optional[DeadlineSpec] = None,
) -> Topology:
    """Camera streams straight onto the host bus; no grabber, no CI hop.

    The camera buffer defaults to cut-through here and to store-and-forward
    in the classic chain.  Forwarding acts only on a buffer fed by a link:
    the sensor hands each frame on whole when its readout completes, so
    the camera buffer's mode changes no time.
    """
    stages = (
        Sensor(fixed_latency_ns=sensor_latency_ns),
        BufferStage(
            capacity_bytes=camera_buffer_capacity_bytes,
            forwarding=camera_buffer_forwarding,
        ),
        LinkStage(link=pcie),
        HostMemory(fixed_latency_ns=host_latency_ns),
        Processor(processing=processing or FixedProcessing(0), fixed_latency_ns=processor_latency_ns),
    )
    return Topology(name=name, stages=stages, camera=cam, deadlines=deadlines or DeadlineSpec())


def build_classic(
    cam: CameraSpec,
    ci: Link,
    pcie: Link,
    grabber_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY,
    *,
    name: str = "classic",
    camera_buffer_forwarding: str = STORE_AND_FORWARD,
    grabber_latency_ns: int = 0,
    **chain,
) -> Topology:
    """The direct chain plus the hop the paper removes: a camera-interface
    link and a frame grabber between the camera buffer and the host bus.

    The other keywords are build_direct's, with its defaults, except that
    the camera buffer stores and forwards.
    """
    direct = build_direct(cam, pcie, name=name, camera_buffer_forwarding=camera_buffer_forwarding, **chain)
    sensor, camera_buffer, *rest = direct.stages
    hop = (LinkStage(link=ci), FrameGrabber(grabber_capacity_bytes, fixed_latency_ns=grabber_latency_ns))
    return dataclasses.replace(direct, stages=(sensor, camera_buffer, *hop, *rest))


# --- JSON codec ------------------------------------------------------------
#
# A record crosses the JSON boundary as one key per dataclass field, plus
# the class's tag for links, stages and processing (a kinds table's).  JSON_FORMS lists, per
# class, only the fields whose JSON form differs from the Python value,
# as (encode, decode) pairs; simcore and metrics add their own records.

STAGE_KINDS = Kinds((Sensor, BufferStage, LinkStage, FrameGrabber, HostMemory, Processor))
# Each tagged record class -> the key of its tag.
_TAGS = {cls: kinds.tag for kinds in (LINK_KINDS, STAGE_KINDS, PROCESSING_KINDS) for cls in kinds.values()}

# JSON types a scalar annotation accepts.  type() is matched exactly, so a
# bool is never an int; float values must also be finite.
_SCALARS = {
    "int": ({int}, "an integer"),
    "float": ({int, float}, "a finite number"),
    "str": ({str}, "a string"),
    "bool": ({bool}, "a boolean"),
    "Optional[int]": ({int, type(None)}, "an integer or null"),
    "Optional[str]": ({str, type(None)}, "a string or null"),
}


def check_column(owner: str, key: str, annotation, column: list, allowed=None) -> list:
    """column itself, once each of its values is checked to be of annotation's JSON type (_SCALARS; any
    other annotation is not checked) and, given allowed, one of those values.  InvalidSpecError names the
    first bad value of the first broken rule."""
    if annotation in _SCALARS:
        types, what = _SCALARS[annotation]
        kinds = set(map(type, column))
        if not kinds <= types or float in kinds and not all(math.isfinite(v) for v in column if type(v) is float):
            bad = next(v for v in column if type(v) not in types or type(v) is float and not math.isfinite(v))
            raise InvalidSpecError(f"{owner} {key!r} must be {what}, got {bad!r}")
    if allowed is not None and not set(column) <= set(allowed):
        bad = next(v for v in column if v not in allowed)
        raise InvalidSpecError(f"{owner} {key!r} must be one of {', '.join(map(json.dumps, allowed))}, got {bad!r}")
    return column


def to_dict(obj) -> dict:
    """The JSON object of a record: one key per field (in the form JSON_FORMS
    gives it), plus its tag for a class of a kinds table (_TAGS)."""
    cls = type(obj)
    # Read field by field: vars(obj) would turn every later attribute read of obj into a dict lookup (Record).
    d = {name: getattr(obj, name) for name in cls.__dataclass_fields__}
    forms = JSON_FORMS.get(cls)
    if forms:
        for name, (encode, _) in forms.items():
            d[name] = encode(d[name])
    if cls in _TAGS:
        d[_TAGS[cls]] = getattr(cls, _TAGS[cls])
    return d


def from_dict(cls_or_kinds, d):
    """Decode a JSON object into a record of the given class, or of the class
    its tag names in a kinds table (LINK_KINDS, STAGE_KINDS, PROCESSING_KINDS).

    Unknown or missing keys and wrongly typed values raise InvalidSpecError.
    """
    tagged = isinstance(cls_or_kinds, Kinds)
    if not isinstance(d, dict):
        what = f"a {cls_or_kinds.tag!r} record" if tagged else cls_or_kinds.__name__
        raise InvalidSpecError(f"{what} must be a JSON object, got {d!r}")
    if tagged:
        d = dict(d)
        tag = d.pop(cls_or_kinds.tag, cls_or_kinds.default)
        cls = cls_or_kinds.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise InvalidSpecError(f"unknown {cls_or_kinds.tag} {tag!r} (expected one of {sorted(cls_or_kinds)})")
    else:
        cls = cls_or_kinds
    for f in dataclasses.fields(cls):
        if f.name in d:
            check_column(cls.__name__, f.name, f.type, [d[f.name]])
    forms = JSON_FORMS.get(cls)
    if forms:
        d = dict(d)
        for name, (_, decode) in forms.items():
            if name in d:
                d[name] = decode(d[name])
    try:
        return cls(**d)
    except TypeError as exc:  # an unknown or a missing key
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        detail = f"unknown keys {unknown}" if unknown else str(exc)
        raise InvalidSpecError(f"{cls.__name__}: {detail}") from exc


def one(cls_or_kinds) -> tuple:
    """JSON form of a field holding one record."""
    return to_dict, functools.partial(from_dict, cls_or_kinds)


def many(cls_or_kinds) -> tuple:
    """JSON form of a field holding a tuple of records."""

    def decode(docs):
        if not isinstance(docs, list):
            raise InvalidSpecError(f"a sequence of records must be a JSON array, got {type(docs).__name__}")
        return tuple(from_dict(cls_or_kinds, doc) for doc in docs)

    return lambda records: [to_dict(r) for r in records], decode


def check_columns(owner: str, keys: dict, values: dict, docs) -> dict:
    """Key -> column of docs, a JSON array of owner objects, once checked a column at a time, building
    no record: each object holds exactly the keys of keys (a key -> annotation map), and each column is
    checked by check_column against its annotation and its allowed values in values, if any."""
    if not isinstance(docs, list):
        raise InvalidSpecError(f"{owner}s must be a JSON array, got {type(docs).__name__}")
    bad_keys = f"{owner} must be a JSON object with exactly the keys {sorted(keys)}"
    if not set(map(type, docs)) <= {dict} or set(map(len, docs)) - {len(keys)}:
        raise InvalidSpecError(bad_keys)
    try:
        columns = {key: list(map(itemgetter(key), docs)) for key in keys}
    except KeyError:  # an object of the right size holds a key of another name
        raise InvalidSpecError(bad_keys) from None
    return {key: check_column(owner, key, a, columns[key], values.get(key)) for key, a in keys.items()}


def check_int_keyed(m) -> dict:
    """m itself, once checked to be a JSON object keyed by stage index: its
    keys are the canonical decimal strings of non-negative integers ("0",
    "7", "12"), so no two keys name one index."""
    if not isinstance(m, dict):
        raise InvalidSpecError(f"a map keyed by stage index must be a JSON object, got {type(m).__name__}")
    for k in m:
        if not (k.isascii() and k.isdecimal()) or k[0] == "0" and k != "0":
            raise InvalidSpecError(f"a map keyed by stage index has the non-index key {k!r}")
    return m


def decode_int_keyed(m, value) -> dict:
    """A map keyed by stage index from its JSON object, whose keys are strings, each value put through value()."""
    return {int(k): value(v) for k, v in check_int_keyed(m).items()}


def _check_int(v) -> int:
    if type(v) is not int:
        raise InvalidSpecError(f"a map keyed by stage index must map each index to an integer, got {v!r}")
    return v


# JSON form of a map keyed by stage index to integers: JSON object keys are strings.
INT_KEYED = (lambda m: {str(k): v for k, v in m.items()}, functools.partial(decode_int_keyed, value=_check_int))
# Canonical JSON text: sorted keys, compact separators.  Its callers encode values built without cycles.
CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

JSON_FORMS: dict = {
    Topology: {
        "camera": one(CameraSpec),
        "deadlines": one(DeadlineSpec),
        "stages": many(STAGE_KINDS),
    },
    LinkStage: {"link": one(LINK_KINDS)},
    Processor: {"processing": one(PROCESSING_KINDS)},
}


def topology_digest(t: Topology) -> str:
    """Stable content hash of the canonical topology serialization."""
    return hashlib.sha256(CANONICAL(to_dict(t)).encode("utf-8")).hexdigest()[:16]
