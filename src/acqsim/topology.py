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
from dataclasses import KW_ONLY, dataclass, field
from operator import itemgetter
from random import Random
from typing import Optional

from .linkmodel import LINK_KINDS, CameraSpec, InvalidSpecError, Link
from .timing import DeadlineSpec

STORE_AND_FORWARD = "store_and_forward"
CUT_THROUGH = "cut_through"

DEFAULT_BUFFER_CAPACITY = 64 * 1024 * 1024  # 64 MiB, holds any in-envelope frame

# The parameters each processing distribution reads; the others stay zero.
_PROCESSING_PARAMS = {
    "fixed": ("fixed_ns",),
    "uniform": ("low_ns", "high_ns"),
    "normal": ("mean_ns", "sigma_ns"),
}


@dataclass(frozen=True)
class ProcessingModel:
    """Per-frame compute time: fixed, or a seeded random distribution."""

    distribution: str = "fixed"  # "fixed" | "uniform" | "normal"
    fixed_ns: int = 0
    low_ns: int = 0
    high_ns: int = 0
    mean_ns: float = 0.0
    sigma_ns: float = 0.0

    def __post_init__(self):
        params = _PROCESSING_PARAMS.get(self.distribution)
        if params is None:
            raise InvalidSpecError(f"unknown processing distribution {self.distribution!r}")
        unused = [
            n for p in _PROCESSING_PARAMS.values() if p is not params for n in p if getattr(self, n)
        ]
        if unused:
            raise InvalidSpecError(f"{self.distribution} processing takes no {', '.join(unused)}")
        if self.distribution == "fixed":
            if self.fixed_ns < 0:
                raise InvalidSpecError("fixed processing time must be >= 0")
        elif self.distribution == "uniform":
            if not 0 <= self.low_ns <= self.high_ns:
                raise InvalidSpecError("uniform processing time needs 0 <= low <= high")
        elif self.sigma_ns < 0 or self.mean_ns < 0:
            raise InvalidSpecError("normal processing time needs mean, sigma >= 0")

    @classmethod
    def fixed(cls, ns: int) -> "ProcessingModel":
        return cls(distribution="fixed", fixed_ns=ns)

    @classmethod
    def uniform(cls, low_ns: int, high_ns: int) -> "ProcessingModel":
        return cls(distribution="uniform", low_ns=low_ns, high_ns=high_ns)

    @classmethod
    def normal(cls, mean_ns: float, sigma_ns: float) -> "ProcessingModel":
        return cls(distribution="normal", mean_ns=mean_ns, sigma_ns=sigma_ns)

    def draw(self, rng: Random) -> int:
        if self.distribution == "fixed":
            return self.fixed_ns
        if self.distribution == "uniform":
            return rng.randint(self.low_ns, self.high_ns)
        # normal, clamped at zero
        return max(0, round(rng.gauss(self.mean_ns, self.sigma_ns)))


# --- Stage kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """A stage that holds a frame: the fixed latency every kind but a link shares."""

    _: KW_ONLY
    fixed_latency_ns: int = 0

    def __post_init__(self):
        if self.fixed_latency_ns < 0:
            raise InvalidSpecError("fixed_latency_ns must be >= 0")


@dataclass(frozen=True)
class Sensor(Stage):
    kind = "sensor"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LinkStage:
    link: Link

    kind = "link"


@dataclass(frozen=True)
class FrameGrabber(Stage):
    """Capture card buffer; always store-and-forward by construction."""

    capacity_bytes: int

    kind = "frame_grabber"

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise InvalidSpecError("frame grabber capacity must be positive")
        super().__post_init__()


@dataclass(frozen=True)
class HostMemory(Stage):
    """Infinite sink; holds frames until the next stage picks them up."""

    kind = "host_memory"


@dataclass(frozen=True)
class Processor(Stage):
    """Single-server consumer; service time = fixed latency + drawn compute."""

    processing: ProcessingModel = field(default_factory=ProcessingModel)

    kind = "processor"


# The link kinds a LinkStage can carry: the bare Link base has no raw rate.
_LINK_CLASSES = tuple(LINK_KINDS.values())
# Stages that can hold a complete frame and feed a downstream link.
EMITTER_KINDS = (Sensor, BufferStage, FrameGrabber)
# Stages where a full frame is materialized in a memory.
COPY_KINDS = (BufferStage, FrameGrabber, HostMemory)


@dataclass(frozen=True)
class Topology:
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


def build_direct(
    cam: CameraSpec,
    pcie: Link,
    *,
    name: str = "direct",
    camera_buffer_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY,
    camera_buffer_forwarding: str = CUT_THROUGH,
    sensor_latency_ns: int = 0,
    host_latency_ns: int = 0,
    processing: Optional[ProcessingModel] = None,
    processor_latency_ns: int = 0,
    deadlines: Optional[DeadlineSpec] = None,
) -> Topology:
    """Camera streams straight onto the host bus; no grabber, no CI hop.

    The camera buffer defaults to cut-through here (streaming DMA),
    versus store-and-forward in the classic chain where a full frame is
    assembled before the camera-interface transfer.
    """
    stages = (
        Sensor(fixed_latency_ns=sensor_latency_ns),
        BufferStage(
            capacity_bytes=camera_buffer_capacity_bytes,
            forwarding=camera_buffer_forwarding,
        ),
        LinkStage(link=pcie),
        HostMemory(fixed_latency_ns=host_latency_ns),
        Processor(processing=processing or ProcessingModel(), fixed_latency_ns=processor_latency_ns),
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
# the class's "kind" tag for links and stages.  JSON_FORMS lists, per
# class, only the fields whose JSON form differs from the Python value,
# as (encode, decode) pairs; simcore and metrics add their own records.

STAGE_KINDS = {
    cls.kind: cls for cls in (Sensor, BufferStage, LinkStage, FrameGrabber, HostMemory, Processor)
}
_TAGGED = frozenset(LINK_KINDS.values()) | frozenset(STAGE_KINDS.values())

# JSON types a scalar annotation accepts.  type() is matched exactly, so a
# bool is never an int; float values must also be finite.
_SCALARS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a finite number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "a boolean"),
    "Optional[int]": ((int, type(None)), "an integer or null"),
    "Optional[str]": ((str, type(None)), "a string or null"),
}


def scalar_checks(annotations: dict) -> tuple:
    """(key, JSON types, description) for each scalar annotation of a key -> annotation map."""
    return tuple((key, *_SCALARS[a]) for key, a in annotations.items() if a in _SCALARS)


def check_json_types(owner: str, checks: tuple, d: dict) -> None:
    """Raise InvalidSpecError unless each key of d that checks names holds its JSON type."""
    for key, types, what in checks:
        if key in d:
            value = d[key]
            t = type(value)
            if t not in types or (t is float and not math.isfinite(value)):
                raise InvalidSpecError(f"{owner} {key!r} must be {what}, got {value!r}")


@functools.cache
def _field_checks(cls) -> tuple:
    """The scalar checks of a record class's fields."""
    return scalar_checks({f.name: f.type for f in dataclasses.fields(cls)})


def to_dict(obj) -> dict:
    """The JSON object of a record: one key per field (in the form JSON_FORMS
    gives it), plus "kind" for links and stages."""
    cls = type(obj)
    if cls is ProcessingModel:  # sparse: only its own distribution's parameters
        names = ("distribution", *_PROCESSING_PARAMS[obj.distribution])
        d = {name: getattr(obj, name) for name in names}
    else:
        d = dict(vars(obj))  # a dataclass instance holds exactly its fields
    forms = JSON_FORMS.get(cls)
    if forms:
        for name, (encode, _) in forms.items():
            d[name] = encode(d[name])
    if cls in _TAGGED:
        d["kind"] = cls.kind
    return d


def from_dict(cls_or_kinds, d):
    """Decode a JSON object into a record of the given class, or of the
    class its "kind" names in a kinds table (LINK_KINDS, STAGE_KINDS).

    Unknown or missing keys and wrongly typed values raise InvalidSpecError.
    """
    if not isinstance(d, dict):
        what = "a link or stage" if isinstance(cls_or_kinds, dict) else cls_or_kinds.__name__
        raise InvalidSpecError(f"{what} must be a JSON object, got {d!r}")
    if isinstance(cls_or_kinds, dict):
        d = dict(d)
        kind = d.pop("kind", None)
        cls = cls_or_kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise InvalidSpecError(f"unknown kind {kind!r} (expected one of {sorted(cls_or_kinds)})")
    else:
        cls = cls_or_kinds
    check_json_types(cls.__name__, _field_checks(cls), d)
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


def _check_array(docs) -> None:
    if not isinstance(docs, list):
        raise InvalidSpecError(f"a sequence of records must be a JSON array, got {type(docs).__name__}")


def many(cls_or_kinds) -> tuple:
    """JSON form of a field holding a tuple of records."""

    def decode(docs):
        _check_array(docs)
        return tuple(from_dict(cls_or_kinds, doc) for doc in docs)

    return lambda records: [to_dict(r) for r in records], decode


def check_columns(owner: str, keys: dict, values: dict, docs) -> dict:
    """Key -> column of docs, a JSON array of owner objects, once checked a column at a time, building
    no record: each object holds exactly the keys of keys (a key -> annotation map), each scalar of its
    annotation's JSON type and each key of values (a key -> allowed values map) one of its values.
    A wrong type raises check_json_types' InvalidSpecError for the first bad object."""
    if not isinstance(docs, list):
        raise InvalidSpecError(f"{owner}s must be a JSON array, got {type(docs).__name__}")
    bad_keys = f"{owner} must be a JSON object with exactly the keys {sorted(keys)}"
    if not set(map(type, docs)) <= {dict} or set(map(len, docs)) - {len(keys)}:
        raise InvalidSpecError(bad_keys)
    try:
        columns = {key: list(map(itemgetter(key), docs)) for key in keys}
    except KeyError:  # an object of the right size holds a key of another name
        raise InvalidSpecError(bad_keys) from None
    checks = scalar_checks(keys)
    for key, types, _ in checks:
        kinds = set(map(type, columns[key]))
        if not kinds <= set(types) or float in kinds and not all(
                math.isfinite(v) for v in columns[key] if type(v) is float):  # an int is always finite
            for doc in docs:
                check_json_types(owner, checks, doc)  # raises at the first bad object
    for key, allowed in values.items():
        if not set(columns[key]) <= set(allowed):
            bad = next(v for v in columns[key] if v not in allowed)
            raise InvalidSpecError(f"{owner} {key!r} must be one of {', '.join(map(json.dumps, allowed))}, got {bad!r}")
    return columns


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
    Processor: {"processing": one(ProcessingModel)},
}


def topology_digest(t: Topology) -> str:
    """Stable content hash of the canonical topology serialization."""
    return hashlib.sha256(CANONICAL(to_dict(t)).encode("utf-8")).hexdigest()[:16]
