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


@dataclass(frozen=True)
class Violation:
    stage_index: Optional[int]
    rule: str


class InvalidTopologyError(InvalidSpecError):
    """The topology breaks a rule of validate and cannot be simulated."""


def validate(t: Topology) -> list[Violation]:
    """Structural rule check; an empty list means the topology is runnable."""
    v: list[Violation] = []
    stages = t.stages
    if not stages:
        return [Violation(None, "chain is non-empty")]
    frame = t.camera.frame_size_bytes
    if not isinstance(stages[0], Sensor):
        v.append(Violation(0, "first stage is Sensor"))
    if not isinstance(stages[-1], Processor):
        v.append(Violation(len(stages) - 1, "last stage is Processor"))
    if not any(isinstance(s, LinkStage) for s in stages):
        v.append(Violation(None, "at least one LinkStage present"))
    for i, s in enumerate(stages):
        if isinstance(s, Sensor) and i != 0:
            v.append(Violation(i, "Sensor only at the head"))
        if isinstance(s, Processor) and i != len(stages) - 1:
            v.append(Violation(i, "Processor only at the tail"))
        if isinstance(s, LinkStage) and (i == 0 or not isinstance(stages[i - 1], EMITTER_KINDS)):
            v.append(Violation(i, "LinkStage preceded by an emitting stage"))
        if isinstance(s, LinkStage) and not isinstance(s.link, _LINK_CLASSES):
            v.append(Violation(i, "LinkStage carries a link of a known kind"))
        # A buffer holds a whole frame, except a cut-through one fed by a link, which holds only the residue.
        if isinstance(s, (BufferStage, FrameGrabber)) and s.capacity_bytes < frame:
            residue = getattr(s, "forwarding", None) == CUT_THROUGH and i > 0 and isinstance(stages[i - 1], LinkStage)
            if not residue:
                v.append(Violation(i, "buffer holds a whole frame"))
    return v


def check_runnable(t: Topology) -> None:
    """Raise InvalidTopologyError naming each rule of validate that t
    breaks, with its stage where the rule has one."""
    problems = validate(t)
    if problems:
        rules = "; ".join(v.rule if v.stage_index is None else f"{v.rule} (stage {v.stage_index})" for v in problems)
        raise InvalidTopologyError(f"topology is not runnable: {rules}")


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


def record_columns(cls, docs) -> dict:
    """Field name -> column of the values that docs, a JSON array of records
    of cls, holds, once every record is checked as from_dict checks it.

    The checks run a field column at a time and build no record: each object
    must hold exactly the fields of cls, each scalar of its JSON type.  Only
    where that fails (or cls has a field with a JSON form) are the records
    decoded one by one, which names the fault."""
    _check_array(docs)
    names = [f.name for f in dataclasses.fields(cls)]
    if cls not in JSON_FORMS and set(map(type, docs)) <= {dict} and not set(map(len, docs)) - {len(names)}:
        try:
            columns = {key: list(map(itemgetter(key), docs)) for key in names}
        except KeyError:  # an object holds a key of another name
            pass
        else:
            if all(_column_ok(columns[key], types) for key, types, _ in _field_checks(cls)):
                return columns
    records = [from_dict(cls, doc) for doc in docs]
    return {key: [getattr(r, key) for r in records] for key in names}


def _column_ok(column: list, types: tuple) -> bool:
    """Whether each value of column has one of the JSON types, a float also being finite."""
    kinds = set(map(type, column))
    floats = [v for v in column if type(v) is float] if float in kinds else ()  # an int is always finite
    return kinds.issubset(types) and all(map(math.isfinite, floats))


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
    blob = json.dumps(to_dict(t), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
