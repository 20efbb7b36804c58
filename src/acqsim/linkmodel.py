"""Stream-rate and link-throughput arithmetic for camera acquisition paths,
the link budget table, and the two bases of every record class.

All data rates in this package are decimal gigabits per second
(1 Gb/s = 1e9 b/s), which conveniently equals bits per nanosecond.
Buffer and frame sizes are plain bytes (binary prefixes only in docs).
Keeping the two conventions separate avoids the classic ~7% unit bug.

Each link has one exact rational rate: its kind's raw rate times its
protocol efficiency.  The simulator computes integer-nanosecond
transmission times from it with a true ceiling (see simcore), and the
double a link's rate is reported as is that rate rounded once.
"""

from __future__ import annotations

import math
import reprlib
import sys
import warnings
from dataclasses import KW_ONLY, FrozenInstanceError, dataclass
from fractions import Fraction
from typing import NamedTuple, Optional


class InvalidSpecError(ValueError):
    """A camera or link specification violates its invariants."""


class NoFeasibleWidthError(InvalidSpecError):
    """No allowed PCIe lane width can carry the requested stream."""


class EnvelopeWarning(UserWarning):
    """Camera parameters are outside the expected operating envelope."""


# --- PCIe constants -------------------------------------------------------

# Raw transfer rate per lane, GT/s.  Each generation doubles the previous
# one except gen1 -> gen2 (2.5 -> 5).
PCIE_GENERATIONS = (1, 2, 3, 4, 5)
_PCIE_RAW_GT = {
    1: Fraction(5, 2),
    2: Fraction(5),
    3: Fraction(8),
    4: Fraction(16),
    5: Fraction(32),
}

# Line coding: 8b/10b for gen 1-2 (20% overhead), 128b/130b for gen 3-5.
_ENCODING = {
    1: Fraction(8, 10),
    2: Fraction(8, 10),
    3: Fraction(128, 130),
    4: Fraction(128, 130),
    5: Fraction(128, 130),
}

PCIE_ALLOWED_LANES = (1, 2, 4, 8, 16)

# Signal propagation, both copper and fibre are modeled at 5 ns/m.
PROPAGATION_NS_PER_M = 5.0

# --- Interface presets (standard-derived, not measured values) ------------

# Camera Link moves N bits per pixel clock at 85 MHz:
#   Base 24 bit -> 2.04 Gb/s, Medium 48 bit -> 4.08, Full 84 bit -> 7.14.
_CAMERALINK_BITS = {"base": 24, "medium": 48, "full": 84}
_CAMERALINK_CLOCK_HZ = 85_000_000

# CoaXPress per-connection bit rates by speed grade.
_CXP_GBPS = {
    "cxp1": Fraction(5, 4),
    "cxp2": Fraction(5, 2),
    "cxp3": Fraction(25, 8),
    "cxp5": Fraction(5),
    "cxp6": Fraction(25, 4),
    "cxp10": Fraction(10),
    "cxp12": Fraction(25, 2),
}

_GIGE_GBPS = {"1g": Fraction(1), "10g": Fraction(10)}

_USB3_GBPS = Fraction(5)

# Camera Link HS per-lane payload rate (X-protocol lane).
_CLHS_LANE_GBPS = Fraction(103, 10)

# Camera operating envelope; a scenario's camera outside it warns but is not rejected.
ENVELOPE_RESOLUTION_PX = (1_000_000, 8_000_000)
ENVELOPE_FRAME_RATE_FPS = (50.0, 50_000.0)


# --- Record bases -----------------------------------------------------------
#
# Every record class of the package is a @record, whose one generated
# method is __init__, on one of the two bases below.  They implement once,
# by the rules of the dataclasses docs, what @dataclass would otherwise
# compile per class: Table the __eq__ and __repr__ of @dataclass, Record
# also the __hash__, __setattr__ and __delattr__ of @dataclass(frozen=True).


class Table:
    """A dataclass compared and shown by its fields: equal to an instance of
    its own class with equal field values, repr Qualname(field=value!r, ...).
    Its fields can be reassigned, so it is unhashable."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__dataclass_fields__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    @reprlib.recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__dataclass_fields__, self._values()))
        return f"{type(self).__qualname__}({shown})"


class Record(Table):
    """A frozen Table: only its class's own __init__ sets its fields, and any
    other assignment or deletion raises FrozenInstanceError; hashed by its fields."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        # Asks the caller's code, not self.__dict__: reading that would turn every later attribute read of
        # self from an inline value into a dict lookup, about 3x slower on CPython 3.11.
        if sys._getframe(1).f_code is not type(self).__init__.__code__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


record = dataclass(eq=False, repr=False)


# --- Domain types ---------------------------------------------------------


@record
class CameraSpec(Record):
    """A camera as a data source: resolution, pixel depth, frame rate."""

    resolution_pixels: int
    bit_depth: int
    frame_rate: float

    def __post_init__(self):
        if self.resolution_pixels < 1:
            raise InvalidSpecError(f"resolution_pixels must be >= 1, got {self.resolution_pixels}")
        if not 1 <= self.bit_depth <= 64:
            raise InvalidSpecError(f"bit_depth must be in [1, 64], got {self.bit_depth}")
        if not 0 <= self.frame_rate < math.inf:
            raise InvalidSpecError(f"frame_rate must be finite and >= 0, got {self.frame_rate}")

    @property
    def frame_size_bytes(self) -> int:
        """Bytes needed to hold one frame (bit count rounded up to bytes)."""
        return -(-self.resolution_pixels * self.bit_depth // 8)


def warn_outside_envelope(cam: CameraSpec) -> None:
    """Issue an EnvelopeWarning for each parameter of cam outside the operating envelope."""
    for what, value, unit, (lo, hi) in (
        ("resolution", cam.resolution_pixels, "px", ENVELOPE_RESOLUTION_PX),
        ("frame rate", cam.frame_rate, "fps", ENVELOPE_FRAME_RATE_FPS),
    ):
        if not lo <= value <= hi:
            warnings.warn(f"{what} {value} {unit} is outside the [{lo}, {hi}] {unit} envelope", EnvelopeWarning)


@record
class OverheadModel(Record):
    """Packetization overhead: usable payload per (payload + header) bytes.

    The derived efficiency multiplies the raw link rate.  Defaults model a
    typical transaction-layer framing of 256 B payloads with 28 B of
    header/CRC and no flow-control derating.
    """

    max_payload_bytes: int = 256
    header_overhead_bytes: int = 28
    flow_control_factor: float = 1.0

    def __post_init__(self):
        if self.max_payload_bytes <= 0:
            raise InvalidSpecError("max_payload_bytes must be positive")
        if self.header_overhead_bytes < 0:
            raise InvalidSpecError("header_overhead_bytes must be >= 0")
        if not 0.0 < self.flow_control_factor <= 1.0:
            raise InvalidSpecError("flow_control_factor must be in (0, 1]")

    @property
    def efficiency(self) -> float:
        """flow_control_factor * payload / (payload + header), in (0, 1]."""
        return float(self._efficiency_fraction())

    def _efficiency_fraction(self) -> Fraction:
        return Fraction(self.flow_control_factor) * Fraction(
            self.max_payload_bytes, self.max_payload_bytes + self.header_overhead_bytes
        )


@record
class Link(Record):
    """A point-to-point link: the cable and protocol efficiency every kind shares.

    Each kind names its exact raw rate in Gb/s, before protocol efficiency,
    with raw_gbps(), and checks its own fields with its rules: field ->
    (name in messages, allowed values in words, allowed values).
    """

    _: KW_ONLY
    cable_length_m: float = 0.0
    protocol_efficiency: float = 1.0

    rules = {}

    def __post_init__(self):
        for field, (name, words, allowed) in self.rules.items():
            value = getattr(self, field)
            if value not in allowed:
                shown = repr(value) if isinstance(allowed[0], str) else value  # text values are quoted
                raise InvalidSpecError(f"{name} must be {words}, got {shown}")
        if not 0 <= self.cable_length_m * PROPAGATION_NS_PER_M < math.inf:
            raise InvalidSpecError(f"cable_length_m must be >= 0 with a finite delay, got {self.cable_length_m}")
        if not 0.0 < self.protocol_efficiency <= 1.0:
            raise InvalidSpecError(
                f"protocol_efficiency must be in (0, 1], got {self.protocol_efficiency}"
            )


@record
class PCIeLink(Link):
    """A PCI Express link: generation 1-5, lane width from the allowed set."""

    generation: int
    lanes: int

    kind = "pcie"
    rules = {
        "generation": ("PCIe generation", "1..5", PCIE_GENERATIONS),
        "lanes": ("PCIe lanes", f"one of {PCIE_ALLOWED_LANES}", PCIE_ALLOWED_LANES),
    }

    def raw_gbps(self) -> Fraction:
        return self.lanes * _PCIE_RAW_GT[self.generation] * _ENCODING[self.generation]


@record
class CameraLinkIf(Link):
    """Classic Camera Link in base/medium/full configuration."""

    config: str = "full"

    kind = "camera_link"
    rules = {"config": ("Camera Link config", "base/medium/full", tuple(_CAMERALINK_BITS))}

    def raw_gbps(self) -> Fraction:
        return Fraction(_CAMERALINK_BITS[self.config] * _CAMERALINK_CLOCK_HZ, 1_000_000_000)


@record
class CoaXPressIf(Link):
    """CoaXPress with a speed grade and 1..4 aggregated connections."""

    speed_grade: str = "cxp6"
    links: int = 1

    kind = "coaxpress"
    rules = {
        "speed_grade": ("CoaXPress speed grade", f"one of {sorted(_CXP_GBPS)}", tuple(_CXP_GBPS)),
        "links": ("CoaXPress links", "1..4", range(1, 5)),
    }

    def raw_gbps(self) -> Fraction:
        return self.links * _CXP_GBPS[self.speed_grade]


@record
class GigEVisionIf(Link):
    """GigE Vision at a 1 or 10 Gb/s rate preset."""

    rate_preset: str = "1g"

    kind = "gige_vision"
    rules = {"rate_preset": ("GigE Vision preset", "1g or 10g", tuple(_GIGE_GBPS))}

    def raw_gbps(self) -> Fraction:
        return _GIGE_GBPS[self.rate_preset]


@record
class CLHSIf(Link):
    """Camera Link HS with 1..8 lanes at 10.3 Gb/s each."""

    lanes: int = 1

    kind = "clhs"
    rules = {"lanes": ("CLHS lanes", "1..8", range(1, 9))}

    def raw_gbps(self) -> Fraction:
        return self.lanes * _CLHS_LANE_GBPS


@record
class USB3If(Link):
    """USB3 SuperSpeed, 5 Gb/s."""

    kind = "usb3"

    def raw_gbps(self) -> Fraction:
        return _USB3_GBPS


class Kinds(dict):
    """Record classes by their class attribute tag, which names them under the key tag in JSON (default if absent)."""

    def __init__(self, classes, tag: str = "kind", default=None):
        super().__init__((getattr(cls, tag), cls) for cls in classes)
        self.tag, self.default = tag, default


# Link classes by the "kind" tag that names them in JSON.
LINK_KINDS = Kinds((PCIeLink, CameraLinkIf, CoaXPressIf, GigEVisionIf, CLHSIf, USB3If))


# --- Rate arithmetic ------------------------------------------------------


def effective_rate_fraction(link: Link) -> Fraction:
    """Exact effective rate in Gb/s (= bits per nanosecond)."""
    rate = link.raw_gbps() * Fraction(link.protocol_efficiency)
    if rate <= 0:
        raise InvalidSpecError("effective link rate must be strictly positive")
    return rate


def effective_link_rate(link: Link) -> float:
    """Effective data rate of a link in Gb/s: the exact rate, rounded once.

    PCIe: lanes x raw GT/s x line-code efficiency x protocol efficiency.
    Presets: preset raw rate x protocol efficiency.
    """
    return float(effective_rate_fraction(link))


def propagation_delay_ns(link: Link) -> int:
    """Cable propagation delay at 5 ns/m, rounded to integer ns."""
    return int(round(link.cable_length_m * PROPAGATION_NS_PER_M))


def stream_rate_fraction(cam: CameraSpec) -> Fraction:
    """Exact raw stream rate of a camera in Gb/s: pixels x depth x fps / 1e9."""
    return Fraction(cam.resolution_pixels * cam.bit_depth) * Fraction(cam.frame_rate) / 10**9


def camera_stream_rate(cam: CameraSpec) -> float:
    """Raw stream rate of a camera in Gb/s: the exact rate, rounded once."""
    return float(stream_rate_fraction(cam))


def aggregate_rate(cams: list[CameraSpec]) -> float:
    """Total demand of a set of cameras in Gb/s."""
    return sum(camera_stream_rate(c) for c in cams)


class Feasibility(NamedTuple):
    feasible: bool
    margin_gbps: float


def feasible(cam: CameraSpec, link: Link) -> Feasibility:
    """Whether a link can carry a camera's stream: iff its exact effective rate is at least the exact stream
    rate.  The margin is their difference in Gb/s, rounded once."""
    margin = effective_rate_fraction(link) - stream_rate_fraction(cam)
    return Feasibility(margin >= 0, float(margin))


def min_lanes(cam: CameraSpec, generation: int, overhead: OverheadModel) -> int:
    """Smallest allowed PCIe lane count that carries the camera stream.

    The overhead model's derived efficiency is applied as the link's
    protocol efficiency.  A generation PCIeLink refuses raises its
    InvalidSpecError; NoFeasibleWidthError when even x16 falls short.
    """
    lane_rate = PCIeLink(generation, 1).raw_gbps() * overhead._efficiency_fraction()
    demand = stream_rate_fraction(cam)
    for lanes in PCIE_ALLOWED_LANES:
        if lanes * lane_rate >= demand:
            return lanes
    raise NoFeasibleWidthError(
        f"camera demands {float(demand):.3f} Gb/s, above gen {generation} x16 "
        f"capacity {float(16 * lane_rate):.3f} Gb/s"
    )


# --- Link budget table ------------------------------------------------------


@record
class BudgetRow(Record):
    """One row of the link budget table: a link's label and kind tag, its PCIe
    generation and lane count (None for a preset), and its effective rate in Gb/s."""

    label: str
    kind: str
    generation: Optional[int]
    lanes: Optional[int]
    rate_gbps: float


# The interface presets budget_table lists after the PCIe matrix: label,
# link class and the class's parameters.
_PRESETS = (
    *((f"camera-link-{config}", CameraLinkIf, {"config": config}) for config in _CAMERALINK_BITS),
    *((grade, CoaXPressIf, {"speed_grade": grade}) for grade in _CXP_GBPS),
    *((f"gige-{preset}", GigEVisionIf, {"rate_preset": preset}) for preset in _GIGE_GBPS),
    ("clhs-x1", CLHSIf, {"lanes": 1}),
    ("usb3", USB3If, {}),
)


def budget_table(
    generations=PCIE_GENERATIONS,
    lane_set=PCIE_ALLOWED_LANES,
    include_presets: bool = True,
    protocol_efficiency: float = 1.0,
) -> list[BudgetRow]:
    """Effective rates for every (generation, lanes) pair plus presets."""
    links = [(f"pcie-gen{gen}-x{lanes}", gen, lanes, PCIeLink(gen, lanes, protocol_efficiency=protocol_efficiency))
             for gen in generations for lanes in lane_set]
    if include_presets:
        links += [(label, None, None, cls(**params, protocol_efficiency=protocol_efficiency))
                  for label, cls, params in _PRESETS]
    return [BudgetRow(label, link.kind, gen, lanes, effective_link_rate(link)) for label, gen, lanes, link in links]
