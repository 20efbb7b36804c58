"""Stream-rate and link-throughput arithmetic for camera acquisition paths,
and the link budget table.

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
import warnings
from dataclasses import KW_ONLY, dataclass
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

# Camera operating envelope; outside it we warn but do not reject.
ENVELOPE_RESOLUTION_PX = (1_000_000, 8_000_000)
ENVELOPE_FRAME_RATE_FPS = (50.0, 50_000.0)


# --- Domain types ---------------------------------------------------------


@dataclass(frozen=True)
class CameraSpec:
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
        lo, hi = ENVELOPE_RESOLUTION_PX
        if not lo <= self.resolution_pixels <= hi:
            warnings.warn(
                f"resolution {self.resolution_pixels} px is outside the "
                f"[{lo}, {hi}] px envelope",
                EnvelopeWarning,
                stacklevel=3,  # the caller of the generated __init__
            )
        flo, fhi = ENVELOPE_FRAME_RATE_FPS
        if not flo <= self.frame_rate <= fhi:
            warnings.warn(
                f"frame rate {self.frame_rate} fps is outside the "
                f"[{flo}, {fhi}] fps envelope",
                EnvelopeWarning,
                stacklevel=3,  # the caller of the generated __init__
            )

    @property
    def frame_size_bytes(self) -> int:
        """Bytes needed to hold one frame (bit count rounded up to bytes)."""
        return -(-self.resolution_pixels * self.bit_depth // 8)


@dataclass(frozen=True)
class OverheadModel:
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


@dataclass(frozen=True)
class Link:
    """A point-to-point link: the cable and protocol efficiency every kind shares.

    Each kind names its exact raw rate in Gb/s, before protocol efficiency,
    with raw_gbps().
    """

    _: KW_ONLY
    cable_length_m: float = 0.0
    protocol_efficiency: float = 1.0

    def __post_init__(self):
        if not 0 <= self.cable_length_m * PROPAGATION_NS_PER_M < math.inf:
            raise InvalidSpecError(f"cable_length_m must be >= 0 with a finite delay, got {self.cable_length_m}")
        if not 0.0 < self.protocol_efficiency <= 1.0:
            raise InvalidSpecError(
                f"protocol_efficiency must be in (0, 1], got {self.protocol_efficiency}"
            )


@dataclass(frozen=True)
class PCIeLink(Link):
    """A PCI Express link: generation 1-5, lane width from the allowed set."""

    generation: int
    lanes: int

    kind = "pcie"

    def __post_init__(self):
        if self.generation not in _PCIE_RAW_GT:
            raise InvalidSpecError(f"PCIe generation must be 1..5, got {self.generation}")
        if self.lanes not in PCIE_ALLOWED_LANES:
            raise InvalidSpecError(
                f"PCIe lanes must be one of {PCIE_ALLOWED_LANES}, got {self.lanes}"
            )
        super().__post_init__()

    def raw_gbps(self) -> Fraction:
        return self.lanes * _pcie_lane_gbps(self.generation)


@dataclass(frozen=True)
class CameraLinkIf(Link):
    """Classic Camera Link in base/medium/full configuration."""

    config: str = "full"

    kind = "camera_link"

    def __post_init__(self):
        if self.config not in _CAMERALINK_BITS:
            raise InvalidSpecError(f"Camera Link config must be base/medium/full, got {self.config!r}")
        super().__post_init__()

    def raw_gbps(self) -> Fraction:
        return Fraction(_CAMERALINK_BITS[self.config] * _CAMERALINK_CLOCK_HZ, 1_000_000_000)


@dataclass(frozen=True)
class CoaXPressIf(Link):
    """CoaXPress with a speed grade and 1..4 aggregated connections."""

    speed_grade: str = "cxp6"
    links: int = 1

    kind = "coaxpress"

    def __post_init__(self):
        if self.speed_grade not in _CXP_GBPS:
            raise InvalidSpecError(
                f"CoaXPress speed grade must be one of {sorted(_CXP_GBPS)}, got {self.speed_grade!r}"
            )
        if not 1 <= self.links <= 4:
            raise InvalidSpecError(f"CoaXPress links must be 1..4, got {self.links}")
        super().__post_init__()

    def raw_gbps(self) -> Fraction:
        return self.links * _CXP_GBPS[self.speed_grade]


@dataclass(frozen=True)
class GigEVisionIf(Link):
    """GigE Vision at a 1 or 10 Gb/s rate preset."""

    rate_preset: str = "1g"

    kind = "gige_vision"

    def __post_init__(self):
        if self.rate_preset not in _GIGE_GBPS:
            raise InvalidSpecError(f"GigE Vision preset must be 1g or 10g, got {self.rate_preset!r}")
        super().__post_init__()

    def raw_gbps(self) -> Fraction:
        return _GIGE_GBPS[self.rate_preset]


@dataclass(frozen=True)
class CLHSIf(Link):
    """Camera Link HS with 1..8 lanes at 10.3 Gb/s each."""

    lanes: int = 1

    kind = "clhs"

    def __post_init__(self):
        if not 1 <= self.lanes <= 8:
            raise InvalidSpecError(f"CLHS lanes must be 1..8, got {self.lanes}")
        super().__post_init__()

    def raw_gbps(self) -> Fraction:
        return self.lanes * _CLHS_LANE_GBPS


@dataclass(frozen=True)
class USB3If(Link):
    """USB3 SuperSpeed, 5 Gb/s."""

    kind = "usb3"

    def raw_gbps(self) -> Fraction:
        return _USB3_GBPS


# Link classes by the "kind" tag that names them in JSON.
LINK_KINDS = {
    cls.kind: cls for cls in (PCIeLink, CameraLinkIf, CoaXPressIf, GigEVisionIf, CLHSIf, USB3If)
}


# --- Rate arithmetic ------------------------------------------------------


def _pcie_lane_gbps(generation: int) -> Fraction:
    return _PCIE_RAW_GT[generation] * _ENCODING[generation]


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


def camera_stream_rate(cam: CameraSpec) -> float:
    """Raw stream rate of a camera in Gb/s: pixels x depth x fps / 1e9."""
    return cam.resolution_pixels * cam.bit_depth * cam.frame_rate / 1e9


def aggregate_rate(cams: list[CameraSpec]) -> float:
    """Total demand of a set of cameras in Gb/s."""
    return sum(camera_stream_rate(c) for c in cams)


class Feasibility(NamedTuple):
    feasible: bool
    margin_gbps: float


def feasible(cam: CameraSpec, link: Link) -> Feasibility:
    """Whether a link can carry a camera's stream, and by what margin.

    margin = effective_link_rate(link) - camera_stream_rate(cam);
    the pair is feasible iff the margin is non-negative.
    """
    margin = effective_link_rate(link) - camera_stream_rate(cam)
    return Feasibility(margin >= 0.0, margin)


def min_lanes(cam: CameraSpec, generation: int, overhead: OverheadModel) -> int:
    """Smallest allowed PCIe lane count that carries the camera stream.

    The overhead model's derived efficiency is applied as the link's
    protocol efficiency.  Raises NoFeasibleWidthError when even x16 falls
    short.
    """
    if generation not in _PCIE_RAW_GT:
        raise InvalidSpecError(f"PCIe generation must be 1..5, got {generation}")
    demand = Fraction(cam.resolution_pixels * cam.bit_depth) * Fraction(cam.frame_rate) / Fraction(10**9)
    lane_rate = _pcie_lane_gbps(generation) * overhead._efficiency_fraction()
    for lanes in PCIE_ALLOWED_LANES:
        if lanes * lane_rate >= demand:
            return lanes
    raise NoFeasibleWidthError(
        f"camera demands {float(demand):.3f} Gb/s, above gen {generation} x16 "
        f"capacity {float(16 * lane_rate):.3f} Gb/s"
    )


# --- Link budget table ------------------------------------------------------


@dataclass(frozen=True)
class BudgetRow:
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
