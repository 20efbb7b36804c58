"""Clock error modeling and real-time budget checks.

A measured timestamp is true time plus a constant offset, a linear drift
term (ppm of elapsed true time) and Gaussian jitter, rounded to integer
nanoseconds.  Deadline checks compare per-frame pipeline latency (sensor
egress to processor egress) against a safety and a control budget, and
the run's timestamp RMS error against its own budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional

from .linkmodel import InvalidSpecError


@dataclass(frozen=True)
class ClockModel:
    """Timestamping clock imperfections; the zero model reads true time."""

    offset_ns: float = 0.0
    drift_ppm: float = 0.0
    jitter_sigma_ns: float = 0.0

    def __post_init__(self):
        if self.jitter_sigma_ns < 0:
            raise InvalidSpecError(f"jitter_sigma_ns must be >= 0, got {self.jitter_sigma_ns}")


@dataclass(frozen=True)
class DeadlineSpec:
    """Real-time budgets: 100 us safety, 20 ms control, 50 ns(rms) stamps."""

    safety_ns: int = 100_000
    control_ns: int = 20_000_000
    timestamp_rms_ns: float = 50.0

    def __post_init__(self):
        if self.safety_ns <= 0 or self.control_ns <= 0 or self.timestamp_rms_ns <= 0:
            raise InvalidSpecError("deadline budgets must be strictly positive")


@dataclass(frozen=True)
class DeadlineViolation:
    """One budget miss.  frame_id is None for run-level (timestamp) checks."""

    kind: str  # "safety" | "control" | "timestamp"
    frame_id: Optional[int]
    measured_ns: float
    budget_ns: float


def sample_timestamp_detailed(clock: ClockModel, true_time_ns: int, rng: Random) -> tuple[int, bool]:
    """Sample a measured timestamp; returns (value, clamped_below_zero).

    Consumes exactly one Gaussian draw from the stream when jitter is
    enabled, so draw index k always belongs to the k-th sample.
    """
    value = float(true_time_ns) + clock.offset_ns + clock.drift_ppm * 1e-6 * true_time_ns
    if clock.jitter_sigma_ns > 0.0:
        value += rng.gauss(0.0, clock.jitter_sigma_ns)
    if not math.isfinite(value):
        raise InvalidSpecError(f"the clock model gives a non-finite timestamp ({value}) at {true_time_ns} ns")
    stamped = round(value)
    if stamped < 0:
        return 0, True
    return stamped, False


def timestamp_rms(records) -> float:
    """RMS of (measured camera timestamp - true generation time) in ns."""
    records = list(records)
    if not records:
        raise ValueError("timestamp_rms requires at least one record")
    total = 0.0
    for r in records:
        # As a float, a square too large for the RMS becomes inf instead of raising.
        err = float(r.camera_timestamp_ns - r.generated_at_ns)
        total += err * err
    rms = math.sqrt(total / len(records))
    if rms == math.inf:
        raise InvalidSpecError("timestamp errors too large for a finite RMS")
    return rms


def check_deadlines(frames, deadlines: DeadlineSpec) -> list[DeadlineViolation]:
    """All budget misses in a run.

    Latency checks apply to delivered frames only (dropped and in-flight
    frames have no end-to-end latency).  The timestamp check is run-level:
    a single violation is reported when the RMS over all generated frames
    exceeds the budget.
    """
    violations: list[DeadlineViolation] = []
    for r in frames:
        latency = r.latency_ns
        if latency is None:
            continue
        if latency > deadlines.safety_ns:
            violations.append(DeadlineViolation("safety", r.frame_id, latency, deadlines.safety_ns))
        if latency > deadlines.control_ns:
            violations.append(DeadlineViolation("control", r.frame_id, latency, deadlines.control_ns))
    if frames:
        rms = timestamp_rms(frames)
        if rms > deadlines.timestamp_rms_ns:
            violations.append(DeadlineViolation("timestamp", None, rms, deadlines.timestamp_rms_ns))
    return violations
