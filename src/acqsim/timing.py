"""Clock error modeling and real-time budget checks.

A measured timestamp is true time plus a constant offset, a linear drift
term (ppm of elapsed true time) and Gaussian jitter, rounded to integer
nanoseconds.  Deadline checks compare per-frame pipeline latency (sensor
egress to processor egress) against a safety and a control budget, and
the run's timestamp RMS error against its own budget.
"""

from __future__ import annotations

import math
from random import Random
from typing import Optional

from .linkmodel import InvalidSpecError, Record, Table, record


@record
class ClockModel(Record):
    """Timestamping clock imperfections; the zero model reads true time."""

    offset_ns: float = 0.0
    drift_ppm: float = 0.0
    jitter_sigma_ns: float = 0.0

    def __post_init__(self):
        if self.jitter_sigma_ns < 0:
            raise InvalidSpecError(f"jitter_sigma_ns must be >= 0, got {self.jitter_sigma_ns}")


@record
class DeadlineSpec(Record):
    """Real-time budgets: 100 us safety, 20 ms control, 50 ns(rms) stamps."""

    safety_ns: int = 100_000
    control_ns: int = 20_000_000
    timestamp_rms_ns: float = 50.0

    def __post_init__(self):
        if self.safety_ns <= 0 or self.control_ns <= 0 or self.timestamp_rms_ns <= 0:
            raise InvalidSpecError("deadline budgets must be strictly positive")


@record
class DeadlineMisses(Table):
    """A run's budget misses as columns, whose fields define the v1 violation record; frame_id is None at run level."""

    kind: list[str]  # "safety" | "control" | "timestamp"
    frame_id: list[Optional[int]]
    measured_ns: list[float]
    budget_ns: list[float]


def sample_timestamp_detailed(clock: ClockModel, true_time_ns: int, rng: Random) -> tuple[int, bool]:
    """Sample a measured timestamp; returns (value, clamped_below_zero).

    Consumes exactly one Gaussian draw from the stream when jitter is
    enabled, so draw index k always belongs to the k-th sample.
    """
    try:
        value = float(true_time_ns) + clock.offset_ns + clock.drift_ppm * 1e-6 * true_time_ns
    except OverflowError:  # a time past the float range
        value = math.inf
    if clock.jitter_sigma_ns > 0.0:
        value += rng.gauss(0.0, clock.jitter_sigma_ns)
    if not math.isfinite(value):
        raise InvalidSpecError(f"the clock model gives a non-finite timestamp ({value}) at {true_time_ns} ns")
    stamped = round(value)
    if stamped < 0:
        return 0, True
    return stamped, False


def timestamp_rms(frames) -> float:
    """RMS of (measured camera timestamp - true generation time) in ns over
    the frames of a FrameTable."""
    if not frames.generated_at_ns:
        raise ValueError("timestamp_rms requires at least one frame")
    total = 0.0
    for stamp, generated in zip(frames.camera_timestamp_ns, frames.generated_at_ns):
        # As a float, a square too large for the RMS becomes inf instead of raising.
        err = float(stamp - generated)
        total += err * err
    rms = math.sqrt(total / len(frames.generated_at_ns))
    if rms == math.inf:
        raise InvalidSpecError("timestamp errors too large for a finite RMS")
    return rms


def check_deadlines(frames, deadlines: DeadlineSpec, rms: float) -> DeadlineMisses:
    """All budget misses in a run of a FrameTable's frames, in frame order, safety before control.

    Latency checks apply to delivered frames only (dropped and in-flight
    frames have no end-to-end latency).  The timestamp check is run-level:
    a single miss comes last when rms, the run's timestamp_rms over all
    generated frames (0.0 without frames), exceeds the budget.
    """
    kind, frame_id, measured_ns, budget_ns = columns = ([], [], [], [])
    budgets = (("safety", deadlines.safety_ns), ("control", deadlines.control_ns))
    for f, latency in zip(frames.frame_id, frames.latency_ns()):
        if latency is not None:
            for k, budget in budgets:
                if latency > budget:
                    kind.append(k)
                    frame_id.append(f)
                    measured_ns.append(latency)
                    budget_ns.append(budget)
    if rms > deadlines.timestamp_rms_ns:
        for column, value in zip(columns, ("timestamp", None, rms, deadlines.timestamp_rms_ns)):
            column.append(value)
    return DeadlineMisses(*columns)
