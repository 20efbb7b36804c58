"""Deterministic discrete-event engine for frame pipelines.

Time is integer nanoseconds throughout; there is no floating-point time
anywhere in the engine.  Ties on the event heap break by insertion order
(FIFO), so a run is a pure function of (topology, config).

Stage hand-off convention recorded per frame: a stage's egress is the
instant the frame's last byte leaves it, which equals the next stage's
ingress.  Cut-through overlap therefore shows up as shorter spans, never
as out-of-order timestamps, and `ingress <= egress` holds at every stage.

Backpressure is local: a full buffer resolves via the drop policy rather
than stalling the upstream link, because a camera sensor cannot pause
mid-frame.  Randomness (clock jitter, processing-time draws) comes from
two independent streams derived from the run seed; link arithmetic is
exact integer math.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Optional

from .linkmodel import (
    InvalidSpecError,
    Link,
    effective_rate_fraction,
    propagation_delay_ns,
)
from .timing import ClockModel, sample_timestamp_detailed
from .topology import (
    CUT_THROUGH,
    BufferStage,
    FrameGrabber,
    HostMemory,
    LinkStage,
    Processor,
    Sensor,
    Topology,
    validate,
)

SimTime = int

DROP_NEWEST = "drop_newest"
DROP_OLDEST = "drop_oldest"

DISPOSITION_DELIVERED = "delivered"
DISPOSITION_DROPPED = "dropped"
DISPOSITION_IN_FLIGHT = "in_flight"

REASON_OVERFLOW = "buffer_overflow"
REASON_BACKPRESSURE = "backpressure"


class InvalidTopologyError(InvalidSpecError):
    """The topology failed validation and cannot be simulated."""


@dataclass
class StageSpan:
    ingress_ns: Optional[int] = None
    egress_ns: Optional[int] = None


@dataclass
class FrameRecord:
    """One frame's life: identity, sizes, per-stage times, disposition."""

    frame_id: int
    size_bytes: int
    generated_at_ns: int
    camera_timestamp_ns: int
    timestamp_clamped: bool
    stage_times: list
    buffer_bytes: dict
    disposition: str = DISPOSITION_IN_FLIGHT
    drop_stage: Optional[int] = None
    drop_reason: Optional[str] = None
    drop_time_ns: Optional[int] = None

    @property
    def latency_ns(self) -> Optional[int]:
        """Sensor egress to processor egress; None unless delivered."""
        if self.disposition != DISPOSITION_DELIVERED:
            return None
        return self.stage_times[-1].egress_ns - self.stage_times[0].egress_ns


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  Exactly one stop condition; the seed is mandatory."""

    seed: int
    n_frames: Optional[int] = None
    duration_ns: Optional[int] = None
    drop_policy: str = DROP_NEWEST
    clock: ClockModel = field(default_factory=ClockModel)

    def __post_init__(self):
        if (self.n_frames is None) == (self.duration_ns is None):
            raise InvalidSpecError("set exactly one of n_frames or duration_ns")
        if self.n_frames is not None and self.n_frames < 0:
            raise InvalidSpecError("n_frames must be >= 0")
        if self.duration_ns is not None and self.duration_ns < 0:
            raise InvalidSpecError("duration_ns must be >= 0")
        if self.drop_policy not in (DROP_NEWEST, DROP_OLDEST):
            raise InvalidSpecError(f"unknown drop policy {self.drop_policy!r}")


def serialization_time_ns(size_bytes: int, link: Link) -> int:
    """ceil(bits / rate) with exact rational arithmetic, in ns."""
    if size_bytes <= 0:
        raise InvalidSpecError(f"size_bytes must be positive, got {size_bytes}")
    rate = effective_rate_fraction(link)  # bits per ns, > 0 by invariant
    return math.ceil(Fraction(size_bytes * 8) / rate)


def transmission_time(size_bytes: int, link: Link) -> int:
    """Serialization time plus cable propagation delay, integer ns."""
    return serialization_time_ns(size_bytes, link) + propagation_delay_ns(link)


# --- Engine internals ------------------------------------------------------


@dataclass
class _Queued:
    frame: FrameRecord
    arrival_ns: int       # full-arrival time at the holding stage
    first_byte_ns: int    # first-byte arrival (for cut-through starts)
    contribution: int     # bytes this frame holds in the stage's memory


class _HolderState:
    """State of a stage that can hold frames (sensor/buffer/grabber/host)."""

    __slots__ = ("occupancy", "trace", "fifo")

    def __init__(self):
        self.occupancy = 0
        self.trace: list[tuple[int, int]] = []
        self.fifo: deque[_Queued] = deque()


class _LinkState:
    __slots__ = ("free_at", "in_flight", "busy_ns", "ser_ns", "prop_ns", "rate")

    def __init__(self, link: Link, size_bytes: int):
        self.free_at = 0
        self.in_flight = None
        self.busy_ns = 0
        # Every frame has the camera's size, so these are fixed for the run.
        self.ser_ns = serialization_time_ns(size_bytes, link)
        self.prop_ns = propagation_delay_ns(link)
        self.rate = effective_rate_fraction(link)  # bits per ns


@dataclass
class RunResult:
    """Raw engine output, consumed by metrics.build_report."""

    frames: list
    elapsed_ns: int
    occupancy: dict            # stage index -> [(t, bytes_after)]
    link_busy_ns: dict         # stage index -> total serialization ns
    generated: int


class _Engine:
    def __init__(self, topo: Topology, cfg: SimConfig):
        self.topo = topo
        self.cfg = cfg
        self.stages = topo.stages
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.records: list[FrameRecord] = []
        self.clock_rng = Random(f"{cfg.seed}:clock")
        self.proc_rng = Random(f"{cfg.seed}:processing")

        self.frame_size = topo.camera.frame_size_bytes
        self.holders: dict[int, _HolderState] = {}
        self.links: dict[int, _LinkState] = {}
        self.proc_free_at = 0
        for i, s in enumerate(self.stages):
            if isinstance(s, (Sensor, BufferStage, FrameGrabber, HostMemory)):
                self.holders[i] = _HolderState()
            elif isinstance(s, LinkStage):
                self.links[i] = _LinkState(s.link, self.frame_size)

        fps = topo.camera.frame_rate
        # Sub-ns frame periods clamp to the 1 ns clock tick.
        self.period_ns = max(1, round(1e9 / fps)) if fps > 0 else None

    # -- event plumbing --

    def push(self, t: int, fn) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, fn))

    def run(self) -> RunResult:
        cfg = self.cfg
        if cfg.n_frames is not None and cfg.n_frames > 0 and self.period_ns is None:
            raise InvalidSpecError("cannot generate frames from a zero frame-rate camera")
        if self.period_ns is not None and cfg.n_frames != 0:
            self.push(0, lambda: self._generate(0))
        last_t = 0
        while self.heap:
            t, _, fn = heapq.heappop(self.heap)
            if cfg.duration_ns is not None and t > cfg.duration_ns:
                break
            self.now = t
            last_t = t
            fn()
        # Events left past a duration cutoff hold closures over the engine;
        # dropping them keeps the run free of reference cycles.
        self.heap.clear()
        elapsed = cfg.duration_ns if cfg.duration_ns is not None else last_t
        return RunResult(
            frames=self.records,
            elapsed_ns=elapsed,
            occupancy={i: h.trace for i, h in self.holders.items()},
            link_busy_ns={i: l.busy_ns for i, l in self.links.items()},
            generated=len(self.records),
        )

    # -- stage behavior --

    def _generate(self, k: int) -> None:
        t = self.now
        stamp, clamped = sample_timestamp_detailed(self.cfg.clock, t, self.clock_rng)
        rec = FrameRecord(
            frame_id=k,
            size_bytes=self.frame_size,
            generated_at_ns=t,
            camera_timestamp_ns=stamp,
            timestamp_clamped=clamped,
            stage_times=[StageSpan() for _ in self.stages],
            buffer_bytes={},
        )
        self.records.append(rec)
        sensor: Sensor = self.stages[0]
        egress = t + sensor.fixed_latency_ns
        rec.stage_times[0].ingress_ns = t
        rec.stage_times[0].egress_ns = egress

        # Schedule the next frame before moving this one on, so generation
        # order stays the primary order at equal timestamps.
        nxt = k + 1
        if self.cfg.n_frames is None or nxt < self.cfg.n_frames:
            self.push(t + self.period_ns, lambda: self._generate(nxt))

        if isinstance(self.stages[1], LinkStage):
            # Sensor feeds the wire through an unbounded readout register;
            # its fixed latency is already applied at egress.
            h = self.holders[0]
            h.occupancy += rec.size_bytes
            h.trace.append((t, h.occupancy))
            rec.buffer_bytes[0] = rec.size_bytes
            h.fifo.append(_Queued(rec, egress, egress, rec.size_bytes))
            if egress > t:
                self.push(egress, lambda: self._try_start(0))
            else:
                self._try_start(0)
        else:
            if egress > t:
                self.push(egress, lambda: self._arrive(1, rec, egress, egress))
            else:
                self._arrive(1, rec, egress, egress)

    def _arrive(self, idx: int, rec: FrameRecord, t: int, first_byte: int) -> None:
        """Frame fully present at stage idx at time t."""
        stage = self.stages[idx]
        if isinstance(stage, (BufferStage, FrameGrabber)):
            self._arrive_buffer(idx, rec, t, first_byte)
        elif isinstance(stage, HostMemory):
            self._arrive_host(idx, rec, t)
        elif isinstance(stage, Processor):
            self._start_processing(idx, rec, max(t, self.proc_free_at))
        else:  # pragma: no cover - validated topologies cannot reach here
            raise InvalidTopologyError(f"frame arrived at non-receiving stage {stage.kind}")

    def _arrive_buffer(self, idx: int, rec: FrameRecord, t: int, first_byte: int) -> None:
        stage = self.stages[idx]
        h = self.holders[idx]
        next_is_link = isinstance(self.stages[idx + 1], LinkStage)
        cut_through = isinstance(stage, BufferStage) and stage.forwarding == CUT_THROUGH

        contribution = rec.size_bytes
        if cut_through and next_is_link:
            link_state = self.links[idx + 1]
            if link_state.in_flight is None and not h.fifo:
                # Head-of-line frame: forwarding may already have begun at
                # first_byte + fixed latency, so only the residue is held.
                s_would = max(first_byte + stage.fixed_latency_ns, link_state.free_at)
                if s_would < t:
                    # Whole bytes the link has moved since forwarding began.
                    drained = int(link_state.rate * (t - s_would) // 8)
                    contribution = max(0, rec.size_bytes - drained)

        capacity = stage.capacity_bytes
        if h.occupancy + contribution > capacity:
            if self.cfg.drop_policy == DROP_OLDEST:
                # Shed queued (not yet transmitting) frames, oldest first.
                while h.fifo and h.occupancy + contribution > capacity:
                    victim = h.fifo.popleft()
                    h.occupancy -= victim.contribution
                    h.trace.append((t, h.occupancy))
                    self._mark_dropped(victim.frame, idx, REASON_BACKPRESSURE, t)
            if h.occupancy + contribution > capacity:
                rec.stage_times[idx].ingress_ns = t
                self._mark_dropped(rec, idx, REASON_OVERFLOW, t)
                return

        rec.stage_times[idx].ingress_ns = t
        rec.buffer_bytes[idx] = contribution
        h.occupancy += contribution
        h.trace.append((t, h.occupancy))

        if next_is_link:
            h.fifo.append(_Queued(rec, t, first_byte, contribution))
            self._try_start(idx)
        else:
            ready = t + stage.fixed_latency_ns
            if ready > t:
                self.push(ready, lambda: self._handoff_local(idx, rec, ready))
            else:
                self._handoff_local(idx, rec, t)

    def _arrive_host(self, idx: int, rec: FrameRecord, t: int) -> None:
        stage: HostMemory = self.stages[idx]
        h = self.holders[idx]
        rec.stage_times[idx].ingress_ns = t
        rec.buffer_bytes[idx] = rec.size_bytes
        h.occupancy += rec.size_bytes
        h.trace.append((t, h.occupancy))
        ready = t + stage.fixed_latency_ns
        if ready > t:
            self.push(ready, lambda: self._handoff_local(idx, rec, ready))
        else:
            self._handoff_local(idx, rec, t)

    def _handoff_local(self, idx: int, rec: FrameRecord, t: int) -> None:
        """Hand the frame to an adjacent non-link stage (no wire between).

        Adjacent memories copy at unmodeled (infinite) bandwidth; the cost
        of the hop is the holding stage's fixed latency, already folded
        into t.  When the next stage is the single-server processor, the
        frame stays resident here until the processor picks it up.
        """
        nxt = idx + 1
        if isinstance(self.stages[nxt], Processor):
            start = max(t, self.proc_free_at)
            rec.stage_times[idx].egress_ns = start
            self._release(idx, rec, start)
            self._start_processing(nxt, rec, start)
        else:
            rec.stage_times[idx].egress_ns = t
            self._release(idx, rec, t)
            self._arrive(nxt, rec, t, t)

    def _release(self, idx: int, rec: FrameRecord, t: int) -> None:
        """Return the frame's bytes to the stage's free space at time t."""
        h = self.holders.get(idx)
        if h is None:
            return
        amount = rec.buffer_bytes.get(idx, 0)

        def do_release():
            h.occupancy -= amount
            h.trace.append((t, h.occupancy))

        if t > self.now:
            self.push(t, do_release)
        else:
            do_release()

    def _try_start(self, idx: int) -> None:
        """Let the emitter at idx put its head-of-queue frame on the wire."""
        h = self.holders[idx]
        link_idx = idx + 1
        ls = self.links[link_idx]
        if ls.in_flight is not None or not h.fifo:
            return
        stage = self.stages[idx]
        q = h.fifo[0]
        fixed = 0 if isinstance(stage, Sensor) else stage.fixed_latency_ns
        cut_through = isinstance(stage, BufferStage) and stage.forwarding == CUT_THROUGH
        ready = (q.first_byte_ns if cut_through else q.arrival_ns) + fixed
        if ready > self.now:
            self.push(ready, lambda: self._try_start(idx))
            return

        h.fifo.popleft()
        rec = q.frame
        ls.in_flight = rec
        ser, prop = ls.ser_ns, ls.prop_ns
        # Cut-through may start retroactively (first bytes went out while
        # the tail was still arriving) but can never finish before the
        # whole frame has arrived.
        start = max(ready, ls.free_at)
        egress = max(start + ser, q.arrival_ns + fixed)
        ls.free_at = egress
        self.push(egress, lambda: self._tx_end(idx, link_idx, rec, egress, prop, ser))
        arrival = egress + prop
        first_byte = start + prop
        nxt = link_idx + 1
        self.push(arrival, lambda: self._arrive(nxt, rec, arrival, first_byte))

    def _tx_end(self, idx: int, link_idx: int, rec: FrameRecord, egress: int, prop: int, ser: int) -> None:
        if not isinstance(self.stages[idx], Sensor):
            # A sensor's egress stays at readout completion; only its
            # staging register drains over the wire.
            rec.stage_times[idx].egress_ns = egress
        rec.stage_times[link_idx].ingress_ns = egress
        rec.stage_times[link_idx].egress_ns = egress + prop
        self._release(idx, rec, egress)
        ls = self.links[link_idx]
        ls.in_flight = None
        # Busy time counts completed transmissions, so a duration cutoff
        # mid-transfer cannot push the total past the simulated span.
        ls.busy_ns += ser
        self._try_start(idx)

    def _start_processing(self, idx: int, rec: FrameRecord, start: int) -> None:
        proc: Processor = self.stages[idx]
        service = proc.fixed_latency_ns + proc.processing.draw(self.proc_rng)
        egress = start + service
        self.proc_free_at = egress
        rec.stage_times[idx].ingress_ns = start
        self.push(egress, lambda: self._deliver(idx, rec, egress))

    def _deliver(self, idx: int, rec: FrameRecord, t: int) -> None:
        rec.stage_times[idx].egress_ns = t
        rec.disposition = DISPOSITION_DELIVERED

    def _mark_dropped(self, rec: FrameRecord, idx: int, reason: str, t: int) -> None:
        rec.disposition = DISPOSITION_DROPPED
        rec.drop_stage = idx
        rec.drop_reason = reason
        rec.drop_time_ns = t


def run(topo: Topology, cfg: SimConfig):
    """Simulate a topology and return a complete SimReport.

    Rejects invalid topologies before any event is processed.  Two calls
    with equal (topology, config) produce byte-identical canonical
    reports.
    """
    problems = validate(topo)
    if problems:
        rules = "; ".join(v.rule for v in problems)
        raise InvalidTopologyError(f"topology failed validation: {rules}")
    result = _Engine(topo, cfg).run()
    from .metrics import build_report  # local import: metrics depends on this module

    return build_report(topo, cfg, result)


def occupancy_trace(report, stage_index: int) -> list[tuple[int, int]]:
    """Piecewise-constant buffer occupancy of one stage, (ns, bytes).

    Stages that never hold frames (links, the processor) yield an empty
    trace; an out-of-range index is an error.
    """
    n = len(report.topology.stages)
    if not 0 <= stage_index < n:
        raise IndexError(f"stage index {stage_index} out of range for {n}-stage topology")
    return list(report.occupancy.get(stage_index, ()))
