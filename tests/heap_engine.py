"""The heap engine that simcore's per-stage passes replaced, kept as a test oracle.

Every event of a run goes through one global heap keyed (time, push
sequence), and each handler reads and writes the stage state directly.
The passes in ``acqsim.simcore`` must reproduce its runs byte for byte;
``test_engine_differential.py`` checks that they do.  The engine below
is as it stood before the passes; it keeps its own per-frame records
(the FrameRecord and StageSpan the library once had) and hands them on
as a FrameTable at the end of the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from random import Random
from typing import Optional

from acqsim.linkmodel import InvalidSpecError, Link, effective_rate_fraction, propagation_delay_ns
from acqsim.metrics import build_report
from acqsim.simcore import (
    DISPOSITION_DELIVERED,
    DISPOSITION_DROPPED,
    DISPOSITION_IN_FLIGHT,
    DROP_OLDEST,
    REASON_BACKPRESSURE,
    REASON_OVERFLOW,
    FrameTable,
    RunResult,
    SimConfig,
    serialization_time_ns,
)
from acqsim.timing import sample_timestamp_detailed
from acqsim.topology import (
    CUT_THROUGH,
    BufferStage,
    FrameGrabber,
    HostMemory,
    LinkStage,
    Processor,
    Sensor,
    Topology,
)


def run_reference(topo: Topology, cfg: SimConfig):
    """The report of one run of the heap engine (the topology must be valid)."""
    return build_report(topo, cfg, _Engine(topo, cfg).run())


@dataclass
class StageSpan:
    ingress_ns: Optional[int] = None
    egress_ns: Optional[int] = None


@dataclass
class FrameRecord:
    """One frame's life as the heap engine records it; run() returns the
    records as a FrameTable."""

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


def frame_table(records: list, n_stages: int) -> FrameTable:
    """The columns of a run's records, in frame order."""

    def column(name):
        return [getattr(r, name) for r in records]

    stages = range(n_stages)
    return FrameTable(
        *map(column, ("frame_id", "size_bytes", "generated_at_ns", "camera_timestamp_ns", "timestamp_clamped")),
        [[r.stage_times[i].ingress_ns for r in records] for i in stages],
        [[r.stage_times[i].egress_ns for r in records] for i in stages],
        *map(column, ("buffer_bytes", "disposition", "drop_stage", "drop_reason", "drop_time_ns")),
    )


class _HolderState:
    """State of a stage that can hold frames (sensor/buffer/grabber/host).

    FIFO entries are (frame, full-arrival ns, first-byte ns, bytes held).
    """

    __slots__ = ("occupancy", "trace", "fifo")

    def __init__(self):
        self.occupancy = 0
        self.trace: list[tuple[int, int]] = []
        self.fifo: deque[tuple] = deque()

    def release(self, t: int, amount: int) -> None:
        """Return amount bytes to the stage's free space at time t."""
        self.occupancy -= amount
        self.trace.append((t, self.occupancy))


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


class _Engine:
    """Heap entries are (time, seq, handler, args); the loop calls handler(*args)."""

    def __init__(self, topo: Topology, cfg: SimConfig):
        self.cfg = cfg
        self.stages = stages = topo.stages
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.records: list[FrameRecord] = []
        self.clock_rng = Random(f"{cfg.seed}:clock")
        self.proc_rng = Random(f"{cfg.seed}:processing")
        self.frame_size = size = topo.camera.frame_size_bytes
        self.proc_free_at = 0

        # Per-stage tables.  `arrive` holds plain functions that take the
        # engine first: bound methods kept on the engine would form a cycle.
        arrive = {
            BufferStage: _Engine._arrive_buffer,
            FrameGrabber: _Engine._arrive_buffer,
            HostMemory: _Engine._arrive_host,
            Processor: _Engine._arrive_processor,
        }
        self.arrive = [arrive.get(type(s)) for s in stages]
        self.links = [_LinkState(s.link, size) if isinstance(s, LinkStage) else None for s in stages]
        self.holders = [None if isinstance(s, (LinkStage, Processor)) else _HolderState() for s in stages]
        # Latency a frame waits before leaving; the sensor applies its own
        # at readout, so it waits none here.
        self.fixed = [0 if isinstance(s, (Sensor, LinkStage)) else s.fixed_latency_ns for s in stages]
        self.cut_through = [isinstance(s, BufferStage) and s.forwarding == CUT_THROUGH for s in stages]
        self.next_is_link = [isinstance(s, LinkStage) for s in stages[1:]] + [False]
        # Validated chains end in the one processor.
        self.proc_idx = len(stages) - 1
        self.processing = stages[-1].processing

        fps = topo.camera.frame_rate
        # Sub-ns frame periods clamp to the 1 ns clock tick.
        self.period_ns = max(1, round(1e9 / fps)) if fps > 0 else None

    # -- event plumbing --

    def push(self, t: int, handler, args: tuple) -> None:
        self.seq += 1
        heappush(self.heap, (t, self.seq, handler, args))

    def run(self) -> RunResult:
        cfg = self.cfg
        if cfg.n_frames is not None and cfg.n_frames > 0 and self.period_ns is None:
            raise InvalidSpecError("cannot generate frames from a zero frame-rate camera")
        if self.period_ns is not None and cfg.n_frames != 0:
            self.push(0, self._generate, (0,))
        heap = self.heap
        duration = cfg.duration_ns
        while heap:
            t, _, handler, args = heappop(heap)
            if duration is not None and t > duration:
                break
            self.now = t
            handler(*args)
        # Events left past a duration cutoff hold bound methods of the
        # engine; dropping them keeps the run free of reference cycles.
        heap.clear()
        return RunResult(
            frames=frame_table(self.records, len(self.stages)),
            elapsed_ns=duration if duration is not None else self.now,
            occupancy={i: h.trace for i, h in enumerate(self.holders) if h is not None},
            link_busy_ns={i: l.busy_ns for i, l in enumerate(self.links) if l is not None},
        )

    # -- stage behavior --

    def _generate(self, k: int) -> None:
        t = self.now
        stamp, clamped = sample_timestamp_detailed(self.cfg.clock, t, self.clock_rng)
        size = self.frame_size
        rec = FrameRecord(
            frame_id=k,
            size_bytes=size,
            generated_at_ns=t,
            camera_timestamp_ns=stamp,
            timestamp_clamped=clamped,
            stage_times=[StageSpan() for _ in self.stages],
            buffer_bytes={},
        )
        self.records.append(rec)
        egress = t + self.stages[0].fixed_latency_ns
        span = rec.stage_times[0]
        span.ingress_ns = t
        span.egress_ns = egress

        # Schedule the next frame before moving this one on, so generation
        # order stays the primary order at equal timestamps.
        nxt = k + 1
        if self.cfg.n_frames is None or nxt < self.cfg.n_frames:
            self.push(t + self.period_ns, self._generate, (nxt,))

        if self.next_is_link[0]:
            # Sensor feeds the wire through an unbounded readout register;
            # its fixed latency is already applied at egress.
            h = self.holders[0]
            h.occupancy += size
            h.trace.append((t, h.occupancy))
            rec.buffer_bytes[0] = size
            h.fifo.append((rec, egress, egress, size))
            if egress > t:
                self.push(egress, self._try_start, (0,))
            else:
                self._try_start(0)
        elif egress > t:
            self.push(egress, self.arrive[1], (self, 1, rec, egress, egress))
        else:
            self.arrive[1](self, 1, rec, egress, egress)

    def _arrive_buffer(self, idx: int, rec: FrameRecord, t: int, first_byte: int) -> None:
        """Frame fully present at buffer or grabber idx at time t."""
        h = self.holders[idx]
        next_is_link = self.next_is_link[idx]

        contribution = rec.size_bytes
        if next_is_link and self.cut_through[idx]:
            link_state = self.links[idx + 1]
            if link_state.in_flight is None and not h.fifo:
                # Head-of-line frame: forwarding may already have begun at
                # first_byte + fixed latency, so only the residue is held.
                s_would = max(first_byte + self.fixed[idx], link_state.free_at)
                if s_would < t:
                    # Whole bytes the link has moved since forwarding began.
                    drained = int(link_state.rate * (t - s_would) // 8)
                    contribution = max(0, rec.size_bytes - drained)

        capacity = self.stages[idx].capacity_bytes
        if h.occupancy + contribution > capacity:
            if self.cfg.drop_policy == DROP_OLDEST:
                # Shed queued (not yet transmitting) frames, oldest first.
                while h.fifo and h.occupancy + contribution > capacity:
                    victim, _, _, held = h.fifo.popleft()
                    h.occupancy -= held
                    h.trace.append((t, h.occupancy))
                    self._mark_dropped(victim, idx, REASON_BACKPRESSURE, t)
            if h.occupancy + contribution > capacity:
                rec.stage_times[idx].ingress_ns = t
                self._mark_dropped(rec, idx, REASON_OVERFLOW, t)
                return

        rec.stage_times[idx].ingress_ns = t
        rec.buffer_bytes[idx] = contribution
        h.occupancy += contribution
        h.trace.append((t, h.occupancy))

        if next_is_link:
            h.fifo.append((rec, t, first_byte, contribution))
            self._try_start(idx)
        else:
            self._hold(idx, rec, t)

    def _arrive_host(self, idx: int, rec: FrameRecord, t: int, first_byte: int) -> None:
        h = self.holders[idx]
        rec.stage_times[idx].ingress_ns = t
        rec.buffer_bytes[idx] = rec.size_bytes
        h.occupancy += rec.size_bytes
        h.trace.append((t, h.occupancy))
        self._hold(idx, rec, t)

    def _hold(self, idx: int, rec: FrameRecord, t: int) -> None:
        """Keep an admitted frame for the stage's fixed latency, then hand it on."""
        ready = t + self.fixed[idx]
        if ready > t:
            self.push(ready, self._handoff_local, (idx, rec, ready))
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
        start = max(t, self.proc_free_at) if nxt == self.proc_idx else t
        rec.stage_times[idx].egress_ns = start
        self._release(idx, rec, start)
        self.arrive[nxt](self, nxt, rec, start, start)

    def _release(self, idx: int, rec: FrameRecord, t: int) -> None:
        """Return the frame's bytes to holder idx's free space at time t."""
        h = self.holders[idx]
        amount = rec.buffer_bytes[idx]
        if t > self.now:
            self.push(t, h.release, (t, amount))
        else:
            h.release(t, amount)

    def _try_start(self, idx: int) -> None:
        """Let the emitter at idx put its head-of-queue frame on the wire."""
        h = self.holders[idx]
        link_idx = idx + 1
        ls = self.links[link_idx]
        if ls.in_flight is not None or not h.fifo:
            return
        rec, arrival, first_byte, _ = h.fifo[0]
        fixed = self.fixed[idx]
        ready = (first_byte if self.cut_through[idx] else arrival) + fixed
        if ready > self.now:
            self.push(ready, self._try_start, (idx,))
            return

        h.fifo.popleft()
        ls.in_flight = rec
        # Cut-through may start retroactively (first bytes went out while
        # the tail was still arriving) but can never finish before the
        # whole frame has arrived.
        start = max(ready, ls.free_at)
        egress = max(start + ls.ser_ns, arrival + fixed)
        ls.free_at = egress
        prop = ls.prop_ns
        if prop:
            nxt = link_idx + 1
            self.push(egress, self._tx_end, (idx, rec, egress, None))
            self.push(egress + prop, self.arrive[nxt], (self, nxt, rec, egress + prop, start + prop))
        else:
            # The arrival would follow the transmission end at the same time
            # with the next sequence number, so nothing could run between
            # them: one event does both.
            self.push(egress, self._tx_end, (idx, rec, egress, start))

    def _tx_end(self, idx: int, rec: FrameRecord, egress: int, first_byte: Optional[int]) -> None:
        """The link after idx finished sending; first_byte is set when the
        frame's arrival past a zero-propagation link is fused in."""
        link_idx = idx + 1
        ls = self.links[link_idx]
        times = rec.stage_times
        if idx:
            # A sensor's (stage 0) egress stays at readout completion; only
            # its staging register drains over the wire.
            times[idx].egress_ns = egress
        span = times[link_idx]
        span.ingress_ns = egress
        span.egress_ns = egress + ls.prop_ns
        self.holders[idx].release(egress, rec.buffer_bytes[idx])
        ls.in_flight = None
        # Busy time counts completed transmissions, so a duration cutoff
        # mid-transfer cannot push the total past the simulated span.
        ls.busy_ns += ls.ser_ns
        self._try_start(idx)
        if first_byte is not None:
            nxt = link_idx + 1
            self.arrive[nxt](self, nxt, rec, egress, first_byte)

    def _arrive_processor(self, idx: int, rec: FrameRecord, t: int, first_byte: int) -> None:
        start = max(t, self.proc_free_at)
        egress = start + self.fixed[idx] + self.processing.draw(self.proc_rng)
        self.proc_free_at = egress
        rec.stage_times[idx].ingress_ns = start
        self.push(egress, self._deliver, (rec, egress))

    def _deliver(self, rec: FrameRecord, t: int) -> None:
        rec.stage_times[-1].egress_ns = t
        rec.disposition = DISPOSITION_DELIVERED

    def _mark_dropped(self, rec: FrameRecord, idx: int, reason: str, t: int) -> None:
        rec.disposition = DISPOSITION_DROPPED
        rec.drop_stage = idx
        rec.drop_reason = reason
        rec.drop_time_ns = t
