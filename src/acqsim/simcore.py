"""Deterministic frame-pipeline engine: one pass per stage, in chain order.

Time is integer nanoseconds throughout; there is no floating-point time
anywhere in the engine.  Backpressure is local: a full buffer resolves
via the drop policy rather than stalling the upstream link, because a
camera sensor cannot pause mid-frame.  With every stage a single-server
FIFO, the chain is a tandem queue, so a run is one pass per stage,
upstream first, each turning the arrivals at its stage into those at the
next; a link starts a frame at max(ready, previous egress) (Lindley).

Events at one nanosecond run in global push order, as if every event
went through one queue ordered by (time, push sequence).  An event's
place in that queue is the key (time, key of the event that queued it,
rank of the push within that event).  Within one event the pushes go
upstream first, so the index of the pushing stage serves as the rank.  A
pass runs its own stage's events in key order; only events of one stage
at one nanosecond ever need comparing.  A frame whose event was queued
earlier is thus admitted before an equal-time release: when a
transmission lasts exactly one frame period, the next frame's generation
was queued before the previous frame's transmission end, so the buffer
briefly holds both and its high water counts both frames.  An event runs
if and only if its time is within duration_ns.

Stage hand-off convention recorded per frame: a stage's egress is the
instant the frame's last byte leaves it, which equals the next stage's
ingress.  Cut-through overlap therefore shows up as shorter spans, never
as out-of-order timestamps, and `ingress <= egress` holds at every stage.

Randomness (clock jitter, processing-time draws) comes from two
independent streams derived from the run seed; link arithmetic is exact
integer math.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import field
from fractions import Fraction
from heapq import heappop, heappush
from random import Random
from typing import Optional

from .linkmodel import InvalidSpecError, Link, Record, Table, effective_rate_fraction, propagation_delay_ns, record
from .timing import ClockModel, sample_timestamp_detailed
from .topology import CUT_THROUGH, JSON_FORMS, BufferStage, LinkStage, Topology, check_runnable, from_dict
from .topology import holding_stages, one, to_dict

DROP_NEWEST = "drop_newest"
DROP_OLDEST = "drop_oldest"

DISPOSITION_DELIVERED = "delivered"
DISPOSITION_DROPPED = "dropped"
DISPOSITION_IN_FLIGHT = "in_flight"

REASON_OVERFLOW = "buffer_overflow"
REASON_BACKPRESSURE = "backpressure"
# The values a FrameTable's string columns hold, null included where the annotation allows one.
FRAME_VALUES = {"disposition": (DISPOSITION_DELIVERED, DISPOSITION_DROPPED, DISPOSITION_IN_FLIGHT),
                "drop_reason": (REASON_OVERFLOW, REASON_BACKPRESSURE, None)}


@record
class FrameTable(Table):
    """A run's frames as columns: entry f of each list belongs to frame f.

    The fields define the report's frame record: each list[<scalar>] is a
    frame key of that JSON type.  ingress_ns, egress_ns and buffer_bytes (the
    bytes the frame held resident at a stage) are stage-major, [stage][frame]:
    None where the frame never reached the stage, or held nothing there.
    """

    frame_id: list[int]
    size_bytes: list[int]
    generated_at_ns: list[int]
    camera_timestamp_ns: list[int]
    timestamp_clamped: list[bool]
    ingress_ns: list[list[Optional[int]]]
    egress_ns: list[list[Optional[int]]]
    buffer_bytes: list[list[Optional[int]]]
    disposition: list[str]
    drop_stage: list[Optional[int]]
    drop_reason: list[Optional[str]]
    drop_time_ns: list[Optional[int]]

    def latency_ns(self) -> list:
        """Per frame, sensor egress to processor egress; None unless delivered."""
        return [
            last - first if d == DISPOSITION_DELIVERED else None
            for first, last, d in zip(self.egress_ns[0], self.egress_ns[-1], self.disposition)
        ]


@record
class SimConfig(Record):
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


JSON_FORMS[SimConfig] = {"clock": one(ClockModel)}


def serialization_time_ns(size_bytes: int, link: Link) -> int:
    """ceil(bits / rate) with exact rational arithmetic, in ns."""
    if size_bytes <= 0:
        raise InvalidSpecError(f"size_bytes must be positive, got {size_bytes}")
    rate = effective_rate_fraction(link)  # bits per ns, > 0 by invariant
    return math.ceil(Fraction(size_bytes * 8) / rate)


def link_busy_ns(topo: Topology, ingress) -> dict:
    """Stage index -> ns each link stage of topo spent serializing: one serialization time per completed transmission,
    each of which sets its frame's ingress at the link.  ingress(i) is stage i's column of frame ingress times."""
    size = topo.camera.frame_size_bytes
    return {i: serialization_time_ns(size, s.link) * (len(column := ingress(i)) - column.count(None))
            for i, s in enumerate(topo.stages) if isinstance(s, LinkStage)}


# --- Engine ----------------------------------------------------------------


def _before(a: tuple, b: tuple, memo: dict) -> bool:
    """Whether the event keyed a runs before the one keyed b, at one time.

    Equal-time ancestors can pair up for the whole run (a transmission
    that lasts exactly one frame period ties with every generation), so
    each compared pair's order is remembered under the id of its first
    key; the memo value holds both keys, so that the id stays theirs.
    """
    path = []
    while True:
        pa, pb = a[1], b[1]
        if pa is pb:
            first = a[2] < b[2]
            break
        if pa[0] != pb[0]:
            first = pa[0] < pb[0]
            break
        path.append((a, b))
        known = memo.get(id(pa))
        if known is not None and known[1] is pb:
            first = known[0]
            break
        a, b = pa, pb
    for a, b in path:
        memo[id(a)] = (first, b, a)
    return first


_END = (math.inf, None, None, None)  # closes a pass's arrivals


class _Passes:
    """One run: the run's FrameTable, whose columns the stage passes fill in chain order.

    An event's key is (time, key of the event that queued it, rank); the
    first generation's parent is ().  A pass takes its arrivals as (time,
    key, frame, first-byte time) in key order; a frame handed on inside an
    event carries that event's key.  A pass's own pending events start
    with (time, ordinal of the event in this pass that queued them, key):
    one event queues at most one of them, so the first two fields order
    them and are unique.
    """

    def __init__(self, topo: Topology, cfg: SimConfig):
        self.topo = topo
        self.stages = stages = topo.stages
        self.cfg = cfg
        self.size = size = topo.camera.frame_size_bytes
        fps = topo.camera.frame_rate
        # Sub-ns frame periods clamp to the 1 ns clock tick; a zero-rate camera has no period.
        self.period_ns = max(1, round(1e9 / fps)) if fps > 0 else None
        self.limit = math.inf if cfg.duration_ns is None else cfg.duration_ns
        # Every frame has the camera's size, so link constants are fixed for the run.
        self.links = {
            i: (serialization_time_ns(size, s.link), propagation_delay_ns(s.link), effective_rate_fraction(s.link))
            for i, s in enumerate(stages)
            if isinstance(s, LinkStage)
        }
        self.traces = {i: [] for i in holding_stages(topo)}
        self.memo = {}
        self.last = 0  # time of the latest event that ran
        self.proc_rng = Random(f"{cfg.seed}:processing")

    def run(self) -> tuple:
        """The frame table, elapsed ns, occupancy traces and link busy ns, in build_report's order."""
        stages = self.stages
        arrivals = self._generate()
        idx = 1
        # Stage 1 and every stage after a link hold frames; validated chains end in the one processor.
        while arrivals is not None:
            if isinstance(stages[idx + 1], LinkStage):
                arrivals = self._emit(idx, arrivals)
                idx += 2
            else:
                arrivals = self._hold(idx, arrivals)
                idx += 1
        elapsed = self.last if self.cfg.duration_ns is None else self.cfg.duration_ns
        return self.frames, elapsed, self.traces, link_busy_ns(self.topo, self.frames.ingress_ns.__getitem__)

    def _generate(self) -> list:
        """Draw the camera stamps in frame order and build the frame table; returns the arrivals at stage 1."""
        cfg, period, stages = self.cfg, self.period_ns, self.stages
        # check_generable lets a camera without a period through only for a run of no frames.
        n = 0 if period is None else cfg.n_frames if cfg.n_frames is not None else cfg.duration_ns // period + 1
        times = list(range(0, n * period, period)) if n else []
        sample, clock, rng = sample_timestamp_detailed, cfg.clock, Random(f"{cfg.seed}:clock")
        stamps = [sample(clock, t, rng) for t in times]
        self.frames = frames = FrameTable(
            list(range(n)), [self.size] * n, times, [s for s, _ in stamps], [c for _, c in stamps],
            [[None] * n for _ in stages], [[None] * n for _ in stages], [[None] * n for _ in stages],
            [DISPOSITION_IN_FLIGHT] * n, [None] * n, [None] * n, [None] * n,
        )
        self.last = times[-1] if n else 0
        fixed = stages[0].fixed_latency_ns
        frames.ingress_ns[0] = times[:]
        frames.egress_ns[0] = [t + fixed for t in times]
        # A generation queues the next one first (rank -1), then moves its
        # frame on to stage 1 at readout completion.
        arrivals, key = [], ()
        for f, t in enumerate(times):
            key = (t, key, -1)
            ready = t + fixed
            arrivals.append((ready, (ready, key, 0), f, ready) if fixed else (t, key, f, ready))
        return arrivals

    def _drop(self, f: int, idx: int, reason: str, t: int) -> None:
        frames = self.frames
        frames.disposition[f] = DISPOSITION_DROPPED
        frames.drop_stage[f] = idx
        frames.drop_reason[f] = reason
        frames.drop_time_ns[f] = t

    def _emit(self, idx: int, arrivals: list) -> list:
        """Holder idx and the link after it; returns the arrivals past the link.

        Each arrival is admitted, dropped, or admitted after evicting queued
        frames.  Every event that ran ends by offering the FIFO head to the
        link.  Pending events are transmission ends (frame, first byte when
        the arrival past a zero-propagation link is fused in, bytes held)
        and retries at the head's ready time (frame None).
        """
        holder, size, limit, memo, frames = self.stages[idx], self.size, self.limit, self.memo, self.frames
        ser, prop, rate = self.links[idx + 1]
        fixed, capacity = holder.fixed_latency_ns, holder.capacity_bytes
        ct = isinstance(holder, BufferStage) and holder.forwarding == CUT_THROUGH
        oldest = self.cfg.drop_policy == DROP_OLDEST
        ing, eg, held = frames.ingress_ns, frames.egress_ns, frames.buffer_bytes[idx]
        ing, eg, link_ing, link_eg = ing[idx], eg[idx], ing[idx + 1], eg[idx + 1]
        trace = self.traces[idx].append
        fifo: deque = deque()  # (frame, full arrival, first byte, bytes held)
        pending: list = []
        out: list = []
        occupancy = free_at = now = o = 0
        sending = False
        arrivals.append(_END)
        arrivals = iter(arrivals)
        at, akey, af, afb = next(arrivals)
        while True:
            o += 1
            if pending and (pending[0][0] < at or pending[0][0] == at and _before(pending[0][2], akey, memo)):
                now, _, key, f, first_byte, amount = heappop(pending)
                if now > limit:
                    break
                if f is not None:  # transmission end
                    eg[f] = now
                    link_ing[f] = now
                    link_eg[f] = now + prop
                    occupancy -= amount
                    trace((now, occupancy))
                    sending = False
                    if first_byte is not None:
                        out.append((now, key, f, first_byte))
            elif at > limit or af is None:
                break
            else:
                now, key, f, first_byte = at, akey, af, afb
                at, akey, af, afb = next(arrivals)
                amount = size
                if ct and not sending and not fifo:
                    # Head-of-line frame: forwarding may already have begun at
                    # first_byte + fixed latency, so only the residue is held.
                    would_start = max(first_byte + fixed, free_at)
                    if would_start < now:
                        # Whole bytes the link has moved since forwarding began.
                        amount = max(0, size - int(rate * (now - would_start) // 8))
                ing[f] = now
                if occupancy + amount > capacity:
                    if oldest:
                        # Shed queued (not yet transmitting) frames, oldest first.
                        while fifo and occupancy + amount > capacity:
                            victim, _, _, victim_amount = fifo.popleft()
                            occupancy -= victim_amount
                            trace((now, occupancy))
                            self._drop(victim, idx, REASON_BACKPRESSURE, now)
                    if occupancy + amount > capacity:
                        self._drop(f, idx, REASON_OVERFLOW, now)
                        continue
                held[f] = amount
                occupancy += amount
                trace((now, occupancy))
                fifo.append((f, now, first_byte, amount))
            if sending or not fifo:
                continue
            f, arrived, first_byte, amount = fifo[0]
            ready = (first_byte if ct else arrived) + fixed
            if ready > now:
                heappush(pending, (ready, o, (ready, key, idx), None, None, None))
                continue
            fifo.popleft()
            sending = True
            # Cut-through may start retroactively (first bytes went out while
            # the tail was still arriving) but can never finish before the
            # whole frame has arrived.
            start = ready if ready > free_at else free_at
            free_at = start + ser
            if arrived + fixed > free_at:
                free_at = arrived + fixed
            if prop:
                heappush(pending, (free_at, o, (free_at, key, idx), f, None, amount))
                out.append((free_at + prop, (free_at + prop, key, idx + 1), f, start + prop))
            else:
                heappush(pending, (free_at, o, (free_at, key, idx), f, start, amount))
        self.last = max(self.last, now)
        return out

    def _hold(self, idx: int, arrivals: list) -> Optional[list]:
        """Stage idx when no link follows.  A memory keeps each admitted frame
        for its fixed latency, then hands it on (the next stage's arrivals are
        returned); adjacent memories copy at unmodeled (infinite) bandwidth.
        The single-server processor runs in the pass of the memory before
        it, which holds each frame until the processor picks it up.  Pending
        events are hand-ons (frame) and releases (None).
        """
        stages, size, limit, memo, frames = self.stages, self.size, self.limit, self.memo, self.frames
        holder, proc = stages[idx], stages[-1]
        fixed = holder.fixed_latency_ns
        capacity = getattr(holder, "capacity_bytes", math.inf)  # host memory is unbounded
        to_proc = idx + 1 == len(stages) - 1
        ing, eg, held, delivered = frames.ingress_ns, frames.egress_ns, frames.buffer_bytes[idx], frames.disposition
        ing, eg, proc_ing, proc_eg = ing[idx], eg[idx], ing[-1], eg[-1]
        trace = self.traces[idx].append
        rng, draw, proc_fixed = self.proc_rng, proc.processing.draw, proc.fixed_latency_ns
        pending: list = []
        out: list = []
        occupancy = now = o = proc_free_at = 0
        arrivals.append(_END)
        arrivals = iter(arrivals)
        at, akey, af, _ = next(arrivals)
        while True:
            o += 1
            if pending and (pending[0][0] < at or pending[0][0] == at and _before(pending[0][2], akey, memo)):
                now, _, key, f = heappop(pending)
                if now > limit:
                    break
                if f is None:  # release
                    occupancy -= size
                    trace((now, occupancy))
                    continue
            elif at > limit or af is None:
                break
            else:
                now, key, f = at, akey, af
                at, akey, af, _ = next(arrivals)
                ing[f] = now
                if occupancy + size > capacity:
                    self._drop(f, idx, REASON_OVERFLOW, now)
                    continue
                held[f] = size
                occupancy += size
                trace((now, occupancy))
                if fixed:
                    heappush(pending, (now + fixed, o, (now + fixed, key, idx), f))
                    continue
            start = proc_free_at if to_proc and proc_free_at > now else now
            eg[f] = start
            if start > now:
                heappush(pending, (start, o, (start, key, idx), None))
            else:
                occupancy -= size
                trace((now, occupancy))
            if not to_proc:
                out.append((now, key, f, now))
                continue
            # The processor takes frame f; its delivery runs if it falls within the run.
            proc_free_at = start + proc_fixed + draw(rng)
            proc_ing[f] = start
            if proc_free_at <= limit:
                proc_eg[f] = proc_free_at
                delivered[f] = DISPOSITION_DELIVERED
        self.last = max(self.last, now, proc_free_at)
        return None if to_proc else out


def check_generable(topo: Topology, cfg: SimConfig) -> None:
    """Raise InvalidSpecError unless topo's camera can generate the frames cfg asks for."""
    fps = topo.camera.frame_rate
    if fps > 0 and 1e9 / fps == math.inf:
        raise InvalidSpecError(f"frame_rate {fps} gives a frame period too long to count in ns")
    if fps == 0 and cfg.n_frames:
        raise InvalidSpecError("cannot generate frames from a zero frame-rate camera")


def run(topo: Topology, cfg: SimConfig):
    """Simulate a topology and return its SimReport, which keeps the passes' FrameTable.

    Rejects invalid topologies, cameras that cannot generate their frames, and records whose
    report could not be read back, before any frame is generated.  Two calls with equal
    (topology, config) produce byte-identical canonical reports.
    """
    check_runnable(topo)
    check_generable(topo, cfg)
    # A field the report reader would reject (a float or a bool for an integer) fails here, with its message.
    from_dict(Topology, to_dict(topo))
    from_dict(SimConfig, to_dict(cfg))
    from .metrics import build_report  # local import: metrics depends on this module

    return build_report(topo, cfg, *_Passes(topo, cfg).run())

