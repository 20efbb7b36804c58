"""An independent model of an acqsim run: the tandem-queue recursion, frame by frame.

Every stage serves one frame at a time in arrival order, so each frame's
times follow from the previous frame's at the same stage (Lindley, 1952;
Baccelli, Cohen, Olsder and Quadrat, *Synchronization and Linearity*,
1992).  predict() applies the README's model conventions stage by stage
with no acqsim code: the rate ladder, the ceil rounding, the 5 ns/m
propagation and the seeded draws are its own.  Equal-time order decides
only admissions, so each admission is computed with every other event of
the stage at that nanosecond run first and with none run first.  Where
the two differ the tie is decisive: the model takes the engine's outcome
if it is one of the two, fails if not, and counts the tie.
"""

import math
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from fractions import Fraction
from itertools import islice
from random import Random

_PCIE_GT = {1: Fraction(5, 2), 2: Fraction(5), 3: Fraction(8), 4: Fraction(16), 5: Fraction(32)}
_CXP_GBPS = {"cxp1": Fraction(5, 4), "cxp2": Fraction(5, 2), "cxp3": Fraction(25, 8), "cxp5": Fraction(5),
             "cxp6": Fraction(25, 4), "cxp10": Fraction(10), "cxp12": Fraction(25, 2)}
_LINE_CODE = (Fraction(8, 10), Fraction(128, 130))
# Raw Gb/s (bits per ns) by link kind, before protocol efficiency.
_RAW_GBPS = {
    # 8b/10b line code for PCIe gen 1-2, 128b/130b from gen 3.
    "pcie": lambda link: link.lanes * _PCIE_GT[link.generation] * _LINE_CODE[link.generation >= 3],
    "camera_link": lambda link: Fraction({"base": 24, "medium": 48, "full": 84}[link.config] * 85, 1000),
    "coaxpress": lambda link: link.links * _CXP_GBPS[link.speed_grade],
    "gige_vision": lambda link: Fraction({"1g": 1, "10g": 10}[link.rate_preset]),
    "clhs": lambda link: link.lanes * Fraction(103, 10),
    "usb3": lambda link: Fraction(5),
}


def _draw(model, rng: Random) -> int:
    if model.distribution == "fixed":
        return model.fixed_ns
    if model.distribution == "uniform":
        return rng.randint(model.low_ns, model.high_ns)
    return max(0, round(rng.gauss(model.mean_ns, model.sigma_ns)))


def _stamp(clock, t: int, rng: Random) -> tuple:
    value = float(t) + clock.offset_ns + clock.drift_ppm * 1e-6 * t
    if clock.jitter_sigma_ns > 0.0:
        value += rng.gauss(0.0, clock.jitter_sigma_ns)
    stamped = round(value)
    return (0, True) if stamped < 0 else (stamped, False)


def predict(topology, config, engine_frames) -> "_Run":
    """The run of (topology, config), with frames (FrameTable columns by name), link_busy_ns,
    elapsed_ns, occupancy (stage -> Counter of (t, change in bytes)) and ties (decisive ones)."""
    return _Run(topology, config, engine_frames)


class _Run:
    def __init__(self, topology, config, engine_frames):
        self.stages = stages = topology.stages
        self.config, self.engine = config, engine_frames
        camera = topology.camera
        self.size = size = -(-camera.resolution_pixels * camera.bit_depth // 8)
        period = max(1, round(1e9 / camera.frame_rate)) if camera.frame_rate > 0 else None
        self.limit = math.inf if config.duration_ns is None else config.duration_ns
        n = 0 if period is None else config.n_frames if config.n_frames is not None else self.limit // period + 1
        generated = [k * period for k in range(n)]
        rng = Random(f"{config.seed}:clock")
        stamps = [_stamp(config.clock, t, rng) for t in generated]
        self.proc_rng, self.proc_free = Random(f"{config.seed}:processing"), 0
        fixed = stages[0].fixed_latency_ns
        self.frames = frames = {
            "frame_id": list(range(n)), "size_bytes": [size] * n, "generated_at_ns": generated,
            "camera_timestamp_ns": [s for s, _ in stamps], "timestamp_clamped": [c for _, c in stamps],
            "ingress_ns": [[None] * n for _ in stages], "egress_ns": [[None] * n for _ in stages],
            "buffer_bytes": [[None] * n for _ in stages], "disposition": ["in_flight"] * n,
            "drop_stage": [None] * n, "drop_reason": [None] * n, "drop_time_ns": [None] * n,
        }
        frames["ingress_ns"][0] = generated[:]
        frames["egress_ns"][0] = [t + fixed for t in generated]
        self.occupancy = {i: Counter() for i, s in enumerate(stages) if s.kind not in ("link", "processor")}
        self.link_busy_ns, self.ties = {}, 0
        # Arrivals are (time, first byte, frame).  A sensor feeding a link admits each
        # frame to its readout register at generation; else stage 1 takes it at readout.
        emits = stages[1].kind == "link"
        arrivals = [(t, t + fixed, f) if emits else (t + fixed, t + fixed, f) for f, t in enumerate(generated)]
        idx = 0 if emits else 1
        while arrivals is not None:
            if stages[idx].kind == "processor":  # right after a link
                for t, _, f in arrivals:
                    if t <= self.limit:
                        self.process(f, t)
                break
            if stages[idx + 1].kind == "link":
                arrivals, idx = self.emit(idx, arrivals), idx + 2
            else:
                arrivals, idx = self.hold(idx, arrivals), idx + 1
        self.elapsed_ns = config.duration_ns
        if self.elapsed_ns is None:  # every event runs, and the last is the latest time a frame records
            times = (t for columns in (frames["ingress_ns"], frames["egress_ns"]) for column in columns for t in column)
            self.elapsed_ns = max((t for t in times if t is not None), default=0)

    def drop(self, f: int, idx: int, reason: str, t: int) -> None:
        frames = self.frames
        frames["disposition"][f], frames["drop_stage"][f] = "dropped", idx
        frames["drop_reason"][f], frames["drop_time_ns"][f] = reason, t

    def decide(self, idx: int, f: int, t: int, none_first: tuple, all_first: tuple) -> tuple:
        """An admission's (dropped, evicted frames, bytes held), whichever order the stage's
        other events at t run in; where the order decides, the engine's outcome, checked."""
        if none_first == all_first:
            return none_first
        self.ties += 1
        e = self.engine
        dropped = e.drop_stage[f] == idx and e.drop_time_ns[f] == t and e.drop_reason[f] == "buffer_overflow"
        candidates = sorted({*none_first[1], *all_first[1]})
        evicted = tuple(v for v in candidates if e.drop_stage[v] == idx and e.drop_time_ns[v] == t)
        engine = (dropped, evicted, None if dropped else e.buffer_bytes[idx][f])
        assert engine in (none_first, all_first), (
            f"stage {idx} at {t} ns: the engine admits frame {f} as {engine}, "
            f"but equal-time order allows only {none_first} or {all_first}")
        return none_first if engine == none_first else all_first

    def emit(self, idx: int, arrivals: list) -> list:
        """Holder idx and the link after it; returns the arrivals past the link."""
        holder, size, limit, frames = self.stages[idx], self.size, self.limit, self.frames
        link = self.stages[idx + 1].link
        rate = _RAW_GBPS[link.kind](link) * Fraction(link.protocol_efficiency)
        ser = -(-size * 8 * rate.denominator // rate.numerator)
        prop = round(link.cable_length_m * 5)
        sensor = idx == 0
        fixed = 0 if sensor else holder.fixed_latency_ns
        capacity = getattr(holder, "capacity_bytes", math.inf)  # the sensor's readout register is unbounded
        # The register offers a frame from readout completion, its first byte.
        cut_through = sensor or getattr(holder, "forwarding", None) == "cut_through"
        oldest = self.config.drop_policy == "drop_oldest"
        ingress, egress, held = frames["ingress_ns"], frames["egress_ns"], frames["buffer_bytes"][idx]
        changes = self.occupancy[idx]
        queue = deque()  # admitted, not yet sent: (frame, ready, earliest end, bytes held)
        queued = sent = busy = 0  # bytes queued, bytes of the frame sent last, busy ns
        free_at = -math.inf  # when the frame sent last ends
        out = []

        def advance(until) -> None:
            """Send each queued frame whose transmission starts before until."""
            nonlocal queued, sent, busy, free_at
            while queue and max(queue[0][1], free_at) < until:
                f, ready, floor, sent = queue.popleft()
                queued -= sent
                start = max(ready, free_at)
                # A cut-through frame may start before its last byte arrived, but not end before.
                free_at = end = max(start + ser, floor)
                if end <= limit:  # the transmission end runs
                    changes[end, -sent] += 1
                    busy += ser
                    if not sensor:  # the sensor's egress stays at readout completion
                        egress[idx][f] = end
                    ingress[idx + 1][f], egress[idx + 1][f] = end, end + prop
                    out.append((end + prop, start + prop, f))

        def outcome(t: int, ready: int, first: bool) -> tuple:
            """The admission at t of a frame ready at `ready`, with the stage's other events
            at t run first or not: the frame on the wire ending, then the head of the queue starting."""
            sending = free_at > t or free_at == t and not first
            skip = first and bool(queue) and max(queue[0][1], free_at) == t
            occupancy = queued + (sent if sending else 0)
            amount = size
            began = max(ready, free_at)
            if cut_through and not sending and not queue and began < t:
                # Head of line: forwarding began before the last byte arrived; only the residue is held.
                amount = max(0, size - rate.numerator * (t - began) // (8 * rate.denominator))
            evicted = []
            for f, _, _, victim in islice(queue, skip, None) if oldest else ():
                if occupancy + amount <= capacity:
                    break
                occupancy -= victim
                evicted.append(f)
            dropped = occupancy + amount > capacity
            return dropped, tuple(evicted), None if dropped else amount

        for t, first_byte, f in arrivals:
            if t > limit:
                break
            advance(t)
            ready = (first_byte if cut_through else t) + fixed
            ingress[idx][f] = t
            none_first = outcome(t, ready, first=False)
            dropped, evicted, amount = chosen = self.decide(idx, f, t, none_first, outcome(t, ready, first=True))
            if chosen is not none_first:
                advance(t + 1)
            for victim in evicted:
                assert queue[0][0] == victim
                victim_amount = queue.popleft()[3]
                queued -= victim_amount
                changes[t, -victim_amount] += 1
                self.drop(victim, idx, "backpressure", t)
            if dropped:
                self.drop(f, idx, "buffer_overflow", t)
            else:
                held[f] = amount
                queued += amount
                changes[t, amount] += 1
                queue.append((f, ready, t + fixed, amount))
            advance(t + 1)
        advance(math.inf)
        self.link_busy_ns[idx + 1] = busy
        return out

    def hold(self, idx: int, arrivals: list):
        """Memory idx, which hands each frame on after its fixed latency, to the
        processor when it is next; returns the next stage's arrivals otherwise."""
        size, limit, frames = self.size, self.limit, self.frames
        holder = self.stages[idx]
        to_proc = idx + 2 == len(self.stages)
        capacity = getattr(holder, "capacity_bytes", math.inf)  # host memory is unbounded
        releases = []  # when each admitted frame leaves, in order
        out = []

        def outcome(frames_held: int) -> tuple:
            dropped = (frames_held + 1) * size > capacity
            return dropped, (), None if dropped else size

        for t, _, f in arrivals:
            if t > limit:
                break
            frames["ingress_ns"][idx][f] = t
            # The frames held, with none and with all of the releases at t run first.
            none_first = outcome(len(releases) - bisect_left(releases, t))
            all_first = outcome(len(releases) - bisect_right(releases, t))
            if self.decide(idx, f, t, none_first, all_first)[0]:
                self.drop(f, idx, "buffer_overflow", t)
                continue
            frames["buffer_bytes"][idx][f] = size
            self.occupancy[idx][t, size] += 1
            ready = t + holder.fixed_latency_ns
            release = math.inf  # unless the hand-on runs
            if ready <= limit:
                release = self.process(f, ready) if to_proc else ready
                frames["egress_ns"][idx][f] = release
                out.append((ready, ready, f))
                if release <= limit:
                    self.occupancy[idx][release, -size] += 1
            releases.append(release)
        return None if to_proc else out

    def process(self, f: int, t: int) -> int:
        """The processor takes frame f at t, or when it is next free; returns the start."""
        frames, proc = self.frames, self.stages[-1]
        start = max(t, self.proc_free)
        frames["ingress_ns"][-1][f] = start
        self.proc_free = end = start + proc.fixed_latency_ns + _draw(proc.processing, self.proc_rng)
        if end <= self.limit:
            frames["egress_ns"][-1][f], frames["disposition"][f] = end, "delivered"
        return start
