"""The engine against tandem_oracle.predict, an independent model of each run.

Each case compares every FrameTable column, each link's busy time, the
elapsed time and each holding stage's occupancy changes per nanosecond.
Beyond the shipped scenarios, the run pool and the benchmark workloads,
tie_cases builds chains whose events meet at one nanosecond: periods,
latencies and cable delays on one grid, tight buffers under both drop
policies, and cutoffs on an event time.
"""

from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from acqsim import (
    BufferStage,
    CameraSpec,
    ClockModel,
    FixedProcessing,
    FrameGrabber,
    HostMemory,
    LinkStage,
    PCIeLink,
    Processor,
    Sensor,
    SimConfig,
    Topology,
    UniformProcessing,
    load_scenario,
    parse_scenario,
    run,
)
from acqsim.simcore import DROP_NEWEST, DROP_OLDEST, serialization_time_ns
from acqsim.timing import DeadlineSpec
from acqsim.topology import CUT_THROUGH, STORE_AND_FORWARD
from conftest import benchmark_workloads, insert_stage, insertable_buffer, make_config, make_topology
from tandem_oracle import predict

ROOT = Path(__file__).resolve().parent.parent
RELAXED = DeadlineSpec(safety_ns=10**9, control_ns=10**10, timestamp_rms_ns=50.0)
WORKLOADS = benchmark_workloads()


def occupancy_changes(trace: list) -> Counter:
    """A stage's trace [(t, bytes after)] as a Counter of (t, change in bytes); times never decrease."""
    changes, before, last = Counter(), 0, 0
    for t, after in trace:
        assert t >= last
        changes[t, after - before] += 1
        before, last = after, t
    return changes


def assert_matches(topo, cfg, report=None):
    """The run of (topo, cfg) is the model's; returns the report and the model's prediction."""
    report = run(topo, cfg) if report is None else report
    model = predict(topo, cfg, report.frames)
    assert vars(report.frames) == model.frames
    assert report.link_busy_ns == model.link_busy_ns
    assert report.elapsed_ns == model.elapsed_ns
    assert {i: occupancy_changes(trace) for i, trace in report.occupancy.items()} == model.occupancy
    return report, model


@pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
def test_shipped_scenarios():
    ties = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario = load_scenario(path)
        for topo, cfg in zip(scenario.pipelines, scenario.configs()):
            ties[path.stem] = assert_matches(topo, cfg)[1].ties
    # Equal-time order decides admissions in one shipped scenario only.
    assert {name: n for name, n in ties.items() if n} == {"overflow-8to4": 9}


def test_run_pool(run_pool):
    for topo, cfg, report in run_pool:
        assert_matches(topo, cfg, report)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
def test_benchmark_workloads(name):
    for seed in (1, 2, 3):
        scenario = parse_scenario(WORKLOADS[name](seed, 2_000))
        _, model = assert_matches(scenario.pipelines[0], scenario.configs()[0])
        # overload-oldest's transmissions last exactly one frame period.
        assert model.ties == (969 if name == "overload-oldest" else 0)


def test_inserted_stages():
    rng = Random(8080)
    for _ in range(300):
        topo = make_topology(rng)
        for _ in range(rng.randint(1, 2)):
            topo = insert_stage(topo, insertable_buffer(rng), rng.randint(1, len(topo.stages) - 1))
        assert_matches(topo, make_config(rng))


# --- Chains built for equal-time events --------------------------------------


@st.composite
def tie_cases(draw):
    """A valid chain whose event times share one grid, and a config on it."""
    size = draw(st.sampled_from([64, 256, 1000, 4096]))
    links = [
        PCIeLink(
            draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([1, 2, 4, 8])),
            cable_length_m=draw(st.sampled_from([0.0, 0.0, 2.0, 10.0])),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    # The frame period: a small multiple or fraction of one link's serialization time.
    ser = serialization_time_ns(size, draw(st.sampled_from(links)))
    period = max(1, draw(st.sampled_from([ser, ser, 2 * ser, 3 * ser, ser // 2])))
    grid = [0, 0, ser, period, period // 2, 2 * period]

    def fixed():
        return draw(st.sampled_from(grid))

    def capacity():
        return draw(st.sampled_from([size, 2 * size, 3 * size, 8 * size, 64 * 2**20]))

    def holder(emitter):
        kind = draw(st.sampled_from(["buffer", "grabber"] if emitter else ["buffer", "grabber", "host"]))
        if kind == "buffer":
            forwarding = draw(st.sampled_from([STORE_AND_FORWARD, CUT_THROUGH]))
            return BufferStage(capacity(), forwarding, fixed_latency_ns=fixed())
        if kind == "grabber":
            return FrameGrabber(capacity(), fixed_latency_ns=fixed())
        return HostMemory(fixed_latency_ns=fixed())

    stages = [Sensor(fixed_latency_ns=fixed())]
    for n, link in enumerate(links):
        # A link is preceded by the sensor, a buffer or a grabber.
        extra = draw(st.integers(0 if n == 0 else 1, 2))
        stages += [holder(emitter=i == extra - 1) for i in range(extra)]
        stages.append(LinkStage(link))
    stages += [holder(emitter=False) for _ in range(draw(st.integers(0, 2)))]
    processing = draw(
        st.sampled_from(
            [FixedProcessing(0), FixedProcessing(ser), FixedProcessing(period),
             UniformProcessing(0, 2 * period)]
        )
    )
    stages.append(Processor(processing, fixed_latency_ns=fixed()))

    camera = CameraSpec(size, 8, 1e9 / period)
    topo = Topology("ties", tuple(stages), camera, RELAXED)

    policy = draw(st.sampled_from([DROP_NEWEST, DROP_OLDEST]))
    clock = ClockModel(jitter_sigma_ns=draw(st.sampled_from([0.0, 5.0])))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        cfg = SimConfig(seed=seed, n_frames=draw(st.integers(0, 40)), drop_policy=policy, clock=clock)
    else:
        # Cutoffs on the grid land exactly on an event time.
        offset = draw(st.sampled_from(grid + [ser + fixed(), 10, 50]))
        duration = draw(st.integers(0, 40)) * period + offset
        cfg = SimConfig(seed=seed, duration_ns=duration, drop_policy=policy, clock=clock)
    return topo, cfg


@settings(max_examples=400, deadline=None)
@given(tie_cases())
def test_equal_time_chains(case):
    topo, cfg = case
    report, model = assert_matches(topo, cfg)
    # The paths the chain reaches, which --hypothesis-show-statistics counts.
    frames = report.frames
    times = {t for columns in (frames.ingress_ns, frames.egress_ns) for column in columns for t in column}
    paths = {
        "decisive tie": model.ties > 0,
        "eviction": "backpressure" in frames.drop_reason,
        "overflow drop": "buffer_overflow" in frames.drop_reason,
        "cut-through residue": any(b is not None and b < frames.size_bytes[0] for c in frames.buffer_bytes for b in c),
        "cutoff on an event time": cfg.duration_ns is not None and cfg.duration_ns in times,
    }
    for path, reached in paths.items():
        if reached:
            event(path)
