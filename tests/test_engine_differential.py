"""The per-stage passes against the heap engine they replaced, byte for byte.

``heap_engine.py`` holds the old engine, which ran every event through
one global heap in push order.  Each case here runs both engines on the
same (topology, config) and compares both exports.  Beyond the shipped
scenarios, the randomized pool and the benchmark workloads, a hypothesis
strategy builds chains where events of one stage meet at one nanosecond:
frame periods that are a small multiple or fraction of a link's
serialization time, fixed latencies and cable delays on the same grid,
tight buffers under both drop policies, and duration cutoffs that fall on
an event time.
"""

import warnings
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acqsim import (
    BufferStage,
    CameraSpec,
    ClockModel,
    EnvelopeWarning,
    FrameGrabber,
    HostMemory,
    LinkStage,
    PCIeLink,
    ProcessingModel,
    Processor,
    Sensor,
    SimConfig,
    Topology,
    export_structured,
    export_tabular,
    load_scenario,
    parse_scenario,
    run,
)
from acqsim.simcore import DROP_NEWEST, DROP_OLDEST, serialization_time_ns
from acqsim.timing import DeadlineSpec
from acqsim.topology import CUT_THROUGH, STORE_AND_FORWARD
from conftest import benchmark_workloads, insert_stage, insertable_buffer, make_config, make_topology
from heap_engine import run_reference

pytestmark = pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")

ROOT = Path(__file__).resolve().parent.parent
RELAXED = DeadlineSpec(safety_ns=10**9, control_ns=10**10, timestamp_rms_ns=50.0)


def assert_same_exports(topo, cfg, report=None):
    report = run(topo, cfg) if report is None else report
    reference = run_reference(topo, cfg)
    assert export_structured(report) == export_structured(reference)
    assert export_tabular(report) == export_tabular(reference)


WORKLOADS = benchmark_workloads()


def test_shipped_scenarios():
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario = load_scenario(path)
        for topo, cfg in zip(scenario.pipelines, scenario.configs()):
            assert_same_exports(topo, cfg)


def test_run_pool(run_pool):
    for topo, cfg, report in run_pool:
        assert_same_exports(topo, cfg, report)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workloads(name):
    for seed in (1, 2, 3):
        scenario = parse_scenario(WORKLOADS[name](seed, 2_000))
        assert_same_exports(scenario.pipelines[0], scenario.configs()[0])


def test_inserted_stages():
    rng = Random(8080)
    for _ in range(300):
        topo = make_topology(rng)
        for _ in range(rng.randint(1, 2)):
            topo = insert_stage(topo, insertable_buffer(rng), rng.randint(1, len(topo.stages) - 1))
        assert_same_exports(topo, make_config(rng))


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
            [ProcessingModel.fixed(0), ProcessingModel.fixed(ser), ProcessingModel.fixed(period),
             ProcessingModel.uniform(0, 2 * period)]
        )
    )
    stages.append(Processor(processing, fixed_latency_ns=fixed()))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EnvelopeWarning)
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
    assert_same_exports(topo, cfg)
