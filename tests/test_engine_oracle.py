"""The engine against tandem_oracle.predict, an independent model of each run.

Each case compares every FrameTable column, each link's busy time, the
elapsed time and each holding stage's occupancy changes per nanosecond.
Beyond the shipped scenarios, the run pool and the benchmark workloads,
tie_cases builds chains whose events meet at one nanosecond
(conftest.tie_case).
"""

from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from acqsim import load_scenario, parse_scenario, run
from conftest import benchmark_workloads, insert_stage, insertable_buffer, make_config, make_topology, tie_case
from tandem_oracle import predict

ROOT = Path(__file__).resolve().parent.parent
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
    """conftest.tie_case, drawn by hypothesis."""
    return tie_case(lambda values: draw(st.sampled_from(values)), lambda lo, hi: draw(st.integers(lo, hi)))


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
        "head waited for its ready time": model.waits > 0,
        "waiting head evicted": model.waiting_evictions > 0,
        "eviction": "backpressure" in frames.drop_reason,
        "overflow drop": "buffer_overflow" in frames.drop_reason,
        "cut-through residue": any(b is not None and b < frames.size_bytes[0] for c in frames.buffer_bytes for b in c),
        "cutoff on an event time": cfg.duration_ns is not None and cfg.duration_ns in times,
    }
    for path, reached in paths.items():
        if reached:
            event(path)
