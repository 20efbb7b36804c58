"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with `pytest -s` to see them
live) and then asserts, so the suite both documents and enforces the
target numbers at their stated tolerances.
"""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from acqsim import (
    CameraSpec,
    LinkStage,
    PCIeLink,
    SimConfig,
    aggregate_rate,
    camera_stream_rate,
    effective_link_rate,
    export_structured,
    import_structured,
    parse_scenario,
    run,
    summarize,
)
from acqsim.cli import main
from acqsim.scenario import load_scenario
from acqsim.simcore import (
    DISPOSITION_DELIVERED,
    DISPOSITION_DROPPED,
    DISPOSITION_IN_FLIGHT,
    DROP_NEWEST,
    DROP_OLDEST,
)
from conftest import benchmark_workloads, insert_stage, insertable_buffer, make_config, make_topology

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CASES = 1000


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _parse_budget(output: str) -> dict:
    rates = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") and parts[0] != "link":
            rates[parts[0]] = float(parts[1])
    return rates


def _simulate(tmp_path, scenario_name: str, stem: str) -> tuple[int, object]:
    code = main(["simulate", str(SCENARIOS / scenario_name), "--output", str(tmp_path / stem)])
    report_path = tmp_path / f"{stem}.json"
    report = import_structured(report_path.read_text()) if report_path.exists() else None
    return code, report


def test_criterion_1_budget_reproduction(capsys):
    assert main(["budget", "--all"]) == 0
    rates = _parse_budget(capsys.readouterr().out)
    with capsys.disabled():
        checks = [
            abs(rates["pcie-gen3-x1"] - 7.877) <= 0.01,
            abs(rates["pcie-gen4-x1"] - 15.754) <= 0.3,
            abs(rates["pcie-gen5-x1"] - 31.508) <= 0.5,
            abs(rates["pcie-gen5-x16"] - 504.1) <= 1.0,
            abs(rates["camera-link-full"] - 7.14) <= 0.01,
            rates["pcie-gen3-x1"] > rates["camera-link-full"],
        ]
        _criterion(
            "criterion-1 budget reproduction",
            all(checks),
            f"gen3x1={rates['pcie-gen3-x1']} gen4x1={rates['pcie-gen4-x1']} "
            f"gen5x1={rates['pcie-gen5-x1']} gen5x16={rates['pcie-gen5-x16']} "
            f"cl-full={rates['camera-link-full']}",
        )


def test_criterion_2_requirement_reproduction():
    one_camera = camera_stream_rate(CameraSpec(1_000_000, 8, 1000))
    ten_cameras = aggregate_rate([CameraSpec(1_000_000, 8, 1000)] * 10)
    _criterion(
        "criterion-2 requirement reproduction",
        one_camera == 8.0 and ten_cameras == 80.0,
        f"per-camera={one_camera} aggregate={ten_cameras}",
    )


def test_criterion_3_architecture_comparison(tmp_path, capsys):
    # Closed-form oracle from the README rate ladder, kept independent of
    # acqsim's own rate and serialization code: a 1 Mpx x 8 bit frame over
    # 0 m cables at efficiency 1.0 takes ceil(bits / rate) ns per hop.
    frame_bits = 1_000_000 * 8
    gen3_x1 = 8 * Fraction(128, 130)  # Gb/s = bits per ns
    cl_full = Fraction(714, 100)  # Camera Link full: 84 bit x 85 MHz
    want_direct = math.ceil(frame_bits / gen3_x1)  # 1,015,625 ns
    want_gap = math.ceil(frame_bits / cl_full)  # 1,120,449 ns
    want_classic = want_gap + want_direct  # 2,136,074 ns

    code_c, classic = _simulate(tmp_path, "classic-1mpx.json", "classic")
    code_d, direct = _simulate(tmp_path, "direct-1mpx.json", "direct")
    with capsys.disabled():
        assert code_c == 0 and code_d == 0
        classic_latency = classic.frames.latency_ns()[0]
        direct_latency = direct.frames.latency_ns()[0]
        copies_ok = (
            classic.aggregates.copy_count == 3 and direct.aggregates.copy_count == 2
        )
        latencies_ok = (
            abs(classic_latency - want_classic) <= 1 and abs(direct_latency - want_direct) <= 1
        )
        # The paper's claim, exactly: the grabber hop costs one Camera Link
        # full transmission of the frame.
        gap_ok = classic_latency - direct_latency == want_gap
        _criterion(
            "criterion-3 architecture comparison",
            copies_ok and latencies_ok and gap_ok,
            f"copy_count {classic.aggregates.copy_count} vs {direct.aggregates.copy_count} "
            f"(want 3 vs 2); latency classic={classic_latency} (want {want_classic} +/-1), "
            f"direct={direct_latency} (want {want_direct} +/-1), "
            f"gap={classic_latency - direct_latency} (want {want_gap})",
        )


def test_criterion_4_deadline_gating(tmp_path, capsys):
    code_hot, hot = _simulate(tmp_path, "deadline-150us.json", "d150")
    code_ok, _ = _simulate(tmp_path, "deadline-80us.json", "d80")
    with capsys.disabled():
        safeties = hot.aggregates.safety_violations
        _criterion(
            "criterion-4 deadline gating",
            code_hot == 2 and safeties == 1 and code_ok == 0,
            f"150us exit={code_hot} safety-violations={safeties}; 80us exit={code_ok}",
        )


def test_criterion_5_timestamp_budget(tmp_path, capsys):
    code_20, report_20 = _simulate(tmp_path, "jitter-20ns.json", "j20")
    code_80, report_80 = _simulate(tmp_path, "jitter-80ns.json", "j80")
    with capsys.disabled():
        rms_20 = report_20.aggregates.timestamp_rms_ns
        rms_80 = report_80.aggregates.timestamp_rms_ns
        budget_ok_at_20 = report_20.aggregates.timestamp_violations == 0 and code_20 == 0
        budget_fails_at_80 = report_80.aggregates.timestamp_violations == 1 and code_80 == 2
        _criterion(
            "criterion-5 timestamp budget",
            18.0 <= rms_20 <= 22.0 and budget_ok_at_20 and budget_fails_at_80,
            f"rms(sigma=20)={rms_20:.3f} exit={code_20}; rms(sigma=80)={rms_80:.3f} exit={code_80}",
        )


def test_criterion_6_overflow_oracle(tmp_path, capsys):
    code, report = _simulate(tmp_path, "overflow-8to4.json", "overflow")
    with capsys.disabled():
        frames = report.frames
        drops = [t for t, d in zip(frames.drop_time_ns, frames.disposition) if d == DISPOSITION_DROPPED]
        first_drop = min(drops) if drops else None
        quantum = 32_768  # one frame transmission at the 8 Gb/s feed
        _criterion(
            "criterion-6 overflow oracle",
            first_drop is not None and abs(first_drop - 2_097_152) <= quantum,
            f"first drop at {first_drop} ns (want 2097152 +/- {quantum})",
        )


@pytest.fixture(scope="module")
def congested_frames():
    """The frame table of classic-congested (perfbench/workloads.py) at 10,000 frames, seed 1."""
    scenario = parse_scenario(benchmark_workloads()["classic-congested"](1, 10_000))
    return run(scenario.pipelines[0], scenario.configs()[0]).frames


def test_fluid_model_drop_count(congested_frames):
    # classic-congested under drop_newest against a fluid model, computed
    # exactly from the README ladder's integers with none of acqsim's rate
    # code: an 8 Gb/s camera into a 7.14 Gb/s Camera Link grows the 64 MiB
    # store-and-forward buffer by 107,500 B per frame until it is full after
    # 624.3 frames, then refuses 10.75% of frames.
    n = 10_000
    frame_bytes = 1_000_000 * 8 // 8  # 1 Mpx x 8 bit
    frame_period_ns = 10**9 // 1000  # 1 kfps
    cl_full = Fraction(84 * 85, 1000)  # bits per ns: 84 bit x 85 MHz
    capacity = 64 * 2**20
    refused = 1 - cl_full * frame_period_ns / (frame_bytes * 8)  # 43/400
    fill_frames = capacity / (frame_bytes * refused)  # 624.3
    predicted = (n - fill_frames) * refused  # 1,007.9

    # The engine moves whole frames, and each of three effects adds less
    # than one drop to the fluid's count (a frame of bytes more in the
    # buffer is one drop more): the buffer refuses a frame while it still
    # has up to a frame of space (it holds 67 frames of 67.1), the frame on
    # the link stays in the buffer until its last byte leaves, and n frames
    # arrive over n - 1 periods of draining.  Rounding each transmission up
    # to a whole nanosecond slows the link by under 1 ns per frame, which
    # adds under n / tx_ns drops.
    tx_ns = math.ceil(frame_bytes * 8 / cl_full)  # 1,120,449
    bound = 3 + Fraction(n, tx_ns)

    frames = congested_frames
    assert len(frames.frame_id) == n
    drops = [(stage, reason) for stage, reason, d in zip(frames.drop_stage, frames.drop_reason, frames.disposition)
             if d == DISPOSITION_DROPPED]
    assert set(drops) == {(1, "buffer_overflow")}  # all at the camera buffer
    assert 0 <= len(drops) - predicted < bound, f"{len(drops)} drops, fluid model {float(predicted):.1f}"


def test_first_drop_store_and_forward(congested_frames):
    # classic-congested's first drop against whole-frame store-and-forward
    # arithmetic, in integers from the README ladder with none of acqsim's
    # rate code.  Frame k reaches the 64 MiB camera buffer whole at its
    # generation time k * period.  A transmission takes longer than a period,
    # so the link sends back to back from time 0 and has finished
    # floor(k * period / tx) frames by then; the frame on the link stays in
    # the buffer until its last byte leaves.  Frame k is the first refused
    # when the k + 1 frames so far, less those sent, first overflow it.
    frame_bytes = 1_000_000
    period = 10**9 // 1000
    tx = -(-frame_bytes * 8 * 1000 // (84 * 85))  # ceil(8e6 bits / 7.14 bits per ns) = 1,120,449 ns
    capacity = 64 * 2**20
    first = 0
    while (first + 1 - first * period // tx) * frame_bytes <= capacity:
        first += 1
    # No transmission ends at a generation instant up to frame `first`, so
    # the order of equal-time events does not enter the prediction.
    assert all(k * period % tx for k in range(1, first + 1))
    # This gives frame 614, below the fluid model's 624.3, because the buffer
    # holds more than the fluid backlog: each frame lands whole at its
    # generation instead of streaming in over its period (one frame more),
    # and the frame on the link counts in full although part of it has left
    # (up to one frame more).  So the 68th whole frame overflows the 67.1
    # that fit while the fluid backlog is still up to 1.1 frames short of
    # full; growing 0.1075 frames a period, that is up to 10.3 frames early.
    frames = congested_frames
    dropped = frames.disposition.index(DISPOSITION_DROPPED)
    assert dropped == first, f"engine drops frame {dropped} first, store-and-forward predicts {first}"
    assert frames.drop_time_ns[dropped] == first * period == frames.generated_at_ns[dropped]


@pytest.mark.parametrize("name", sorted(benchmark_workloads()))
@pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
def test_cable_shift_on_last_pcie_link(name):
    # Metamorphic relation: more cable on the last link (PCIe in every
    # workload) delays each frame's arrival at host memory, and so every
    # later event, by the same whole number of nanoseconds, and decides
    # nothing differently.  The shift follows from the README's 5 ns/m.
    extra_m, ns_per_m = 3, 5
    shift_ns = extra_m * ns_per_m
    scenario = parse_scenario(benchmark_workloads()[name](1, 2_000))
    topo, cfg = scenario.pipelines[0], scenario.configs()[0]
    last = max(i for i, s in enumerate(topo.stages) if isinstance(s, LinkStage))
    link = topo.stages[last].link
    assert isinstance(link, PCIeLink)
    longer = dataclasses.replace(link, cable_length_m=link.cable_length_m + extra_m)
    stages = (*topo.stages[:last], LinkStage(longer), *topo.stages[last + 1:])
    base = run(topo, cfg).frames
    shifted = run(dataclasses.replace(topo, stages=stages), cfg).frames
    assert shifted.disposition == base.disposition
    delivered = [(a, b) for a, b in zip(base.latency_ns(), shifted.latency_ns()) if a is not None]
    assert len(delivered) > 900  # overload-oldest delivers about half of its 2,000 frames
    assert all(b - a == shift_ns for a, b in delivered)


SHIPPED = sorted(path.stem for path in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", ["direct-steady", "classic-congested", *SHIPPED])
@pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
def test_drop_policy_only_decides_drops(name):
    # Metamorphic relation: the drop policy only picks which frames a full
    # buffer sheds, so on a run that sheds none, drop_oldest and drop_newest
    # give equal frames.  classic-congested's backlog reaches its first drop
    # at frame 614 (test_first_drop_store_and_forward), so 600 frames queue
    # deep without one.  overflow-8to4 overflows its buffer, so there the
    # policies pick different frames.
    sizes = {"direct-steady": 2_000, "classic-congested": 600}
    if name in sizes:
        scenario = parse_scenario(benchmark_workloads()[name](1, sizes[name]))
    else:
        scenario = load_scenario(SCENARIOS / f"{name}.json")
    topo, cfg = scenario.pipelines[0], scenario.configs()[0]
    newest = run(topo, dataclasses.replace(cfg, drop_policy=DROP_NEWEST)).frames
    oldest = run(topo, dataclasses.replace(cfg, drop_policy=DROP_OLDEST)).frames
    if name == "overflow-8to4":
        assert newest.disposition.count(DISPOSITION_DROPPED) == 9
        assert oldest != newest
    else:
        assert DISPOSITION_DROPPED not in newest.disposition
        assert oldest == newest


def test_drop_policy_only_decides_drops_on_generated_chains():
    rng = Random(2468)
    undropped = 0
    for _ in range(300):
        topo, cfg = make_topology(rng), make_config(rng)
        newest = run(topo, dataclasses.replace(cfg, drop_policy=DROP_NEWEST)).frames
        if DISPOSITION_DROPPED not in newest.disposition:
            undropped += 1
            assert run(topo, dataclasses.replace(cfg, drop_policy=DROP_OLDEST)).frames == newest
    assert undropped >= 100


def _cut(frames, limit: int) -> dict:
    """The frames generated within limit, each time past limit erased and
    each disposition following from the times that are left."""
    n = sum(t <= limit for t in frames.generated_at_ns)

    def erase(column):
        return [t if t is not None and t <= limit else None for t in column[:n]]

    delivered = [d == DISPOSITION_DELIVERED and t <= limit for d, t in zip(frames.disposition, frames.egress_ns[-1])]
    dropped = [d == DISPOSITION_DROPPED and t <= limit for d, t in zip(frames.disposition, frames.drop_time_ns)]
    return {
        "scalars": [column[:n] for column in (frames.frame_id, frames.size_bytes, frames.generated_at_ns,
                                              frames.camera_timestamp_ns, frames.timestamp_clamped)],
        "ingress_ns": [erase(column) for column in frames.ingress_ns],
        "egress_ns": [erase(column) for column in frames.egress_ns],
        # A frame's bytes at a stage are counted when it enters the stage.
        "buffer_bytes": [
            [b if t is not None and t <= limit else None for b, t in zip(held[:n], ingress)]
            for held, ingress in zip(frames.buffer_bytes, frames.ingress_ns)
        ],
        "disposition": [
            DISPOSITION_DELIVERED if d else DISPOSITION_DROPPED if x else DISPOSITION_IN_FLIGHT
            for d, x in zip(delivered[:n], dropped[:n])
        ],
        "drops": [
            (stage, reason, t) if x else (None, None, None)
            for stage, reason, t, x in zip(frames.drop_stage, frames.drop_reason, frames.drop_time_ns, dropped[:n])
        ],
    }


@pytest.mark.parametrize("name", sorted(benchmark_workloads()))
@pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
def test_duration_prefix(name):
    # Metamorphic relation: an event runs if and only if its time is within
    # duration_ns, so a run cut at D is the longer run with every time past
    # D erased.  The cut run's own times past D are erased too: a link's
    # egress, for one, is set when its transmission ends, a propagation
    # delay before it.
    scenario = parse_scenario(benchmark_workloads()[name](1, 400))
    topo, cfg = scenario.pipelines[0], scenario.configs()[0]
    period = run(topo, dataclasses.replace(cfg, n_frames=2, duration_ns=None)).frames.generated_at_ns[1]
    long = run(topo, dataclasses.replace(cfg, n_frames=None, duration_ns=400 * period - 1)).frames
    assert len(long.frame_id) == 400
    deliveries = [t for t in long.egress_ns[-1] if t is not None and t < 300 * period]
    # Mid-period, at a generation instant, and at a delivery instant.
    for limit in (150 * period + period // 3, 200 * period, max(deliveries)):
        short = run(topo, dataclasses.replace(cfg, n_frames=None, duration_ns=limit)).frames
        assert _cut(short, limit) == _cut(long, limit)
    assert limit in short.egress_ns[-1]  # a delivery at the cut itself is kept


def test_duration_prefix_on_generated_chains():
    rng = Random(1357)
    for _ in range(300):
        topo = make_topology(rng)
        cfg = dataclasses.replace(make_config(rng), n_frames=None, duration_ns=rng.randint(0, 200_000))
        long = run(topo, cfg).frames
        times = [t for columns in (long.ingress_ns, long.egress_ns) for column in columns for t in column
                 if t is not None and t <= cfg.duration_ns]
        # A cut anywhere in the run, and one at the time of an event of the long run.
        for limit in (rng.randint(0, cfg.duration_ns), rng.choice(times)):
            short = run(topo, dataclasses.replace(cfg, duration_ns=limit)).frames
            assert _cut(short, limit) == _cut(long, limit)


class TestCriterion7PropertySuites:
    """Six randomized suites, >= 1000 cases each."""

    def test_frame_conservation(self, run_pool):
        for _, _, report in run_pool:
            a = report.aggregates
            assert a.generated == len(report.frames.frame_id)
            assert a.delivered + a.dropped + a.in_flight == a.generated
        _criterion("criterion-7 frame conservation", True, f"{len(run_pool)} cases")

    def test_timestamp_causality(self, run_pool):
        for _, _, report in run_pool:
            f = report.frames
            frame_spans = zip(*map(zip, f.ingress_ns, f.egress_ns))  # one frame's (ingress, egress) per stage
            for k, spans in enumerate(frame_spans):
                assert f.generated_at_ns[k] == f.ingress_ns[0][k]
                previous_egress = None
                for ingress, egress in spans:
                    if ingress is None:
                        continue
                    if egress is not None:
                        assert ingress <= egress
                    if previous_egress is not None:
                        assert previous_egress <= ingress
                    previous_egress = egress
                if f.disposition[k] == DISPOSITION_DROPPED:
                    assert f.drop_time_ns[k] >= f.generated_at_ns[k]
        _criterion("criterion-7 timestamp causality", True, f"{len(run_pool)} cases")

    def test_lane_scaling_linearity(self):
        rng = Random(555)
        for _ in range(CASES):
            gen = rng.randint(1, 5)
            lanes = rng.choice([1, 2, 4, 8, 16])
            eff = rng.uniform(0.01, 1.0)
            one = effective_link_rate(PCIeLink(gen, 1, protocol_efficiency=eff))
            many = effective_link_rate(PCIeLink(gen, lanes, protocol_efficiency=eff))
            assert many == lanes * one
        _criterion("criterion-7 lane-scaling linearity", True, f"{CASES} cases")

    def test_stage_insertion_latency_monotonicity(self):
        rng = Random(777)
        for _ in range(CASES):
            topo = make_topology(rng, generous_capacity=True)
            cfg = SimConfig(seed=rng.getrandbits(32), n_frames=rng.randint(1, 5))
            base = run(topo, cfg)
            position = rng.randint(1, len(topo.stages) - 1)
            widened = insert_stage(topo, insertable_buffer(rng), position)
            longer = run(widened, cfg)
            base_latency = dict(zip(base.frames.frame_id, base.frames.latency_ns()))
            for frame_id, latency in zip(longer.frames.frame_id, longer.frames.latency_ns()):
                before = base_latency.get(frame_id)
                if latency is not None and before is not None:
                    assert latency >= before
        _criterion("criterion-7 stage-insertion latency monotonicity", True, f"{CASES} cases")

    def test_byte_identical_reports(self, run_pool):
        for topo, cfg, report in run_pool:
            assert export_structured(run(topo, cfg)) == export_structured(report)
        _criterion("criterion-7 byte-identical seeded reruns", True, f"{len(run_pool)} cases")

    def test_aggregate_recomputation(self, run_pool):
        for _, _, report in run_pool:
            round_tripped = import_structured(export_structured(report))
            recomputed = summarize(
                round_tripped.frames,
                round_tripped.topology,
                elapsed_ns=round_tripped.elapsed_ns,
                occupancy=round_tripped.occupancy,
            )
            assert recomputed == round_tripped.aggregates
        _criterion("criterion-7 aggregate recomputation", True, f"{len(run_pool)} cases")
