"""Invariant checks over randomized inputs (hypothesis + seeded loops)."""

import dataclasses
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from acqsim import (
    CameraSpec,
    ClockModel,
    FixedProcessing,
    OverheadModel,
    PCIeLink,
    SimConfig,
    build_classic,
    build_direct,
    camera_stream_rate,
    compare,
    copy_count,
    effective_link_rate,
    export_structured,
    export_tabular,
    feasible,
    min_lanes,
    run,
    timestamp_rms,
)
from acqsim.linkmodel import NoFeasibleWidthError, effective_rate_fraction, propagation_delay_ns
from acqsim.simcore import serialization_time_ns
from acqsim.timing import sample_timestamp_detailed
from acqsim.topology import CUT_THROUGH, STORE_AND_FORWARD, BufferStage, FrameGrabber, Topology, check_runnable, from_dict
from acqsim.topology import holding_stages, to_dict
from conftest import frame_table, insert_stage, insertable_buffer, make_camera, make_config, make_link, make_processing
from conftest import make_topology

generations = st.integers(min_value=1, max_value=5)
lane_widths = st.sampled_from([1, 2, 4, 8, 16])
efficiencies = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


class TestLinkModelProperties:
    @given(generations, lane_widths, efficiencies)
    def test_lane_scaling_exactly_linear(self, gen, lanes, eff):
        one = effective_link_rate(PCIeLink(gen, 1, protocol_efficiency=eff))
        many = effective_link_rate(PCIeLink(gen, lanes, protocol_efficiency=eff))
        assert many == lanes * one

    @given(generations, lane_widths)
    def test_monotone_in_generation(self, gen, lanes):
        assume(gen < 5)
        assert effective_link_rate(PCIeLink(gen + 1, lanes)) >= effective_link_rate(PCIeLink(gen, lanes))

    @given(generations)
    def test_monotone_in_lanes(self, gen):
        rates = [effective_link_rate(PCIeLink(gen, n)) for n in (1, 2, 4, 8, 16)]
        assert rates == sorted(rates)

    @given(
        st.integers(min_value=1, max_value=8_000_000),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
        st.integers(min_value=2, max_value=4),
    )
    def test_stream_rate_linear_in_each_factor(self, px, depth, fps, k):
        base = camera_stream_rate(CameraSpec(px, depth, fps))
        assert camera_stream_rate(CameraSpec(px * k, depth, fps)) == pytest.approx(k * base, rel=1e-12)
        if depth * k <= 64:
            assert camera_stream_rate(CameraSpec(px, depth * k, fps)) == pytest.approx(k * base, rel=1e-12)
        assert camera_stream_rate(CameraSpec(px, depth, fps * k)) == pytest.approx(k * base, rel=1e-12)

    @given(
        st.integers(min_value=1_000, max_value=8_000_000),
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
        generations,
        lane_widths,
    )
    def test_feasible_agrees_with_rate_sign(self, px, fps, gen, lanes):
        camera = CameraSpec(px, 8, fps)
        link = PCIeLink(gen, lanes)
        verdict = feasible(camera, link)
        diff = effective_rate_fraction(link) - Fraction(px * 8) * Fraction(fps) / 10**9
        assert verdict.feasible == (diff >= 0)
        assert verdict.margin_gbps == float(diff)

    @given(
        st.integers(min_value=1_000, max_value=4_000_000),
        st.floats(min_value=1.0, max_value=20_000.0, allow_nan=False),
    )
    def test_min_lanes_non_increasing_in_generation(self, px, fps):
        camera = CameraSpec(px, 8, fps)
        overhead = OverheadModel()
        widths = []
        for gen in (1, 2, 3, 4, 5):
            try:
                widths.append(min_lanes(camera, gen, overhead))
            except NoFeasibleWidthError:
                widths.append(32)  # heavier than any allowed width
        assert widths == sorted(widths, reverse=True) or all(
            a >= b for a, b in zip(widths, widths[1:])
        )


class TestTopologyProperties:
    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_copy_count_relation(self, rng):
        cam = make_camera(rng)
        ci, pcie = make_link(rng), make_link(rng)
        classic = build_classic(cam, ci, pcie, 4096)
        direct = build_direct(cam, pcie)
        assert copy_count(classic) == copy_count(direct) + 1
        assert not any(isinstance(s, FrameGrabber) for s in direct.stages)
        assert sum(1 for s in classic.stages if isinstance(s, FrameGrabber)) == 1

    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_builders_always_validate(self, rng):
        assert check_runnable(make_topology(rng)) is None

    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_serialization_round_trip(self, rng):
        topo = make_topology(rng)
        assert from_dict(Topology, to_dict(topo)) == topo


class TestTimingProperties:
    @given(st.integers(min_value=0, max_value=10**15))
    def test_zero_clock_identity(self, t):
        assert sample_timestamp_detailed(ClockModel(), t, Random(0)) == (t, False)

    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=50))
    def test_rms_sign_flip_and_scale(self, errors):
        from types import SimpleNamespace

        def records(errs):
            return frame_table([SimpleNamespace(generated_at_ns=0, camera_timestamp_ns=e) for e in errs])

        base = timestamp_rms(records(errors))
        flipped = timestamp_rms(records([-e for e in errors]))
        scaled = timestamp_rms(records([3 * e for e in errors]))
        assert flipped == pytest.approx(base, rel=1e-9, abs=1e-9)
        assert scaled == pytest.approx(3 * base, rel=1e-9, abs=1e-9)


class TestEngineProperties:
    def test_occupancy_never_exceeds_capacity(self):
        rng = Random(11)
        for _ in range(150):
            topo = make_topology(rng)
            report = run(topo, make_config(rng))
            for idx, trace in report.occupancy.items():
                stage = topo.stages[idx]
                if isinstance(stage, (BufferStage, FrameGrabber)):
                    assert all(b <= stage.capacity_bytes for _, b in trace)
                assert all(b >= 0 for _, b in trace)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_stage_maps_follow_the_holding_stages(self, rng):
        # The rule both readers enforce: an occupancy trace and a high water for each stage but a link or the
        # processor, and resident bytes at no other stage.
        topo = make_topology(rng)
        if rng.random() < 0.5:  # a buffer anywhere between the sensor and the processor
            topo = insert_stage(topo, insertable_buffer(rng), rng.randint(1, len(topo.stages) - 1))
        report = run(topo, make_config(rng))
        holding = [i for i, s in enumerate(topo.stages) if s.kind not in ("link", "processor")]
        assert holding_stages(topo) == holding
        assert sorted(report.occupancy) == sorted(report.aggregates.high_water_bytes) == holding
        assert all(set(held) <= {None} for i, held in enumerate(report.frames.buffer_bytes) if i not in holding)

    @pytest.mark.parametrize("pool", ["run_pool", "tie_pool"])
    def test_stage_hand_off(self, pool, request):
        # A stage's egress is the next stage's ingress wherever both are set, and a frame reaches a stage
        # only once it has left the one before.
        for _, _, report in request.getfixturevalue(pool):
            ingress, egress = report.frames.ingress_ns, report.frames.egress_ns
            for left, reached in zip(egress, ingress[1:]):
                for out, into in zip(left, reached):
                    assert into is None or out == into

    def test_link_busy_within_elapsed(self):
        rng = Random(12)
        for _ in range(150):
            topo = make_topology(rng)
            report = run(topo, make_config(rng))
            for busy in report.link_busy_ns.values():
                assert 0 <= busy <= report.elapsed_ns

    def test_cut_through_never_slower_than_store_and_forward(self):
        rng = Random(13)
        from acqsim.topology import CUT_THROUGH, STORE_AND_FORWARD, Topology

        for _ in range(100):
            topo = make_topology(rng, generous_capacity=True)
            def with_forwarding(t, mode):
                stages = tuple(
                    BufferStage(s.capacity_bytes, mode, fixed_latency_ns=s.fixed_latency_ns)
                    if isinstance(s, BufferStage)
                    else s
                    for s in t.stages
                )
                return Topology(t.name, stages, t.camera, t.deadlines)

            cfg = SimConfig(seed=97, n_frames=4)
            ct = run(with_forwarding(topo, CUT_THROUGH), cfg)
            sf = run(with_forwarding(topo, STORE_AND_FORWARD), cfg)
            for latency_ct, latency_sf in zip(ct.frames.latency_ns(), sf.frames.latency_ns()):
                if latency_ct is not None and latency_sf is not None:
                    assert latency_ct <= latency_sf

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_forwarding_of_a_sensor_fed_buffer_changes_nothing(self, rng):
        # The sensor hands each frame on whole once read out, so the camera buffer (stage 1) never holds part of
        # a frame and its forwarding mode changes no time, drop or occupancy: forwarding acts only on a buffer fed
        # by a link.
        topo, cfg = make_topology(rng), make_config(rng)
        sensor, buffer, *rest = topo.stages
        other = STORE_AND_FORWARD if buffer.forwarding == CUT_THROUGH else CUT_THROUGH
        flipped = dataclasses.replace(topo, stages=(sensor, dataclasses.replace(buffer, forwarding=other), *rest))
        a, b = run(topo, cfg), run(flipped, cfg)
        for part in ("frames", "occupancy", "link_busy_ns", "aggregates"):
            assert getattr(a, part) == getattr(b, part), part
        assert export_tabular(a) == export_tabular(b)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_seed_invariance_without_draws(self, rng):
        # Metamorphic relation: the seed only feeds the clock jitter and the
        # processing draws, so with zero jitter and fixed processing two seeds
        # give one run.  The chain and the config are otherwise generated.
        topo = make_topology(rng)
        proc = dataclasses.replace(topo.stages[-1], processing=FixedProcessing(rng.randint(0, 50_000)))
        topo = dataclasses.replace(topo, stages=(*topo.stages[:-1], proc))
        cfg = make_config(rng)
        cfg = dataclasses.replace(cfg, clock=dataclasses.replace(cfg.clock, jitter_sigma_ns=0.0))
        a, b = run(topo, cfg), run(topo, dataclasses.replace(cfg, seed=cfg.seed + 1))
        for part in ("frames", "occupancy", "link_busy_ns", "aggregates"):
            assert getattr(a, part) == getattr(b, part), part
        assert export_tabular(a) == export_tabular(b)

    def test_compare_self_is_zero(self):
        rng = Random(14)
        for _ in range(25):
            topo = make_topology(rng)
            report = run(topo, make_config(rng))
            table = compare(report, report)
            assert all(cells["delta"] == 0 for cells in table.values())

    def test_tie_breaking_is_fifo_stable(self):
        # Same-instant events (duplicate timestamps at period 1 ns) must
        # resolve identically across runs.
        camera = CameraSpec(1_000, 8, 2e9)  # sub-ns period clamps to 1 ns
        topo = build_direct(camera, PCIeLink(5, 16))
        cfg = SimConfig(seed=3, n_frames=50)
        assert export_structured(run(topo, cfg)) == export_structured(run(topo, cfg))


class TestArchitectureProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_classic_is_direct_plus_the_hop(self, rng):
        # The paper's claim on generated chains: the classic chain is the direct one plus a camera-interface link
        # and a frame grabber.  With buffers no frame overflows, every frame is delivered in both chains, in
        # order, so both draw the same processing times, and the hop never makes a frame faster.
        camera, ci, pcie = make_camera(rng), make_link(rng), make_link(rng)
        grabber_latency = rng.randint(0, 1_000)
        chain = dict(
            camera_buffer_capacity_bytes=64 * 1024 * 1024,
            sensor_latency_ns=rng.randint(0, 1_000),
            host_latency_ns=rng.randint(0, 1_000),
            processing=make_processing(rng),
            processor_latency_ns=rng.randint(0, 1_000),
        )
        classic = build_classic(camera, ci, pcie, 64 * 1024 * 1024, grabber_latency_ns=grabber_latency, **chain)
        cfg = SimConfig(seed=rng.getrandbits(32), n_frames=rng.randint(1, 30))
        direct, classic = run(build_direct(camera, pcie, **chain), cfg).frames, run(classic, cfg).frames
        for d, c in zip(direct.latency_ns(), classic.latency_ns(), strict=True):
            assert d is not None and c is not None
            assert c >= d
        # Where every frame starts across the camera-interface link as it reaches the camera buffer, the grabber
        # sees the direct chain's arrivals shifted by the hop, and so does every stage after it.
        ser = serialization_time_ns(camera.frame_size_bytes, ci)
        if all(out == into + ser for into, out in zip(classic.ingress_ns[1], classic.egress_ns[1])):
            event("no frame waits at the camera-interface link")
            hop = ser + propagation_delay_ns(ci) + grabber_latency
            assert classic.latency_ns() == [latency + hop for latency in direct.latency_ns()]
