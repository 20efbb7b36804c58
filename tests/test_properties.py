"""Invariant checks over randomized inputs (hypothesis + seeded loops)."""

import warnings
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acqsim import (
    CameraSpec,
    ClockModel,
    EnvelopeWarning,
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
    feasible,
    min_lanes,
    run,
    sample_timestamp,
    timestamp_rms,
    validate,
)
from acqsim.linkmodel import NoFeasibleWidthError
from acqsim.topology import BufferStage, FrameGrabber, Topology, from_dict, to_dict
from conftest import make_camera, make_config, make_link, make_topology

pytestmark = pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")

generations = st.integers(min_value=1, max_value=5)
lane_widths = st.sampled_from([1, 2, 4, 8, 16])
efficiencies = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def quiet_camera(px, depth, fps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EnvelopeWarning)
        return CameraSpec(px, depth, fps)


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
        base = camera_stream_rate(quiet_camera(px, depth, fps))
        assert camera_stream_rate(quiet_camera(px * k, depth, fps)) == pytest.approx(k * base, rel=1e-12)
        if depth * k <= 64:
            assert camera_stream_rate(quiet_camera(px, depth * k, fps)) == pytest.approx(
                k * base, rel=1e-12
            )
        assert camera_stream_rate(quiet_camera(px, depth, fps * k)) == pytest.approx(k * base, rel=1e-12)

    @given(
        st.integers(min_value=1_000, max_value=8_000_000),
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
        generations,
        lane_widths,
    )
    def test_feasible_agrees_with_rate_sign(self, px, fps, gen, lanes):
        camera = quiet_camera(px, 8, fps)
        link = PCIeLink(gen, lanes)
        verdict = feasible(camera, link)
        diff = effective_link_rate(link) - camera_stream_rate(camera)
        assert verdict.feasible == (diff >= 0)
        assert verdict.margin_gbps == diff

    @given(
        st.integers(min_value=1_000, max_value=4_000_000),
        st.floats(min_value=1.0, max_value=20_000.0, allow_nan=False),
    )
    def test_min_lanes_non_increasing_in_generation(self, px, fps):
        camera = quiet_camera(px, 8, fps)
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
        assert validate(make_topology(rng)) == []

    @settings(max_examples=100)
    @given(st.randoms(use_true_random=False))
    def test_serialization_round_trip(self, rng):
        topo = make_topology(rng)
        assert from_dict(Topology, to_dict(topo)) == topo


class TestTimingProperties:
    @given(st.integers(min_value=0, max_value=10**15))
    def test_zero_clock_identity(self, t):
        assert sample_timestamp(ClockModel(), t, Random(0)) == t

    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=50))
    def test_rms_sign_flip_and_scale(self, errors):
        from types import SimpleNamespace

        def records(errs):
            return [SimpleNamespace(generated_at_ns=0, camera_timestamp_ns=e) for e in errs]

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
                    BufferStage(s.capacity_bytes, mode, s.fixed_latency_ns)
                    if isinstance(s, BufferStage)
                    else s
                    for s in t.stages
                )
                return Topology(t.name, stages, t.camera, t.deadlines)

            cfg = SimConfig(seed=97, n_frames=4)
            ct = run(with_forwarding(topo, CUT_THROUGH), cfg)
            sf = run(with_forwarding(topo, STORE_AND_FORWARD), cfg)
            for rec_ct, rec_sf in zip(ct.frames, sf.frames):
                if rec_ct.latency_ns is not None and rec_sf.latency_ns is not None:
                    assert rec_ct.latency_ns <= rec_sf.latency_ns

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
        camera = quiet_camera(1_000, 8, 2e9)  # sub-ns period clamps to 1 ns
        topo = build_direct(camera, PCIeLink(5, 16))
        cfg = SimConfig(seed=3, n_frames=50)
        assert export_structured(run(topo, cfg)) == export_structured(run(topo, cfg))
