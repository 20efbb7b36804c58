"""Engine behavior: transmission times, forwarding modes, drops, traces."""

import gc
import math
from fractions import Fraction

import pytest

from acqsim import (
    BufferStage,
    CameraSpec,
    CameraLinkIf,
    CLHSIf,
    CoaXPressIf,
    DeadlineSpec,
    FixedProcessing,
    FrameGrabber,
    HostMemory,
    InvalidSpecError,
    InvalidTopologyError,
    LinkStage,
    NormalProcessing,
    PCIeLink,
    Processor,
    Sensor,
    SimConfig,
    Topology,
    build_classic,
    build_direct,
    export_structured,
    export_tabular,
    import_structured,
    run,
)
from acqsim.linkmodel import propagation_delay_ns
from acqsim.simcore import DROP_NEWEST, DROP_OLDEST, REASON_BACKPRESSURE, REASON_OVERFLOW, serialization_time_ns
from acqsim.topology import CUT_THROUGH, STORE_AND_FORWARD

CAM_1MPX = CameraSpec(1_000_000, 8, 1000)
CL_FULL = CameraLinkIf(config="full")
G3X1 = PCIeLink(3, 1)
RELAXED = DeadlineSpec(safety_ns=10**9, control_ns=10**10, timestamp_rms_ns=50.0)
MIB = 1024 * 1024


def overflow_topology(drop_newest=True):
    """8 Gb/s producer into a 1 MiB store-and-forward buffer drained at 4 Gb/s.

    32768 B frames at exactly one frame per 32768 ns saturate the
    gen1 x4 feed (8.0 Gb/s); the grabber drains over gen1 x2 (4.0 Gb/s).
    """
    camera = CameraSpec(32_768, 8, 1e9 / 32_768)
    return build_classic(
        camera,
        PCIeLink(1, 4),
        PCIeLink(1, 2),
        MIB,
        deadlines=RELAXED,
        name="overflow",
    )


class TestTransmissionTime:
    def test_gen3_x1_one_megabyte(self):
        # 8e6 bits at 8 GT/s x 128/130 = 8e6 x 130 / 1024e3 ns = 1015625.0
        assert serialization_time_ns(1_000_000, G3X1) == 1_015_625

    def test_camera_link_full_one_megabyte(self):
        # 8e6 / 7.14 = 1120448.179... -> ceil
        assert serialization_time_ns(1_000_000, CL_FULL) == 1_120_449

    def test_propagation_300m(self):
        assert propagation_delay_ns(G3X1) == 0
        assert propagation_delay_ns(PCIeLink(3, 1, cable_length_m=300.0)) == 1_500

    def test_gen1_x1(self):
        # 2.0 Gb/s exactly: 8e6 / 2 = 4e6 ns
        assert serialization_time_ns(1_000_000, PCIeLink(1, 1)) == 4_000_000

    def test_rejects_non_positive_size(self):
        with pytest.raises(InvalidSpecError):
            serialization_time_ns(0, G3X1)


class TestCanonicalScenarios:
    def test_direct_single_frame(self):
        topo = build_direct(CAM_1MPX, G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 1_015_625
        assert report.aggregates.delivered == 1

    def test_classic_single_frame(self):
        topo = build_classic(CAM_1MPX, CL_FULL, G3X1, 64 * MIB, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        # Store-and-forward grabber: camera-interface hop plus host-bus hop.
        assert report.frames.latency_ns()[0] == 1_120_449 + 1_015_625 == 2_136_074

    def test_direct_faster_by_one_ci_transmission(self):
        direct = build_direct(CAM_1MPX, G3X1, deadlines=RELAXED)
        classic = build_classic(CAM_1MPX, CL_FULL, G3X1, 64 * MIB, deadlines=RELAXED)
        cfg = SimConfig(seed=1, n_frames=1)
        delta = run(direct, cfg).frames.latency_ns()[0] - run(classic, cfg).frames.latency_ns()[0]
        assert delta == -1_120_449

    def test_empty_run(self):
        topo = build_direct(CAM_1MPX, G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=0))
        assert report.aggregates.empty
        assert report.aggregates.generated == 0
        assert report.aggregates.throughput_gbps == 0.0
        assert report.elapsed_ns == 0


class TestForwardingSemantics:
    def two_hop(self, forwarding):
        link = PCIeLink(1, 1)  # 2.0 Gb/s: 1e6 B frame -> 4e6 ns per hop
        stages = (
            Sensor(),
            BufferStage(64 * MIB, forwarding=STORE_AND_FORWARD),
            LinkStage(link),
            BufferStage(64 * MIB, forwarding=forwarding),
            LinkStage(link),
            HostMemory(),
            Processor(),
        )
        return Topology("two-hop", stages, CAM_1MPX, RELAXED)

    def test_store_and_forward_doubles_transit(self):
        report = run(self.two_hop(STORE_AND_FORWARD), SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 8_000_000

    def test_cut_through_equal_rates_adds_nothing(self):
        report = run(self.two_hop(CUT_THROUGH), SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 4_000_000

    @staticmethod
    def cut_through_into(out_link):
        return (
            Sensor(),
            BufferStage(64 * MIB, forwarding=STORE_AND_FORWARD),
            LinkStage(PCIeLink(1, 4)),
            BufferStage(64 * MIB, forwarding=CUT_THROUGH),
            LinkStage(out_link),
            HostMemory(),
            Processor(),
        )

    @staticmethod
    def residue(out_rate: Fraction) -> int:
        """Bytes the cut-through buffer holds of one 1e6 B frame.

        The frame arrives over gen 1 x4 (8 bits/ns) from t = 0 until
        ceil(8e6 / 8) ns; the outgoing link drains it from t = 0, so only
        the bytes it has not yet moved stay in the buffer.
        """
        size = CAM_1MPX.frame_size_bytes
        full_arrival = math.ceil(Fraction(8 * size) / 8)
        return size - math.floor(out_rate * full_arrival / 8)

    def test_cut_through_slower_downstream(self):
        # 8 Gb/s in, 4 Gb/s out: egress limited by the slow side only.
        stages = self.cut_through_into(PCIeLink(1, 2))
        topo = Topology("mismatch", stages, CAM_1MPX, RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 2_000_000
        sf_stages = stages[:3] + (BufferStage(64 * MIB, forwarding=STORE_AND_FORWARD),) + stages[4:]
        sf_report = run(Topology("mismatch-sf", sf_stages, CAM_1MPX, RELAXED), SimConfig(seed=1, n_frames=1))
        assert sf_report.frames.latency_ns()[0] == 3_000_000

        # gen 1 x2 = 2 lanes x 2.5 GT/s x 8/10 = 4 bits/ns.
        assert self.residue(Fraction(4)) == 500_000
        assert report.frames.buffer_bytes[3][0] == 500_000
        assert report.aggregates.high_water_bytes[3] == 500_000

        # gen 3 x1 = 8 GT/s x 128/130: a non-integer rate, so the floor on
        # drained bytes shows in the residue.
        assert self.residue(8 * Fraction(128, 130)) == 15_385
        g3_topo = Topology("mismatch-g3", self.cut_through_into(PCIeLink(3, 1)), CAM_1MPX, RELAXED)
        g3_report = run(g3_topo, SimConfig(seed=1, n_frames=1))
        assert g3_report.frames.buffer_bytes[3][0] == 15_385
        assert g3_report.aggregates.high_water_bytes[3] == 15_385

    def test_cut_through_latency_parameter(self):
        stages = (
            Sensor(),
            BufferStage(64 * MIB, forwarding=STORE_AND_FORWARD),
            LinkStage(PCIeLink(1, 1)),
            BufferStage(64 * MIB, forwarding=CUT_THROUGH, fixed_latency_ns=250),
            LinkStage(PCIeLink(1, 1)),
            HostMemory(),
            Processor(),
        )
        topo = Topology("ct-latency", stages, CAM_1MPX, RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 4_000_250


class TestOverflow:
    def test_first_drop_time(self):
        frames = run(overflow_topology(), SimConfig(seed=7, n_frames=80)).frames
        dropped = [k for k, d in enumerate(frames.disposition) if d == "dropped"]
        assert dropped, "expected overflow drops"
        first = dropped[0]
        # Net fill is 4 Gb/s into 8,388,608 bits of headroom.
        assert frames.drop_time_ns[first] == 2_097_152
        assert frames.frame_id[first] == 63
        assert frames.drop_reason[first] == REASON_OVERFLOW
        assert frames.drop_stage[first] == 3

    def test_peak_equals_capacity_at_first_drop(self):
        report = run(overflow_topology(), SimConfig(seed=7, n_frames=80))
        assert report.aggregates.high_water_bytes[3] == MIB
        trace = report.occupancy[3]
        at_drop = [b for t, b in trace if t <= 2_097_152]
        assert max(at_drop) == MIB

    def test_conservation_under_drops(self):
        report = run(overflow_topology(), SimConfig(seed=7, n_frames=80))
        a = report.aggregates
        assert a.generated == 80
        assert a.delivered + a.dropped + a.in_flight == 80
        assert a.dropped > 0

    def test_drop_oldest_evicts_queued(self):
        report = run(overflow_topology(), SimConfig(seed=7, n_frames=80, drop_policy=DROP_OLDEST))
        frames = report.frames
        dropped = [k for k, d in enumerate(frames.disposition) if d == "dropped"]
        assert dropped
        first = dropped[0]
        assert frames.drop_reason[first] == REASON_BACKPRESSURE
        assert frames.drop_time_ns[first] == 2_097_152
        # The evicted frame is older than the arrival that displaced it.
        assert frames.frame_id[first] < 63
        a = report.aggregates
        assert a.delivered + a.dropped + a.in_flight == a.generated

    @pytest.mark.parametrize("policy", [DROP_NEWEST, DROP_OLDEST])
    def test_holder_before_a_memory_drops_the_arrival(self, policy):
        # Only a holder before a link queues frames to evict: a full grabber
        # that feeds host memory drops the arriving frame under either policy.
        grabber = FrameGrabber(65_536, fixed_latency_ns=400_000)
        stages = (Sensor(), LinkStage(PCIeLink(1, 1)), grabber, HostMemory(), Processor())
        topo = Topology("grabber-to-memory", stages, CameraSpec(32_768, 8, 30517.578125), RELAXED)
        frames = run(topo, SimConfig(seed=1, n_frames=12, drop_policy=policy)).frames
        dropped = [f for f, d in enumerate(frames.disposition) if d == "dropped"]
        assert dropped == [2, 3, 6, 7, 10, 11]
        assert {(frames.drop_stage[f], frames.drop_reason[f]) for f in dropped} == {(2, REASON_OVERFLOW)}

    def test_buffer_smaller_than_frame_rejected(self):
        # A grabber that cannot hold one frame would drop every frame; the run is refused instead.
        camera = CameraSpec(32_768, 8, 1e9 / 32_768)
        topo = build_classic(
            camera, PCIeLink(1, 4), PCIeLink(1, 2), 1_000, deadlines=RELAXED
        )
        with pytest.raises(InvalidTopologyError, match=r"buffer holds a whole frame \(stage 3\)"):
            run(topo, SimConfig(seed=7, n_frames=5))


class TestStopConditions:
    def test_duration_leaves_frames_in_flight(self):
        topo = build_direct(CAM_1MPX, PCIeLink(1, 1), deadlines=RELAXED)  # 4 ms per frame
        report = run(topo, SimConfig(seed=1, duration_ns=1_000_000))
        a = report.aggregates
        assert report.elapsed_ns == 1_000_000
        assert a.in_flight >= 1
        assert a.delivered + a.dropped + a.in_flight == a.generated

    def test_zero_fps_with_frame_count_rejected(self):
        topo = build_direct(CameraSpec(1_000_000, 8, 0), G3X1, deadlines=RELAXED)
        with pytest.raises(InvalidSpecError, match="^cannot generate frames from a zero frame-rate camera$"):
            run(topo, SimConfig(seed=1, n_frames=1))

    def test_period_overflow_rejected(self):
        topo = build_direct(CameraSpec(1_000_000, 8, 1e-320), G3X1, deadlines=RELAXED)
        with pytest.raises(InvalidSpecError, match="^frame_rate 1e-320 gives a frame period too long to count in ns$"):
            run(topo, SimConfig(seed=1, duration_ns=1000))

    def test_zero_fps_duration_is_empty(self):
        topo = build_direct(CameraSpec(1_000_000, 8, 0), G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, duration_ns=1000))
        assert report.aggregates.generated == 0

    def test_config_validation(self):
        with pytest.raises(InvalidSpecError):
            SimConfig(seed=1)
        with pytest.raises(InvalidSpecError):
            SimConfig(seed=1, n_frames=5, duration_ns=100)
        with pytest.raises(InvalidSpecError):
            SimConfig(seed=1, n_frames=1, drop_policy="drop_random")

    def test_invalid_topology_rejected(self):
        bad = Topology("bad", (Sensor(), BufferStage(1024), LinkStage(G3X1), HostMemory()), CAM_1MPX)
        with pytest.raises(InvalidTopologyError):
            run(bad, SimConfig(seed=1, n_frames=1))

    @pytest.mark.parametrize(
        "topo, cfg, message",
        [
            (build_direct(CAM_1MPX, PCIeLink(3.0, 1)), None, "PCIeLink 'generation' must be an integer, got 3.0"),
            (build_direct(CAM_1MPX, PCIeLink(True, 4)), None, "PCIeLink 'generation' must be an integer, got True"),
            (build_classic(CAM_1MPX, CLHSIf(lanes=2.0), G3X1), None, "CLHSIf 'lanes' must be an integer, got 2.0"),
            (build_classic(CAM_1MPX, CoaXPressIf(links=2.0), G3X1), None, "CoaXPressIf 'links' must be an integer, got 2.0"),
            (
                build_direct(CAM_1MPX, G3X1, camera_buffer_capacity_bytes=2e6),
                None,
                "BufferStage 'capacity_bytes' must be an integer, got 2000000.0",
            ),
            (
                build_direct(CameraSpec(1e6, 8, 1000), G3X1),
                None,
                "CameraSpec 'resolution_pixels' must be an integer, got 1000000.0",
            ),
            (
                build_direct(CAM_1MPX, G3X1, processing=FixedProcessing(5.0)),
                None,
                "FixedProcessing 'fixed_ns' must be an integer, got 5.0",
            ),
            (build_direct(CAM_1MPX, G3X1), SimConfig(seed=1.5, n_frames=2), "SimConfig 'seed' must be an integer, got 1.5"),
        ],
        ids=["float-generation", "bool-generation", "float-clhs-lanes", "float-cxp-links", "float-capacity",
             "float-pixels", "float-processing", "float-seed"],
    )
    def test_field_the_report_reader_rejects(self, topo, cfg, message):
        # Built in the library, so no scenario decoder checked the types; the report would not read back.
        with pytest.raises(InvalidSpecError) as exc:
            run(topo, cfg or SimConfig(seed=1, n_frames=2))
        assert str(exc.value) == message


class TestFixedLatencies:
    def base_latency(self, **kwargs):
        topo = build_direct(CAM_1MPX, G3X1, deadlines=RELAXED, **kwargs)
        return run(topo, SimConfig(seed=1, n_frames=1)).frames.latency_ns()[0]

    def test_sensor_latency_shifts_but_cancels(self):
        # Latency is measured from sensor egress, so readout skew drops out.
        assert self.base_latency(sensor_latency_ns=5_000) == 1_015_625

    def test_host_latency_adds(self):
        assert self.base_latency(host_latency_ns=123) == 1_015_625 + 123

    def test_processor_terms_add(self):
        assert (
            self.base_latency(processor_latency_ns=7, processing=FixedProcessing(50))
            == 1_015_625 + 57
        )

    def test_grabber_latency_adds_in_classic(self):
        topo = build_classic(
            CAM_1MPX, CL_FULL, G3X1, 64 * MIB, grabber_latency_ns=11, deadlines=RELAXED
        )
        report = run(topo, SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 2_136_074 + 11

    def test_cable_propagation_adds(self):
        topo = build_direct(CAM_1MPX, PCIeLink(3, 1, cable_length_m=300.0), deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        assert report.frames.latency_ns()[0] == 1_015_625 + 1_500


class TestRecordsAndTraces:
    def test_record_times_monotone(self):
        topo = build_classic(CAM_1MPX, CL_FULL, G3X1, 64 * MIB, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=3))
        frames = report.frames
        for spans in zip(*map(zip, frames.ingress_ns, frames.egress_ns)):  # one frame's (ingress, egress) per stage
            previous_egress = None
            for ingress, egress in spans:
                assert ingress is not None and egress is not None
                assert ingress <= egress
                if previous_egress is not None:
                    assert previous_egress <= ingress
                previous_egress = egress

    def test_single_frame_trace_peaks_at_frame_size(self):
        topo = build_direct(CAM_1MPX, G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        trace = report.occupancy[1]  # camera buffer
        assert max(b for _, b in trace) == 1_000_000
        assert trace[-1][1] == 0

    def test_trace_errors_and_empties(self):
        topo = build_direct(CAM_1MPX, G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=1))
        assert sorted(report.occupancy) == [0, 1, 3]  # links and the processor do not buffer
        empty = run(topo, SimConfig(seed=1, n_frames=0))
        assert empty.occupancy == {0: [], 1: [], 3: []}

    def test_sensor_feeding_link_directly(self):
        # No camera buffer: the sensor's staging register drives the wire,
        # but its recorded egress stays at readout completion so latency
        # still covers the transmission.
        topo = Topology(
            "minimal", (Sensor(), LinkStage(G3X1), Processor()), CAM_1MPX, RELAXED
        )
        report = run(topo, SimConfig(seed=1, n_frames=2))
        first, second = report.frames.latency_ns()
        assert first == 1_015_625
        # 1 ms frame period against a 1.0156 ms transmission queues 15625 ns.
        assert second == 1_015_625 + 15_625
        assert report.frames.egress_ns[0][0] == 0

    def test_sensor_period_rounding(self):
        camera = CameraSpec(10_000, 8, 3000.0)  # period 333333.33 -> 333333
        topo = build_direct(camera, G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=3))
        times = report.frames.generated_at_ns
        assert times == [0, 333_333, 666_666]

    def test_sub_ns_period_floors_at_one_ns(self):
        camera = CameraSpec(10_000, 8, 4e9)  # period 0.25 ns rounds to 0, and the clock ticks in whole ns
        topo = build_direct(camera, G3X1, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=3))
        assert report.frames.generated_at_ns == [0, 1, 2]

    def test_equal_time_ties_follow_push_order(self):
        # The camera-interface transmission lasts exactly one frame period,
        # so frame 0 leaves the camera buffer at the instant frame 1 arrives.
        # Frame 1's generation event was queued before frame 0's transmission
        # end, so the buffer admits frame 1 before it releases frame 0.
        size = 32_768
        topo = overflow_topology()
        period = round(1e9 / topo.camera.frame_rate)
        assert serialization_time_ns(size, PCIeLink(1, 4)) == period
        report = run(topo, SimConfig(seed=1, n_frames=8, drop_policy=DROP_OLDEST))
        trace = report.occupancy[1]
        assert trace[:3] == [(0, size), (period, 2 * size), (period, size)]
        assert report.aggregates.high_water_bytes[1] == 2 * size

    def test_link_busy_accounting(self):
        topo = build_classic(CAM_1MPX, CL_FULL, G3X1, 64 * MIB, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=1, n_frames=4))
        for busy in report.link_busy_ns.values():
            assert 0 < busy <= report.elapsed_ns


class TestReferenceCycles:
    """A run and its reports hold no reference cycles.

    ``acqsim.cli.main`` pauses the cyclic collector while a command runs,
    so anything a run left in a cycle would stay alive until the command
    ends, e.g. every earlier pipeline of a multi-camera scenario.
    """

    def assert_acyclic(self, topo, cfg):
        gc.collect()
        gc.disable()
        try:
            report = run(topo, cfg)
            structured = export_structured(report)
            tabular = export_tabular(report)
            back = import_structured(structured)
            in_flight = report.aggregates.in_flight
            del report, structured, tabular, back
            assert gc.collect() == 0
        finally:
            gc.enable()
        return in_flight

    def test_frame_count_run(self):
        topo = build_classic(CAM_1MPX, CL_FULL, PCIeLink(3, 4), 64 * MIB, deadlines=RELAXED)
        self.assert_acyclic(topo, SimConfig(seed=1, n_frames=200))

    def test_duration_cutoff_with_frames_in_flight(self):
        # The overload-oldest benchmark shape: 32 KiB frames into a
        # half-rate link, cut off by duration with events still queued.
        camera = CameraSpec(32_768, 8, 30517.578125)
        topo = build_classic(
            camera,
            PCIeLink(1, 4),
            PCIeLink(1, 2),
            MIB,
            processing=NormalProcessing(20_000.0, 2_000.0),
            deadlines=RELAXED,
        )
        cfg = SimConfig(seed=1, duration_ns=300 * 32_768 - 1, drop_policy=DROP_OLDEST)
        assert self.assert_acyclic(topo, cfg) > 0
