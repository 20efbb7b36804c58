"""Pipeline construction, validation rules, copy counting, serialization."""

import json
from random import Random

import pytest

from acqsim import (
    Aggregates,
    BufferStage,
    CameraSpec,
    CameraLinkIf,
    CLHSIf,
    ClockModel,
    CoaXPressIf,
    DeadlineSpec,
    DeadlineViolation,
    FrameGrabber,
    GigEVisionIf,
    HostMemory,
    InvalidSpecError,
    LinkStage,
    OverheadModel,
    PCIeLink,
    ProcessingModel,
    Processor,
    Sensor,
    SimConfig,
    SimReport,
    Topology,
    USB3If,
    build_classic,
    build_direct,
    copy_count,
    export_structured,
    import_structured,
    run,
    topology_digest,
    validate,
)
from acqsim.linkmodel import LINK_KINDS
from acqsim.topology import (
    CUT_THROUGH,
    JSON_FORMS,
    STAGE_KINDS,
    STORE_AND_FORWARD,
    from_dict,
    to_dict,
)

CAM = CameraSpec(1_000_000, 8, 1000)
CL = CameraLinkIf(config="full")
G3X4 = PCIeLink(3, 4)


class TestBuilders:
    def test_classic_shape(self):
        t = build_classic(CAM, CL, G3X4, 64 * 1024 * 1024)
        kinds = [s.kind for s in t.stages]
        assert kinds == ["sensor", "buffer", "link", "frame_grabber", "link", "host_memory", "processor"]
        assert validate(t) == []
        assert copy_count(t) == 3
        assert t.stages[2].link == CL
        assert t.stages[4].link == G3X4

    def test_direct_shape(self):
        t = build_direct(CAM, G3X4)
        kinds = [s.kind for s in t.stages]
        assert kinds == ["sensor", "buffer", "link", "host_memory", "processor"]
        assert validate(t) == []
        assert copy_count(t) == 2
        assert not any(isinstance(s, FrameGrabber) for s in t.stages)

    def test_classic_has_exactly_one_grabber(self):
        t = build_classic(CAM, CL, G3X4, 1024)
        assert sum(1 for s in t.stages if isinstance(s, FrameGrabber)) == 1

    def test_zero_grabber_capacity_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_classic(CAM, CL, G3X4, 0)

    def test_camera_buffer_defaults(self):
        classic = build_classic(CAM, CL, G3X4, 1024)
        direct = build_direct(CAM, G3X4)
        assert classic.stages[1].forwarding == STORE_AND_FORWARD
        assert direct.stages[1].forwarding == CUT_THROUGH

    def test_copy_relation(self):
        rng = Random(7)
        for _ in range(50):
            px = rng.randint(1, 10_000_000)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                camera = CameraSpec(px, rng.randint(1, 64), rng.uniform(0, 60_000))
            cap = rng.randint(1, 2**30)
            classic = build_classic(camera, CL, G3X4, cap)
            direct = build_direct(camera, G3X4)
            assert copy_count(classic) == copy_count(direct) + 1


class TestValidate:
    def test_constructed_chains_pass(self):
        assert validate(build_classic(CAM, CL, G3X4, 1024)) == []
        assert validate(build_direct(CAM, G3X4)) == []

    def test_missing_sensor_head(self):
        t = Topology("bad", (BufferStage(1024), LinkStage(G3X4), Processor()), CAM)
        rules = [v.rule for v in validate(t)]
        assert "first stage is Sensor" in rules
        first = [v for v in validate(t) if v.rule == "first stage is Sensor"][0]
        assert first.stage_index == 0

    def test_two_processors(self):
        t = Topology(
            "bad",
            (Sensor(), BufferStage(1024), LinkStage(G3X4), Processor(), Processor()),
            CAM,
        )
        violations = validate(t)
        assert any(v.rule == "Processor only at the tail" and v.stage_index == 3 for v in violations)

    def test_missing_link(self):
        t = Topology("bad", (Sensor(), BufferStage(1024), HostMemory(), Processor()), CAM)
        assert any(v.rule == "at least one LinkStage present" for v in validate(t))

    def test_link_needs_emitter(self):
        t = Topology(
            "bad",
            (Sensor(), BufferStage(1024), LinkStage(G3X4), HostMemory(), LinkStage(G3X4), Processor()),
            CAM,
        )
        bad = [v for v in validate(t) if v.rule == "LinkStage preceded by an emitting stage"]
        assert len(bad) == 1 and bad[0].stage_index == 4

    def test_sensor_mid_chain(self):
        t = Topology(
            "bad",
            (Sensor(), BufferStage(1024), LinkStage(G3X4), Sensor(), Processor()),
            CAM,
        )
        assert any(v.rule == "Sensor only at the head" and v.stage_index == 3 for v in validate(t))

    def test_missing_tail_processor(self):
        t = Topology("bad", (Sensor(), BufferStage(1024), LinkStage(G3X4), HostMemory()), CAM)
        assert any(v.rule == "last stage is Processor" for v in validate(t))

    def test_empty_chain(self):
        assert validate(Topology("bad", (), CAM))[0].rule == "chain is non-empty"


class TestStageSpecs:
    def test_buffer_validation(self):
        with pytest.raises(InvalidSpecError):
            BufferStage(0)
        with pytest.raises(InvalidSpecError):
            BufferStage(1024, forwarding="teleport")
        with pytest.raises(InvalidSpecError):
            BufferStage(1024, fixed_latency_ns=-1)

    def test_grabber_always_store_and_forward(self):
        assert FrameGrabber(1024).forwarding == STORE_AND_FORWARD

    def test_processing_model_validation(self):
        with pytest.raises(InvalidSpecError):
            ProcessingModel.fixed(-1)
        with pytest.raises(InvalidSpecError):
            ProcessingModel.uniform(10, 5)
        with pytest.raises(InvalidSpecError):
            ProcessingModel(distribution="pareto")

    def test_processing_draws(self):
        rng = Random(3)
        fixed = ProcessingModel.fixed(42)
        assert [fixed.draw(rng) for _ in range(3)] == [42, 42, 42]
        uni = ProcessingModel.uniform(10, 20)
        draws = [uni.draw(Random(5)) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        assert all(10 <= uni.draw(rng) <= 20 for _ in range(100))
        norm = ProcessingModel.normal(5.0, 50.0)
        assert all(norm.draw(rng) >= 0 for _ in range(200))


class TestSerialization:
    def test_round_trip_builders(self):
        for t in (
            build_classic(CAM, CL, G3X4, 4096, grabber_latency_ns=7, processing=ProcessingModel.fixed(5)),
            build_direct(CAM, PCIeLink(5, 16, cable_length_m=300.0), host_latency_ns=3),
        ):
            assert from_dict(Topology, to_dict(t)) == t

    def test_round_trip_custom(self):
        t = Topology(
            "custom",
            (
                Sensor(fixed_latency_ns=11),
                BufferStage(2048, forwarding=CUT_THROUGH, fixed_latency_ns=2),
                LinkStage(CameraLinkIf("medium", cable_length_m=4.5)),
                FrameGrabber(8192, fixed_latency_ns=1),
                LinkStage(PCIeLink(2, 8, protocol_efficiency=0.5)),
                HostMemory(fixed_latency_ns=9),
                Processor(processing=ProcessingModel.normal(10.0, 2.0), fixed_latency_ns=6),
            ),
            CAM,
        )
        assert from_dict(Topology, to_dict(t)) == t

    @staticmethod
    def codec_samples():
        """(class or kinds table, record) for every record class the codec handles."""
        topo = build_classic(
            CAM, CL, G3X4, 64 * 1024 * 1024, processing=ProcessingModel.uniform(10, 20),
            deadlines=DeadlineSpec(safety_ns=1_000, control_ns=2_000_000, timestamp_rms_ns=1.0),
        )
        config = SimConfig(seed=3, n_frames=3, clock=ClockModel(5.0, 1.5, 2.0))
        report = run(topo, config)
        assert report.aggregates.violations
        links = [
            PCIeLink(4, 8, cable_length_m=12.5, protocol_efficiency=0.9),
            CameraLinkIf(config="medium", cable_length_m=5.0),
            CoaXPressIf(speed_grade="cxp12", links=2),
            GigEVisionIf(rate_preset="10g"),
            CLHSIf(lanes=7),
            USB3If(cable_length_m=3.0),
        ]
        stages = [
            Sensor(fixed_latency_ns=11),
            BufferStage(2048, forwarding=CUT_THROUGH, fixed_latency_ns=2),
            LinkStage(CameraLinkIf("medium", cable_length_m=4.5)),
            FrameGrabber(8192, fixed_latency_ns=1),
            HostMemory(fixed_latency_ns=9),
            Processor(processing=ProcessingModel.normal(10.0, 2.0), fixed_latency_ns=6),
        ]
        return (
            [(LINK_KINDS, link) for link in links]
            + [(STAGE_KINDS, stage) for stage in stages]
            + [
                (ProcessingModel, ProcessingModel.fixed(5)),
                (ProcessingModel, ProcessingModel.uniform(1, 9)),
                (ProcessingModel, ProcessingModel.normal(3.5, 0.5)),
                (CameraSpec, CAM),
                (OverheadModel, OverheadModel(512, 20, 0.75)),
                (ClockModel, config.clock),
                (DeadlineSpec, topo.deadlines),
                (DeadlineViolation, report.aggregates.violations[0]),
                (SimConfig, config),
                (Aggregates, report.aggregates),
                (Topology, topo),
                (SimReport, report),
            ]
        )

    def test_codec_round_trips_every_record(self):
        samples = self.codec_samples()
        covered = {type(record) for _, record in samples}
        assert set(JSON_FORMS) | set(LINK_KINDS.values()) | set(STAGE_KINDS.values()) <= covered
        for cls_or_kinds, record in samples:
            doc = json.loads(json.dumps(to_dict(record)))
            assert from_dict(cls_or_kinds, doc) == record

    def test_codec_rejects_unknown_keys(self):
        for cls_or_kinds, record in self.codec_samples():
            doc = to_dict(record)
            doc["unexpected"] = 1
            with pytest.raises(InvalidSpecError, match="unexpected"):
                from_dict(cls_or_kinds, doc)

    def test_long_custom_chain_export_round_trips(self):
        mib = 1024 * 1024
        hops = []
        for _ in range(5):
            hops += [LinkStage(G3X4), FrameGrabber(64 * mib)]
        stages = (Sensor(), BufferStage(64 * mib), *hops, LinkStage(G3X4), HostMemory(), Processor())
        assert len(stages) == 15
        report = run(Topology("long", stages, CAM), SimConfig(seed=2, n_frames=3))
        text = export_structured(report)
        assert import_structured(text) == report
        assert export_structured(import_structured(text)) == text
        # Int-keyed maps are written with string keys, so they sort as strings.
        doc = json.loads(text)
        for keys in (
            list(doc["aggregates"]["high_water_bytes"]),
            list(doc["occupancy"]),
            list(doc["link_busy_ns"]),
        ):
            assert keys == sorted(keys)
            assert any(len(k) == 2 for k in keys)
        hw = list(doc["aggregates"]["high_water_bytes"])
        assert hw.index("11") < hw.index("3")

    def test_digest_stability_and_sensitivity(self):
        a = build_direct(CAM, G3X4)
        b = build_direct(CAM, G3X4)
        c = build_classic(CAM, CL, G3X4, 1024)
        assert topology_digest(a) == topology_digest(b)
        assert topology_digest(a) != topology_digest(c)
