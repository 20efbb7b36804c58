"""Pipeline construction, validation rules, copy counting, serialization, record semantics."""

import copy
import dataclasses
import importlib
import json
import pickle
import pkgutil
import re
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
    DeadlineMisses,
    DeadlineSpec,
    FixedProcessing,
    FrameTable,
    FrameGrabber,
    GigEVisionIf,
    HostMemory,
    InvalidSpecError,
    InvalidTopologyError,
    LinkStage,
    NormalProcessing,
    OverheadModel,
    PCIeLink,
    Processor,
    Scenario,
    Sensor,
    SimConfig,
    SimReport,
    Topology,
    UniformProcessing,
    USB3If,
    budget_table,
    build_classic,
    build_direct,
    check_deadlines,
    copy_count,
    export_structured,
    import_structured,
    parse_scenario,
    run,
    topology_digest,
)
from acqsim.linkmodel import LINK_KINDS, Link
from acqsim.simcore import DISPOSITION_DELIVERED, serialization_time_ns
from acqsim.topology import (
    CUT_THROUGH,
    JSON_FORMS,
    PROCESSING_KINDS,
    STAGE_KINDS,
    STORE_AND_FORWARD,
    Stage,
    check_runnable,
    from_dict,
    to_dict,
)
from conftest import base_doc

CAM = CameraSpec(1_000_000, 8, 1000)
CL = CameraLinkIf(config="full")
G3X4 = PCIeLink(3, 4)


class TestBuilders:
    def test_classic_shape(self):
        t = build_classic(CAM, CL, G3X4, 64 * 1024 * 1024)
        kinds = [s.kind for s in t.stages]
        assert kinds == ["sensor", "buffer", "link", "frame_grabber", "link", "host_memory", "processor"]
        assert check_runnable(t) is None
        assert copy_count(t) == 3
        assert t.stages[2].link == CL
        assert t.stages[4].link == G3X4

    def test_direct_shape(self):
        t = build_direct(CAM, G3X4)
        kinds = [s.kind for s in t.stages]
        assert kinds == ["sensor", "buffer", "link", "host_memory", "processor"]
        assert check_runnable(t) is None
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
            camera = CameraSpec(px, rng.randint(1, 64), rng.uniform(0, 60_000))
            cap = rng.randint(1, 2**30)
            classic = build_classic(camera, CL, G3X4, cap)
            direct = build_direct(camera, G3X4)
            assert copy_count(classic) == copy_count(direct) + 1


def assert_not_runnable(t, *rules):
    """check_runnable rejects t naming exactly these rules, in order."""
    with pytest.raises(InvalidTopologyError) as exc:
        check_runnable(t)
    assert str(exc.value) == "topology is not runnable: " + "; ".join(rules)


class TestValidate:
    def test_constructed_chains_pass(self):
        assert check_runnable(build_classic(CAM, CL, G3X4, CAM.frame_size_bytes)) is None
        assert check_runnable(build_direct(CAM, G3X4)) is None

    @pytest.mark.parametrize(
        "stages, index",
        [
            # Reached over no link: a camera buffer holds whole frames in either mode.
            ((BufferStage(1024, forwarding="cut_through"), LinkStage(G3X4)), 1),
            ((BufferStage(1024), LinkStage(G3X4)), 1),
            # A frame grabber, and a store-and-forward buffer past a link.
            ((BufferStage(10**6), LinkStage(CL), FrameGrabber(1024), LinkStage(G3X4)), 3),
            ((BufferStage(10**6), LinkStage(CL), BufferStage(1024), LinkStage(G3X4)), 3),
        ],
        ids=["cut-through-camera-buffer", "camera-buffer", "frame-grabber", "store-and-forward-past-link"],
    )
    def test_buffer_smaller_than_frame(self, stages, index):
        t = Topology("small", (Sensor(), *stages, HostMemory(), Processor()), CAM)
        assert_not_runnable(t, f"buffer holds a whole frame (stage {index})")
        with pytest.raises(InvalidTopologyError, match=rf"^topology is not runnable: buffer holds a whole frame \(stage {index}\)$"):
            run(t, SimConfig(seed=1, n_frames=1))

    def test_cut_through_buffer_past_link_holds_a_residue(self):
        stages = (BufferStage(10**6), LinkStage(CL), BufferStage(1024, forwarding="cut_through"), LinkStage(G3X4))
        assert check_runnable(Topology("residue", (Sensor(), *stages, HostMemory(), Processor()), CAM)) is None

    def test_missing_sensor_head(self):
        t = Topology("bad", (BufferStage(1024), LinkStage(G3X4), HostMemory(), Processor()), CAM)
        assert_not_runnable(t, "first stage is Sensor (stage 0)", "buffer holds a whole frame (stage 0)")

    def test_two_processors(self):
        t = Topology(
            "bad",
            (Sensor(), BufferStage(1024), LinkStage(G3X4), HostMemory(), Processor(), Processor()),
            CAM,
        )
        assert_not_runnable(t, "buffer holds a whole frame (stage 1)", "Processor only at the tail (stage 4)")

    def test_missing_link(self):
        t = Topology("bad", (Sensor(), BufferStage(1024), HostMemory(), Processor()), CAM)
        assert_not_runnable(t, "at least one LinkStage present", "buffer holds a whole frame (stage 1)")

    def test_link_needs_emitter(self):
        t = Topology(
            "bad",
            (Sensor(), BufferStage(1024), LinkStage(G3X4), HostMemory(), LinkStage(G3X4), HostMemory(), Processor()),
            CAM,
        )
        assert_not_runnable(t, "buffer holds a whole frame (stage 1)", "LinkStage preceded by an emitting stage (stage 4)")

    @pytest.mark.parametrize(
        "stages, rule",
        [
            ((Sensor(), LinkStage(G3X4), HostMemory(), Processor()),
             "LinkStage preceded by an emitting stage (stage 1)"),
            ((Sensor(), BufferStage(10**6), LinkStage(G3X4), Processor()),
             "LinkStage followed by a holding stage (stage 2)"),
        ],
        ids=["sensor-feeds-link", "link-feeds-processor"],
    )
    def test_link_between_holders(self, stages, rule):
        t = Topology("bad", stages, CAM)
        assert_not_runnable(t, rule)
        with pytest.raises(InvalidTopologyError, match=rf"^topology is not runnable: {re.escape(rule)}$"):
            run(t, SimConfig(seed=1, n_frames=1))

    def test_sensor_mid_chain(self):
        t = Topology(
            "bad",
            (Sensor(), BufferStage(1024), LinkStage(G3X4), Sensor(), Processor()),
            CAM,
        )
        assert_not_runnable(t, "buffer holds a whole frame (stage 1)", "Sensor only at the head (stage 3)")

    @pytest.mark.parametrize("link", [Link(), "pcie"], ids=["bare-link", "string"])
    def test_link_of_no_known_kind(self, link):
        t = build_direct(CAM, link)
        assert_not_runnable(t, "LinkStage carries a link of a known kind (stage 2)")
        with pytest.raises(InvalidTopologyError, match="LinkStage carries a link of a known kind"):
            run(t, SimConfig(seed=1, n_frames=1))

    def test_missing_tail_processor(self):
        t = Topology("bad", (Sensor(), BufferStage(1024), LinkStage(G3X4), HostMemory()), CAM)
        assert_not_runnable(t, "last stage is Processor (stage 3)", "buffer holds a whole frame (stage 1)")

    def test_empty_chain(self):
        assert_not_runnable(Topology("bad", (), CAM), "chain is non-empty")


class TestStageSpecs:
    def test_buffer_validation(self):
        with pytest.raises(InvalidSpecError):
            BufferStage(0)
        with pytest.raises(InvalidSpecError):
            BufferStage(1024, forwarding="teleport")
        with pytest.raises(InvalidSpecError):
            BufferStage(1024, fixed_latency_ns=-1)

    def test_grabber_stores_and_forwards(self):
        # The PCIe link cannot finish a frame sooner than one whole transfer
        # after the frame reached the grabber: nothing leaves before it is all in.
        pcie = PCIeLink(3, 1)
        topo = build_classic(CAM, CL, pcie)
        assert isinstance(topo.stages[3], FrameGrabber) and topo.stages[4].link == pcie
        frames = run(topo, SimConfig(seed=1, n_frames=20)).frames
        whole = serialization_time_ns(CAM.frame_size_bytes, pcie)
        delivered = [f for f, d in enumerate(frames.disposition) if d == DISPOSITION_DELIVERED]
        assert len(delivered) == 20
        for f in delivered:
            assert frames.egress_ns[4][f] >= frames.ingress_ns[3][f] + whole

    def test_processing_model_validation(self):
        with pytest.raises(InvalidSpecError):
            FixedProcessing(-1)
        with pytest.raises(InvalidSpecError):
            UniformProcessing(10, 5)
        with pytest.raises(InvalidSpecError):
            from_dict(PROCESSING_KINDS, {"distribution": "pareto"})

    def test_processing_draws(self):
        rng = Random(3)
        fixed = FixedProcessing(42)
        assert [fixed.draw(rng) for _ in range(3)] == [42, 42, 42]
        uni = UniformProcessing(10, 20)
        draws = [uni.draw(Random(5)) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        assert all(10 <= uni.draw(rng) <= 20 for _ in range(100))
        norm = NormalProcessing(5.0, 50.0)
        assert all(norm.draw(rng) >= 0 for _ in range(200))


# Each stage kind's own fields, in order, before the keyword-only fixed latency.
_OWN_FIELDS = {
    "sensor": {},
    "buffer": {"capacity_bytes": 1024, "forwarding": STORE_AND_FORWARD},
    "frame_grabber": {"capacity_bytes": 1024},
    "host_memory": {},
    "processor": {"processing": FixedProcessing(0)},
}


@pytest.mark.parametrize("kind", [k for k, cls in STAGE_KINDS.items() if cls is not LinkStage])
def test_stage_shared_fields_checked(kind):
    cls, own = STAGE_KINDS[kind], _OWN_FIELDS[kind]
    with pytest.raises(InvalidSpecError, match="fixed_latency_ns must be >= 0"):
        cls(**own, fixed_latency_ns=-1)
    with pytest.raises(TypeError):
        cls(*own.values(), 5)  # a fixed latency is keyword-only
    assert to_dict(cls(**own))["fixed_latency_ns"] == 0
    assert cls(**own, fixed_latency_ns=5).fixed_latency_ns == 5


class TestSerialization:
    def test_round_trip_builders(self):
        for t in (
            build_classic(CAM, CL, G3X4, 4096, grabber_latency_ns=7, processing=FixedProcessing(5)),
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
                Processor(processing=NormalProcessing(10.0, 2.0), fixed_latency_ns=6),
            ),
            CAM,
        )
        assert from_dict(Topology, to_dict(t)) == t

    @staticmethod
    def codec_samples():
        """(class or kinds table, record) for every record class the codec handles."""
        topo = build_classic(
            CAM, CL, G3X4, 64 * 1024 * 1024, processing=UniformProcessing(10, 20),
            deadlines=DeadlineSpec(safety_ns=1_000, control_ns=2_000_000, timestamp_rms_ns=1.0),
        )
        config = SimConfig(seed=3, n_frames=3, clock=ClockModel(5.0, 1.5, 2.0))
        report = run(topo, config)
        # The report's export holds violation records, so its round trip covers that record too.
        assert check_deadlines(report.frames, topo.deadlines, report.aggregates.timestamp_rms_ns).kind
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
            Processor(processing=NormalProcessing(10.0, 2.0), fixed_latency_ns=6),
        ]
        return (
            [(LINK_KINDS, link) for link in links]
            + [(STAGE_KINDS, stage) for stage in stages]
            + [
                (PROCESSING_KINDS, FixedProcessing(5)),
                (PROCESSING_KINDS, UniformProcessing(1, 9)),
                (PROCESSING_KINDS, NormalProcessing(3.5, 0.5)),
                (CameraSpec, CAM),
                (OverheadModel, OverheadModel(512, 20, 0.75)),
                (ClockModel, config.clock),
                (DeadlineSpec, topo.deadlines),
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
            if cls_or_kinds is SimReport:  # its frames decode only with its topology's stage count
                assert import_structured(export_structured(record)) == record
            else:
                assert from_dict(cls_or_kinds, json.loads(json.dumps(to_dict(record)))) == record

    def test_codec_rejects_unknown_keys(self):
        for cls_or_kinds, record in self.codec_samples():
            # A report's JSON object is its export, whose aggregates hold the violation records.
            doc = json.loads(export_structured(record)) if cls_or_kinds is SimReport else to_dict(record)
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


def _record_classes() -> list:
    """Every dataclass that a module of acqsim defines."""
    import acqsim

    modules = [importlib.import_module(f"acqsim.{m.name}") for m in pkgutil.iter_modules(acqsim.__path__)
               if m.name != "__main__"]
    found = {cls for m in modules for cls in vars(m).values()
             if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == m.__name__}
    return sorted(found, key=lambda cls: cls.__qualname__)


RECORD_CLASSES = _record_classes()
# The records that a run's outputs and a scenario are built of, which callers fill in place: unhashable.
TABLES = {FrameTable, DeadlineMisses, Aggregates, SimReport, Scenario}


@pytest.fixture(scope="module")
def record_samples():
    """Per record class: one sample, and a field with a value that differs from the sample's."""
    topo = build_classic(CAM, CL, G3X4)
    sensor, buffer, ci, grabber, pcie, host, processor = topo.stages
    config = SimConfig(seed=4, n_frames=3, clock=ClockModel(jitter_sigma_ns=1.0))
    report = run(topo, config)
    misses = check_deadlines(report.frames, DeadlineSpec(safety_ns=1), report.aggregates.timestamp_rms_ns)
    samples = [
        (topo.camera, "frame_rate", 500.0),
        (topo.deadlines, "safety_ns", 1),
        (sensor, "fixed_latency_ns", 7),
        (buffer, "forwarding", CUT_THROUGH),
        (ci, "link", G3X4),
        (ci.link, "config", "base"),
        (grabber, "capacity_bytes", grabber.capacity_bytes + 1),
        (pcie.link, "lanes", 8),
        (host, "fixed_latency_ns", 3),
        (processor, "processing", FixedProcessing(5)),
        (processor.processing, "fixed_ns", 9),
        (topo, "name", "other"),
        (config, "seed", 5),
        (config.clock, "jitter_sigma_ns", 2.0),
        (OverheadModel(), "max_payload_bytes", 128),
        (budget_table()[0], "rate_gbps", 0.0),
        (report, "scenario", "other"),
        (report.frames, "frame_id", [0, 1, 7]),
        (report.aggregates, "generated", 4),
        (misses, "kind", ["control"] * len(misses.kind)),
        (parse_scenario(base_doc()), "name", "other"),
        (Link(cable_length_m=1.0), "protocol_efficiency", 0.5),
        (CoaXPressIf(), "links", 2),
        (GigEVisionIf(), "rate_preset", "10g"),
        (CLHSIf(), "lanes", 2),
        (USB3If(), "cable_length_m", 3.0),
        (Stage(), "fixed_latency_ns", 1),
        (UniformProcessing(1, 2), "high_ns", 3),
        (NormalProcessing(1.0, 0.5), "sigma_ns", 0.0),
    ]
    return {type(x): (x, name, value) for x, name, value in samples}


class TestRecordSemantics:
    def test_every_record_class_has_a_sample(self, record_samples):
        assert len(RECORD_CLASSES) == 29
        assert set(record_samples) == set(RECORD_CLASSES)

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
    def test_record_semantics(self, cls, record_samples):
        x, name, value = record_samples[cls]
        values = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
        assert x == dataclasses.replace(x) and not x != dataclasses.replace(x)
        assert x != dataclasses.replace(x, **{name: value})
        assert x.__eq__(values) is NotImplemented
        fields = ", ".join(f"{f.name}={getattr(x, f.name)!r}" for f in dataclasses.fields(x))
        assert repr(x) == f"{cls.__qualname__}({fields})"
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x
        if cls in TABLES:
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
            y = copy.deepcopy(x)
            setattr(y, name, value)
            assert getattr(y, name) == value and y != x
            return
        assert hash(x) == hash(values) == hash(dataclasses.replace(x))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
            x.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
        assert tuple(getattr(x, f.name) for f in dataclasses.fields(x)) == values and not hasattr(x, "extra")

    def test_records_share_their_methods(self):
        # @dataclass generates only each record's __init__: comparison, hashing, repr and immutability are
        # the methods of the bases linkmodel.Table and linkmodel.Record, written once.
        for cls in RECORD_CLASSES:
            assert not {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls)), cls
