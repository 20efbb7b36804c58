"""Rate arithmetic: ladders, encodings, presets, feasibility, lane sizing."""

import math
import re
from fractions import Fraction

import pytest

from acqsim import (
    CameraSpec,
    CameraLinkIf,
    CLHSIf,
    CoaXPressIf,
    EnvelopeWarning,
    GigEVisionIf,
    InvalidSpecError,
    NoFeasibleWidthError,
    OverheadModel,
    PCIeLink,
    SimConfig,
    USB3If,
    aggregate_rate,
    build_direct,
    camera_stream_rate,
    effective_link_rate,
    export_structured,
    feasible,
    import_structured,
    min_lanes,
    parse_scenario,
    run,
)
from acqsim.linkmodel import LINK_KINDS, effective_rate_fraction
from acqsim.metrics import import_summary
from acqsim.topology import from_dict, to_dict
from conftest import base_doc


def scenario_doc(*cameras):
    """base_doc with one camera per (pixels, depth, fps)."""
    doc = base_doc(cameras=[to_dict(CameraSpec(*c)) for c in cameras])
    del doc["camera"]
    return doc


class TestLadder:
    # One lane's effective rate is raw GT/s x line-code efficiency.
    def test_raw_rates(self):
        # Raw 2.5/5/8/16/32 GT/s per lane.
        rates = [effective_link_rate(PCIeLink(g, 1)) for g in (1, 2, 3, 4, 5)]
        assert rates == [2.0, 4.0, 7.876923076923077, 15.753846153846155, 31.50769230769231]

    @pytest.mark.parametrize("gen", [0, 6, -1])
    def test_out_of_range_generation(self, gen):
        with pytest.raises(InvalidSpecError):
            PCIeLink(gen, 1)

    def test_encoding(self):
        # 8b/10b for gen 1-2, 128b/130b for gen 3-5.
        assert effective_link_rate(PCIeLink(1, 1)) == 2.0
        assert effective_link_rate(PCIeLink(2, 1)) == 4.0
        for gen, raw in ((3, 8), (4, 16), (5, 32)):
            assert effective_link_rate(PCIeLink(gen, 1)) == float(Fraction(raw) * Fraction(128, 130))


class TestEffectiveRate:
    def test_gen3_x1(self):
        assert effective_link_rate(PCIeLink(3, 1)) == pytest.approx(7.876923076923077, abs=1e-9)

    def test_gen1_x1(self):
        assert effective_link_rate(PCIeLink(1, 1)) == 2.0

    def test_gen4_gen5(self):
        assert effective_link_rate(PCIeLink(4, 1)) == pytest.approx(15.753846153846155, abs=1e-9)
        assert effective_link_rate(PCIeLink(5, 1)) == pytest.approx(31.50769230769231, abs=1e-9)
        assert effective_link_rate(PCIeLink(5, 16)) == pytest.approx(504.12307692307695, abs=1e-9)

    def test_closed_form_product(self):
        # Independent recomputation: lanes x GT/s x encoding x efficiency.
        for gen, gt in ((1, Fraction(5, 2)), (3, Fraction(8)), (5, Fraction(32))):
            enc = Fraction(8, 10) if gen <= 2 else Fraction(128, 130)
            for lanes in (1, 2, 4, 8, 16):
                for eff in (1.0, 0.9014084507042254):
                    expected = float(lanes * gt * enc * Fraction(eff))
                    got = effective_link_rate(PCIeLink(gen, lanes, protocol_efficiency=eff))
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_camera_link_presets(self):
        assert effective_link_rate(CameraLinkIf(config="full")) == pytest.approx(7.14, abs=1e-9)
        assert effective_link_rate(CameraLinkIf(config="medium")) == pytest.approx(4.08, abs=1e-9)
        assert effective_link_rate(CameraLinkIf(config="base")) == pytest.approx(2.04, abs=1e-9)

    def test_other_presets(self):
        assert effective_link_rate(CoaXPressIf(speed_grade="cxp6", links=4)) == pytest.approx(25.0, abs=1e-9)
        assert effective_link_rate(CoaXPressIf(speed_grade="cxp12", links=1)) == pytest.approx(12.5, abs=1e-9)
        assert effective_link_rate(GigEVisionIf(rate_preset="10g")) == pytest.approx(10.0, abs=1e-9)
        assert effective_link_rate(USB3If()) == pytest.approx(5.0, abs=1e-9)
        assert effective_link_rate(CLHSIf(lanes=2)) == pytest.approx(20.6, abs=1e-9)

    def test_protocol_efficiency_scales(self):
        full = effective_link_rate(PCIeLink(3, 4))
        half = effective_link_rate(PCIeLink(3, 4, protocol_efficiency=0.5))
        assert half == pytest.approx(full * 0.5, abs=1e-9)

    def test_pcie_beats_camera_link_full(self):
        assert effective_link_rate(PCIeLink(3, 1)) > effective_link_rate(CameraLinkIf(config="full"))

    def test_positive_for_valid_specs(self):
        for link in (PCIeLink(1, 1), CameraLinkIf("base"), USB3If(protocol_efficiency=0.01)):
            assert effective_link_rate(link) > 0.0


class TestCameraRates:
    def test_one_megapixel_kilohertz(self):
        assert camera_stream_rate(CameraSpec(1_000_000, 8, 1000)) == 8.0

    def test_zero_frame_rate(self):
        assert camera_stream_rate(CameraSpec(1_000_000, 8, 0)) == 0.0

    def test_eight_megapixel(self):
        assert camera_stream_rate(CameraSpec(8_000_000, 8, 1000)) == 64.0

    def test_aggregate_ten_cameras(self):
        cams = [CameraSpec(1_000_000, 8, 1000)] * 10
        assert aggregate_rate(cams) == 80.0

    def test_aggregate_empty(self):
        assert aggregate_rate([]) == 0.0

    def test_aggregate_mixed(self):
        cams = [CameraSpec(1_000_000, 8, 1000), CameraSpec(2_000_000, 12, 500)]
        assert aggregate_rate(cams) == pytest.approx(20.0, abs=1e-9)

    def test_frame_size_bytes(self):
        assert CameraSpec(1_000_000, 8, 1000).frame_size_bytes == 1_000_000
        assert CameraSpec(1001, 12, 100).frame_size_bytes == 1502  # ceil(12012 / 8)


class TestCameraValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidSpecError):
            CameraSpec(0, 8, 1000)
        with pytest.raises(InvalidSpecError):
            CameraSpec(1_000_000, 0, 1000)
        with pytest.raises(InvalidSpecError):
            CameraSpec(1_000_000, 65, 1000)
        with pytest.raises(InvalidSpecError):
            CameraSpec(1_000_000, 8, -1)

    def test_envelope_warnings(self):
        # Reading a scenario judges each camera: one warning per parameter outside the envelope.
        doc = scenario_doc((500_000, 8, 60_000), (1_000_000, 8, 1000), (1_000_000, 8, 20.5))
        with pytest.warns(EnvelopeWarning) as record:
            parse_scenario(doc)
        assert [str(w.message) for w in record] == [
            "resolution 500000 px is outside the [1000000, 8000000] px envelope",
            "frame rate 60000 fps is outside the [50.0, 50000.0] fps envelope",
            "frame rate 20.5 fps is outside the [50.0, 50000.0] fps envelope",
        ]

    @pytest.mark.filterwarnings("error")
    def test_no_warning_inside_envelope(self):
        parse_scenario(scenario_doc((1_000_000, 8, 1000), (8_000_000, 16, 50)))
        # Building a camera, or reading one back from a report, judges none.
        camera = CameraSpec(32_768, 8, 30517.578125)
        text = export_structured(run(build_direct(camera, PCIeLink(3, 4)), SimConfig(seed=1, n_frames=2)))
        assert import_structured(text).topology.camera == import_summary(text).topology.camera == camera


class TestLinkValidation:
    def test_pcie_bad_fields(self):
        for make, message in (
            (lambda: PCIeLink(6, 1), "PCIe generation must be 1..5, got 6"),
            (lambda: PCIeLink("3", 1), "PCIe generation must be 1..5, got 3"),
            (lambda: PCIeLink(3, 3), "PCIe lanes must be one of (1, 2, 4, 8, 16), got 3"),
            (lambda: PCIeLink(6, 3, cable_length_m=-1), "PCIe generation must be 1..5, got 6"),  # own fields first
            (lambda: PCIeLink(3, 1, cable_length_m=-1), "cable_length_m must be >= 0 with a finite delay, got -1"),
            (lambda: PCIeLink(3, 1, protocol_efficiency=0.0), "protocol_efficiency must be in (0, 1], got 0.0"),
            (lambda: PCIeLink(3, 1, protocol_efficiency=1.5), "protocol_efficiency must be in (0, 1], got 1.5"),
        ):
            with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
                make()

    def test_preset_bad_fields(self):
        cxp_grades = "['cxp1', 'cxp10', 'cxp12', 'cxp2', 'cxp3', 'cxp5', 'cxp6']"
        for make, message in (
            (lambda: CameraLinkIf(config="dual"), "Camera Link config must be base/medium/full, got 'dual'"),
            (lambda: CoaXPressIf(speed_grade="cxp4"), f"CoaXPress speed grade must be one of {cxp_grades}, got 'cxp4'"),
            (lambda: CoaXPressIf(links=5), "CoaXPress links must be 1..4, got 5"),
            (lambda: CoaXPressIf(links=2.5), "CoaXPress links must be 1..4, got 2.5"),
            (lambda: GigEVisionIf(rate_preset="40g"), "GigE Vision preset must be 1g or 10g, got '40g'"),
            (lambda: CLHSIf(lanes=9), "CLHS lanes must be 1..8, got 9"),
            (lambda: CLHSIf(lanes=2.5), "CLHS lanes must be 1..8, got 2.5"),
        ):
            with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
                make()

    @pytest.mark.parametrize("kind", LINK_KINDS)
    def test_shared_fields_checked(self, kind):
        cls, own = LINK_KINDS[kind], {"generation": 3, "lanes": 1} if kind == "pcie" else {}
        for bad, match in (
            ({"cable_length_m": -1}, "cable_length_m"),
            ({"cable_length_m": math.inf}, "cable_length_m"),
            ({"protocol_efficiency": 0.0}, "protocol_efficiency"),
            ({"protocol_efficiency": 1.5}, "protocol_efficiency"),
            ({"protocol_efficiency": math.nan}, "protocol_efficiency"),
        ):
            with pytest.raises(InvalidSpecError, match=match):
                cls(**own, **bad)
        for efficiency in (1.0, 0.9, 1 / 3):
            link = cls(**own, cable_length_m=2.0, protocol_efficiency=efficiency)
            assert effective_link_rate(link) == float(effective_rate_fraction(link))

    def test_serialization_round_trip(self):
        links = [
            PCIeLink(4, 8, cable_length_m=12.5, protocol_efficiency=0.9),
            CameraLinkIf(config="medium", cable_length_m=5.0),
            CoaXPressIf(speed_grade="cxp12", links=2),
            GigEVisionIf(rate_preset="10g"),
            CLHSIf(lanes=7),
            USB3If(cable_length_m=3.0),
        ]
        for link in links:
            assert from_dict(LINK_KINDS, to_dict(link)) == link

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            from_dict(LINK_KINDS, {"kind": "firewire"})


class TestOverheadModel:
    def test_default_efficiency(self):
        assert OverheadModel().efficiency == pytest.approx(256 / 284, abs=1e-12)

    def test_identity_overhead(self):
        assert OverheadModel(header_overhead_bytes=0).efficiency == 1.0

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            OverheadModel(max_payload_bytes=0)
        with pytest.raises(InvalidSpecError):
            OverheadModel(header_overhead_bytes=-1)
        with pytest.raises(InvalidSpecError):
            OverheadModel(flow_control_factor=0.0)


class TestFeasibility:
    def test_camera_link_full_infeasible(self):
        verdict = feasible(CameraSpec(1_000_000, 8, 1000), CameraLinkIf(config="full"))
        assert not verdict.feasible
        assert verdict.margin_gbps == pytest.approx(-0.86, abs=1e-9)

    def test_gen3_x2_feasible(self):
        verdict = feasible(CameraSpec(1_000_000, 8, 1000), PCIeLink(3, 2))
        assert verdict.feasible
        assert verdict.margin_gbps == pytest.approx(7.754, abs=1e-3)

    def test_zero_rate_camera(self):
        link = PCIeLink(2, 4)
        verdict = feasible(CameraSpec(1_000_000, 8, 0), link)
        assert verdict.feasible
        assert verdict.margin_gbps == effective_link_rate(link)

    def test_verdict_agrees_with_min_lanes_at_each_width_boundary(self):
        # Frame rates one float step either side of, and at, the rate that fills each PCIe width exactly.  Each
        # verdict compares the exact rates, as min_lanes does: 984.6153846153846 fps of 8 Mbit frames exceed
        # gen 3 x1 by 3/14293651161088000 Gb/s, which vanishes when each rate is rounded to a float first.
        for gen in (1, 2, 3, 4, 5):
            for lanes in (1, 2, 4, 8, 16):
                link = PCIeLink(gen, lanes)
                edge = float(effective_rate_fraction(link) * 10**9 / 8_000_000)
                for fps in (math.nextafter(edge, 0), edge, math.nextafter(edge, math.inf)):
                    camera = CameraSpec(1_000_000, 8, fps)
                    try:
                        fits = min_lanes(camera, gen, TestMinLanes.IDENTITY) <= lanes
                    except NoFeasibleWidthError:
                        fits = False
                    assert feasible(camera, link).feasible == fits, (gen, lanes, fps)


class TestMinLanes:
    IDENTITY = OverheadModel(header_overhead_bytes=0)

    def test_sixteen_lanes_needed(self):
        # 64 Gb/s demand; gen3 x8 = 63.015 Gb/s falls just short.
        assert min_lanes(CameraSpec(8_000_000, 8, 1000), 3, self.IDENTITY) == 16

    def test_single_lane_enough(self):
        assert min_lanes(CameraSpec(1_000_000, 8, 1000), 4, self.IDENTITY) == 1

    def test_zero_rate_camera(self):
        assert min_lanes(CameraSpec(1_000_000, 8, 0), 1, self.IDENTITY) == 1

    def test_no_feasible_width(self):
        with pytest.raises(NoFeasibleWidthError):
            min_lanes(CameraSpec(8_000_000, 16, 10_000), 1, self.IDENTITY)

    def test_out_of_range_generation(self):
        with pytest.raises(InvalidSpecError, match=r"^PCIe generation must be 1\.\.5, got 9$"):
            min_lanes(CameraSpec(1_000_000, 8, 1000), 9, self.IDENTITY)

    def test_brute_force_agreement(self):
        # Enumerate the allowed widths with independent arithmetic.
        overhead = OverheadModel()
        for px, depth, fps, gen in [
            (1_000_000, 8, 1000, 1),
            (2_000_000, 12, 2000, 3),
            (8_000_000, 8, 1000, 4),
            (4_000_000, 16, 500, 5),
        ]:
            camera = CameraSpec(px, depth, fps)
            demand = Fraction(px * depth) * Fraction(fps) / 10**9
            gt = {1: Fraction(5, 2), 2: Fraction(5), 3: Fraction(8), 4: Fraction(16), 5: Fraction(32)}[gen]
            enc = Fraction(8, 10) if gen <= 2 else Fraction(128, 130)
            eff = Fraction(256, 284)
            expected = None
            for n in (1, 2, 4, 8, 16):
                if n * gt * enc * eff >= demand:
                    expected = n
                    break
            assert min_lanes(camera, gen, overhead) == expected
