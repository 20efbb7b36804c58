"""Rate arithmetic: ladders, encodings, presets, feasibility, lane sizing."""

import warnings
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
    USB3If,
    aggregate_rate,
    camera_stream_rate,
    effective_link_rate,
    encoding_efficiency,
    feasible,
    min_lanes,
    raw_lane_rate,
)
from acqsim.linkmodel import LINK_KINDS
from acqsim.topology import from_dict, to_dict


def cam(px, depth, fps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EnvelopeWarning)
        return CameraSpec(px, depth, fps)


class TestLadder:
    def test_raw_rates(self):
        assert [raw_lane_rate(g) for g in (1, 2, 3, 4, 5)] == [2.5, 5.0, 8.0, 16.0, 32.0]

    @pytest.mark.parametrize("gen", [0, 6, -1])
    def test_out_of_range_generation(self, gen):
        with pytest.raises(InvalidSpecError):
            raw_lane_rate(gen)
        with pytest.raises(InvalidSpecError):
            encoding_efficiency(gen)

    def test_encoding(self):
        assert encoding_efficiency(1) == 0.8
        assert encoding_efficiency(2) == 0.8
        for gen in (3, 4, 5):
            assert encoding_efficiency(gen) == pytest.approx(128 / 130, abs=1e-12)


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
        assert camera_stream_rate(cam(1_000_000, 8, 0)) == 0.0

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
        assert cam(1001, 12, 100).frame_size_bytes == 1502  # ceil(12012 / 8)


class TestCameraValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidSpecError):
            cam(0, 8, 1000)
        with pytest.raises(InvalidSpecError):
            cam(1_000_000, 0, 1000)
        with pytest.raises(InvalidSpecError):
            cam(1_000_000, 65, 1000)
        with pytest.raises(InvalidSpecError):
            cam(1_000_000, 8, -1)

    def test_envelope_warnings(self):
        with pytest.warns(EnvelopeWarning):
            CameraSpec(500_000, 8, 1000)
        with pytest.warns(EnvelopeWarning):
            CameraSpec(1_000_000, 8, 60_000)

    def test_no_warning_inside_envelope(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CameraSpec(1_000_000, 8, 1000)
            CameraSpec(8_000_000, 16, 50)


class TestLinkValidation:
    def test_pcie_bad_fields(self):
        with pytest.raises(InvalidSpecError):
            PCIeLink(6, 1)
        with pytest.raises(InvalidSpecError):
            PCIeLink(3, 3)
        with pytest.raises(InvalidSpecError):
            PCIeLink(3, 1, cable_length_m=-1)
        with pytest.raises(InvalidSpecError):
            PCIeLink(3, 1, protocol_efficiency=0.0)
        with pytest.raises(InvalidSpecError):
            PCIeLink(3, 1, protocol_efficiency=1.5)

    def test_preset_bad_fields(self):
        with pytest.raises(InvalidSpecError):
            CameraLinkIf(config="dual")
        with pytest.raises(InvalidSpecError):
            CoaXPressIf(speed_grade="cxp4")
        with pytest.raises(InvalidSpecError):
            CoaXPressIf(links=5)
        with pytest.raises(InvalidSpecError):
            GigEVisionIf(rate_preset="40g")
        with pytest.raises(InvalidSpecError):
            CLHSIf(lanes=9)

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
        verdict = feasible(cam(1_000_000, 8, 0), link)
        assert verdict.feasible
        assert verdict.margin_gbps == effective_link_rate(link)


class TestMinLanes:
    IDENTITY = OverheadModel(header_overhead_bytes=0)

    def test_sixteen_lanes_needed(self):
        # 64 Gb/s demand; gen3 x8 = 63.015 Gb/s falls just short.
        assert min_lanes(CameraSpec(8_000_000, 8, 1000), 3, self.IDENTITY) == 16

    def test_single_lane_enough(self):
        assert min_lanes(CameraSpec(1_000_000, 8, 1000), 4, self.IDENTITY) == 1

    def test_zero_rate_camera(self):
        assert min_lanes(cam(1_000_000, 8, 0), 1, self.IDENTITY) == 1

    def test_no_feasible_width(self):
        with pytest.raises(NoFeasibleWidthError):
            min_lanes(cam(8_000_000, 16, 10_000), 1, self.IDENTITY)

    def test_brute_force_agreement(self):
        # Enumerate the allowed widths with independent arithmetic.
        overhead = OverheadModel()
        for px, depth, fps, gen in [
            (1_000_000, 8, 1000, 1),
            (2_000_000, 12, 2000, 3),
            (8_000_000, 8, 1000, 4),
            (4_000_000, 16, 500, 5),
        ]:
            camera = cam(px, depth, fps)
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
