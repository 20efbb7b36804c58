"""Aggregation, exports, comparison, and the link budget table."""

import json
import math
from random import Random

import pytest

from acqsim import (
    CameraSpec,
    CameraLinkIf,
    DeadlineSpec,
    IncomparableRunsError,
    InvalidSpecError,
    PCIeLink,
    SimConfig,
    budget_table,
    build_classic,
    build_direct,
    compare,
    effective_link_rate,
    export_structured,
    export_tabular,
    import_structured,
    import_tabular,
    run,
    summarize,
)
from acqsim.metrics import nearest_rank

CAM = CameraSpec(1_000_000, 8, 1000)
RELAXED = DeadlineSpec(safety_ns=10**9, control_ns=10**10, timestamp_rms_ns=50.0)
MIB = 1024 * 1024


def direct_report(n_frames=1, seed=1):
    topo = build_direct(CAM, PCIeLink(3, 1), deadlines=RELAXED)
    return run(topo, SimConfig(seed=seed, n_frames=n_frames))


def classic_report(n_frames=1, seed=1):
    topo = build_classic(CAM, CameraLinkIf("full"), PCIeLink(3, 1), 64 * MIB, deadlines=RELAXED)
    return run(topo, SimConfig(seed=seed, n_frames=n_frames))


class TestNearestRank:
    def test_small_list(self):
        values = [1, 2, 3, 4]
        assert nearest_rank(values, 50) == 2
        assert nearest_rank(values, 99) == 4

    def test_singleton(self):
        assert nearest_rank([7], 50) == 7
        assert nearest_rank([7], 99) == 7

    def test_empty(self):
        assert nearest_rank([], 50) == 0

    def test_brute_force_oracle(self):
        rng = Random(4)
        for _ in range(200):
            values = sorted(rng.randint(0, 1000) for _ in range(rng.randint(1, 40)))
            for p in (1, 25, 50, 75, 90, 99, 100):
                expected = values[max(0, math.ceil(p / 100 * len(values)) - 1)]
                assert nearest_rank(values, p) == expected


class TestSummarize:
    def test_singleton_percentiles(self):
        a = direct_report().aggregates
        assert a.latency_min_ns == a.latency_p50_ns == a.latency_p99_ns == a.latency_max_ns == 1_015_625
        assert a.latency_mean_ns == 1_015_625.0

    def test_percentile_ordering(self):
        a = direct_report(n_frames=6).aggregates
        assert a.latency_min_ns <= a.latency_p50_ns <= a.latency_p99_ns <= a.latency_max_ns

    def test_empty_zeroed_and_flagged(self):
        a = direct_report(n_frames=0).aggregates
        assert a.empty
        assert a.delivered == a.dropped == a.in_flight == 0
        assert a.throughput_gbps == 0.0
        assert a.latency_max_ns == 0
        assert a.violations == []

    def test_throughput_definition(self):
        report = direct_report(n_frames=5)
        bits = sum(r.size_bytes for r in report.frames if r.disposition == "delivered") * 8
        assert report.aggregates.throughput_gbps == pytest.approx(bits / report.elapsed_ns, abs=1e-12)

    def test_recompute_matches_report(self):
        report = classic_report(n_frames=4)
        again = summarize(
            report.frames,
            report.topology,
            elapsed_ns=report.elapsed_ns,
            occupancy=report.occupancy,
        )
        assert again == report.aggregates


class TestStructuredExport:
    def test_round_trip_equality(self):
        report = classic_report(n_frames=3)
        assert import_structured(export_structured(report)) == report

    @pytest.mark.parametrize("edit", ["rename", "extra", "missing"])
    def test_frame_with_wrong_keys_rejected(self, edit):
        doc = json.loads(export_structured(direct_report()))
        frame = doc["frames"][0]
        if edit == "rename":
            frame["frame_number"] = frame.pop("frame_id")
        elif edit == "extra":
            frame["note"] = "x"
        else:
            del frame["drop_reason"]
        with pytest.raises(InvalidSpecError, match="exactly the keys"):
            import_structured(json.dumps(doc))

    def test_export_dispatcher(self):
        from acqsim import export

        report = direct_report()
        assert export(report, "structured") == export_structured(report)
        assert export(report, "tabular") == export_tabular(report)
        with pytest.raises(ValueError):
            export(report, "xml")

    def test_canonical_bytes_deterministic(self):
        assert export_structured(direct_report(n_frames=4)) == export_structured(direct_report(n_frames=4))

    def test_exported_throughput_recomputable(self):
        report = direct_report(n_frames=3)
        doc = json.loads(export_structured(report))
        delivered_bits = sum(
            f["size_bytes"] * 8 for f in doc["frames"] if f["disposition"] == "delivered"
        )
        assert abs(doc["aggregates"]["throughput_gbps"] - delivered_bits / doc["elapsed_ns"]) < 1e-9

    def test_keys_sorted(self):
        text = export_structured(direct_report())
        doc = json.loads(text)
        assert list(doc.keys()) == sorted(doc.keys())


class TestTabularExport:
    def test_row_count(self):
        report = direct_report(n_frames=5)
        text = export_tabular(report)
        table = text.split("\n\n")[0].splitlines()
        assert len(table) == 5 + 1  # frames + header

    def test_frames_round_trip(self):
        report = classic_report(n_frames=4)
        frames, aggregates = import_tabular(export_tabular(report))
        assert frames == report.frames
        assert aggregates["delivered"] == report.aggregates.delivered
        assert aggregates["latency_p99_ns"] == report.aggregates.latency_p99_ns
        assert aggregates["throughput_gbps"] == report.aggregates.throughput_gbps
        assert aggregates["high_water_stage3_bytes"] == report.aggregates.high_water_bytes[3]

    def test_dropped_frames_round_trip(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            camera = CameraSpec(32_768, 8, 1e9 / 32_768)
        topo = build_classic(camera, PCIeLink(1, 4), PCIeLink(1, 2), MIB, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=7, n_frames=70))
        frames, _ = import_tabular(export_tabular(report))
        assert frames == report.frames


class TestCompare:
    def test_self_comparison_is_zero(self):
        report = direct_report(n_frames=2)
        table = compare(report, report)
        assert all(cells["delta"] == 0 for cells in table.values())

    def test_classic_vs_direct(self):
        table = compare(classic_report(), direct_report())
        assert table["copy_count"]["delta"] == -1
        assert table["latency_p50_ns"]["delta"] == -1_120_449
        assert table["latency_max_ns"]["delta"] == -1_120_449
        assert table["throughput_gbps"]["delta"] > 0

    def test_antisymmetric(self):
        a, b = classic_report(), direct_report()
        ab = compare(a, b)
        ba = compare(b, a)
        for metric in ab:
            assert ab[metric]["delta"] == -ba[metric]["delta"]

    def test_different_cameras_incomparable(self):
        other_cam = CameraSpec(2_000_000, 8, 1000)
        other = run(
            build_direct(other_cam, PCIeLink(3, 1), deadlines=RELAXED),
            SimConfig(seed=1, n_frames=1),
        )
        with pytest.raises(IncomparableRunsError):
            compare(direct_report(), other)

    def test_different_frame_counts_incomparable(self):
        with pytest.raises(IncomparableRunsError):
            compare(direct_report(n_frames=1), direct_report(n_frames=2))


class TestBudgetTable:
    def test_paper_scale_cells(self):
        rows = {r.label: r.rate_gbps for r in budget_table()}
        assert rows["pcie-gen3-x1"] == pytest.approx(7.877, abs=0.01)
        assert rows["pcie-gen4-x1"] == pytest.approx(15.754, abs=1e-3)
        assert rows["pcie-gen5-x1"] == pytest.approx(31.508, abs=1e-3)
        assert rows["pcie-gen5-x16"] == pytest.approx(504.123, abs=1e-3)
        assert rows["camera-link-full"] == pytest.approx(7.14, abs=1e-9)

    def test_consistent_with_link_model(self):
        for row in budget_table(protocol_efficiency=0.9):
            if row.kind == "pcie":
                link = PCIeLink(row.generation, row.lanes, protocol_efficiency=0.9)
                assert row.rate_gbps == effective_link_rate(link)

    def test_lane_scaling_within_table(self):
        rows = {(r.generation, r.lanes): r.rate_gbps for r in budget_table(include_presets=False)}
        for gen in (1, 2, 3, 4, 5):
            for lanes in (2, 4, 8, 16):
                assert rows[(gen, lanes)] == lanes * rows[(gen, 1)]

    def test_presets_toggle(self):
        with_presets = budget_table()
        without = budget_table(include_presets=False)
        assert len(without) == 25
        assert len(with_presets) == 25 + 14
        labels = {r.label for r in with_presets}
        assert {"camera-link-base", "camera-link-medium", "camera-link-full", "usb3", "gige-10g"} <= labels
