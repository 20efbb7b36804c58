"""Aggregation, exports, comparison, and the link budget table."""

import json
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_scenario,
    run,
    summarize,
)
from acqsim.metrics import import_summary, nearest_rank
from conftest import assert_tabular_matches_structured, benchmark_workloads, json_nodes, replace_node

CAM = CameraSpec(1_000_000, 8, 1000)
RELAXED = DeadlineSpec(safety_ns=10**9, control_ns=10**10, timestamp_rms_ns=50.0)
MIB = 1024 * 1024
WORKLOADS = benchmark_workloads()


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
        frames = report.frames
        bits = sum(s for s, d in zip(frames.size_bytes, frames.disposition) if d == "delivered") * 8
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

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_imported_benchmark_workload_recomputes(self, name):
        scenario = parse_scenario(WORKLOADS[name](1, 2_000))
        report = import_structured(export_structured(run(scenario.pipelines[0], scenario.configs()[0])))
        again = summarize(report.frames, report.topology, report.elapsed_ns, report.occupancy)
        assert again == report.aggregates
        if name == "overload-oldest":
            # Frame 1 is admitted at the instant frame 0 leaves: two frames.
            assert again.high_water_bytes[1] == 65_536


class TestStructuredExport:
    def test_round_trip_equality(self):
        report = classic_report(n_frames=3)
        assert import_structured(export_structured(report)) == report

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_benchmark_workload_frames_round_trip(self, name):
        scenario = parse_scenario(WORKLOADS[name](1, 2_000))
        report = run(scenario.pipelines[0], scenario.configs()[0])
        back = import_structured(export_structured(report)).frames
        # Equality also keeps null apart from 0; it would not keep true apart from 1.
        assert back == report.frames
        assert {type(flag) for flag in back.timestamp_clamped} == {bool}

    def test_empty_run_round_trip(self):
        report = direct_report(n_frames=0)
        assert report.frames.egress_ns == [[] for _ in report.topology.stages]
        assert import_structured(export_structured(report)) == report

    def test_stageless_report_keeps_its_frames(self):
        # No stage column is left to carry the frame count, so frame_id must.
        doc = json.loads(export_structured(direct_report(n_frames=2)))
        doc["topology"]["stages"] = []
        for frame in doc["frames"]:
            frame["stage_times"], frame["buffer_bytes"] = [], {}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert export_structured(import_structured(text)) == text

    @pytest.mark.parametrize("n_frames, edited", [(1, [0]), (3, [0]), (3, [2]), (3, [0, 1, 2])])
    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_stage_times_of_wrong_length_rejected(self, n_frames, edited, edit):
        doc = json.loads(export_structured(classic_report(n_frames=n_frames)))
        for k in edited:
            spans = doc["frames"][k]["stage_times"]
            spans.pop() if edit == "short" else spans.append([1, 2])
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=r"one \[ingress, egress\] pair per topology stage"):
                reader(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit",
        ["rename", "extra", "missing", "stage-times-number", "stage-times-short-pair", "buffer-bytes-array"],
    )
    def test_frame_with_wrong_keys_rejected(self, edit):
        doc = json.loads(export_structured(direct_report()))
        frame = doc["frames"][0]
        match = "exactly the keys"
        if edit == "rename":
            frame["frame_number"] = frame.pop("frame_id")
        elif edit == "extra":
            frame["note"] = "x"
        elif edit == "missing":
            del frame["drop_reason"]
        elif edit == "stage-times-number":
            frame["stage_times"], match = 5, "stage_times"
        elif edit == "stage-times-short-pair":
            frame["stage_times"], match = [[1]], "stage_times"
        else:
            frame["buffer_bytes"], match = [1], "keyed by stage index"
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=match):
                reader(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("frames",), 5, "frames must be a JSON array"),
            (("frames",), {}, "frames must be a JSON array"),
            (("aggregates", "violations"), 5, "must be a JSON array"),
            (("aggregates", "violations"), {}, "must be a JSON array"),
            (("topology", "stages"), "", "must be a JSON array"),
            (("occupancy", "1"), 5, "occupancy trace"),
            (("occupancy", "1"), ["ab"], "occupancy trace"),
            (("link_busy_ns",), {"x": 1}, "non-index key"),
            (("frames", 0, "buffer_bytes"), {"-1": 5}, "non-index key"),
            (("frames", 0, "buffer_bytes"), {"01": 5}, "non-index key"),
            (("link_busy_ns",), {"\u0661": 7}, "non-index key"),
            (("aggregates", "high_water_bytes"), {"01": 5, "1": 6}, "non-index key"),
        ],
        ids=[
            "frames-number",
            "frames-object",
            "violations-number",
            "violations-object",
            "stages-string",
            "occupancy-trace-number",
            "occupancy-trace-string-pair",
            "link-busy-bad-key",
            "buffer-bytes-negative-key",
            "buffer-bytes-leading-zero",
            "link-busy-non-ascii-digit",
            "high-water-colliding-keys",
        ],
    )
    def test_malformed_report_parts_rejected(self, path, value, match):
        doc = replace_node(json.loads(export_structured(classic_report(n_frames=2))), path, value)
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=match):
                reader(json.dumps(doc))

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
        assert_tabular_matches_structured(export_structured(report), export_tabular(report))

    def test_dropped_frames_round_trip(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            camera = CameraSpec(32_768, 8, 1e9 / 32_768)
        topo = build_classic(camera, PCIeLink(1, 4), PCIeLink(1, 2), MIB, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=7, n_frames=70))
        assert set(report.frames.disposition) == {"delivered", "dropped"}
        assert_tabular_matches_structured(export_structured(report), export_tabular(report))


def _verdict(reader, text: str) -> str:
    """"accepted" or "rejected"; an exception outside ValueError propagates."""
    try:
        reader(text)
    except ValueError:
        return "rejected"
    return "accepted"


def _fuzz_report() -> dict:
    """A 5-frame classic report with drops, violations and occupancy traces."""
    topo = build_classic(
        CAM,
        CameraLinkIf("base"),
        PCIeLink(3, 1),
        2 * MIB,
        camera_buffer_capacity_bytes=2 * MIB,
        deadlines=DeadlineSpec(safety_ns=2_000_000, control_ns=3_000_000, timestamp_rms_ns=50.0),
    )
    return json.loads(export_structured(run(topo, SimConfig(seed=3, n_frames=5))))


FUZZ_REPORT = _fuzz_report()
FUZZ_PATHS = list(json_nodes(FUZZ_REPORT))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0", "1", "ab", "safety", "delivered"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "-1", "x", "kind"]), inner, max_size=3),
    max_leaves=6,
)


class TestReportReaders:
    def test_fuzz_report_covers_every_part(self):
        a = FUZZ_REPORT["aggregates"]
        assert a["dropped"] and a["violations"] and any(FUZZ_REPORT["occupancy"].values())
        assert {f["disposition"] for f in FUZZ_REPORT["frames"]} == {"delivered", "dropped"}

    @settings(max_examples=400, deadline=None)
    @given(path=st.sampled_from(FUZZ_PATHS), value=json_values)
    def test_one_node_replaced(self, path, value):
        text = json.dumps(replace_node(json.loads(json.dumps(FUZZ_REPORT)), path, value))
        assert _verdict(import_summary, text) == _verdict(import_structured, text)

    def test_summary_matches_full_import(self):
        text = json.dumps(FUZZ_REPORT)
        report, summary = import_structured(text), import_summary(text)
        assert summary == (report.scenario, report.digest, report.topology, report.aggregates)
        assert compare(summary, summary) == compare(report, report)


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
