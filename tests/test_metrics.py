"""Aggregation, exports, comparison, and the link budget table."""

import dataclasses
import json
import math
from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from acqsim import (
    BufferStage,
    CameraSpec,
    CameraLinkIf,
    ClockModel,
    DeadlineMisses,
    DeadlineSpec,
    FrameGrabber,
    HostMemory,
    IncomparableRunsError,
    InvalidSpecError,
    LinkStage,
    PCIeLink,
    Processor,
    Sensor,
    SimConfig,
    budget_table,
    build_classic,
    build_direct,
    check_deadlines,
    compare,
    effective_link_rate,
    export_structured,
    export_tabular,
    import_structured,
    parse_scenario,
    run,
    summarize,
)
from acqsim import metrics
from acqsim.metrics import import_summary, nearest_rank
from acqsim.simcore import FrameTable, serialization_time_ns
from acqsim.topology import Topology, from_dict, to_dict, topology_digest
from conftest import (
    HOLDING_STAGE_EDITS,
    assert_tabular_matches_structured,
    benchmark_workloads,
    frame_table,
    json_nodes,
    make_config,
    make_topology,
    replace_node,
    tabular_table,
)

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


def counts(aggregates) -> dict:
    """The deadline-miss counts of Aggregates, by kind."""
    return {kind: getattr(aggregates, f"{kind}_violations") for kind in ("safety", "control", "timestamp")}


def record_counts(kinds) -> dict:
    """Counts by kind of the violation kinds given, with 0 for a kind that is absent."""
    found = Counter(kinds)
    return {kind: found[kind] for kind in ("safety", "control", "timestamp")}


@st.composite
def runs_against_budgets(draw):
    """(frames, deadlines): delivered latencies that may sit exactly at a budget,
    under budgets in either order, and one timestamp error shared by every frame,
    so that the run's RMS is exactly its size and may equal the RMS budget."""
    safety, control = draw(st.integers(1, 1_000)), draw(st.integers(1, 1_000))
    rms_budget = draw(st.integers(1, 50))
    latency = st.none() | st.integers(0, 1_100) | st.sampled_from([safety, control])
    latencies = draw(st.lists(latency, max_size=30))
    error = draw(st.integers(-60, 60) | st.sampled_from([rms_budget, -rms_budget]))
    records = [SimpleNamespace(generated_at_ns=100, camera_timestamp_ns=100 + error, latency_ns=v) for v in latencies]
    return frame_table(records), DeadlineSpec(safety_ns=safety, control_ns=control, timestamp_rms_ns=rms_budget)


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
        assert a.safety_violations == a.control_violations == a.timestamp_violations == 0

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

    def test_counts_match_deadline_records(self, run_pool):
        for topo, _, report in run_pool:
            a = report.aggregates
            misses = check_deadlines(report.frames, topo.deadlines, a.timestamp_rms_ns)
            assert counts(a) == record_counts(misses.kind)

    @settings(max_examples=300, deadline=None)
    @given(case=runs_against_budgets())
    def test_counts_match_deadline_records_at_any_budget(self, case):
        frames, deadlines = case
        a = summarize(frames, build_direct(CAM, PCIeLink(3, 1), deadlines=deadlines), 1, {})
        assert counts(a) == record_counts(check_deadlines(frames, deadlines, a.timestamp_rms_ns).kind)
        # A latency or an RMS equal to its budget is not a miss.
        latencies = [v for v in frames.latency_ns() if v is not None]
        assert a.safety_violations == sum(v > deadlines.safety_ns for v in latencies)
        assert a.control_violations == sum(v > deadlines.control_ns for v in latencies)
        assert a.timestamp_violations == (a.timestamp_rms_ns > deadlines.timestamp_rms_ns)

    def test_builds_no_deadline_record(self, monkeypatch):
        # One check_deadlines call builds one column table, however many misses it holds; summarize makes
        # that call through the metrics module, where a profiler can wrap it.
        built, calls = [], []
        init, check = DeadlineMisses.__init__, metrics.check_deadlines
        monkeypatch.setattr(DeadlineMisses, "__init__", lambda misses, *columns: built.append(init(misses, *columns)))
        monkeypatch.setattr(metrics, "check_deadlines", lambda *args: calls.append(check(*args)) or calls[-1])
        topo = build_direct(CAM, PCIeLink(3, 1), deadlines=DeadlineSpec(safety_ns=1_000, control_ns=1_000))
        a = run(topo, SimConfig(seed=1, n_frames=3)).aggregates
        assert len(calls) == len(built) == 1
        assert calls[0].kind == ["safety", "control"] * 3 and a.safety_violations == a.control_violations == 3

    def test_builds_the_latency_column_once(self, monkeypatch):
        # summarize hands the column it sorts to check_deadlines, which would otherwise build it again.
        topo = build_direct(CAM, PCIeLink(3, 1), deadlines=DeadlineSpec(safety_ns=1_000, control_ns=1_000))
        report = run(topo, SimConfig(seed=1, n_frames=3))
        calls = []
        latency_ns = FrameTable.latency_ns
        monkeypatch.setattr(FrameTable, "latency_ns", lambda frames: calls.append(frames) or latency_ns(frames))
        a = summarize(report.frames, topo, report.elapsed_ns, report.occupancy)
        assert calls == [report.frames]
        assert a == report.aggregates and a.safety_violations == a.control_violations == 3

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

    def test_stageless_report_rejected(self):
        # Frames consistent with the empty chain, so only the topology check can object.
        doc = json.loads(export_structured(direct_report(n_frames=2)))
        doc["topology"]["stages"] = []
        for frame in doc["frames"]:
            frame["stage_times"], frame["buffer_bytes"] = [], {}
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="^topology is not runnable: chain is non-empty$"):
                reader(json.dumps(doc))

    def test_report_with_buffer_smaller_than_frame_rejected(self):
        # The digest is that of the edited topology, so only the buffer rule can object.
        doc = json.loads(export_structured(direct_report()))
        doc["topology"]["stages"][1]["capacity_bytes"] = 1000
        doc["digest"] = topology_digest(from_dict(Topology, doc["topology"]))
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=r"^topology is not runnable: buffer holds a whole frame \(stage 1\)$"):
                reader(json.dumps(doc))

    def test_report_without_schema_version_rejected(self):
        doc = json.loads(export_structured(direct_report()))
        del doc["schema_version"]
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="schema_version"):
                reader(json.dumps(doc))

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
            (("frames", 0, "buffer_bytes"), {"7": 5}, r"names stage 7, not one of the holding stages \[0, 1, 3, 5\]"),
            (("frames", 0, "buffer_bytes"), {"0": None}, "to an integer"),
            (("link_busy_ns",), {"\u0661": 7}, "non-index key"),
            (("aggregates", "high_water_bytes"), {"01": 5, "1": 6}, "non-index key"),
            (("schema_version",), 2, r"unsupported schema_version 2 \(expected 1\)"),
            (("topology", "stages", 0), {"kind": "host_memory"}, "not runnable: first stage is Sensor"),
            (("digest",), "0000000000000000", "report digest '0000000000000000' is not its topology's"),
            (("scenario",), "other", "report scenario 'other' is not its topology's"),
            (("frames", 1, "frame_id"), 7, "^a frame's frame_id must be its index in frames$"),
            (("frames", 1, "size_bytes"), 5, "^a frame's size_bytes must be the camera's frame size, 1000000$"),
            *((("frames", 1, "stage_times", 6, 1), value, "an integer or null") for value in ("late", 2.5, True)),
            *((path, value, "map each index to an integer")
              for path in (("link_busy_ns", "2"), ("aggregates", "high_water_bytes", "1"))
              for value in ("big", None, True, 1.5)),
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
            "buffer-bytes-past-last-stage",
            "buffer-bytes-null",
            "link-busy-non-ascii-digit",
            "high-water-colliding-keys",
            "schema-version-2",
            "topology-without-sensor",
            "digest-of-another-topology",
            "scenario-of-another-name",
            "frame-id-not-the-index",
            "size-not-the-frame-size",
            "stage-times-string",
            "stage-times-float",
            "stage-times-bool",
            *(f"{where}-{what}" for where in ("link-busy", "high-water")
              for what in ("string", "null", "bool", "float")),
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


def v1_document(report) -> dict:
    """The v1 JSON document of a report, built here from its frame columns,
    occupancy, link times and aggregates as docs/report-schema.md lays them
    out: one object per frame, and a record per deadline miss, found here
    from the frames' latencies and the timestamp RMS. Only the topology and
    the config take the record codec's form (to_dict)."""
    t, a, d = report.frames, report.aggregates, report.topology.deadlines
    stages = range(len(report.topology.stages))
    frames, misses = [], []
    for f, frame_id in enumerate(t.frame_id):
        frames.append({
            "frame_id": frame_id, "size_bytes": t.size_bytes[f], "generated_at_ns": t.generated_at_ns[f],
            "camera_timestamp_ns": t.camera_timestamp_ns[f], "timestamp_clamped": t.timestamp_clamped[f],
            "disposition": t.disposition[f], "drop_stage": t.drop_stage[f], "drop_reason": t.drop_reason[f],
            "drop_time_ns": t.drop_time_ns[f],
            "stage_times": [[t.ingress_ns[i][f], t.egress_ns[i][f]] for i in stages],
            "buffer_bytes": {str(i): t.buffer_bytes[i][f] for i in stages if t.buffer_bytes[i][f] is not None},
        })
        if t.disposition[f] == "delivered":
            latency = t.egress_ns[-1][f] - t.egress_ns[0][f]
            misses += [{"kind": kind, "frame_id": frame_id, "measured_ns": latency, "budget_ns": budget}
                       for kind, budget in (("safety", d.safety_ns), ("control", d.control_ns)) if latency > budget]
    if a.timestamp_rms_ns > d.timestamp_rms_ns:
        misses.append({"kind": "timestamp", "frame_id": None, "measured_ns": a.timestamp_rms_ns,
                       "budget_ns": d.timestamp_rms_ns})
    aggregates = {k: v for k, v in dataclasses.asdict(a).items() if not k.endswith("_violations")}
    aggregates.update(high_water_bytes={str(i): b for i, b in a.high_water_bytes.items()}, violations=misses)
    return {
        "schema_version": report.schema_version, "scenario": report.scenario, "digest": report.digest,
        "topology": to_dict(report.topology), "config": to_dict(report.config), "elapsed_ns": report.elapsed_ns,
        "frames": frames, "occupancy": {str(i): [list(p) for p in trace] for i, trace in report.occupancy.items()},
        "link_busy_ns": {str(i): ns for i, ns in report.link_busy_ns.items()}, "aggregates": aggregates,
    }


class TestStructuredExportReference:
    """export_structured writes exactly json.dumps of the v1 document with sorted keys."""

    @staticmethod
    def assert_reference(report) -> None:
        text = export_structured(report)
        reference = json.dumps(v1_document(report), sort_keys=True, separators=(",", ":")) + "\n"
        if text != reference:  # name the first difference; a diff of megabyte lines would take minutes
            at = next((i for i, (x, y) in enumerate(zip(text, reference)) if x != y), min(len(text), len(reference)))
            pytest.fail(f"export differs at {at}: {text[at - 60:at + 60]!r} != {reference[at - 60:at + 60]!r}")

    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    @pytest.mark.parametrize("name", ["classic-congested", "overload-oldest"])
    def test_benchmark_shaped_runs_past_a_chunk(self, name):
        scenario = parse_scenario(WORKLOADS[name](17, 2_600))
        report = run(scenario.pipelines[0], scenario.configs()[0])
        a = report.aggregates
        assert a.generated >= 2_500 and a.dropped
        if name == "classic-congested":
            assert a.safety_violations and "buffer_overflow" in report.frames.drop_reason
        else:
            assert a.in_flight and "backpressure" in report.frames.drop_reason  # evictions under drop_oldest
        self.assert_reference(report)

    def test_long_chain(self):
        # Stage indices 10 to 12 sort between "1" and "2" as JSON keys.
        hops = [stage for _ in range(4) for stage in (LinkStage(PCIeLink(3, 4)), FrameGrabber(64 * MIB))]
        stages = (Sensor(), BufferStage(64 * MIB), *hops, LinkStage(PCIeLink(3, 4)), HostMemory(), Processor())
        report = run(Topology("long", stages, CAM), SimConfig(seed=3, n_frames=2_100))
        assert len(report.topology.stages) == 13
        assert any(report.frames.buffer_bytes[11]) and any(report.frames.buffer_bytes[3])
        self.assert_reference(report)

    def test_zero_frames(self):
        self.assert_reference(direct_report(n_frames=0))

    @pytest.mark.parametrize("column, f, value", [
        ("disposition", 1, "lost"), ("disposition", 1, "a,b"), ("drop_reason", 2, 'say "x"'),
        ("drop_reason", 0, "{,"), ("drop_reason", 0, ",null"), ("drop_reason", 2, "\x00\x01\u00e9"),
        ("frame_id", 1, True), ("drop_stage", 0, [1]), ("drop_stage", 0, [1, 2]),
    ], ids=["outside-set", "comma", "quote", "brace-comma", "comma-null", "control-chars", "bool-for-int",
            "array", "array-with-comma"])
    def test_hand_built_value_is_referenced_or_refused(self, column, f, value):
        # A report built by hand may hold any value: the export writes the reference's bytes, or refuses a
        # value whose JSON text holds a comma, but it never writes other bytes.
        report = classic_report(n_frames=3)
        getattr(report.frames, column)[f] = value
        if "," in json.dumps(value):
            with pytest.raises(InvalidSpecError, match="holds a comma"):
                export_structured(report)
        else:
            self.assert_reference(report)

    @pytest.mark.parametrize("value", ["x", "x,null", None], ids=["string", "comma-null", "null"])
    def test_hand_built_buffer_value_is_referenced_or_refused(self, value):
        # The first stage that held bytes is the one written without a leading comma, whichever it is.
        report = classic_report(n_frames=3)
        report.frames.buffer_bytes[1][0] = value
        report.frames.buffer_bytes[0][1] = 7
        if "," in json.dumps(value):
            with pytest.raises(InvalidSpecError, match="holds a comma"):
                export_structured(report)
        else:
            self.assert_reference(report)

    def test_timestamp_miss(self):
        topo = build_direct(CAM, PCIeLink(3, 1), deadlines=RELAXED)
        report = run(topo, SimConfig(seed=4, n_frames=40, clock=ClockModel(jitter_sigma_ns=400.0)))
        assert report.aggregates.timestamp_violations == 1
        assert type(json.loads(export_structured(report))["aggregates"]["violations"][-1]["measured_ns"]) is float
        self.assert_reference(report)

    def test_one_frame_run_keeps_each_columns_type(self):
        # A 1-frame run's frame_id [0] equals its timestamp_clamped [False], but the two share no text.
        report = direct_report(n_frames=1)
        assert report.frames.frame_id == [0] == report.frames.timestamp_clamped
        frame = json.loads(export_structured(report))["frames"][0]
        assert type(frame["frame_id"]) is int and frame["timestamp_clamped"] is False
        self.assert_reference(report)

    @pytest.mark.parametrize("frame_id, flags", [([1], [True]), ([True], [1]), ([0, False, 2], [False, 0, 2])],
                             ids=["int-beside-bool", "bool-beside-int", "both-in-each"])
    def test_equal_columns_of_other_types_keep_their_text(self, frame_id, flags):
        # 1 == True and 0 == False: a column shares another's text only when both hold the same types,
        # ints or bools but not both (the last case: equal values, equal type sets, other text).
        report = classic_report(n_frames=len(frame_id))
        report.frames.frame_id, report.frames.timestamp_clamped = frame_id, flags
        assert report.frames.frame_id == report.frames.timestamp_clamped
        self.assert_reference(report)

    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_imported_columns_share_as_the_engines_do(self, name):
        # The engine's equal columns hold the same int objects; an imported report's hold equal, distinct ones.
        # Equal values share one _Column either way, so both export the same bytes.
        scenario = parse_scenario(WORKLOADS[name](5, 1_200))
        report = run(scenario.pipelines[0], scenario.configs()[0])
        text = export_structured(report)
        imported = import_structured(text)
        late = next(f for f, n in enumerate(report.frames.generated_at_ns) if n > 256)  # past the cached ints
        assert report.frames.ingress_ns[0][late] is report.frames.generated_at_ns[late]
        assert imported.frames.ingress_ns[0][late] is not imported.frames.generated_at_ns[late]
        assert export_structured(imported) == text and export_tabular(imported) == export_tabular(report)
        distinct = []
        for t in (report.frames, imported.frames):
            slot = metrics._Slots()
            metrics._frame_record(t, slot)
            distinct.append(len({column for column, _ in slot}))
        columns = len(metrics._FRAME_SCALARS) + 3 * len(report.topology.stages)
        assert distinct[0] == distinct[1] < columns


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
        camera = CameraSpec(32_768, 8, 1e9 / 32_768)
        topo = build_classic(camera, PCIeLink(1, 4), PCIeLink(1, 2), MIB, deadlines=RELAXED)
        report = run(topo, SimConfig(seed=7, n_frames=70))
        assert set(report.frames.disposition) == {"delivered", "dropped"}
        assert_tabular_matches_structured(export_structured(report), export_tabular(report))

    def test_woven_rows_over_the_run_pool(self, run_pool):
        seen = Counter()
        for _, _, report in run_pool:
            assert_rows_woven(report)
            seen.update(row_cases(report))
        assert seen.keys() == {"dropped", "in_flight", "unreached_stage"}

    @settings(max_examples=150, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_woven_rows_of_generated_chains(self, rng):
        report = run(make_topology(rng), make_config(rng))
        for case in row_cases(report):
            event(case)
        assert_rows_woven(report)

    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_woven_rows_past_a_chunk(self, name):
        scenario = parse_scenario(WORKLOADS[name](17, 2_600))
        assert_rows_woven(run(scenario.pipelines[0], scenario.configs()[0]))

    @pytest.mark.parametrize("column, value, written", [
        ("drop_reason", "a,b", False), ("drop_reason", 'say "x"', False), ("drop_reason", "a\rb", False),
        ("drop_reason", "a\nb", False), ("disposition", "a\\b", False), ("drop_reason", "\x01\u00e9", False),
        ("drop_time_ns", math.inf, False), ("drop_time_ns", math.nan, False), ("drop_time_ns", 2.5, False),
        ("frame_id", True, False), ("drop_stage", [1], False),
        ("drop_reason", "x y", True), ("drop_reason", "", True), ("drop_reason", "null", True),
        ("disposition", None, True), ("drop_stage", -(10**30), True),
        # A column of bools is written as 0/1; a bool beside any other value is refused, and so is the value.
        ("timestamp_clamped", 2.5, False), ("timestamp_clamped", None, False), ("timestamp_clamped", "x", False),
        ("timestamp_clamped", 1, False), ("timestamp_clamped", True, True),
    ], ids=["comma", "quote", "return", "newline", "backslash", "escaped", "inf", "nan", "float", "bool", "array",
            "space", "empty", "null-string", "null", "huge-int",
            "clamped-float", "clamped-null", "clamped-string", "clamped-int", "clamped-true"])
    def test_hand_built_value_is_written_as_csv_writer_does_or_refused(self, column, value, written):
        # The woven text of a cell is csv.writer's (a flag's int()).  A value that csv.writer would quote, or write as
        # other text than JSON's, is refused, as are the other types and the strings JSON escapes; none is written
        # otherwise.
        report = classic_report(n_frames=3)
        getattr(report.frames, column)[1] = value
        if written:
            assert_rows_woven(report)
        else:
            with pytest.raises(InvalidSpecError):
                export_tabular(report)

    @pytest.mark.parametrize("column", [*(k for k in metrics._FRAME_SCALARS if k != "timestamp_clamped"),
                                        *metrics._STAGE_COLUMNS])
    def test_bool_column_other_than_timestamp_clamped_refused(self, column):
        # Once written as 1 cells, where export_structured writes true.  Only timestamp_clamped holds bools.
        report = classic_report(n_frames=3)
        if column in metrics._STAGE_COLUMNS:
            getattr(report.frames, column)[1] = [True] * 3
        else:
            setattr(report.frames, column, [True] * 3)
        with pytest.raises(InvalidSpecError, match="^a CSV cell must be"):
            export_tabular(report)


def row_cases(report) -> list:
    """What a run's tabular rows hold besides delivered frames: dropped and in-flight frames, and a
    stage that no frame reached, whose cells are all empty."""
    t = report.frames
    cases = [d for d in ("dropped", "in_flight") if d in t.disposition]
    if t.frame_id and any(set(ingress) == {None} for ingress in t.ingress_ns):
        cases.append("unreached_stage")
    return cases


def assert_rows_woven(report) -> None:
    """export_tabular's frame table is csv.writer's (tabular_table), and the metric block follows it."""
    text, table = export_tabular(report), tabular_table(report)
    assert text[:len(table)] == table and text[len(table):].startswith("metric,value\n")


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
        doc = replace_node(json.loads(json.dumps(FUZZ_REPORT)), path, value)
        text = json.dumps(doc)
        verdict = _verdict(import_structured, text)
        assert _verdict(import_summary, text) == verdict
        if verdict == "accepted":  # an accepted report re-exports byte for byte
            canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            assert export_structured(import_structured(text)) == canonical

    def test_records_the_frames_do_not_imply_refused(self):
        topo = build_direct(CAM, PCIeLink(5, 16), deadlines=DeadlineSpec(safety_ns=1_000))
        doc = json.loads(export_structured(run(topo, SimConfig(seed=1, n_frames=3))))
        assert [v["kind"] for v in doc["aggregates"]["violations"]] == ["safety"] * 3
        del doc["aggregates"]["violations"][1]
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="^aggregates.violations are not the deadline misses of"):
                reader(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, match",
        [(("topology", "stages", -1, "processing"), {}, "missing 1 required positional argument: 'fixed_ns'"),
         # A parameter of another distribution is a key the record does not have, zero or not.
         (("topology", "stages", -1, "processing", "low_ns"), 0, r"FixedProcessing: unknown keys \['low_ns'\]"),
         (("config", "clock"), {}, "must hold each field of its records, and only those")],
        ids=["processing-defaulted", "processing-zero-parameter", "clock-defaulted"],
    )
    def test_record_not_written_in_full_refused(self, path, value, match):
        # A processing object states exactly its own parameters; a clock decodes to the report's own record, which
        # the export writes with other keys.
        doc = replace_node(json.loads(json.dumps(FUZZ_REPORT)), path, value)
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=match):
                reader(json.dumps(doc))

    @pytest.mark.parametrize("report", ["fuzz", "deep"])
    def test_counts_are_the_kinds_of_the_records(self, report):
        doc = {"fuzz": FUZZ_REPORT, "deep": DEEP_REPORT}[report]
        text = json.dumps(doc)
        expected = record_counts(v["kind"] for v in doc["aggregates"]["violations"])
        assert expected["safety"]
        for reader in (import_structured, import_summary):
            assert counts(reader(text).aggregates) == expected

    def test_builds_no_violation_record(self, monkeypatch):
        # The one column table a reader builds is check_deadlines' own, which the records are checked against.
        built = []
        init = DeadlineMisses.__init__
        text = json.dumps(DEEP_REPORT)
        monkeypatch.setattr(DeadlineMisses, "__init__", lambda misses, *columns: built.append(init(misses, *columns)))
        for reader in (import_structured, import_summary):
            built.clear()
            assert reader(text).aggregates.safety_violations
            assert len(built) == 1

    def test_aggregates_hold_the_records_not_the_counts(self):
        counted = json.loads(json.dumps(FUZZ_REPORT))
        counted["aggregates"]["safety_violations"] = 0
        bare = json.loads(json.dumps(FUZZ_REPORT))
        del bare["aggregates"]["violations"]
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=r"unknown keys \['safety_violations'\]"):
                reader(json.dumps(counted))
            with pytest.raises(InvalidSpecError, match="missing key 'violations'"):
                reader(json.dumps(bare))

    @pytest.mark.parametrize("path, value", [(("occupancy", "1", 0), ["a", None]),
                                             (("frames", 0, "camera_timestamp_ns"), None)],
                             ids=["occupancy-point", "camera-timestamp"])
    def test_values_summarize_cannot_compute_with_rejected(self, path, value):
        # Each was once accepted, and summarize of the imported report raised TypeError.
        doc = replace_node(json.loads(export_structured(direct_report(n_frames=3))), path, value)
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="must be an integer|pairs of integers"):
                reader(json.dumps(doc))

    def test_frame_objects_hold_the_frame_table_keys(self):
        # The encoder lays the frame record out from _FRAME_KEYS, which FrameTable's fields define.
        frames = json.loads(export_structured(classic_report(n_frames=2)))["frames"]
        assert [list(frame) for frame in frames] == [sorted(metrics._FRAME_KEYS)] * 2
        assert metrics._FRAME_KEYS.keys() == {*metrics._FRAME_SCALARS, "stage_times", "buffer_bytes"}

    @pytest.mark.parametrize("stage", [0, -1], ids=["sensor", "processor"])
    def test_delivered_frame_without_a_latency_end_rejected(self, stage):
        # Once accepted, and summarize and both exports of the import raised TypeError.
        doc = json.loads(export_structured(direct_report(n_frames=3)))
        assert doc["frames"][-1]["disposition"] == "delivered"
        doc["frames"][-1]["stage_times"][stage][1] = None
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="a delivered frame must have an egress time at its first"):
                reader(json.dumps(doc))
        doc["frames"][-1]["disposition"] = "in_flight"  # the same egress is no latency end of a frame in flight
        assert import_structured(json.dumps(doc)).frames.disposition[-1] == "in_flight"

    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    @pytest.mark.parametrize("edit", [("2", 1), ("4", -1), ("4", None), ("3", 0)],
                             ids=["camera-link-longer", "pcie-shorter", "link-left-out", "non-link-added"])
    def test_link_busy_other_than_the_transmissions_refused(self, edit):
        # Once accepted and written back with the edit, where a link utilisation would have read it.
        scenario = parse_scenario(WORKLOADS["classic-congested"](1, 1_000))
        report = run(scenario.pipelines[0], scenario.configs()[0])
        assert None in report.frames.ingress_ns[2] and report.link_busy_ns.keys() == {2, 4}
        size = report.topology.camera.frame_size_bytes
        for i, busy in report.link_busy_ns.items():  # one serialization time per frame that reached the link
            reached = [t for t in report.frames.ingress_ns[i] if t is not None]
            assert busy == len(reached) * serialization_time_ns(size, report.topology.stages[i].link) > 0
        doc = json.loads(export_structured(report))
        key, delta = edit
        if delta is None:
            del doc["link_busy_ns"][key]
        else:
            doc["link_busy_ns"][key] = doc["link_busy_ns"].get(key, 0) + delta
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="^link_busy_ns is not one serialization time per transmission"):
                reader(json.dumps(doc))

    @pytest.mark.parametrize("edit", sorted(HOLDING_STAGE_EDITS))
    def test_stage_map_other_than_the_holding_stages_refused(self, edit):
        # Once accepted; the high-water edit was written back, by export_tabular as a high_water_stage99_bytes row.
        doc = json.loads(export_structured(run(build_direct(CAM, PCIeLink(5, 16)), SimConfig(seed=1, n_frames=3))))
        assert sorted(doc["occupancy"]) == sorted(doc["aggregates"]["high_water_bytes"]) == ["0", "1", "3"]
        HOLDING_STAGE_EDITS[edit](doc)
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match=r"the holding stages \[0, 1, 3\]$"):
                reader(json.dumps(doc))

    @pytest.mark.parametrize("value", [5, [], None, "x"], ids=["number", "array", "null", "string"])
    def test_aggregates_not_an_object_refused(self, value):
        doc = replace_node(json.loads(json.dumps(FUZZ_REPORT)), ("aggregates",), value)
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="^Aggregates must be a JSON object, got "):
                reader(json.dumps(doc))

    def test_summary_matches_full_import(self):
        text = json.dumps(FUZZ_REPORT)
        report, summary = import_structured(text), import_summary(text)
        assert summary == (report.scenario, report.digest, report.topology, report.aggregates)
        assert compare(summary, summary) == compare(report, report)


def _deep_report() -> dict:
    """classic-congested at 1,200 frames: over 1,000 frames, violation
    records and points in each buffer's occupancy trace."""
    scenario = parse_scenario(WORKLOADS["classic-congested"](1, 1_200))
    doc = json.loads(export_structured(run(scenario.pipelines[0], scenario.configs()[0])))
    assert min(len(doc["frames"]), len(doc["aggregates"]["violations"]), len(doc["occupancy"]["1"])) >= 1_000
    return doc


DEEP_REPORT = _deep_report()


def _last_violation(doc) -> dict:
    return doc["aggregates"]["violations"][-1]


# A wrongly typed value for each scalar of a frame.
WRONG_SCALARS = {
    "frame_id": True,
    "size_bytes": 1.0,
    "generated_at_ns": "0",
    "camera_timestamp_ns": None,
    "timestamp_clamped": 1,
    "disposition": None,
    "drop_stage": True,
    "drop_reason": 5,
    "drop_time_ns": 2.5,
}


# Each fault sits only in the last record, where a check of the first
# element, or of one element per kind, would not look.
DEEP_FAULTS = {
    "violation-bool-frame-id": lambda doc: _last_violation(doc).update(frame_id=True),
    "occupancy-triple": lambda doc: doc["occupancy"]["1"][-1].append(0),
    "buffer-bytes-leading-zero": lambda doc: doc["frames"][-1]["buffer_bytes"].update({"01": 5}),
    "buffer-bytes-past-last-stage": lambda doc: doc["frames"][-1]["buffer_bytes"].update({"7": 5}),  # 7 stages
    "buffer-bytes-null": lambda doc: doc["frames"][-1]["buffer_bytes"].update({"0": None}),
    **{
        f"stage-times-{token}": lambda doc, value=value: doc["frames"][-1]["stage_times"][-1].__setitem__(1, value)
        for token, value in (("string", "late"), ("float", 2.5), ("bool", True))
    },
    **{
        f"frame-{key}-{type(value).__name__}": lambda doc, key=key, value=value: doc["frames"][-1].update({key: value})
        for key, value in WRONG_SCALARS.items()
    },
    "frame-disposition-lost": lambda doc: doc["frames"][-1].update(disposition="lost"),
    "frame-drop-reason-x": lambda doc: doc["frames"][-1].update(drop_reason="x"),
    **{
        f"occupancy-point-{token}": lambda doc, point=point: doc["occupancy"]["1"].__setitem__(-1, point)
        for token, point in (("string-null", ["a", None]), ("float", [1.5, 0]), ("bool", [0, True]))
    },
    "violation-bogus-kind": lambda doc: _last_violation(doc).update(kind="bogus"),
    "violation-missing-key": lambda doc: _last_violation(doc).pop("budget_ns"),
    "violation-extra-key": lambda doc: _last_violation(doc).update(note="x"),
    # The right number of keys, one of them renamed.
    "violation-renamed-key": lambda doc: (v := _last_violation(doc)).update(budget=v.pop("budget_ns")),
    **{
        f"{key}-{token}": lambda doc, key=key, value=value: _last_violation(doc).update({key: value})
        for key in ("measured_ns", "budget_ns")
        for token, value in (("Infinity", math.inf), ("-Infinity", -math.inf), ("NaN", math.nan))
    },
}


class TestDeepFaults:
    @pytest.mark.parametrize("fault", sorted(DEEP_FAULTS))
    def test_fault_in_last_record_rejected(self, fault):
        doc = json.loads(json.dumps(DEEP_REPORT))
        DEEP_FAULTS[fault](doc)
        text = json.dumps(doc)  # non-finite floats become the Infinity/NaN tokens json.loads accepts
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError):
                reader(text)

    def test_huge_integer_measure_refused(self):
        # The column checks pass both values, and no float conversion raises: the records are refused as
        # measures that the frames do not give.
        doc = json.loads(json.dumps(DEEP_REPORT))
        doc["aggregates"]["violations"][0]["measured_ns"] = 2.5  # a float column, so its finiteness is checked
        _last_violation(doc)["measured_ns"] = 10**399  # 400 digits, past the float range
        text = json.dumps(doc)
        for reader in (import_structured, import_summary):
            with pytest.raises(InvalidSpecError, match="^aggregates.violations are not the deadline misses of"):
                reader(text)

    @settings(max_examples=300, deadline=None)
    @given(
        path=st.sampled_from(list(json_nodes(FUZZ_REPORT["aggregates"]["violations"]))[1:]),  # the array stays
        value=json_values | st.sampled_from([True, math.inf, -math.inf, math.nan, 10**400, 2.5]),
    )
    def test_columns_decode_as_records_do(self, path, value):
        # The records are check_deadlines' misses of the report's own frames: both readers accept a report whose
        # records were mutated exactly when the records' JSON text is unchanged, and refuse it with InvalidSpecError.
        doc = json.loads(json.dumps(FUZZ_REPORT))
        docs = replace_node(doc["aggregates"]["violations"], path, value)
        text = json.dumps(doc)
        unchanged = json.dumps(docs) == json.dumps(FUZZ_REPORT["aggregates"]["violations"])
        for reader in (import_structured, import_summary):
            if unchanged:
                assert counts(reader(text).aggregates) == record_counts(v["kind"] for v in docs)
            else:
                with pytest.raises(InvalidSpecError):
                    reader(text)


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
