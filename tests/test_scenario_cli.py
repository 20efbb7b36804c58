"""Scenario schema handling and the command-line surface (exit codes)."""

import copy
import csv
import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acqsim import (
    InvalidSpecError,
    OverheadModel,
    ScenarioError,
    compare,
    import_structured,
    parse_scenario,
    run,
)
from acqsim import cli, metrics
from acqsim.cli import main
from acqsim.scenario import load_scenario
from conftest import json_nodes, replace_node

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "unit",
        "camera": {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000},
        "architecture": "direct",
        "pcie": {"kind": "pcie", "generation": 3, "lanes": 1},
        "sim": {"seed": 5, "n_frames": 1},
    }
    doc.update(overrides)
    return doc


def custom_doc(extra_stage_keys=None, processing=None):
    """A valid custom chain; the buffer stage gains extra_stage_keys and the
    processor takes `processing` when given."""
    processor = {"kind": "processor"}
    if processing is not None:
        processor["processing"] = processing
    return base_doc(
        architecture="custom",
        stages=[
            {"kind": "sensor"},
            {"kind": "buffer", "capacity_bytes": 4096, **(extra_stage_keys or {})},
            {"kind": "link", "link": {"kind": "usb3"}},
            {"kind": "host_memory"},
            processor,
        ],
    )


def run_cli(*argv):
    """`python -m acqsim *argv` in a fresh interpreter, output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "acqsim", *argv], capture_output=True, text=True, env=env
    )


def assert_clean_config_error(*argv):
    """`python -m acqsim *argv` exits 1 with an `error: ` line and no traceback."""
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


class TestScenarioParsing:
    def test_direct_minimal(self):
        sc = parse_scenario(base_doc())
        assert len(sc.pipelines) == 1
        assert sc.pipelines[0].stages[2].link.generation == 3
        assert sc.base_config.seed == 5

    def test_classic(self):
        doc = base_doc(
            architecture="classic",
            camera_interface={"kind": "camera_link", "config": "full"},
            grabber_capacity_bytes=1024,
        )
        sc = parse_scenario(doc)
        assert [s.kind for s in sc.pipelines[0].stages] == [
            "sensor", "buffer", "link", "frame_grabber", "link", "host_memory", "processor",
        ]

    def test_custom_stages(self):
        doc = base_doc(
            architecture="custom",
            stages=[
                {"kind": "sensor"},
                {"kind": "buffer", "capacity_bytes": 4096},
                {"kind": "link", "link": {"kind": "usb3"}},
                {"kind": "host_memory"},
                {"kind": "processor", "processing": {"distribution": "fixed", "fixed_ns": 10}},
            ],
        )
        sc = parse_scenario(doc)
        assert sc.pipelines[0].stages[2].link.kind == "usb3"

    def test_overhead_inherited_by_pcie(self):
        doc = base_doc(overhead={"max_payload_bytes": 256, "header_overhead_bytes": 28})
        sc = parse_scenario(doc)
        assert sc.pipelines[0].stages[2].link.protocol_efficiency == pytest.approx(
            OverheadModel().efficiency
        )

    def test_explicit_efficiency_wins_over_overhead(self):
        doc = base_doc(
            pcie={"kind": "pcie", "generation": 3, "lanes": 1, "protocol_efficiency": 0.5},
            overhead={"max_payload_bytes": 256, "header_overhead_bytes": 28},
        )
        sc = parse_scenario(doc)
        assert sc.pipelines[0].stages[2].link.protocol_efficiency == 0.5

    def test_multi_camera_pipelines(self):
        doc = base_doc()
        doc.pop("camera")
        doc["cameras"] = [
            {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000},
            {"resolution_pixels": 2_000_000, "bit_depth": 8, "frame_rate": 500},
        ]
        sc = parse_scenario(doc)
        assert len(sc.pipelines) == 2
        assert sc.pipelines[0].name == "unit-cam0"
        seeds = [c.seed for c in sc.configs()]
        assert seeds == [5, 6]

    def test_processing_shorthand(self):
        sc = parse_scenario(base_doc(processing_time_ns=150_000))
        proc = sc.pipelines[0].stages[-1]
        assert proc.processing.fixed_ns == 150_000

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(schema_version=2),
            lambda d: d.update(unknown_key=1),
            lambda d: d.pop("architecture"),
            lambda d: d.pop("pcie"),
            lambda d: d.pop("sim"),
            lambda d: d["sim"].pop("seed"),
            lambda d: d["sim"].update(duration_ns=10),
            lambda d: d.update(architecture="ring"),
            lambda d: d.update(cameras=[]) or d.pop("camera"),
            lambda d: d.update(pcie={"kind": "pcie", "generation": 9, "lanes": 1}),
            lambda d: d.update(sim=5),
            lambda d: d["sim"].update(seed="x"),
            lambda d: d["sim"].update(seed=True),
            # Unknown keys inside objects.
            lambda d: d.update(clock={"jitter_sigma": 20}),
            lambda d: d.update(deadlines={"safety": 5}),
            lambda d: d.update(overhead={"max_payload": 256}),
            lambda d: d["camera"].update(fps=1000),
            lambda d: d.update(custom_doc(extra_stage_keys={"forwarding_mode": "cut_through"})),
            lambda d: d.update(processing_time_ns={"distribution": "fixed", "fixed": 5}),
            lambda d: d.update(processing_time_ns={"distribution": "fixed", "low_ns": 5}),
            lambda d: d["sim"].update(clock={"jitter_sigma_ns": 20.0}),
            # Objects and arrays of the wrong shape.
            lambda d: d.update(camera=[]),
            lambda d: d.update(cameras=3) or d.pop("camera"),
            lambda d: d.update(clock="x"),
            lambda d: d.update(overhead=5),
            lambda d: d.update(custom_doc(processing=7)),
            lambda d: d.update(architecture="custom", stages=5),
            # Values of the wrong type or out of range.
            lambda d: d["camera"].update(resolution_pixels="1000000"),
            lambda d: d["camera"].update(frame_rate=float("inf")),
            lambda d: d["camera"].update(frame_rate=float("nan")),
            lambda d: d.update(deadlines={"safety_ns": 0}),
            lambda d: d.update(processing_time_ns=True),
            lambda d: d["sim"].update(n_frames=1.5),
            lambda d: d["sim"].update(n_frames=True),
            lambda d: d.update(sim={"seed": 5, "duration_ns": 2.5}),
            lambda d: d["pcie"].update(lanes=True),
            lambda d: d.update(sensor_latency_ns=1.5),
            lambda d: d.update(schema_version=True),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_custom_must_validate(self):
        doc = base_doc(architecture="custom", stages=[{"kind": "sensor"}, {"kind": "processor"}])
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestBudgetCommand:
    def test_single_row(self, capsys):
        assert main(["budget", "--gen", "3", "--lanes", "1"]) == 0
        out = capsys.readouterr().out
        assert "pcie-gen3-x1" in out and "7.877" in out

    def test_invalid_generation_exits_1(self, capsys):
        assert main(["budget", "--gen", "7"]) == 1

    def test_all_includes_camera_link_full(self, capsys):
        assert main(["budget", "--all"]) == 0
        out = capsys.readouterr().out
        assert "camera-link-full" in out and "7.140" in out

    def test_efficiency_flag(self, capsys):
        assert main(["budget", "--gen", "1", "--lanes", "1", "--efficiency", "0.5"]) == 0
        assert "1.000" in capsys.readouterr().out

    def test_overhead_derivation(self, capsys):
        assert main(["budget", "--gen", "3", "--lanes", "1", "--max-payload", "256", "--header-overhead", "28"]) == 0
        out = capsys.readouterr().out
        assert "0.901408" in out

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["budget", "--frequency", "9"]) == 1

    @pytest.mark.parametrize("flag", ["--presets", "--no-presets"])
    def test_presets_flag_removed(self, flag, capsys):
        assert main(["budget", flag]) == 1

    def test_overhead_from_given_flags_only(self, capsys):
        # The payload and header keep OverheadModel's defaults: 0.5 x 256 / 284.
        assert main(["budget", "--gen", "3", "--lanes", "1", "--flow-control", "0.5"]) == 0
        assert "0.450704" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--max-payload", "--header-overhead", "--flow-control"])
    def test_efficiency_with_overhead_flag_exits_1(self, flag, capsys):
        assert main(["budget", "--efficiency", "0.5", flag, "1"]) == 1
        assert capsys.readouterr().err.startswith("error: --efficiency cannot be combined")

    @pytest.mark.parametrize(
        "argv", [["--max-payload", "0"], ["--header-overhead", "-1"], ["--flow-control", "2"], ["--efficiency", "0"]]
    )
    def test_out_of_range_efficiency_exits_1(self, argv, capsys):
        assert main(["budget", *argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSimulateCommand:
    def test_direct_scenario(self, tmp_path, capsys):
        stem = str(tmp_path / "direct")
        code = main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "--output", stem])
        assert code == 0
        report = import_structured((tmp_path / "direct.json").read_text())
        assert report.frames.latency_ns()[0] == 1_015_625
        assert (tmp_path / "direct.csv").exists()

    def test_deadline_violation_exits_2(self, tmp_path, capsys):
        stem = str(tmp_path / "d150")
        code = main(["simulate", str(SCENARIOS / "deadline-150us.json"), "--output", stem])
        assert code == 2
        report = import_structured((tmp_path / "d150.json").read_text())
        safeties = [v for v in report.aggregates.violations if v.kind == "safety"]
        assert len(safeties) == 1

    def test_below_deadline_exits_0(self, tmp_path, capsys):
        code = main(["simulate", str(SCENARIOS / "deadline-80us.json"), "--output", str(tmp_path / "d80")])
        assert code == 0

    def test_malformed_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["simulate", str(bad), "--output", str(tmp_path / "x")]) == 1

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json"), "--output", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("sim", [5, {"seed": "x", "n_frames": 1}, {"seed": True, "n_frames": 1}])
    def test_bad_sim_block_exits_1_without_traceback(self, tmp_path, sim):
        self._assert_clean_config_error(tmp_path, base_doc(sim=sim))

    @pytest.mark.parametrize(
        "overrides",
        [{"camera": []}, {"clock": "x"}, {"processing_time_ns": True}],
        ids=["camera-array", "clock-string", "processing-bool"],
    )
    def test_malformed_document_exits_1_without_traceback(self, tmp_path, overrides):
        self._assert_clean_config_error(tmp_path, base_doc(**overrides))

    @staticmethod
    def _assert_clean_config_error(tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_clean_config_error("simulate", str(path), "-o", str(tmp_path / "x"))

    @pytest.mark.parametrize("fmt", ["structured", "both"])
    @pytest.mark.parametrize("spell", ["same", "dotted"])
    def test_output_onto_scenario_refused(self, tmp_path, capsys, fmt, spell):
        scenario = tmp_path / "x.json"
        text = (SCENARIOS / "direct-1mpx.json").read_text(encoding="utf-8")
        scenario.write_text(text, encoding="utf-8")
        (tmp_path / "sub").mkdir()
        stem = str(tmp_path / "x") if spell == "same" else str(tmp_path / "sub" / ".." / "x")
        assert main(["simulate", str(scenario), "-o", stem, "--format", fmt]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert scenario.read_text(encoding="utf-8") == text
        assert not (tmp_path / "x.csv").exists()

    def test_tabular_output_beside_scenario_allowed(self, tmp_path, capsys):
        scenario = tmp_path / "x.json"
        text = (SCENARIOS / "direct-1mpx.json").read_text(encoding="utf-8")
        scenario.write_text(text, encoding="utf-8")
        assert main(["simulate", str(scenario), "-o", str(tmp_path / "x"), "--format", "tabular"]) == 0
        assert (tmp_path / "x.csv").exists()
        assert scenario.read_text(encoding="utf-8") == text

    def test_unwritable_output_exits_3(self, capsys):
        code = main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "--output", "/nonexistent-dir/x"])
        assert code == 3

    def test_format_selects_files(self, tmp_path, capsys):
        stem = str(tmp_path / "only-tab")
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", stem, "--format", "tabular"]) == 0
        assert not (tmp_path / "only-tab.json").exists()
        assert (tmp_path / "only-tab.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        scenario = str(SCENARIOS / "classic-1mpx.json")
        assert main(["simulate", scenario, "-o", a]) == 0
        assert main(["simulate", scenario, "-o", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_override_changes_jittered_stamps(self, tmp_path, capsys):
        scenario = str(SCENARIOS / "jitter-20ns.json")
        assert main(["simulate", scenario, "-o", str(tmp_path / "s1"), "--seed", "1"]) == 0
        assert main(["simulate", scenario, "-o", str(tmp_path / "s2"), "--seed", "2"]) == 0
        r1 = import_structured((tmp_path / "s1.json").read_text())
        r2 = import_structured((tmp_path / "s2.json").read_text())
        assert r1.aggregates.timestamp_rms_ns != r2.aggregates.timestamp_rms_ns

    def test_multi_camera_outputs(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "multi",
            "cameras": [
                {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000},
                {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000},
            ],
            "architecture": "direct",
            "pcie": {"kind": "pcie", "generation": 5, "lanes": 16},
            "sim": {"seed": 3, "n_frames": 2},
        }
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(path), "-o", str(tmp_path / "m")]) == 0
        out = capsys.readouterr().out
        assert "aggregate camera demand: 16.000 Gb/s" in out
        assert (tmp_path / "m-cam0.json").exists()
        assert (tmp_path / "m-cam1.json").exists()


class TestCompareCommand:
    @pytest.fixture()
    def two_reports(self, tmp_path):
        classic = str(tmp_path / "classic")
        direct = str(tmp_path / "direct")
        assert main(["simulate", str(SCENARIOS / "classic-1mpx.json"), "-o", classic]) == 0
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", direct]) == 0
        return classic + ".json", direct + ".json"

    def test_classic_vs_direct(self, two_reports, tmp_path, capsys):
        a, b = two_reports
        capsys.readouterr()
        delta_path = tmp_path / "delta.json"
        assert main(["compare", a, b, "--output", str(delta_path)]) == 0
        out = capsys.readouterr().out
        assert "copy_count" in out
        table = json.loads(delta_path.read_text())
        assert table["copy_count"]["delta"] == -1
        assert table["latency_p50_ns"]["delta"] == -1_120_449

    def test_self_compare_all_zero(self, two_reports, capsys):
        a, _ = two_reports
        capsys.readouterr()
        assert main(["compare", a, a]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith(("#", "metric"))]
        for line in lines:
            assert line.split()[-1] in ("0", "0.000000")

    def test_mismatched_frame_counts_exit_1(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "direct-1mpx.json").read_text())
        doc["sim"]["n_frames"] = 2
        other = tmp_path / "two-frames.json"
        other.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(other), "-o", str(tmp_path / "two")]) == 0
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", str(tmp_path / "one")]) == 0
        assert main(["compare", str(tmp_path / "one.json"), str(tmp_path / "two.json")]) == 1

    @pytest.mark.parametrize(
        "a, b",
        [
            ("classic-1mpx", "direct-1mpx"),
            ("direct-1mpx", "classic-1mpx"),
            ("classic-1mpx", "deadline-80us"),
            ("overflow-8to4", "overflow-8to4"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_output_matches_full_import(self, tmp_path, capsys, monkeypatch, a, b):
        paths = []
        for name in (a, b):
            stem = str(tmp_path / name)
            assert main(["simulate", str(SCENARIOS / f"{name}.json"), "-o", stem]) in (0, 2)
            paths.append(stem + ".json")
        delta = tmp_path / "delta.json"
        capsys.readouterr()

        def compare_output():
            assert main(["compare", *paths, "--output", str(delta)]) == 0
            return capsys.readouterr().out, delta.read_text(encoding="utf-8")

        summarized = compare_output()
        monkeypatch.setattr(cli, "import_summary", import_structured)
        assert compare_output() == summarized
        reports = [import_structured(Path(p).read_text(encoding="utf-8")) for p in paths]
        assert summarized[1] == json.dumps(compare(*reports), sort_keys=True, indent=2) + "\n"

    def test_builds_no_frame(self, two_reports, capsys, monkeypatch):
        encode, decode = metrics.JSON_FORMS[metrics.SimReport]["frames"]

        def refuse(docs):
            if docs:
                raise AssertionError("compare built a frame")
            return decode(docs)

        monkeypatch.setitem(metrics.JSON_FORMS[metrics.SimReport], "frames", (encode, refuse))
        a, b = two_reports
        with pytest.raises(AssertionError, match="built a frame"):
            import_structured(Path(a).read_text(encoding="utf-8"))
        assert main(["compare", a, b]) == 0

    def test_envelope_warning_only_from_simulate(self, tmp_path):
        # compare reads the same out-of-envelope camera back from the
        # reports; simulate has already warned about it.
        stem = str(tmp_path / "ov")
        simulated = run_cli("simulate", str(SCENARIOS / "overflow-8to4.json"), "-o", stem)
        assert simulated.returncode == 0
        assert "EnvelopeWarning" in simulated.stderr
        assert "<string>" not in simulated.stderr
        compared = run_cli("compare", stem + ".json", stem + ".json")
        assert compared.returncode == 0
        assert compared.stderr == ""

    def test_missing_report_exit_1(self, capsys):
        assert main(["compare", "/no/such/a.json", "/no/such/b.json"]) == 1

    @pytest.mark.parametrize(
        "path, value",
        [
            (("frames", 0), 5),
            (("occupancy",), []),
            (("link_busy_ns",), [1]),
            (("aggregates", "high_water_bytes"), []),
            (("frames", 0, "stage_times"), 5),
            (("frames", 0, "stage_times"), [[1]]),
            (("frames", 0, "buffer_bytes"), [1]),
            (("frames",), 5),
            (("aggregates", "violations"), 5),
            (("topology", "stages"), 5),
            (("occupancy", "1"), 5),
        ],
        ids=[
            "frame-number",
            "occupancy-array",
            "link-busy-array",
            "high-water-array",
            "stage-times-number",
            "stage-times-short-pair",
            "buffer-bytes-array",
            "frames-number",
            "violations-number",
            "stages-number",
            "occupancy-trace-number",
        ],
    )
    def test_malformed_report_exits_1_without_traceback(self, tmp_path, capsys, path, value):
        good = tmp_path / "good.json"
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", str(tmp_path / "good")]) == 0
        doc = replace_node(json.loads(good.read_text(encoding="utf-8")), path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert_clean_config_error("compare", str(good), str(bad))


def _fuzz_scenarios() -> dict:
    docs = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIOS.glob("*.json"))}
    # No run takes more than 10 frames, so every example stays short.
    for doc in docs.values():
        doc["sim"]["n_frames"] = min(doc["sim"]["n_frames"], 10)
    return docs


FUZZ_SCENARIOS = _fuzz_scenarios()
FUZZ_NODES = [(stem, path) for stem, doc in FUZZ_SCENARIOS.items() for path in json_nodes(doc)]
# Replacement values: JSON scalars, arrays and objects, every integer at most
# 10, and the names the schema gives meaning to.
FUZZ_VALUES = st.sampled_from(
    [None, True, False, -1, 0, 1, 2, 10, 0.5, -0.5, 1e-9, "", "0", "x", "custom", "classic", "direct",
     "pcie", "camera_link", "sensor", "link", "cut_through", "drop_oldest", "uniform", [], [1], ["x"],
     [{"kind": "sensor"}], {}, {"kind": "pcie"}, {"kind": "sensor"}, {"seed": 1}, {"x": 1}]
)


class TestScenarioBoundary:
    def test_fuzz_scenarios_cover_every_shipped_file(self):
        assert set(FUZZ_SCENARIOS) == {path.stem for path in SCENARIOS.glob("*.json")}

    @settings(max_examples=300, deadline=None)
    @given(node=st.sampled_from(FUZZ_NODES), value=FUZZ_VALUES)
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_one_node_replaced(self, node, value):
        stem, path = node
        doc = replace_node(copy.deepcopy(FUZZ_SCENARIOS[stem]), path, value)
        try:
            parse_scenario(doc)
        except ScenarioError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "scenario.json"
            scenario.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["simulate", str(scenario), "-o", str(Path(tmp) / "out")]) in (0, 1, 2)


def _numeric_paths(doc) -> list:
    paths = []
    for path in json_nodes(doc):
        node = doc
        for key in path:
            node = node[key]
        if type(node) in (int, float):
            paths.append(path)
    return paths


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in a structured export")


class TestHugeNumbers:
    """Every numeric node of every shipped scenario, set to +/-1e308 in turn:
    the library raises only ScenarioError/InvalidSpecError, simulate exits
    0, 1 (with an error line) or 2, and no export holds a non-finite number."""

    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("stem", sorted(FUZZ_SCENARIOS))
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_every_numeric_node(self, stem, value, tmp_path, capsys):
        scenario, stem_out = tmp_path / "scenario.json", tmp_path / "out"
        for path in _numeric_paths(FUZZ_SCENARIOS[stem]):
            doc = replace_node(copy.deepcopy(FUZZ_SCENARIOS[stem]), path, value)
            try:
                parsed = parse_scenario(doc)
                for topo, cfg in zip(parsed.pipelines, parsed.configs()):
                    run(topo, cfg)
            except (ScenarioError, InvalidSpecError):
                pass
            for old in tmp_path.glob("out*"):
                old.unlink()
            scenario.write_text(json.dumps(doc), encoding="utf-8")
            code = main(["simulate", str(scenario), "-o", str(stem_out)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), path
            assert code != 1 or "error: " in err, path
            for report in tmp_path.glob("out*.json"):
                json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            for report in tmp_path.glob("out*.csv"):
                cells = {cell for row in csv.reader(report.read_text(encoding="utf-8").splitlines()) for cell in row}
                assert not cells & {"inf", "-inf", "nan"}, path

    @pytest.mark.parametrize(
        "edits",
        [
            {("camera", "frame_rate"): 1e-308},
            {("camera", "frame_rate"): 1e-299, ("sim", "n_frames"): 3},
            {("camera_interface", "cable_length_m"): 3e307, ("pcie", "cable_length_m"): 3e307},
            {
                ("processing_time_ns",): {"distribution": "normal", "mean_ns": 1e308, "sigma_ns": 0},
                ("sim", "n_frames"): 3,
            },
        ],
        ids=["frame-period", "generation-time", "cable-delay-latency-mean", "processing-latency-mean"],
    )
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_values_past_float_range_exit_1(self, edits, tmp_path, capsys):
        """Finite inputs whose period, generation times or mean latency leave the float range."""
        doc = copy.deepcopy(FUZZ_SCENARIOS["classic-1mpx"])
        for path, value in edits.items():
            replace_node(doc, path, value)
        parsed = parse_scenario(doc)
        with pytest.raises(InvalidSpecError):
            run(parsed.pipelines[0], parsed.configs()[0])
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(scenario), "-o", str(tmp_path / "out")]) == 1
        assert "error: " in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "acqsim", "budget", "--gen", "3", "--lanes", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "7.877" in proc.stdout


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_state(tmp_path, capsys, enabled):
    stem = str(tmp_path / "direct")
    commands = [
        (["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", stem], 0),
        (["compare", stem + ".json", stem + ".json"], 0),
        (["simulate", "--no-such-flag"], 1),
    ]
    was_enabled = gc.isenabled()
    try:
        for argv, code in commands:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert main(argv) == code
            assert gc.isenabled() is enabled, argv
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
