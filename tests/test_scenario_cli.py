"""Scenario schema handling and the command-line surface (exit codes)."""

import copy
import csv
import errno
import functools
import gc
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acqsim import (
    CameraSpec,
    FixedProcessing,
    InvalidSpecError,
    OverheadModel,
    PCIeLink,
    ScenarioError,
    SimConfig,
    build_direct,
    compare,
    export_structured,
    import_structured,
    parse_scenario,
    run,
)
from acqsim import cli, metrics
from acqsim.cli import main
from acqsim.scenario import load_scenario
from acqsim.topology import PROCESSING_KINDS, Topology, from_dict, to_dict, topology_digest
from conftest import HOLDING_STAGE_EDITS, base_doc, json_nodes, make_processing, replace_node

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def custom_doc(extra_stage_keys=None, processing=None, link=None):
    """A valid custom chain, without base_doc's pcie key, which custom does not
    read; the buffer stage gains extra_stage_keys, the processor takes
    `processing` when given, and the link stage carries `link` (default USB3)."""
    processor = {"kind": "processor"}
    if processing is not None:
        processor["processing"] = processing
    doc = base_doc(
        architecture="custom",
        stages=[
            {"kind": "sensor"},
            {"kind": "buffer", "capacity_bytes": 1_000_000, **(extra_stage_keys or {})},
            {"kind": "link", "link": link or {"kind": "usb3"}},
            {"kind": "host_memory"},
            processor,
        ],
    )
    del doc["pcie"]
    return doc


# Each malformed scenario document: a mutation of base_doc() and the reason
# its ScenarioError must give, so a case cannot pass on an unrelated fault.
MALFORMED_DOCUMENTS = dict(
    [
        (lambda d: d.update(schema_version=2), r"unsupported schema_version 2 \(expected 1\)"),
        (lambda d: d.update(unknown_key=1), r"unknown scenario keys: \['unknown_key'\]"),
        (lambda d: d.pop("architecture"), "'architecture' must be one of .*, got None"),
        (lambda d: d.pop("pcie"), "direct architecture requires 'pcie'"),
        (lambda d: d.pop("sim"), "scenario requires a 'sim' object"),
        (lambda d: d["sim"].pop("seed"), "sim requires an explicit 'seed'"),
        (lambda d: d["sim"].update(duration_ns=10), "set exactly one of n_frames or duration_ns"),
        (lambda d: d.update(architecture="ring"), "'architecture' must be one of .*, got 'ring'"),
        (lambda d: d.update(cameras=[]) or d.pop("camera"), "'cameras' must be a non-empty array"),
        (lambda d: d.update(pcie={"kind": "pcie", "generation": 9, "lanes": 1}), "PCIe generation must be 1..5"),
        (lambda d: d.update(sim=5), "scenario requires a 'sim' object"),
        (lambda d: d["sim"].update(seed="x"), "SimConfig 'seed' must be an integer, got 'x'"),
        (lambda d: d["sim"].update(seed=True), "SimConfig 'seed' must be an integer, got True"),
        # Unknown keys inside objects.
        (lambda d: d.update(clock={"jitter_sigma": 20}), r"ClockModel: unknown keys \['jitter_sigma'\]"),
        (lambda d: d.update(deadlines={"safety": 5}), r"DeadlineSpec: unknown keys \['safety'\]"),
        (lambda d: d.update(overhead={"max_payload": 256}), r"OverheadModel: unknown keys \['max_payload'\]"),
        (lambda d: d["camera"].update(fps=1000), r"CameraSpec: unknown keys \['fps'\]"),
        (
            lambda d: d.update(custom_doc(extra_stage_keys={"forwarding_mode": "cut_through"})) or d.pop("pcie"),
            r"BufferStage: unknown keys \['forwarding_mode'\]",
        ),
        (
            lambda d: d.update(processing_time_ns={"distribution": "fixed", "fixed": 5}),
            r"FixedProcessing: unknown keys \['fixed'\]",
        ),
        (
            lambda d: d.update(processing_time_ns={"distribution": "fixed", "low_ns": 5}),
            r"FixedProcessing: unknown keys \['low_ns'\]",
        ),
        (lambda d: d["sim"].update(clock={"jitter_sigma_ns": 20.0}), "'clock' is a top-level key, not a sim key"),
        # Objects and arrays of the wrong shape.
        (lambda d: d.update(camera=[]), "CameraSpec must be a JSON object"),
        (lambda d: d.update(cameras=3) or d.pop("camera"), "'cameras' must be a non-empty array"),
        (lambda d: d.update(clock="x"), "ClockModel must be a JSON object"),
        (lambda d: d.update(overhead=5), "OverheadModel must be a JSON object"),
        (lambda d: d.update(custom_doc(processing=7)) or d.pop("pcie"), "'distribution' record must be a JSON object"),
        (
            lambda d: d.update(architecture="custom", stages=5) or d.pop("pcie"),
            "'stages' must be an array of stages",
        ),
        # Values of the wrong type or out of range.
        (
            lambda d: d["camera"].update(resolution_pixels="1000000"),
            "CameraSpec 'resolution_pixels' must be an integer",
        ),
        (lambda d: d["camera"].update(frame_rate=float("inf")), "CameraSpec 'frame_rate' must be a finite number"),
        (lambda d: d["camera"].update(frame_rate=float("nan")), "CameraSpec 'frame_rate' must be a finite number"),
        (lambda d: d.update(deadlines={"safety_ns": 0}), "deadline budgets must be strictly positive"),
        (lambda d: d.update(processing_time_ns=True), "processing_time_ns must be an integer or a distribution"),
        (lambda d: d["sim"].update(n_frames=1.5), "SimConfig 'n_frames' must be an integer or null"),
        (lambda d: d["sim"].update(n_frames=True), "SimConfig 'n_frames' must be an integer or null"),
        (
            lambda d: d.update(sim={"seed": 5, "duration_ns": 2.5}),
            "SimConfig 'duration_ns' must be an integer or null",
        ),
        (lambda d: d["pcie"].update(lanes=True), "PCIeLink 'lanes' must be an integer"),
        (lambda d: d.update(sensor_latency_ns=1.5), "scenario 'sensor_latency_ns' must be an integer"),
        (lambda d: d.update(schema_version=True), "scenario 'schema_version' must be an integer"),
        (lambda d: d.update(cameras=[d["camera"]]), "set exactly one of 'camera' or 'cameras'"),
        (lambda d: d.pop("camera"), "set exactly one of 'camera' or 'cameras'"),
        (lambda d: d["sim"].update(n_frames=-1), "^n_frames must be >= 0$"),
        (lambda d: d.update(sim={"seed": 5, "duration_ns": -1}), "^duration_ns must be >= 0$"),
        (
            lambda d: d.update(processing_time_ns={"distribution": "normal", "mean_ns": 1.0, "sigma_ns": -1.0}),
            "normal processing time needs mean, sigma >= 0",
        ),
        # A distribution that is named must be one of the three, by its name.
        *((lambda d, tag=tag: d.update(processing_time_ns={"distribution": tag, "fixed_ns": 1}),
           rf"^unknown distribution {tag!r} \(expected one of \['fixed', 'normal', 'uniform'\]\)$")
          for tag in (None, 3, "pareto", "Fixed")),
        # A processing object states every parameter of its distribution: each was once read as 0.
        *((lambda d, value=value: d.update(processing_time_ns=value), rf"^{cls}: .*missing .*{missing}$")
          for value, cls, missing in (
              ({"distribution": "uniform"}, "UniformProcessing", "'low_ns' and 'high_ns'"),
              ({"distribution": "normal", "mean_ns": 5.0}, "NormalProcessing", "'sigma_ns'"),
              ({"distribution": "fixed"}, "FixedProcessing", "'fixed_ns'"),
              ({}, "FixedProcessing", "'fixed_ns'"))),
        (lambda d: d.update(custom_doc(processing={"distribution": "uniform", "low_ns": 5})) or d.pop("pcie"),
         r"^UniformProcessing: .*missing 1 required positional argument: 'high_ns'$"),
    ]
)


def run_cli(*argv):
    """`python -m acqsim *argv` in a fresh interpreter, output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "acqsim", *argv], capture_output=True, text=True, env=env
    )


def two_camera_scenario(tmp_path) -> str:
    """overflow-8to4 with its camera twice, as a scenario file under tmp_path."""
    doc = json.loads((SCENARIOS / "overflow-8to4.json").read_text(encoding="utf-8"))
    doc["cameras"] = [doc["camera"], doc.pop("camera")]
    path = tmp_path / "two-cameras.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def second_camera_overflows() -> dict:
    """A two-camera direct scenario whose camera buffer holds the first camera's frame, not the second's."""
    camera = {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 100}
    doc = base_doc(
        cameras=[camera, dict(camera, resolution_pixels=2_000_000)],
        pcie={"kind": "pcie", "generation": 3, "lanes": 4},
        camera_buffer_capacity_bytes=1_000_000,
        camera_buffer_forwarding="store_and_forward",
        sim={"seed": 5, "n_frames": 3},
    )
    del doc["camera"]
    return doc


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
            grabber_capacity_bytes=1_000_000,
        )
        sc = parse_scenario(doc)
        assert [s.kind for s in sc.pipelines[0].stages] == [
            "sensor", "buffer", "link", "frame_grabber", "link", "host_memory", "processor",
        ]

    def test_custom_stages(self):
        doc = custom_doc(processing={"distribution": "fixed", "fixed_ns": 10})
        sc = parse_scenario(doc)
        assert sc.pipelines[0].stages[2].link.kind == "usb3"
        assert sc.pipelines[0].stages[-1].processing.fixed_ns == 10

    @pytest.mark.parametrize("stated", [None, 0.5], ids=["inherited", "stated"])
    def test_overhead_reaches_custom_pcie_link(self, stated):
        link = {"kind": "pcie", "generation": 3, "lanes": 1}
        if stated is not None:
            link["protocol_efficiency"] = stated
        doc = custom_doc(link=link)
        doc["overhead"] = {"max_payload_bytes": 256, "header_overhead_bytes": 28}
        efficiency = parse_scenario(doc).pipelines[0].stages[2].link.protocol_efficiency
        assert efficiency == (OverheadModel().efficiency if stated is None else stated)

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

    def test_every_camera_pipeline_checked(self):
        with pytest.raises(ScenarioError, match=r"^topology is not runnable: buffer holds a whole frame \(stage 1\)$"):
            parse_scenario(second_camera_overflows())

    @pytest.mark.parametrize("fps, sim, message", [
        (0, {"seed": 5, "n_frames": 3}, "^cannot generate frames from a zero frame-rate camera$"),
        (1e-320, {"seed": 5, "n_frames": 3}, "^frame_rate 1e-320 gives a frame period too long to count in ns$"),
        (1e-320, {"seed": 5, "duration_ns": 1000}, "^frame_rate 1e-320 gives a frame period too long to count in ns$"),
    ], ids=["zero-rate", "period-overflow", "period-overflow-duration"])
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_every_camera_generates_its_frames(self, fps, sim, message):
        camera = {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000}
        doc = base_doc(cameras=[camera, dict(camera, frame_rate=fps)], sim=sim)
        del doc["camera"]
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(doc)
        # A zero-rate camera stopped by duration generates no frames, which is no fault.
        assert parse_scenario(dict(doc, cameras=[camera, dict(camera, frame_rate=0)], sim={"seed": 5, "duration_ns": 1000}))

    def test_processing_shorthand(self):
        sc = parse_scenario(base_doc(processing_time_ns=150_000))
        proc = sc.pipelines[0].stages[-1]
        assert proc.processing.fixed_ns == 150_000

    def test_processing_without_distribution_is_fixed(self):
        for doc in (base_doc(processing_time_ns={"fixed_ns": 7}), custom_doc(processing={"fixed_ns": 7})):
            assert parse_scenario(doc).pipelines[0].stages[-1].processing == FixedProcessing(7)

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False), value=st.sampled_from([0, 0.0, 5]))
    def test_processing_round_trips_and_refuses_a_foreign_parameter(self, rng, value):
        processing = make_processing(rng)
        doc = to_dict(processing)
        assert from_dict(PROCESSING_KINDS, doc) == processing
        report = json.loads(metrics.export_structured(run(build_direct(
            CameraSpec(1_000, 8, 1000), PCIeLink(3, 1), processing=processing), SimConfig(seed=1, n_frames=1))))
        assert report["topology"]["stages"][-1]["processing"] == doc
        # A parameter of another distribution is a key the record does not have, whatever its value.
        foreign = [f.name for cls in PROCESSING_KINDS.values() if cls is not type(processing) for f in fields(cls)]
        for name in foreign:
            bad = dict(doc, **{name: value})
            match = rf"{type(processing).__name__}: unknown keys \['{name}'\]"
            for scenario in (base_doc(processing_time_ns=bad), custom_doc(processing=bad)):
                with pytest.raises(ScenarioError, match=match):
                    parse_scenario(scenario)
            text = json.dumps(replace_node(copy.deepcopy(report), ("topology", "stages", -1, "processing"), bad))
            for reader in (import_structured, metrics.import_summary):
                with pytest.raises(InvalidSpecError, match=match):
                    reader(text)

    @pytest.mark.parametrize("mutate", list(MALFORMED_DOCUMENTS))
    def test_malformed_documents_rejected(self, mutate):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ScenarioError, match=MALFORMED_DOCUMENTS[mutate]):
            parse_scenario(doc)

    def test_custom_must_validate(self):
        doc = custom_doc()
        doc["stages"] = [{"kind": "sensor"}, {"kind": "processor"}]
        with pytest.raises(ScenarioError, match="^topology is not runnable: at least one LinkStage present$"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "architecture, key",
        [
            ("direct", "grabber_capacity_bytes"),
            ("direct", "grabber_latency_ns"),
            ("direct", "camera_interface"),
            ("custom", "pcie"),
            ("custom", "processing_time_ns"),
            ("custom", "sensor_latency_ns"),
            ("custom", "camera_buffer_capacity_bytes"),
            ("classic", "stages"),
        ],
    )
    def test_key_the_architecture_does_not_read_exits_1(self, tmp_path, capsys, architecture, key):
        docs = {
            "direct": base_doc(),
            "custom": custom_doc(),
            "classic": base_doc(architecture="classic", camera_interface={"kind": "camera_link", "config": "full"}),
        }
        values = {
            "grabber_capacity_bytes": 1024,
            "grabber_latency_ns": 7,
            "camera_interface": {"kind": "camera_link", "config": "full"},
            "pcie": {"kind": "pcie", "generation": 3, "lanes": 1},
            "processing_time_ns": 100_000,
            "sensor_latency_ns": 7,
            "camera_buffer_capacity_bytes": 4096,
            "stages": [{"kind": "sensor"}],
        }
        doc = {**docs[architecture], key: values[key]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(path), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {architecture} architecture does not read {key!r}\n"

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(path)


def expected_budget_rows() -> list:
    """Every (label, rate in Gb/s) that `acqsim budget --all` prints, in order,
    rebuilt from exact fractions: the README's PCIe ladder (raw GT/s times the
    line code) and Camera Link (bits x 85 MHz), then the nominal rates of the
    CoaXPress grades, GigE Vision, one CLHS lane and USB3."""
    raw_gt = {1: Fraction(5, 2), 2: Fraction(5), 3: Fraction(8), 4: Fraction(16), 5: Fraction(32)}
    code = {1: Fraction(8, 10), 2: Fraction(8, 10), 3: Fraction(128, 130), 4: Fraction(128, 130),
            5: Fraction(128, 130)}
    rows = [(f"pcie-gen{g}-x{n}", n * raw_gt[g] * code[g]) for g in raw_gt for n in (1, 2, 4, 8, 16)]
    rows += [(f"camera-link-{config}", Fraction(bits * 85, 1000))
             for config, bits in (("base", 24), ("medium", 48), ("full", 84))]
    cxp = {"cxp1": "1.25", "cxp2": "2.5", "cxp3": "3.125", "cxp5": "5", "cxp6": "6.25", "cxp10": "10", "cxp12": "12.5"}
    rows += [(grade, Fraction(gbps)) for grade, gbps in cxp.items()]
    rows += [("gige-1g", Fraction(1)), ("gige-10g", Fraction(10)), ("clhs-x1", Fraction(103, 10)),
             ("usb3", Fraction(5))]
    return rows


class TestBudgetCommand:
    @pytest.mark.parametrize("argv", [["--all"], []], ids=["all", "no-flags"])
    def test_full_table_pinned(self, argv, capsys):
        assert main(["budget", *argv]) == 0
        rows = expected_budget_rows()
        assert len(rows) == 39
        expected = ["# protocol efficiency: 1.000000", f"{'link':<20} {'rate_gbps':>12}"]
        expected += [f"{label:<20} {float(rate):>12.3f}" for label, rate in rows]
        assert capsys.readouterr().out.splitlines() == expected

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
        "argv",
        [["--max-payload", "0"], ["--header-overhead", "-1"], ["--flow-control", "2"], ["--efficiency", "0"], ["--lanes", "3"]],
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
        out = capsys.readouterr().out.splitlines()
        assert "direct-1mpx: latency ns min=1015625 p50=1015625 p99=1015625 max=1015625 " \
               "throughput=7.876923 Gb/s" in out

    def test_nothing_delivered_prints_no_latency(self, tmp_path, capsys):
        # The run ends before the first frame, about 1.02 ms in transit, reaches the processor.
        doc = json.loads((SCENARIOS / "direct-1mpx.json").read_text(encoding="utf-8"))
        doc["sim"] = {"seed": 1, "duration_ns": 1_000_000}
        path = tmp_path / "short-run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(path), "-o", str(tmp_path / "short")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "direct-1mpx: generated=2 delivered=0 dropped=0 in_flight=2" in out
        assert "direct-1mpx: latency ns n/a (no frame delivered) throughput=0.000000 Gb/s" in out
        # The report keeps its zero aggregates.
        a = import_structured((tmp_path / "short.json").read_text()).aggregates
        assert (a.latency_min_ns, a.latency_p50_ns, a.latency_p99_ns, a.latency_max_ns) == (0, 0, 0, 0)

    def test_deadline_violation_exits_2(self, tmp_path, capsys):
        stem = str(tmp_path / "d150")
        code = main(["simulate", str(SCENARIOS / "deadline-150us.json"), "--output", stem])
        assert code == 2
        report = import_structured((tmp_path / "d150.json").read_text())
        assert report.aggregates.safety_violations == 1

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

    @pytest.mark.parametrize("name", ["scen", "scen.json"])
    def test_default_output_beside_scenario(self, tmp_path, capsys, name):
        # The dot in the directory name is no extension of the scenario file.
        folder = tmp_path / "runs.d"
        folder.mkdir()
        (folder / name).write_text((SCENARIOS / "direct-1mpx.json").read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["simulate", str(folder / name)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["runs.d"]
        assert sorted(p.name for p in folder.iterdir()) == sorted([name, "scen-report.csv", "scen-report.json"])

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

    @staticmethod
    def two_camera_scenario(tmp_path, second_rate, **overrides) -> str:
        camera = {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 1000}
        doc = base_doc(cameras=[camera, dict(camera, frame_rate=second_rate)],
                       pcie={"kind": "pcie", "generation": 5, "lanes": 16}, sim={"seed": 3, "n_frames": 3}, **overrides)
        del doc["camera"]
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_failed_pipeline_keeps_earlier_output(self, tmp_path, capsys):
        # Only the second camera's run can find its fault: at its longer frame period the drifted stamps'
        # squares overflow. It fails after the first pipeline wrote its files and summary.
        path = self.two_camera_scenario(tmp_path, 100, clock={"drift_ppm": 4e153})
        assert main(["simulate", path, "-o", str(tmp_path / "m")]) == 1
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert out[:5] == [
            "aggregate camera demand: 8.800 Gb/s over 2 pipelines",
            f"wrote {tmp_path / 'm-cam0.json'}",
            f"wrote {tmp_path / 'm-cam0.csv'}",
            "unit-cam0: generated=3 delivered=3 dropped=0 in_flight=0",
            "unit-cam0: latency ns min=15870 p50=15870 p99=15870 max=15870 throughput=11.905530 Gb/s",
        ]
        assert len(out) == 6 and out[5].endswith(" ns, violations: safety=0 control=0 timestamp=1")
        assert captured.err == "error: timestamp errors too large for a finite RMS\n"
        assert sorted(p.name for p in tmp_path.glob("m-*")) == ["m-cam0.csv", "m-cam0.json"]

    @pytest.mark.parametrize("rate, message", [
        (0, "cannot generate frames from a zero frame-rate camera"),
        (1e-320, "frame_rate 1e-320 gives a frame period too long to count in ns"),
    ], ids=["zero-rate", "period-overflow"])
    def test_camera_that_cannot_generate_writes_nothing(self, tmp_path, capsys, rate, message):
        # The first camera's pipeline would run; reading the scenario refuses the second camera before it does.
        path = self.two_camera_scenario(tmp_path, rate)
        assert main(["simulate", path, "-o", str(tmp_path / "m")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.glob("m*")) == []

    def test_pipeline_the_gate_rejects_writes_nothing(self, tmp_path, capsys):
        # The first camera's pipeline would run; the scenario is refused before it does.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(second_camera_overflows()), encoding="utf-8")
        assert main(["simulate", str(path), "-o", str(tmp_path / "m")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: topology is not runnable: buffer holds a whole frame (stage 1)\n"
        assert list(tmp_path.glob("m*")) == []

    def test_envelope_warning_is_one_clean_line(self, tmp_path):
        # Two cameras outside the envelope in the same way: one warning line
        # naming no library source, then the link-demand warning of each.
        proc = run_cli("simulate", two_camera_scenario(tmp_path), "-o", str(tmp_path / "two"))
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "warning: resolution 32768 px is outside the [1000000, 8000000] px envelope",
            "warning: overflow-8to4-cam0: camera demand 8.000 Gb/s exceeds a link by 4.000 Gb/s",
            "warning: overflow-8to4-cam1: camera demand 8.000 Gb/s exceeds a link by 4.000 Gb/s",
        ]

    def test_tiny_link_excess_does_not_read_zero(self, tmp_path, capsys):
        # At this rate the camera demands 3/14293651161088000 Gb/s more than gen 3 x1 carries.
        camera = {"resolution_pixels": 1_000_000, "bit_depth": 8, "frame_rate": 984.6153846153846}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(base_doc(camera=camera)), encoding="utf-8")
        assert main(["simulate", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_VIOLATIONS  # a safety miss
        assert capsys.readouterr().err == "warning: unit: camera demand 7.877 Gb/s exceeds a link by 2.1e-16 Gb/s\n"


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
        assert main(["compare", a, b, "--output", str(tmp_path / "missing" / "delta.json")]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write delta table")

    def test_self_compare_all_zero(self, two_reports, capsys):
        a, _ = two_reports
        capsys.readouterr()
        assert main(["compare", a, a]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith(("#", "metric"))]
        for line in lines:
            assert line.split()[-1] in ("0", "0.000000")

    @pytest.mark.parametrize("target", ["a", "b", "a-dotted", "a-with-b-missing"])
    def test_output_onto_report_refused(self, two_reports, tmp_path, capsys, monkeypatch, target):
        a, b = two_reports
        if target == "a-with-b-missing":  # refused before either report is read
            b = str(tmp_path / "missing.json")
        (tmp_path / "sub").mkdir()
        output = {"b": b, "a-dotted": str(tmp_path / "sub" / ".." / Path(a).name)}.get(target, a)
        before = {a: Path(a).read_bytes(), **({b: Path(b).read_bytes()} if Path(b).exists() else {})}
        monkeypatch.setattr(cli, "_read_summary", lambda path: pytest.fail(f"read {path}"))
        capsys.readouterr()
        assert main(["compare", a, b, "--output", output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output {output} would overwrite the report {b if target == 'b' else a}\n"
        assert {path: Path(path).read_bytes() for path in before} == before

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
        def refuse(**columns):
            raise AssertionError("compare built a frame")

        monkeypatch.setattr(metrics, "FrameTable", refuse)
        a, b = two_reports
        with pytest.raises(AssertionError, match="built a frame"):
            import_structured(Path(a).read_text(encoding="utf-8"))
        assert main(["compare", a, b]) == 0

    def test_envelope_warning_only_from_simulate(self, tmp_path):
        # compare reads an out-of-envelope camera back from the reports;
        # only reading a scenario judges a camera.
        stem = str(tmp_path / "ov")
        assert main(["simulate", str(SCENARIOS / "overflow-8to4.json"), "-o", stem]) == 0
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
            (("schema_version",), 2),
            (("topology", "stages", 0), {"kind": "host_memory"}),
            (("digest",), "0000000000000000"),
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
            "schema-version-2",
            "topology-without-sensor",
            "digest-of-another-topology",
        ],
    )
    def test_malformed_report_exits_1_without_traceback(self, tmp_path, capsys, path, value):
        good = tmp_path / "good.json"
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", str(tmp_path / "good")]) == 0
        doc = replace_node(json.loads(good.read_text(encoding="utf-8")), path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert_clean_config_error("compare", str(good), str(bad))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("frames", 0, "camera_timestamp_ns"), None, "frame 'camera_timestamp_ns' must be an integer, got None"),
            (("frames", 0, "frame_id"), True, "frame 'frame_id' must be an integer, got True"),
            (("frames", 0, "timestamp_clamped"), 0, "frame 'timestamp_clamped' must be a boolean, got 0"),
            (("frames", 0, "disposition"), "lost",
             "frame 'disposition' must be one of \"delivered\", \"dropped\", \"in_flight\", got 'lost'"),
            (("frames", 0, "drop_reason"), "x",
             "frame 'drop_reason' must be one of \"buffer_overflow\", \"backpressure\", null, got 'x'"),
            (("occupancy", "1", 0), ["a", None],
             "an occupancy trace must be a JSON array of [time_ns, bytes] pairs of integers"),
            (("aggregates", "violations"), [{"kind": "bogus", "frame_id": 0, "measured_ns": 2, "budget_ns": 1}],
             "violation 'kind' must be one of \"safety\", \"control\", \"timestamp\", got 'bogus'"),
            (("frames", 0, "stage_times", -1, 1), None,
             "a delivered frame must have an egress time at its first and last stage"),
            (("aggregates", "violations"), [{"kind": "safety", "frame_id": 0, "measured_ns": 2, "budget_ns": 1}],
             "aggregates.violations are not the deadline misses of the report's frames"),
            (("config", "clock"), {}, "report config must hold each field of its records, and only those"),
        ],
        ids=["camera-timestamp-null", "frame-id-bool", "clamped-int", "disposition-lost", "drop-reason-x",
             "occupancy-point-string", "violation-bogus-kind", "delivered-without-processor-egress",
             "violation-not-of-the-frames", "clock-defaulted"],
    )
    def test_value_of_wrong_type_or_set_one_error_line(self, tmp_path, capsys, path, value, message):
        good = tmp_path / "good.json"
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", str(tmp_path / "good")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(replace_node(json.loads(good.read_text(encoding="utf-8")), path, value)),
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(good), str(bad)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot load reports: {bad}: {message}\n")

    @pytest.mark.parametrize("edit", sorted(HOLDING_STAGE_EDITS))
    def test_stage_map_other_than_the_holding_stages_one_error_line(self, tmp_path, capsys, edit):
        scenario = tmp_path / "direct.json"
        scenario.write_text(json.dumps(base_doc(pcie={"kind": "pcie", "generation": 5, "lanes": 16},
                                                sim={"seed": 1, "n_frames": 3})), encoding="utf-8")
        assert main(["simulate", str(scenario), "-o", str(tmp_path / "good")]) == 0
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        doc = json.loads(good.read_text(encoding="utf-8"))
        HOLDING_STAGE_EDITS[edit](doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(good), str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot load reports: {bad}: ") and err.count("\n") == 1
        assert err.endswith("the holding stages [0, 1, 3]\n")


# Custom chains whose link is not between two holders: the stage of custom_doc() left out, and the rule broken.
LINK_SHAPES = {
    "sensor-feeds-link": (1, "LinkStage preceded by an emitting stage (stage 1)"),
    "link-feeds-processor": (3, "LinkStage followed by a holding stage (stage 2)"),
}


@pytest.mark.parametrize("shape", sorted(LINK_SHAPES))
def test_link_between_holders(shape, tmp_path, capsys):
    # The scenario reader refuses the chain, simulate exits 1 with one error line and writes no report, and
    # both report readers refuse a report whose topology is the chain.
    left_out, rule = LINK_SHAPES[shape]
    message = f"topology is not runnable: {rule}"
    doc = custom_doc()
    del doc["stages"][left_out]
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(doc)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(path), "-o", str(tmp_path / "r")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.glob("r*")) == []
    scenario = parse_scenario(custom_doc())
    report = json.loads(export_structured(run(scenario.pipelines[0], scenario.configs()[0])))
    del report["topology"]["stages"][left_out]
    report["digest"] = topology_digest(from_dict(Topology, report["topology"]))
    for reader in (import_structured, metrics.import_summary):
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            reader(json.dumps(report))


class TestParallelRead:
    """compare reads report B in a forked child while it reads report A."""

    @pytest.fixture()
    def reports(self, tmp_path):
        paths = {}
        for name in ("classic-1mpx", "direct-1mpx"):
            assert main(["simulate", str(SCENARIOS / f"{name}.json"), "-o", str(tmp_path / name)]) == 0
            paths[name] = str(tmp_path / f"{name}.json")
        doc = json.loads(Path(paths["direct-1mpx"]).read_text(encoding="utf-8"))
        (tmp_path / "syntax.json").write_text("{", encoding="utf-8")
        (tmp_path / "v2.json").write_text(json.dumps(dict(doc, schema_version=2)), encoding="utf-8")
        paths.update(syntax=str(tmp_path / "syntax.json"), v2=str(tmp_path / "v2.json"),
                     missing=str(tmp_path / "missing.json"))
        return paths

    @staticmethod
    def compare_output(capsys, tmp_path, a, b):
        capsys.readouterr()
        delta = tmp_path / "delta.json"
        delta.unlink(missing_ok=True)
        code = main(["compare", a, b, "--output", str(delta)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, delta.read_bytes() if delta.exists() else None

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("syntax", "direct-1mpx", "{syntax}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("direct-1mpx", "v2", "{v2}: unsupported schema_version 2 (expected 1)"),
            ("syntax", "v2", "{syntax}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("v2", "syntax", "{v2}: unsupported schema_version 2 (expected 1)"),
            ("classic-1mpx", "missing", "[Errno 2] No such file or directory: '{missing}'"),
            ("missing", "v2", "[Errno 2] No such file or directory: '{missing}'"),
        ],
        ids=["a-bad", "b-bad", "both-bad", "both-bad-swapped", "b-missing", "a-missing"],
    )
    def test_error_precedence(self, reports, capsys, tmp_path, monkeypatch, fork, a, b, message):
        if not fork:
            monkeypatch.delattr(os, "fork")
        expected = f"error: cannot load reports: {message.format(**reports)}\n"
        assert self.compare_output(capsys, tmp_path, reports[a], reports[b]) == (1, "", expected, None)

    def test_output_identical_without_fork(self, reports, capsys, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        a, b = reports["classic-1mpx"], reports["direct-1mpx"]
        parallel = self.compare_output(capsys, tmp_path, a, b)
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert self.compare_output(capsys, tmp_path, a, b) == parallel
        assert parallel[0] == 0 and "copy_count" in parallel[1]

    def test_other_threads_read_sequentially(self, reports, capsys, tmp_path, monkeypatch):
        a, b = reports["classic-1mpx"], reports["direct-1mpx"]
        expected = self.compare_output(capsys, tmp_path, a, b)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with another thread running"))
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert self.compare_output(capsys, tmp_path, a, b) == expected
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_failed_fork_reads_sequentially(self, reports, capsys, tmp_path, monkeypatch):
        a, b = reports["classic-1mpx"], reports["direct-1mpx"]
        expected = self.compare_output(capsys, tmp_path, a, b)

        def no_process():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        open_fds = os.listdir("/dev/fd")
        assert self.compare_output(capsys, tmp_path, a, b) == expected
        assert os.listdir("/dev/fd") == open_fds  # the pipe is closed

    @pytest.mark.parametrize("ending", ["exit", "kill", "unpicklable-error"])
    def test_child_without_result_falls_back(self, reports, capsys, tmp_path, monkeypatch, ending):
        class LocalError(ValueError):  # a local class does not pickle
            pass

        a, b = reports["classic-1mpx"], reports["direct-1mpx"]
        sequential = self.compare_output(capsys, tmp_path, a, b)
        parent = os.getpid()
        read_summary = cli._read_summary

        def child_ends(path):
            if ending == "unpicklable-error":
                raise LocalError(f"{os.getpid() == parent} {path}")
            if os.getpid() != parent:
                if ending == "exit":
                    os._exit(0)  # a clean exit, but no result
                os.kill(os.getpid(), signal.SIGKILL)
            return read_summary(path)

        monkeypatch.setattr(cli, "_read_summary", child_ends)
        if ending == "unpicklable-error":
            # Both reads fail here, so A's error, raised by this process, is printed.
            sequential = (1, "", f"error: cannot load reports: True {a}\n", None)
        assert self.compare_output(capsys, tmp_path, a, b) == sequential

    @pytest.mark.parametrize("a, b", [("classic-1mpx", "direct-1mpx"), ("missing", "direct-1mpx"),
                                      ("classic-1mpx", "v2")], ids=["good", "a-missing", "b-bad"])
    def test_no_child_left(self, reports, capsys, tmp_path, a, b):
        self.compare_output(capsys, tmp_path, reports[a], reports[b])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_duplicated_stdout_in_a_pipe(self, reports, capsys, tmp_path):
        a, b = reports["classic-1mpx"], reports["direct-1mpx"]
        capsys.readouterr()
        assert main(["compare", a, b]) == 0
        expected = capsys.readouterr().out
        # The line printed before main stays in stdout's buffer across the fork.
        script = "import sys; from acqsim.cli import main; print('before'); sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONUNBUFFERED="")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, "compare", a, b], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\n" + expected, "")


class TestParallelSimulate:
    """simulate --format both builds and writes the CSV in a forked child while it builds and writes the JSON."""

    @staticmethod
    def simulate_output(capsys, tmp_path, scenario, *flags):
        """Exit code, stdout, stderr and every written file's bytes by name."""
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        capsys.readouterr()
        code = main(["simulate", scenario, "-o", str(out / "r"), *flags])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return code, captured.out.replace(str(out), "<out>"), captured.err, files

    @pytest.fixture()
    def forks(self, monkeypatch):
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        return forks

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")) + ["two-cameras"])
    def test_output_identical_without_fork(self, capsys, tmp_path, monkeypatch, forks, name):
        scenario = two_camera_scenario(tmp_path) if name == "two-cameras" else str(SCENARIOS / f"{name}.json")
        parallel = self.simulate_output(capsys, tmp_path, scenario)
        pipelines = 2 if name == "two-cameras" else 1
        assert len(forks) == pipelines
        assert len(parallel[3]) == 2 * pipelines
        monkeypatch.delattr(os, "fork")
        assert self.simulate_output(capsys, tmp_path, scenario) == parallel

    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_child_without_result_falls_back(self, capsys, tmp_path, monkeypatch, forks, ending):
        scenario = str(SCENARIOS / "overflow-8to4.json")
        sequential = self.simulate_output(capsys, tmp_path, scenario, "--format", "tabular")[3]
        sequential.update(self.simulate_output(capsys, tmp_path, scenario, "--format", "structured")[3])
        expected = self.simulate_output(capsys, tmp_path, scenario)
        assert expected[3] == sequential
        parent = os.getpid()
        export_tabular = metrics.export_tabular

        def child_ends(report):
            if os.getpid() != parent:
                if ending == "exit":
                    os._exit(0)  # a clean exit, but no result
                os.kill(os.getpid(), signal.SIGKILL)
            return export_tabular(report)

        # Installed as the library's own exporter too, so that simulate still forks.
        monkeypatch.setattr(metrics, "export_tabular", child_ends)
        monkeypatch.setattr(cli, "export_tabular", child_ends)
        forks.clear()
        assert self.simulate_output(capsys, tmp_path, scenario) == expected
        assert forks == [1]

    def test_wrapped_exporter_called_here(self, capsys, tmp_path, monkeypatch):
        scenario = str(SCENARIOS / "classic-1mpx.json")
        expected = self.simulate_output(capsys, tmp_path, scenario)
        calls = []
        export_tabular = metrics.export_tabular

        def recorded(report):
            calls.append(os.getpid())
            return export_tabular(report)

        monkeypatch.setattr(cli, "export_tabular", recorded)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a wrapped exporter"))
        assert self.simulate_output(capsys, tmp_path, scenario) == expected
        assert calls == [os.getpid()]

    @pytest.mark.parametrize("fmt", ["structured", "tabular"])
    def test_one_format_never_forks(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail(f"forked for --format {fmt}"))
        code, _, _, files = self.simulate_output(capsys, tmp_path, str(SCENARIOS / "classic-1mpx.json"), "--format", fmt)
        assert (code, list(files)) == (0, ["r.json" if fmt == "structured" else "r.csv"])

    @pytest.mark.parametrize("scenario", ["classic-1mpx", "two-cameras"])
    def test_no_child_left(self, capsys, tmp_path, forks, scenario):
        path = two_camera_scenario(tmp_path) if scenario == "two-cameras" else str(SCENARIOS / f"{scenario}.json")
        assert self.simulate_output(capsys, tmp_path, path)[0] == 0
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_pipe_builds_here(self, capsys, tmp_path, monkeypatch, forks):
        scenario = str(SCENARIOS / "classic-1mpx.json")
        expected = self.simulate_output(capsys, tmp_path, scenario)

        def no_descriptor():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_descriptor)
        forks.clear()
        assert self.simulate_output(capsys, tmp_path, scenario) == expected
        assert forks == []

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    def test_json_path_a_directory_exits_3(self, capsys, tmp_path, monkeypatch, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        (tmp_path / "r.json").mkdir()
        code = main(["simulate", str(SCENARIOS / "classic-1mpx.json"), "-o", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.endswith(f"\nerror: cannot write report: [Errno 21] Is a directory: '{tmp_path / 'r.json'}'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    def test_csv_path_a_directory_exits_3(self, capsys, tmp_path, monkeypatch, forks, fork):
        scenario = str(SCENARIOS / "classic-1mpx.json")
        clean = self.simulate_output(capsys, tmp_path, scenario)[3]["r.json"]
        if not fork:
            monkeypatch.delattr(os, "fork")
        forks.clear()
        (tmp_path / "r.csv").mkdir()
        code = main(["simulate", scenario, "-o", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert (code, captured.out, forks) == (3, "", [1] if fork else [])
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot write report: [Errno 21] Is a directory: '{tmp_path / 'r.csv'}'"]
        assert (tmp_path / "r.json").read_bytes() == clean  # written whole before the child's error is raised
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_csv_built_and_written_in_the_child(self, capsys, tmp_path, monkeypatch, forks):
        scenario = str(SCENARIOS / "classic-1mpx.json")
        expected = self.simulate_output(capsys, tmp_path, scenario)
        log = tmp_path / "calls"
        export_tabular, write = metrics.export_tabular, cli._write

        def record(what):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{what} {os.getpid()}\n")

        def recorded_export(report):
            record("build")
            return export_tabular(report)

        def recorded_write(path, text):
            record(f"write {os.path.basename(path)}")
            write(path, text)

        # Installed as the library's own exporter too, so that simulate still forks.
        monkeypatch.setattr(metrics, "export_tabular", recorded_export)
        monkeypatch.setattr(cli, "export_tabular", recorded_export)
        monkeypatch.setattr(cli, "_write", recorded_write)
        forks.clear()
        assert self.simulate_output(capsys, tmp_path, scenario) == expected
        assert forks == [1]
        calls = [line.rsplit(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
        builds = [pid for what, pid in calls if what == "build"]
        assert len(builds) == 1 and int(builds[0]) != os.getpid()
        assert [what for what, pid in calls if pid == builds[0]] == ["build", "write r.csv"]
        assert not [what for what, pid in calls if what.endswith(".csv") and pid != builds[0]]


@pytest.fixture(scope="module")
def failing_inputs(tmp_path_factory):
    """A folder of files that each make a command fail: scenarios, reports,
    and a folder where the delta table should go. No case writes to it."""
    tmp_path = tmp_path_factory.mktemp("failing")
    direct = json.loads((SCENARIOS / "direct-1mpx.json").read_text(encoding="utf-8"))
    (tmp_path / "direct.json").write_text(json.dumps(direct), encoding="utf-8")
    (tmp_path / "two-frames.json").write_text(json.dumps(dict(direct, sim=dict(direct["sim"], n_frames=2))), encoding="utf-8")
    other_camera = dict(direct, camera=dict(direct["camera"], bit_depth=16))
    (tmp_path / "other-camera.json").write_text(json.dumps(other_camera), encoding="utf-8")
    for forwarding in ("cut_through", "store_and_forward"):  # a camera buffer smaller than one frame
        tiny = dict(direct, camera_buffer_capacity_bytes=1000, camera_buffer_forwarding=forwarding)
        (tmp_path / f"tiny-{forwarding}.json").write_text(json.dumps(tiny), encoding="utf-8")
    linkless = dict(custom_doc(), stages=[{"kind": "sensor"}, {"kind": "processor"}])
    (tmp_path / "linkless.json").write_text(json.dumps(linkless), encoding="utf-8")
    (tmp_path / "syntax.json").write_text("{", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    (tmp_path / "folder").mkdir()
    for stem in ("direct", "two-frames", "other-camera"):
        assert main(["simulate", str(tmp_path / f"{stem}.json"), "-o", str(tmp_path / f"r-{stem}")]) == 0
    doc = json.loads((tmp_path / "r-direct.json").read_text(encoding="utf-8"))
    # The edited report keeps the digest of its topology, so that only the named fault is found.
    topology = replace_node(copy.deepcopy(doc["topology"]), ("stages", 1, "capacity_bytes"), 1000)
    edited = dict(doc, topology=topology, digest=topology_digest(from_dict(Topology, topology)))
    (tmp_path / "r-tiny.json").write_text(json.dumps(edited), encoding="utf-8")
    return tmp_path


# Each failure path's arguments, exit code and error line, {tmp} standing
# for failing_inputs' folder; the paths other tests pin are left out.
ERROR_LINES = {
    "budget-gen": (["budget", "--gen", "7"], 1, "--gen must be 1..5, got 7"),
    "budget-lanes": (["budget", "--lanes", "3"], 1, "--lanes must be one of 1/2/4/8/16, got 3"),
    "budget-efficiency-and-overhead": (
        ["budget", "--efficiency", "0.5", "--flow-control", "1"],
        1,
        "--efficiency cannot be combined with --max-payload, --header-overhead or --flow-control",
    ),
    "budget-efficiency-range": (["budget", "--efficiency", "0"], 1, "protocol_efficiency must be in (0, 1], got 0.0"),
    "budget-overhead-range": (["budget", "--max-payload", "0"], 1, "max_payload_bytes must be positive"),
    "simulate-missing": (
        ["simulate", "{tmp}/missing.json"],
        1,
        "cannot read scenario: [Errno 2] No such file or directory: '{tmp}/missing.json'",
    ),
    "simulate-syntax": (
        ["simulate", "{tmp}/syntax.json"],
        1,
        "invalid JSON in {tmp}/syntax.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "simulate-not-utf8": (
        ["simulate", "{tmp}/latin1.json"],
        1,
        "invalid JSON in {tmp}/latin1.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "simulate-deep": (
        ["simulate", "{tmp}/deep.json"],
        1,
        "invalid JSON in {tmp}/deep.json: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
    "simulate-no-link": (["simulate", "{tmp}/linkless.json"], 1, "topology is not runnable: at least one LinkStage present"),
    **{
        f"simulate-tiny-{forwarding}": (
            ["simulate", f"{{tmp}}/tiny-{forwarding}.json"],
            1,
            "topology is not runnable: buffer holds a whole frame (stage 1)",
        )
        for forwarding in ("cut_through", "store_and_forward")
    },
    "simulate-onto-scenario": (
        ["simulate", "{tmp}/direct.json", "-o", "{tmp}/direct", "--format", "structured"],
        1,
        "output {tmp}/direct.json would overwrite the scenario file",
    ),
    "compare-other-camera": (
        ["compare", "{tmp}/r-direct.json", "{tmp}/r-other-camera.json"],
        1,
        "incomparable runs: runs use different cameras",
    ),
    "compare-frame-counts": (
        ["compare", "{tmp}/r-direct.json", "{tmp}/r-two-frames.json"],
        1,
        "incomparable runs: runs generated different frame counts (1 vs 2)",
    ),
    "compare-tiny-buffer": (
        ["compare", "{tmp}/r-direct.json", "{tmp}/r-tiny.json"],
        1,
        "cannot load reports: {tmp}/r-tiny.json: topology is not runnable: buffer holds a whole frame (stage 1)",
    ),
    **{
        f"compare-deep-{side}": (
            ["compare", *pair],
            1,
            "cannot load reports: {tmp}/deep.json: "
            "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        )
        for side, pair in (("a", ("{tmp}/deep.json", "{tmp}/r-direct.json")), ("b", ("{tmp}/r-direct.json", "{tmp}/deep.json")))
    },
    "compare-not-utf8": (
        ["compare", "{tmp}/r-direct.json", "{tmp}/latin1.json"],
        1,
        "cannot load reports: {tmp}/latin1.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "compare-delta-table-unwritable": (
        ["compare", "{tmp}/r-direct.json", "{tmp}/r-direct.json", "-o", "{tmp}/folder"],
        3,
        "cannot write delta table: [Errno 21] Is a directory: '{tmp}/folder'",
    ),
}


@pytest.mark.parametrize("argv, code, message", ERROR_LINES.values(), ids=ERROR_LINES)
def test_error_line(failing_inputs, capsys, argv, code, message):
    capsys.readouterr()
    assert main([arg.format(tmp=failing_inputs) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(tmp=failing_inputs)}\n"
    if code == 1:  # refused before anything was printed
        assert captured.out == ""


# The stderr of a command whose stdout is /dev/full ("full") or closed from the start ("none").
STDOUT_ERRORS = {
    "full": f"error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n",
    "none": "error: cannot write stdout: it is closed\n",
}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
class TestClosedStdout:
    """A stdout that cannot be written ends the command with exit 3 once it has
    written every file, whether stdout is buffered or not. A reader that has
    gone, as in `acqsim compare a.json b.json | head -5`, leaves stderr empty;
    a full device or no stdout at all gives one error line."""

    @staticmethod
    def run_closed(unbuffered, *argv, cwd, stdout="gone"):
        """`python -m acqsim *argv` with stdout a pipe whose reader has gone,
        /dev/full ("full") or closed from the start ("none")."""
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "acqsim", *argv]
        if stdout == "none":
            command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        run = functools.partial(subprocess.run, command, stderr=subprocess.PIPE, text=True, env=env, cwd=cwd)
        if stdout == "full":
            with open("/dev/full", "wb") as full:
                return run(stdout=full)
        read, write = os.pipe()
        os.close(read)
        try:
            return run(stdout=write)
        finally:
            os.close(write)

    def test_budget(self, unbuffered, tmp_path):
        proc = self.run_closed(unbuffered, "budget", "--gen", "3", "--lanes", "1", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (3, "")

    def test_simulate_writes_every_file(self, unbuffered, tmp_path, capsys):
        scenario = str(SCENARIOS / "direct-1mpx.json")
        proc = self.run_closed(unbuffered, "simulate", scenario, "-o", "p", cwd=tmp_path)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "error" not in proc.stderr
        assert main(["simulate", scenario, "-o", str(tmp_path / "open")]) == 0
        for suffix in (".json", ".csv"):
            assert (tmp_path / ("p" + suffix)).read_bytes() == (tmp_path / ("open" + suffix)).read_bytes()

    def test_simulate_two_cameras(self, unbuffered, tmp_path, capsys):
        scenario = two_camera_scenario(tmp_path)
        proc = self.run_closed(unbuffered, "simulate", scenario, "-o", "p", cwd=tmp_path)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and "error" not in proc.stderr
        assert main(["simulate", scenario, "-o", str(tmp_path / "open")]) == 0
        written = sorted(p.name for p in tmp_path.glob("p-*"))
        assert written == ["p-cam0.csv", "p-cam0.json", "p-cam1.csv", "p-cam1.json"]
        for name in written:
            assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("p-", "open-")).read_bytes()

    def test_compare(self, unbuffered, tmp_path, capsys):
        assert main(["simulate", str(SCENARIOS / "direct-1mpx.json"), "-o", str(tmp_path / "r")]) == 0
        proc = self.run_closed(unbuffered, "compare", "r.json", "r.json", "--output", "d.json", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (3, "")
        report = str(tmp_path / "r.json")
        assert main(["compare", report, report, "--output", str(tmp_path / "open.json")]) == 0
        assert (tmp_path / "d.json").read_bytes() == (tmp_path / "open.json").read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]], ids=["acqsim", "simulate"])
    def test_help(self, unbuffered, tmp_path, argv):
        proc = self.run_closed(unbuffered, *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (3, "")

    @pytest.mark.parametrize("stdout", ["full", "none"])
    @pytest.mark.parametrize("command", ["budget", "simulate", "compare", "help"])
    def test_unwritable_stdout_one_error_line(self, unbuffered, tmp_path, capsys, stdout, command):
        if stdout == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        scenario = str(SCENARIOS / "direct-1mpx.json")
        report = str(tmp_path / "r.json")
        assert main(["simulate", scenario, "-o", str(tmp_path / "r")]) == 0
        assert main(["compare", report, report, "--output", str(tmp_path / "d.json")]) == 0
        argv, files = {
            "budget": (["budget", "--gen", "3", "--lanes", "1"], {}),
            "simulate": (["simulate", scenario, "-o", "p"], {"p.json": "r.json", "p.csv": "r.csv"}),
            "compare": (["compare", "r.json", "r.json", "--output", "p.json"], {"p.json": "d.json"}),
            "help": (["--help"], {}),
        }[command]
        proc = self.run_closed(unbuffered, *argv, cwd=tmp_path, stdout=stdout)
        assert proc.returncode == 3
        # simulate warns that direct-1mpx's camera outruns a link.
        errors = "".join(line for line in proc.stderr.splitlines(keepends=True) if not line.startswith("warning: "))
        assert errors == STDOUT_ERRORS[stdout]
        assert sorted(p.name for p in tmp_path.glob("p.*")) == sorted(files)
        for name, expected in files.items():
            assert (tmp_path / name).read_bytes() == (tmp_path / expected).read_bytes()


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
        "edits, refused_on_read",
        [
            ({("camera", "frame_rate"): 1e-308}, True),
            ({("camera", "frame_rate"): 1e-299, ("sim", "n_frames"): 3}, False),
            ({("camera_interface", "cable_length_m"): 3e307, ("pcie", "cable_length_m"): 3e307}, False),
            (
                {
                    ("processing_time_ns",): {"distribution": "normal", "mean_ns": 1e308, "sigma_ns": 0},
                    ("sim", "n_frames"): 3,
                },
                False,
            ),
        ],
        ids=["frame-period", "generation-time", "cable-delay-latency-mean", "processing-latency-mean"],
    )
    @pytest.mark.filterwarnings("ignore::acqsim.linkmodel.EnvelopeWarning")
    def test_values_past_float_range_exit_1(self, edits, refused_on_read, tmp_path, capsys):
        """Finite inputs whose period, generation times or mean latency leave the float range.
        A period that overflows is refused when the scenario is read; the others only a run can find."""
        doc = copy.deepcopy(FUZZ_SCENARIOS["classic-1mpx"])
        for path, value in edits.items():
            replace_node(doc, path, value)
        if refused_on_read:
            with pytest.raises(ScenarioError, match="^frame_rate 1e-308 gives a frame period too long to count in ns$"):
                parse_scenario(doc)
        else:
            parsed = parse_scenario(doc)
            with pytest.raises(InvalidSpecError):
                run(parsed.pipelines[0], parsed.configs()[0])
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(scenario), "-o", str(tmp_path / "out")]) == 1
        assert "error: " in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = run_cli("budget", "--gen", "3", "--lanes", "1")
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
