"""The README's library example and `acqsim budget` lines run as shown,
and the JSON examples of docs/scenario-schema.md decode.

Each `print` in the python block that ends in a `# value` comment must
print that value; a comment with `...` gives a prefix of it.
"""

import contextlib
import functools
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from acqsim import CameraSpec, ClockModel, DeadlineSpec, OverheadModel, SimConfig
from acqsim.cli import main
from acqsim.linkmodel import LINK_KINDS, Link
from acqsim.scenario import _parse_processing
from acqsim.topology import PROCESSING_KINDS, Topology, check_runnable, from_dict

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SCHEMA = (ROOT / "docs" / "scenario-schema.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_library_example_prints_its_comments():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    commented = [(line.split("#", 1)[1].strip(), got) for line, got in zip(prints, printed) if "#" in line]
    assert commented
    for comment, got in commented:
        head, dots, _ = comment.partition("...")
        assert got.startswith(head) if dots else got == head


BUDGET_LINES = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("acqsim budget")]


def test_budget_lines_found():
    assert len(BUDGET_LINES) >= 3


@pytest.mark.parametrize("line", BUDGET_LINES)
def test_budget_line_runs(line, capsys):
    assert main(shlex.split(line, comments=True)[1:]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# protocol efficiency: ") and "pcie-gen" in out


def _schema_examples() -> dict:
    """Section title -> the JSON values of its json blocks in the schema doc:
    one per line, except the Stages array, which spans its block."""
    examples = {}
    for section in re.split(r"^## ", SCHEMA, flags=re.M)[1:]:
        title = section.split("\n", 1)[0]
        for block in re.findall(r"^```json\n(.*?)^```", section, re.S | re.M):
            lines = [block] if title.startswith("Stages") else block.splitlines()
            examples.setdefault(title, []).extend(json.loads(line) for line in lines)
    return examples


SCHEMA_EXAMPLES = _schema_examples()


def test_schema_examples_found():
    counts = {title: len(values) for title, values in SCHEMA_EXAMPLES.items()}
    assert counts == {
        "Camera": 1,
        "Link": 6,
        "Overhead": 1,
        "Clock": 1,
        "Deadlines": 1,
        "Processing": 4,
        "Stages (custom architecture)": 1,
        "Sim": 1,
    }


# The decoder of each section's examples, and the record it returns.
SCHEMA_DECODERS = {
    "Camera": (functools.partial(from_dict, CameraSpec), CameraSpec),
    "Link": (functools.partial(from_dict, LINK_KINDS), Link),
    "Overhead": (functools.partial(from_dict, OverheadModel), OverheadModel),
    "Clock": (functools.partial(from_dict, ClockModel), ClockModel),
    "Deadlines": (functools.partial(from_dict, DeadlineSpec), DeadlineSpec),
    "Processing": (_parse_processing, tuple(PROCESSING_KINDS.values())),
    "Sim": (functools.partial(from_dict, SimConfig), SimConfig),
}


@pytest.mark.parametrize("title", list(SCHEMA_DECODERS))
def test_schema_example_decodes(title):
    decode, cls = SCHEMA_DECODERS[title]
    for value in SCHEMA_EXAMPLES[title]:
        assert isinstance(decode(value), cls)


def test_schema_stages_example_is_runnable():
    (stages,) = SCHEMA_EXAMPLES["Stages (custom architecture)"]
    (camera,) = SCHEMA_EXAMPLES["Camera"]
    topology = from_dict(Topology, {"name": "schema-example", "stages": stages, "camera": camera})
    assert check_runnable(topology) is None
