"""The README's library example and `acqsim budget` lines run as shown.

Each `print` in the python block that ends in a `# value` comment must
print that value; a comment with `...` gives a prefix of it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from acqsim.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
