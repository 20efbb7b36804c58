"""The benchmark harness stays runnable: its self-check passes on this tree.

The self-check runs every workload once at a tiny size in both modes
through the output gate, and checks that the gate rejects a broken
report.  It takes a few seconds; full benchmark runs stay out of the
test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_check():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "self-check passed" in proc.stdout
