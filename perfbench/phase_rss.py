"""Peak RSS of one simulation, read after each phase in a fresh process.

Usage: phase_rss.py SCENARIO STEM OUT_JSON

Makes the same load, run and two exports as ``acqsim simulate --output
STEM`` on a one-camera scenario, without tracing, and records
``ru_maxrss`` after ``run`` and again after both exports are written.
"""

from __future__ import annotations

import json
import resource
import sys

from acqsim.metrics import export_structured, export_tabular
from acqsim.scenario import load_scenario
from acqsim.simcore import run


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def main(scenario_path: str, stem: str, out_path: str) -> int:
    scenario = load_scenario(scenario_path)
    report = run(scenario.pipelines[0], scenario.configs()[0])
    after_run = peak_mb()
    for suffix, export in ((".json", export_structured), (".csv", export_tabular)):
        with open(stem + suffix, "w", encoding="utf-8") as fh:
            fh.write(export(report))
    after_export = peak_mb()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"simcore.rss_after_run_mb": after_run, "metrics.rss_after_export_mb": after_export}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
