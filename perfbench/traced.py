"""Run one ``acqsim`` CLI command in-process with layer wrappers installed.

Usage: traced.py TRACE_ID SPANS_OUT -- CLI_ARGS...

The wrappers replace module attributes that the package looks up at call
time, so nothing under ``src/`` changes.  Calls made once per command
become spans (name, start, end, parent, trace id); calls made once per
frame only add to a per-name count and summed time.  Everything stays
in memory until the command returns, then goes to SPANS_OUT as JSON.
The process exits with the CLI's own exit code.
"""

from __future__ import annotations

import collections
import json
import sys
import time

clock = time.perf_counter

# Per-frame calls: reported name -> simcore attribute.
INNER = {
    "simcore.serialization": "serialization_time_ns",
    "simcore.effective_rate": "effective_rate_fraction",
    "timing.sample_timestamp": "sample_timestamp_detailed",
}


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self.stack: list = []
        self.calls = collections.Counter()
        self.seconds = collections.Counter()

    def add_span(self, name: str, start: float, end: float, parent=None) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "trace_id": self.trace_id}
        )
        return len(self.spans) - 1

    def span(self, name: str, fn):
        """Wrap fn so each call records one span; a text result also records its size."""

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = self.add_span(name, clock(), 0.0, parent)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[sid]["end"] = clock()
            if isinstance(result, str):
                self.spans[sid]["bytes"] = len(result.encode("utf-8"))
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a per-frame function: count calls and sum their time."""
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1

        return wrapper


def install(tracer: Tracer) -> None:
    import acqsim.cli as cli
    import acqsim.metrics as metrics
    import acqsim.simcore as simcore

    for attr, name in (
        ("load_scenario", "scenario.load_scenario"),
        ("run", "simcore.run"),
        ("export_structured", "metrics.export_structured"),
        ("export_tabular", "metrics.export_tabular"),
        ("import_structured", "metrics.import_structured"),
        ("compare", "metrics.compare"),
    ):
        setattr(cli, attr, tracer.span(name, getattr(cli, attr)))
    # simcore.run imports build_report from metrics at call time, and
    # summarize calls check_deadlines through the metrics module.
    metrics.build_report = tracer.span("metrics.build_report", metrics.build_report)
    metrics.check_deadlines = tracer.span("timing.check_deadlines", metrics.check_deadlines)
    for name, attr in INNER.items():
        setattr(simcore, attr, tracer.counted(name, getattr(simcore, attr)))


def main(argv: list) -> int:
    trace_id, spans_out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_ID SPANS_OUT -- CLI_ARGS...")
    tracer = Tracer(trace_id)
    start = clock()
    import acqsim.cli

    tracer.add_span("cli.import", start, clock())
    install(tracer)
    code = tracer.span("cli.main", acqsim.cli.main)(cli_args)
    inner = {name: {"calls": tracer.calls[name], "s": tracer.seconds[name]} for name in INNER}
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "inner": inner}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
