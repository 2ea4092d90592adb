"""Run one ``nvreadout`` CLI command with per-layer spans recorded.

Usage::

    python launch.py SPANS_JSON JOB_ID [nvreadout arguments...]

The launcher opens a ``cli.import`` span around ``import nvreadout.cli``,
then replaces each layer's public functions with span-recording wrappers
in every ``nvreadout`` module namespace that holds them (``cli`` and
``evaluation`` import some of them by name), and finally calls
``nvreadout.cli.main(argv)`` inside a ``cli.main`` span.  Spans stay in
memory and are written to SPANS_JSON when the command returns; the exit
status is the command's own.  Nothing in the package is modified on disk.

A span is ``{"name", "start", "end", "parent", "job", "counts"}``; times
are ``time.perf_counter`` seconds, ``parent`` is the index of the
enclosing span or null, and ``counts`` holds the work counters measured
at that boundary (bytes read or written, bins drawn, whether a sinusoid
fit failed).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# public function -> span name, per defining module
LAYER_FUNCTIONS = {
    "nvreadout.io": {
        **{name: "io.read" for name in (
            "read_trace_csv", "read_rabi_csv", "read_truth_csv", "read_sweep_csv",
            "read_model", "read_report_csv", "read_repair_csv", "read_fit_csv")},
        **{name: "io.write" for name in (
            "write_trace_csv", "write_rabi_csv", "write_truth_csv", "write_sweep_csv",
            "write_model", "write_report_csv", "write_report_summary",
            "write_repair_csv", "write_fit_csv")},
    },
    "nvreadout.traces": {"simulate_trace": "traces.simulate"},
    "nvreadout.gating": {"sweep_gate": "gating.sweep"},
    "nvreadout.regression": {"train_boundary": "regression.train",
                             "train_rabi": "regression.train",
                             "predict": "regression.apply",
                             "prediction_variance": "regression.apply"},
    "nvreadout.rabi": {"fit_rabi": "rabi.fit"},
    "nvreadout.evaluation": {"evaluate": "evaluation", "repair": "evaluation"},
}


class Tracer:
    """In-memory span recorder for one process (one CLI command)."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "job": self.job, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if name == "io.read":
                    span["counts"]["bytes"] = os.path.getsize(args[0])
                elif name == "traces.simulate":
                    span["counts"]["bins"] = len(args[0])
                result = func(*args, **kwargs)
            except Exception as exc:
                if name == "rabi.fit" and type(exc).__name__ == "FitFailureError":
                    span["counts"]["failed"] = 1
                raise
            finally:
                tracer.close(span)
            if name == "io.write":
                span["counts"]["bytes"] = os.path.getsize(args[0])
            return result

        return traced

    def install(self) -> None:
        """Swap every layer function for its wrapper in all package namespaces."""
        replacements = {}
        for module_name, table in LAYER_FUNCTIONS.items():
            module = sys.modules[module_name]
            for func_name, span_name in table.items():
                original = getattr(module, func_name)
                replacements[id(original)] = (original, self.wrap(original, span_name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "nvreadout" and not module_name.startswith("nvreadout."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, job = sys.argv[1], sys.argv[2]
    tracer = Tracer(job)
    span = tracer.open("cli.import")
    import nvreadout.cli
    tracer.close(span)
    tracer.install()
    span = tracer.open("cli.main")
    try:
        return nvreadout.cli.main(sys.argv[3:])
    finally:
        tracer.close(span)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
