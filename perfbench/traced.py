"""Run one platefuse CLI command in-process with per-layer spans.

Usage: python3 perfbench/traced.py SPANS_JSON CLI_ARG...

Before calling ``platefuse.cli.main(CLI_ARG...)`` this wraps each public
function of the pipeline under the name its caller looks it up by (see
``SPANS``); no source file changes. Spans are aggregated in memory per name,
as self time (the span's duration minus the time of the spans it called) and
call count, and written as JSON when the command ends:

    {"rc": 0, "wall_s": 1.9, "cpu_s": 1.9, "missing": [],
     "spans": {"cli.main": {"self_s": 0.2, "calls": 1}, ...}}

``cli.main`` is the root span: its self time is everything the command did
outside the named layers (file reads, record construction, argument
parsing), so the self times of all spans add up to ``wall_s``. ``cpu_s`` is
the process CPU time spent over the same ``cli.main`` call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT_SPAN = "cli.main"

# Span name -> every "module:attribute.path" binding through which the CLI
# reaches that function. A function imported into another module is wrapped
# in that module too, since callers look it up there.
SPANS = {
    "fileio.parse_predictions": ("platefuse.fileio:parse_predictions",),
    "core.normalize_text": ("platefuse.fileio:normalize_text",),
    "fileio.dump_fused": ("platefuse.fileio:dump_fused",),
    "fileio.load_fused": ("platefuse.fileio:load_fused",),
    "core.hc_fuse": ("platefuse.core:hc_fuse",),
    "core.mv_fuse": ("platefuse.core:mv_fuse",),
    "core.mvcp_fuse": ("platefuse.core:mvcp_fuse",),
    "kernels.hc_select": ("platefuse.core:kernels.hc_select",),
    "kernels.mv_select": ("platefuse.core:kernels.mv_select",),
    "kernels.mvcp_select": ("platefuse.core:kernels.mvcp_select",),
    "scoring.sweep_top_n": ("platefuse.cli:sweep_top_n",),
    "scoring.recognition_rate": ("platefuse.cli:recognition_rate",
                                 "platefuse.scoring:recognition_rate"),
    "synth.generate": ("platefuse.cli:generate",),
    "fileio.dump_predictions": ("platefuse.fileio:dump_predictions",),
    "fileio.render_report": ("platefuse.fileio:render_report",),
}

SPAN_NAMES = (ROOT_SPAN, *SPANS)


class Tracer:
    """Per-name self time and call count of nested spans."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._child_s: list[float] = []  # time spent in callees, per open span

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._child_s.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._child_s:
                    self._child_s[-1] += elapsed
        return span

    def install(self, spans) -> list[str]:
        """Wrap every binding in ``spans``; return the ones that do not exist."""
        missing = []
        for name, bindings in spans.items():
            for binding in bindings:
                module, _, path = binding.partition(":")
                *owners, attr = path.split(".")
                try:
                    owner = importlib.import_module(module)
                    for part in owners:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    missing.append(binding)
                    continue
                setattr(owner, attr, self.wrap(name, fn))
        return missing


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[1]), argv[2:]
    from platefuse import cli

    tracer = Tracer()
    missing = tracer.install(SPANS)
    traced_main = tracer.wrap(ROOT_SPAN, cli.main)
    start, start_cpu = perf_counter(), process_time()
    rc = traced_main(cli_args)
    wall, cpu = perf_counter() - start, process_time() - start_cpu
    spans = {name: {"self_s": tracer.self_s[name], "calls": tracer.calls[name]}
             for name in tracer.calls}
    out.write_text(json.dumps({"rc": rc, "wall_s": wall, "cpu_s": cpu,
                               "missing": missing,
                               "spans": spans}) + "\n", encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
