"""Simulator self-profiling: where does *our* wall-clock go?

The paper's method is attributing time on real hardware; :mod:`repro.profile`
applies that idea to the simulated DGX-1.  This package closes the loop and
applies it to the simulator itself: hierarchical wall-clock spans and event
counters (:mod:`repro.perf.spans`) and a Chrome-trace exporter of simulator
self-time (:mod:`repro.perf.trace`).  ``repro-experiments --self-profile``
and the repository benchmark (``perfbench/``) both read them.

Profiling is **off by default**: every instrumentation site in the simulator
is gated on :data:`PERF.enabled <repro.perf.spans.PerfProfiler.enabled>`, so
a disabled profiler leaves simulated outputs byte-identical and costs one
attribute check per site.
"""

from repro.perf.spans import PERF, PerfProfiler, SpanRecord, render_perf_report
from repro.perf.trace import export_perf_chrome_trace, perf_chrome_trace_events

__all__ = [
    "PERF",
    "PerfProfiler",
    "SpanRecord",
    "export_perf_chrome_trace",
    "perf_chrome_trace_events",
    "render_perf_report",
]
