"""Low-overhead hierarchical wall-clock spans and counters.

One :class:`PerfProfiler` measures the *simulator's own* execution the way
:class:`~repro.profile.profiler.Profiler` measures the simulated GPU's.
Instrumented components use the module singleton :data:`PERF`::

    from repro.perf.spans import PERF

    with PERF.span("nccl.build"):
        plan = build_ring_plan(...)
    PERF.count("sim.events", env.dispatched)

Disabled (the default), ``span()`` hands back a shared no-op context
manager and ``count()`` returns after one attribute check, so the hot
paths stay within measurement noise and simulated outputs are
byte-identical.  Enabled, a span costs two ``time.perf_counter()`` calls
and one list append.

Spans nest: each record carries its slash-joined path (``"trainer.measure/
nccl.build"``), so :meth:`PerfProfiler.aggregate` can attribute *self*
time (total minus enclosed children) per path -- the number that tells
you where the wall-clock actually goes.  The profiler is intentionally
not thread-safe: the simulator is single-threaded, and process-pool
workers each get their own module state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: its path in the open-span stack and its window."""

    name: str
    path: str
    depth: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span (children included)."""
        return self.end - self.start


@dataclass
class SpanAggregate:
    """Per-path totals produced by :meth:`PerfProfiler.aggregate`."""

    calls: int = 0
    total: float = 0.0      # inclusive wall-clock seconds
    self_time: float = 0.0  # total minus directly enclosed child spans


class _NoopSpan:
    """The shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    """A live span; closing it (even via an exception) records it."""

    __slots__ = ("_perf", "name", "path", "depth", "start")

    def __init__(self, perf: "PerfProfiler", name: str) -> None:
        self._perf = perf
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self._perf._stack
        self.depth = len(stack)
        self.path = f"{stack[-1].path}/{self.name}" if stack else self.name
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        stack = self._perf._stack
        # Pop through any abandoned inner spans (a raise between
        # __enter__ and __exit__ of a child can strand it) so nesting
        # stays consistent under exceptions.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        self._perf.records.append(
            SpanRecord(name=self.name, path=self.path, depth=self.depth,
                       start=self.start, end=end)
        )


class PerfProfiler:
    """Collects spans and counters for one profiled stretch of execution."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[_Span] = []

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        """Start recording (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; accumulated data stays readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans, counters and any open span stack."""
        self.records.clear()
        self.counters.clear()
        self._stack.clear()

    # -- recording ------------------------------------------------------
    def span(self, name: str) -> object:
        """A context manager timing one named region (no-op if disabled)."""
        if not self.enabled:
            return _NOOP
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter (no-op if disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- analysis -------------------------------------------------------
    def aggregate(self) -> Dict[str, SpanAggregate]:
        """Per-path call counts, inclusive totals and self time.

        Self time subtracts each span's *directly* enclosed children, so
        the self-time column sums to the root spans' inclusive total.
        """
        out: Dict[str, SpanAggregate] = {}
        child_total: Dict[str, float] = {}
        for record in self.records:
            agg = out.setdefault(record.path, SpanAggregate())
            agg.calls += 1
            agg.total += record.duration
            if record.depth > 0:
                parent = record.path.rsplit("/", 1)[0]
                child_total[parent] = child_total.get(parent, 0.0) + record.duration
        for path, agg in out.items():
            agg.self_time = agg.total - child_total.get(path, 0.0)
        return out

    def counters_dict(self) -> Dict[str, float]:
        """JSON-ready counter snapshot, sorted by name."""
        return {name: self.counters[name] for name in sorted(self.counters)}

    def to_registry(self, registry) -> None:
        """Publish the current totals into an obs
        :class:`~repro.obs.metrics.MetricsRegistry` (``perf_span_seconds`` /
        ``perf_span_calls`` gauges labelled by path, ``perf_counter_total``
        labelled by counter name), so the PR 1 exporters -- Prometheus
        text, CSV -- can ship simulator self-time alongside the simulated
        metrics."""
        seconds = registry.gauge(
            "perf_span_seconds",
            "Inclusive wall-clock seconds of one simulator self-time span path",
            labelnames=("path",),
        )
        calls = registry.gauge(
            "perf_span_calls",
            "Times one simulator self-time span path was entered",
            labelnames=("path",),
        )
        for path, agg in sorted(self.aggregate().items()):
            seconds.labels(path=path).set(agg.total)
            calls.labels(path=path).set(agg.calls)
        counter = registry.gauge(
            "perf_counter_total",
            "Simulator self-profiling counter totals",
            labelnames=("name",),
        )
        for name, value in sorted(self.counters.items()):
            counter.labels(name=name).set(value)


def render_perf_report(perf: PerfProfiler, top: Optional[int] = None) -> str:
    """A fixed-width self-time report, widest totals first."""
    aggregates = sorted(
        perf.aggregate().items(), key=lambda item: -item[1].total
    )
    if top is not None:
        aggregates = aggregates[:top]
    lines = [f"{'span path':<44} {'calls':>8} {'total s':>10} {'self s':>10}"]
    for path, agg in aggregates:
        lines.append(
            f"{path:<44} {agg.calls:>8} {agg.total:>10.4f} {agg.self_time:>10.4f}"
        )
    if perf.counters:
        lines.append("")
        lines.append(f"{'counter':<44} {'value':>16}")
        for name, value in sorted(perf.counters.items()):
            lines.append(f"{name:<44} {value:>16g}")
    return "\n".join(lines)


#: The process-wide profiler every instrumented component consults.
#: Disabled by default; ``repro-experiments`` enables it for one run under
#: ``--self-profile`` and ``perfbench/run.py`` enables it under ``--trace 1``.
PERF = PerfProfiler()
