"""Exporters: Prometheus text format, JSONL event stream, CSV.

``render_prometheus`` serializes a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text exposition format (HELP/TYPE headers, escaped label
values, cumulative histogram buckets).  :class:`JsonlRecorder` subscribes
to a bus and captures every event as a serializable dict, one JSON object
per line on export.  ``write_profile_csv`` flattens a profiler's record
lists into one spreadsheet-friendly table.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from typing import IO, Iterable, List, Optional, Tuple

from repro.obs.bus import EventBus
from repro.obs.events import ObsEvent
from repro.obs.metrics import Histogram, Metric, MetricsRegistry

# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_metric(metric: Metric, lines: List[str]) -> None:
    if metric.help:
        lines.append(f"# HELP {metric.name} {metric.help}")
    lines.append(f"# TYPE {metric.name} {metric.kind}")
    children = list(metric.items())
    if not children and not metric.labelnames:
        children = [({}, metric._default_child())]
    for labels, child in children:
        if isinstance(metric, Histogram):
            cumulative = child.cumulative_counts()
            for bound, count in zip(metric.buckets, cumulative):
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(bound)
                lines.append(
                    f"{metric.name}_bucket{_format_labels(bucket_labels)} {count}"
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(f"{metric.name}_bucket{_format_labels(inf_labels)} {child.count}")
            lines.append(f"{metric.name}_sum{_format_labels(labels)} "
                         f"{_format_value(child.sum)}")
            lines.append(f"{metric.name}_count{_format_labels(labels)} {child.count}")
        else:
            lines.append(
                f"{metric.name}{_format_labels(labels)} {_format_value(child.value)}"
            )


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.collect():
        _render_metric(metric, lines)
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# JSONL event stream
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _additive_defaults(cls: type) -> Tuple[Tuple[str, object], ...]:
    return tuple((f.name, f.default) for f in dataclasses.fields(cls)
                 if f.metadata.get("additive"))


def event_to_dict(event: ObsEvent) -> dict:
    """A JSON-serializable view of one event (``type`` + its fields).

    Fields marked :data:`~repro.obs.events.ADDITIVE` are left out while
    they hold their default.
    """
    payload = {"type": type(event).__name__}
    payload.update(dataclasses.asdict(event))
    for name, default in _additive_defaults(type(event)):
        if payload[name] == default:
            del payload[name]
    return payload


class JsonlRecorder:
    """Bus subscriber that captures every event for JSONL export.

    With ``stream`` given, events are additionally written through as they
    arrive (one JSON object per line), which keeps memory flat on long
    runs.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 stream: Optional[IO[str]] = None) -> None:
        self.events: List[ObsEvent] = []
        self.stream = stream
        if bus is not None:
            bus.subscribe(None, self.on_event)

    def on_event(self, event: ObsEvent) -> None:
        self.events.append(event)
        if self.stream is not None:
            self.stream.write(json.dumps(event_to_dict(event), sort_keys=True))
            self.stream.write("\n")

    def write(self, fp: IO[str]) -> int:
        """Dump captured events as JSON lines; returns the line count."""
        return write_events_jsonl(self.events, fp)

    def clear(self) -> None:
        self.events.clear()


def write_events_jsonl(events: Iterable[ObsEvent], fp: IO[str]) -> int:
    """Write events as one JSON object per line; returns the line count."""
    count = 0
    for event in events:
        fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        fp.write("\n")
        count += 1
    return count


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

#: One unified column schema over all four profiler record kinds.
CSV_COLUMNS = (
    "record", "name", "gpu", "kind", "src", "dst", "stage", "layer",
    "iteration", "nbytes", "start", "end", "duration",
)


def write_profile_csv(profiler, fp: IO[str]) -> int:
    """Flatten a profiler's records into one CSV table; returns row count.

    ``profiler`` is anything exposing ``kernels`` / ``transfers`` /
    ``apis`` / ``spans`` record lists
    (:class:`~repro.profile.profiler.Profiler`).
    """
    writer = csv.DictWriter(fp, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    rows = 0
    for k in profiler.kernels:
        writer.writerow({
            "record": "kernel", "name": k.name, "gpu": k.gpu, "stage": k.stage,
            "layer": k.layer, "start": k.start, "end": k.end,
            "duration": k.duration,
        })
        rows += 1
    for t in profiler.transfers:
        writer.writerow({
            "record": "transfer", "kind": t.kind, "src": t.src, "dst": t.dst,
            "nbytes": t.nbytes, "start": t.start, "end": t.end,
            "duration": t.duration,
        })
        rows += 1
    for a in profiler.apis:
        writer.writerow({
            "record": "api", "name": a.name, "gpu": a.gpu, "start": a.start,
            "end": a.end, "duration": a.duration,
        })
        rows += 1
    for s in profiler.spans:
        writer.writerow({
            "record": "span", "name": s.name, "gpu": s.gpu,
            "iteration": s.iteration, "start": s.start, "end": s.end,
            "duration": s.duration,
        })
        rows += 1
    return rows
