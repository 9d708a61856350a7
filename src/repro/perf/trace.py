"""Chrome-trace export of simulator self-time.

Reuses the PR 1 trace conventions (:mod:`repro.profile.timeline`) but on a
dedicated process lane, so a perf trace can stand alone *or* ride in the
same file as a simulated-run trace without colliding with the simulated
GPU/fabric/stage lanes.  Spans are emitted as duration ("X") events on one
wall-clock lane; Perfetto nests them by time containment, which matches
the span stack exactly because spans close LIFO.
"""

from __future__ import annotations

import json
from typing import IO, List

from repro.perf.spans import PerfProfiler

#: Process lane for simulator self-time, kept clear of the simulated
#: Host/GPU/Fabric/Stages lanes (pids 0-3 in repro.profile.timeline,
#: which builds its lanes with :func:`_metadata` and ``_US`` from here).
PID_SELF = 4

_US = 1e6  # trace events are quoted in microseconds


def _metadata(pid: int, name: str, tid: int = None) -> dict:
    """A process_name/thread_name metadata event (timeline conventions)."""
    event = {
        "name": "thread_name" if tid is not None else "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def perf_chrome_trace_events(perf: PerfProfiler) -> List[dict]:
    """Metadata plus duration events for every recorded span.

    Span timestamps are rebased to the earliest recorded span so the
    trace starts at t=0 regardless of the process's ``perf_counter``
    epoch.  Counters are attached to the process metadata so they travel
    with the trace.
    """
    events: List[dict] = [
        _metadata(PID_SELF, "Simulator self-time"),
        _metadata(PID_SELF, "wall clock", tid=0),
    ]
    if not perf.records:
        return events
    epoch = min(record.start for record in perf.records)
    for record in perf.records:
        events.append(
            {
                "name": record.name,
                "cat": "perf",
                "ph": "X",
                "ts": (record.start - epoch) * _US,
                "dur": record.duration * _US,
                "pid": PID_SELF,
                "tid": 0,
                "args": {"path": record.path, "depth": record.depth},
            }
        )
    return events


def export_perf_chrome_trace(perf: PerfProfiler, fp: IO[str]) -> None:
    """Write a standalone self-time trace (open in ui.perfetto.dev)."""
    trace = {
        "traceEvents": perf_chrome_trace_events(perf),
        "displayTimeUnit": "ms",
    }
    if perf.counters:
        trace["metadata"] = {"perf_counters": perf.counters_dict()}
    json.dump(trace, fp)
