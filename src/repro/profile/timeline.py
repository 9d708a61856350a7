"""Chrome-trace (about://tracing, Perfetto) export of a profiled run.

The trace groups activity into four processes with named lanes, emitted as
standard ``process_name``/``thread_name`` metadata events so the viewer
shows "GPU kernels / GPU 3" instead of raw ids:

=====  ===================  ============================================
pid    process              lanes (tid)
=====  ===================  ============================================
0      Host (CUDA APIs)     one engine thread per GPU
1      GPU kernels          one lane per GPU index
2      Fabric transfers     one lane per transfer kind; collectives
                            (``dst == -1``) get their own
                            "nccl collectives (all GPUs)" lane
3      Stages               one lane per GPU plus a "global" lane
4      Simulator self-time  one wall-clock lane (``repro.perf`` spans;
                            see :mod:`repro.perf.trace`)
=====  ===================  ============================================
"""

from __future__ import annotations

import json
from typing import IO, List

from repro.perf.trace import _US, _metadata
from repro.profile.profiler import Profiler

_PID_HOST = 0
_PID_GPU = 1
_PID_FABRIC = 2
_PID_STAGES = 3

#: Fixed lane ids within the fabric process.
_TRANSFER_LANES = {"p2p": 0, "h2d": 2, "d2h": 3}
_COLLECTIVE_LANE = 1
_GLOBAL_STAGE_LANE = 999


def chrome_trace_metadata(profiler: Profiler) -> List[dict]:
    """``process_name``/``thread_name`` metadata for the run's lanes."""
    events: List[dict] = [
        _metadata(_PID_HOST, "Host (CUDA APIs)"),
        _metadata(_PID_GPU, "GPU kernels"),
        _metadata(_PID_FABRIC, "Fabric transfers"),
        _metadata(_PID_STAGES, "Stages"),
    ]
    for gpu in sorted({k.gpu for k in profiler.kernels}):
        events.append(_metadata(_PID_GPU, f"GPU {gpu}", tid=gpu))
    for gpu in sorted({a.gpu for a in profiler.apis}):
        events.append(_metadata(_PID_HOST, f"engine thread {gpu}", tid=gpu))
    kinds = {
        t.kind for t in profiler.transfers if not (t.kind == "nccl" and t.dst < 0)
    }
    for kind in sorted(kinds):
        lane = _TRANSFER_LANES.get(kind, 10 + len(_TRANSFER_LANES))
        events.append(_metadata(_PID_FABRIC, kind, tid=lane))
    if any(t.kind == "nccl" and t.dst < 0 for t in profiler.transfers):
        events.append(_metadata(_PID_FABRIC, "nccl collectives (all GPUs)",
                                tid=_COLLECTIVE_LANE))
    span_gpus = sorted({s.gpu for s in profiler.spans if s.gpu >= 0})
    for gpu in span_gpus:
        events.append(_metadata(_PID_STAGES, f"GPU {gpu}", tid=gpu))
    if any(s.gpu < 0 for s in profiler.spans):
        events.append(_metadata(_PID_STAGES, "global", tid=_GLOBAL_STAGE_LANE))
    return events


def chrome_trace_events(profiler: Profiler) -> List[dict]:
    """The run's duration ("X") events as Chrome trace-event dicts."""
    events: List[dict] = []
    for k in profiler.kernels:
        events.append(
            {
                "name": k.name,
                "cat": f"kernel,{k.stage}",
                "ph": "X",
                "ts": k.start * _US,
                "dur": k.duration * _US,
                "pid": _PID_GPU,
                "tid": k.gpu,
                "args": {"layer": k.layer, "stage": k.stage},
            }
        )
    for t in profiler.transfers:
        if t.kind == "nccl" and t.dst < 0:
            # Collective involving every GPU: a dedicated lane, not a
            # bogus point-to-point one.
            name = f"{t.kind}:{t.src}->all"
            tid = _COLLECTIVE_LANE
        else:
            src = "host" if t.src < 0 else f"gpu{t.src}"
            dst = "host" if t.dst < 0 else f"gpu{t.dst}"
            name = f"{t.kind}:{src}->{dst}"
            tid = _TRANSFER_LANES.get(t.kind, 10 + len(_TRANSFER_LANES))
        events.append(
            {
                "name": name,
                "cat": f"transfer,{t.kind}",
                "ph": "X",
                "ts": t.start * _US,
                "dur": t.duration * _US,
                "pid": _PID_FABRIC,
                "tid": tid,
                "args": {"bytes": t.nbytes},
            }
        )
    for a in profiler.apis:
        events.append(
            {
                "name": a.name,
                "cat": "api",
                "ph": "X",
                "ts": a.start * _US,
                "dur": a.duration * _US,
                "pid": _PID_HOST,
                "tid": a.gpu,
            }
        )
    for s in profiler.spans:
        events.append(
            {
                "name": s.name,
                "cat": "span",
                "ph": "X",
                "ts": s.start * _US,
                "dur": s.duration * _US,
                "pid": _PID_STAGES,
                "tid": _GLOBAL_STAGE_LANE if s.gpu < 0 else s.gpu,
                "args": {"iteration": s.iteration},
            }
        )
    return events


def export_chrome_trace(profiler: Profiler, fp: IO[str], perf=None) -> None:
    """Write the run as a Chrome trace JSON file.

    ``perf`` optionally attaches a :class:`~repro.perf.spans.PerfProfiler`
    whose simulator self-time spans ride along on their own process lane
    (pid 4), so one Perfetto tab shows simulated time and the wall-clock
    spent producing it side by side.
    """
    events = chrome_trace_metadata(profiler) + chrome_trace_events(profiler)
    if perf is not None:
        from repro.perf.trace import perf_chrome_trace_events

        events += perf_chrome_trace_events(perf)
    json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fp)
