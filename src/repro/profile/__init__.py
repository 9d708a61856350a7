"""nvprof/nvidia-smi style observability for simulated training runs.

The :class:`~repro.profile.profiler.Profiler` collects kernel, transfer,
API-call and stage-span intervals during simulation;
:mod:`repro.profile.summary` aggregates them into the quantities the paper
reports (FP/BP/WU breakdown, cudaStreamSynchronize percentages, per-GPU
busy time); :mod:`repro.profile.timeline` exports Chrome traces; and
:mod:`repro.profile.smi` produces nvidia-smi style memory readings.
"""

from repro.profile.ascii_timeline import render_ascii_timeline
from repro.profile.layerwise import LayerProfile, LayerwiseSummary, render_layerwise, summarize_layers
from repro.profile.profiler import Profiler
from repro.profile.smi import MemoryMonitor, MemoryReading
from repro.profile.summary import ApiSummary, StageBreakdown, summarize_apis, summarize_stages
from repro.profile.timeline import export_chrome_trace

__all__ = [
    "ApiSummary",
    "LayerProfile",
    "LayerwiseSummary",
    "MemoryMonitor",
    "MemoryReading",
    "Profiler",
    "StageBreakdown",
    "export_chrome_trace",
    "render_ascii_timeline",
    "render_layerwise",
    "summarize_apis",
    "summarize_layers",
    "summarize_stages",
]
