"""Aggregation of profiler records into the paper's reported quantities."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.profile.profiler import Profiler


@dataclass(frozen=True)
class StageBreakdown:
    """Mean per-iteration stage times (seconds)."""

    fp: float
    bp: float
    wu: float
    iteration: float

    @property
    def fp_bp(self) -> float:
        """The paper's "computation" bucket."""
        return self.fp + self.bp

    @property
    def wu_fraction(self) -> float:
        return self.wu / self.iteration if self.iteration > 0 else 0.0


@dataclass(frozen=True)
class ApiSummary:
    """Total wall time per CUDA API over the measured window."""

    totals: Tuple[Tuple[str, float], ...]   # (api name, seconds), descending

    @property
    def total_time(self) -> float:
        return sum(t for _, t in self.totals)

    def time_of(self, name: str) -> float:
        for api, t in self.totals:
            if api == name:
                return t
        return 0.0

    def percent_of(self, name: str) -> float:
        """Share of total API time spent in ``name`` (nvprof's API view)."""
        total = self.total_time
        return 100.0 * self.time_of(name) / total if total > 0 else 0.0


def summarize_stages(profiler: Profiler) -> StageBreakdown:
    """Mean per-iteration FP / BP / WU spans across the measured window.

    FP and BP spans are recorded per GPU; each iteration's stage time is
    the max across GPUs (the straggler paces synchronous SGD).  The WU span
    is global: the exposed weight-update tail after compute finishes.
    """
    per_iter_stage: Dict[Tuple[int, str], List[float]] = defaultdict(list)
    iterations = set()
    for span in profiler.spans:
        per_iter_stage[(span.iteration, span.name)].append(span.duration)
        iterations.add(span.iteration)
    if not iterations:
        return StageBreakdown(0.0, 0.0, 0.0, 0.0)

    def mean_of(stage: str) -> float:
        values = []
        for it in iterations:
            durations = per_iter_stage.get((it, stage), [])
            if durations:
                values.append(max(durations))
        return sum(values) / len(values) if values else 0.0

    return StageBreakdown(
        fp=mean_of("fp"),
        bp=mean_of("bp"),
        wu=mean_of("wu"),
        iteration=mean_of("iteration"),
    )


def summarize_apis(profiler: Profiler) -> ApiSummary:
    """Total wall time per API name, descending (ties in first-call order)."""
    ordered = tuple(sorted(profiler.api_totals.items(),
                           key=lambda kv: kv[1], reverse=True))
    return ApiSummary(totals=ordered)


def gpu_busy_fractions(profiler: Profiler) -> Dict[int, float]:
    """Fraction of the measured window each GPU spent executing kernels."""
    window_start = min((s.start for s in profiler.spans), default=0.0)
    window_end = max((s.end for s in profiler.spans), default=0.0)
    window = window_end - window_start
    if window <= 0:
        return {}
    return {gpu: t / window
            for gpu, t in sorted(profiler.kernel_busy.items())}
