"""Scaling-law summaries of multi-GPU training results.

These are the standard parallel-performance metrics applied to the
simulator's output: speedup and efficiency per GPU count, Amdahl-law
serial-fraction fits, and the Karp-Flatt experimentally determined serial
fraction -- the quantity that makes the paper's "LeNet cannot amortize its
overheads" observation precise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.train.results import TrainingResult


@dataclass(frozen=True)
class ScalingCurve:
    """Speedup/efficiency across GPU counts for one configuration."""

    network: str
    comm_method: str
    batch_size: int
    gpu_counts: Tuple[int, ...]
    epoch_times: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gpu_counts) != len(self.epoch_times):
            raise ConfigurationError("gpu_counts and epoch_times must align")
        if not self.gpu_counts or self.gpu_counts[0] != 1:
            raise ConfigurationError("a scaling curve starts at 1 GPU")

    def speedup(self, gpus: int) -> float:
        idx = self.gpu_counts.index(gpus)
        return self.epoch_times[0] / self.epoch_times[idx]

    def efficiency(self, gpus: int) -> float:
        """Parallel efficiency: speedup / GPU count."""
        return self.speedup(gpus) / gpus

    @property
    def speedups(self) -> Tuple[float, ...]:
        return tuple(self.speedup(g) for g in self.gpu_counts)

    @property
    def efficiencies(self) -> Tuple[float, ...]:
        return tuple(self.efficiency(g) for g in self.gpu_counts)

    def serial_fraction(self) -> float:
        """Amdahl serial fraction fitted over all multi-GPU points."""
        fractions = [
            karp_flatt(self.speedup(g), g) for g in self.gpu_counts if g > 1
        ]
        return sum(fractions) / len(fractions) if fractions else 0.0


def scaling_curve(results: Sequence[TrainingResult]) -> ScalingCurve:
    """Build a :class:`ScalingCurve` from runs of one config at many GPU counts."""
    if not results:
        raise ConfigurationError("need at least one result")
    tags = {
        (r.config.network, r.config.comm_method.value, r.config.batch_size)
        for r in results
    }
    if len(tags) != 1:
        raise ConfigurationError(
            f"results span multiple configurations: {sorted(tags)}"
        )
    ordered = sorted(results, key=lambda r: r.config.num_gpus)
    network, method, batch = next(iter(tags))
    return ScalingCurve(
        network=network,
        comm_method=method,
        batch_size=batch,
        gpu_counts=tuple(r.config.num_gpus for r in ordered),
        epoch_times=tuple(r.epoch_time for r in ordered),
    )


def karp_flatt(speedup: float, gpus: int) -> float:
    """Karp-Flatt experimentally determined serial fraction.

    ``e = (1/S - 1/N) / (1 - 1/N)`` -- 0 for perfect scaling, 1 for none.
    Values can exceed these bounds for superlinear or sub-1x speedups;
    they are clamped to keep downstream summaries sane.
    """
    if gpus <= 1:
        raise ConfigurationError("Karp-Flatt needs more than one GPU")
    if speedup <= 0:
        raise ConfigurationError("speedup must be positive")
    e = (1.0 / speedup - 1.0 / gpus) / (1.0 - 1.0 / gpus)
    return min(1.0, max(0.0, e))


def compare_efficiency(curves: Sequence[ScalingCurve], gpus: int) -> Dict[str, float]:
    """Parallel efficiency of several configurations at one GPU count."""
    return {
        f"{c.network}/{c.comm_method}/b{c.batch_size}": c.efficiency(gpus)
        for c in curves
    }
