"""nvidia-smi style memory readings for a training configuration.

The paper samples nvidia-smi during the pre-training and training phases
(Table IV); :class:`MemoryMonitor` produces the same two readings per GPU
from the analytical memory model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.dnn.stats import NetworkStats
from repro.gpu.memory import MemoryModel, MemoryUsage
from repro.gpu.spec import TESLA_V100, GpuSpec


@dataclass(frozen=True)
class MemoryReading:
    """One nvidia-smi sample for one GPU."""

    gpu: int
    phase: str            # "pretraining" | "training"
    usage: MemoryUsage

    @property
    def total_gb(self) -> float:
        return self.usage.total_gb


class MemoryMonitor:
    """Produces Table IV's per-GPU memory readings."""

    def __init__(
        self,
        spec: GpuSpec = TESLA_V100,
        constants: CalibrationConstants = CALIBRATION,
        **model_kwargs,
    ) -> None:
        self.model = MemoryModel(spec, constants, **model_kwargs)

    def sample(
        self, stats: NetworkStats, batch: int, num_gpus: int
    ) -> List[MemoryReading]:
        """Pre-training and training readings for every participating GPU.

        GPU0 is the KVStore server; its training reading includes the
        aggregation buffers.  All pre-training readings are identical, and
        all non-server training readings are identical -- exactly the
        structure of the paper's Table IV.
        """
        readings: List[MemoryReading] = []
        pre = self.model.pretraining(stats)
        for gpu in range(num_gpus):
            readings.append(MemoryReading(gpu=gpu, phase="pretraining", usage=pre))
        worker = self.model.training(stats, batch)
        server = (self.model.training(stats, batch, is_server=True)
                  if num_gpus > 1 else worker)
        for gpu in range(num_gpus):
            readings.append(MemoryReading(
                gpu=gpu, phase="training", usage=server if gpu == 0 else worker))
        return readings
