"""Analytical kernel cost model.

Each layer turns into one forward kernel and one or two backward kernels
(dgrad/wgrad for weighted layers).  A kernel's duration is a roofline::

    t = launch_overhead + max(t_compute, t_memory)

where ``t_compute`` splits FLOPs between the tensor-core and fp32 pipelines
and both pipelines apply a saturating efficiency in the amount of work per
kernel -- small kernels cannot fill 80 SMs, which is exactly why LeNet's
per-iteration time barely grows with batch size while Inception-v3's grows
almost linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.dnn.stats import DTYPE_BYTES, CompiledLayer, NetworkStats
from repro.gpu.spec import TESLA_V100, GpuSpec
from repro.perf.spans import PERF

#: Layer kinds whose FLOPs map onto matrix-multiply hardware.
_MATMUL_KINDS = frozenset({"conv", "fc"})


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """One GPU kernel: its provenance and its modelled duration."""

    name: str
    layer: str
    stage: str          # "fp" or "bp"
    duration: float     # seconds, including launch overhead
    flops: float
    bytes_moved: int


class KernelCostModel:
    """Maps layer work to kernel durations on a given GPU."""

    def __init__(
        self,
        spec: GpuSpec = TESLA_V100,
        constants: CalibrationConstants = CALIBRATION,
        use_tensor_cores: bool = True,
    ) -> None:
        self.spec = spec
        self.constants = constants
        self.use_tensor_cores = use_tensor_cores

    # ------------------------------------------------------------------
    # Primitive cost
    # ------------------------------------------------------------------
    @staticmethod
    def _service_time(work: float, peak: float, half_saturation: float) -> float:
        """Time for ``work`` at a saturating achieved rate.

        ``t = work / (peak * work/(work + half))`` simplifies to
        ``(work + half) / peak`` -- an affine form that is numerically
        safe for arbitrarily small positive work.
        """
        if work <= 0:
            return 0.0
        return (work + half_saturation) / peak

    def kernel_time(self, flops: float, bytes_moved: float, matmul: bool) -> float:
        """Duration of one kernel moving ``bytes_moved`` and computing ``flops``."""
        c = self.constants
        t_compute = 0.0
        if flops > 0:
            if matmul and self.use_tensor_cores:
                tensor_flops = flops * c.tensor_core_fraction
                fp32_flops = flops - tensor_flops
            else:
                tensor_flops, fp32_flops = 0.0, flops
            t_compute += self._service_time(
                tensor_flops,
                self.spec.tensor_flops * c.max_compute_efficiency,
                c.tensor_half_saturation_flops,
            )
            t_compute += self._service_time(
                fp32_flops,
                self.spec.fp32_flops * c.max_compute_efficiency,
                c.fp32_half_saturation_flops,
            )
        t_memory = self._service_time(
            bytes_moved, self.spec.memory_bandwidth, c.memory_half_saturation_bytes
        )
        return c.kernel_launch_overhead + max(t_compute, t_memory)

    # ------------------------------------------------------------------
    # Per-layer kernels
    # ------------------------------------------------------------------
    def forward_kernels(self, layer: CompiledLayer, batch: int) -> List[KernelSpec]:
        """Forward kernels of one layer for a mini-batch."""
        if layer.forward_flops == 0 and layer.kind.value == "reshape":
            return []  # views launch nothing
        flops = layer.forward_flops * batch
        bytes_moved = (layer.input_numel + layer.output_numel) * DTYPE_BYTES * batch
        duration = self.kernel_time(flops, bytes_moved, layer.kind.value in _MATMUL_KINDS)
        return [
            KernelSpec(
                name=f"{layer.name}.fwd",
                layer=layer.name,
                stage="fp",
                duration=duration,
                flops=flops,
                bytes_moved=bytes_moved,
            )
        ]

    def backward_kernels(self, layer: CompiledLayer, batch: int) -> List[KernelSpec]:
        """Backward kernels (dgrad + wgrad for weighted layers)."""
        if layer.backward_kernels == 0:
            return []
        flops_total = layer.backward_flops * batch
        bytes_total = (
            2 * (layer.input_numel + layer.output_numel) * DTYPE_BYTES * batch
        )
        count = layer.backward_kernels
        kernels = []
        suffixes = ("dgrad", "wgrad") if count == 2 else ("bwd",)
        for suffix in suffixes:
            duration = self.kernel_time(
                flops_total / count,
                bytes_total / count,
                layer.kind.value in _MATMUL_KINDS,
            )
            kernels.append(
                KernelSpec(
                    name=f"{layer.name}.{suffix}",
                    layer=layer.name,
                    stage="bp",
                    duration=duration,
                    flops=flops_total / count,
                    bytes_moved=bytes_total // count,
                )
            )
        return kernels

    # ------------------------------------------------------------------
    # Whole-network schedules
    # ------------------------------------------------------------------
    def forward_schedule(self, stats: NetworkStats, batch: int) -> List[KernelSpec]:
        """All forward kernels in topological order."""
        with PERF.span("costmodel.schedule"):
            kernels: List[KernelSpec] = []
            for layer in stats.layers:
                kernels.extend(self.forward_kernels(layer, batch))
            if PERF.enabled:
                PERF.count("costmodel.kernels", len(kernels))
            return kernels

    def backward_schedule(
        self, stats: NetworkStats, batch: int
    ) -> List[Tuple[CompiledLayer, List[KernelSpec]]]:
        """Backward kernels in reverse topological order, grouped by layer.

        Grouping preserves the gradient-readiness boundary the trainer needs
        for BP/WU overlap: once a layer's backward kernels finish, its
        weight gradients may be pushed to the KVStore.
        """
        with PERF.span("costmodel.schedule"):
            schedule: List[Tuple[CompiledLayer, List[KernelSpec]]] = []
            for layer in reversed(stats.layers):
                schedule.append((layer, self.backward_kernels(layer, batch)))
            if PERF.enabled:
                PERF.count("costmodel.kernels",
                           sum(len(k) for _, k in schedule))
            return schedule

    # ------------------------------------------------------------------
    # Aggregates used for reporting
    # ------------------------------------------------------------------
    @staticmethod
    def schedule_time(
        fwd: Iterable[KernelSpec],
        bwd: Iterable[Tuple[CompiledLayer, Iterable[KernelSpec]]],
    ) -> float:
        """Serial time of built FP and BP schedules: the FP sum first,
        then one subtotal per backward layer."""
        total = sum(k.duration for k in fwd)
        for _, kernels in bwd:
            total += sum(k.duration for k in kernels)
        return total

    def iteration_compute_time(self, stats: NetworkStats, batch: int) -> float:
        """Serial FP+BP kernel time for one iteration (no comm, no sync)."""
        return self.schedule_time(self.forward_schedule(stats, batch),
                                  self.backward_schedule(stats, batch))

    def compute_utilization(self, stats: NetworkStats, batch: int,
                            busy: Optional[float] = None) -> float:
        """Achieved fraction of peak fp32+tensor throughput during FP+BP.

        ``busy`` is :meth:`iteration_compute_time`, which a caller that
        has built the schedules passes as their :meth:`schedule_time`.
        """
        if busy is None:
            busy = self.iteration_compute_time(stats, batch)
        if busy <= 0:
            return 0.0
        flops = (
            stats.forward_flops_per_sample + stats.backward_flops_per_sample
        ) * batch
        peak = self.spec.fp32_flops + (
            self.spec.tensor_flops - self.spec.fp32_flops
        ) * (self.constants.tensor_core_fraction if self.use_tensor_cores else 0.0)
        return min(1.0, flops / (busy * peak))
