"""Device-memory footprint model (paper Table IV).

The model mirrors how the paper's MXNet container lays out a training run:

* **pre-training**: CUDA context + cuDNN/cuBLAS handles, the framework's
  reserved pool, and one copy of the network parameters (identical on every
  GPU -- Table IV's ``GPUz`` column);
* **training** adds, per GPU: gradients and SGD momentum (two more
  parameter-sized arrays), the materialized forward activations (gradient
  buffers are recycled by MXNet's memory planner, so activations scale with
  ``activation_training_multiplier``, calibrated to 1.0), one cached cuDNN
  workspace per convolution (im2col-sized, batch-proportional, capped per
  operator), and the double-buffered input batch;
* **GPU0** (the parameter server of MXNet's device/NCCL KVStore)
  additionally holds the gradient-aggregation and updated-weight buffers,
  which is why Table IV shows GPU0 above every other GPU and why the gap
  *shrinks* in relative terms as batch size grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import OutOfMemoryError
from repro.dnn.stats import DTYPE_BYTES, NetworkStats
from repro.gpu.spec import TESLA_V100, GpuSpec
from repro.train.optimizers import SGD_MOMENTUM, OptimizerSpec




@dataclass(frozen=True)
class MemoryUsage:
    """Breakdown of one GPU's memory at a point of the run (bytes)."""

    context: int
    parameters: int
    activations: int
    workspace: int
    input_batch: int
    server_buffers: int

    @property
    def total(self) -> int:
        return (
            self.context
            + self.parameters
            + self.activations
            + self.workspace
            + self.input_batch
            + self.server_buffers
        )

    @property
    def total_gb(self) -> float:
        return self.total / 1e9


class MemoryModel:
    """Computes per-GPU memory footprints for a network and batch size."""

    def __init__(
        self,
        spec: GpuSpec = TESLA_V100,
        constants: CalibrationConstants = CALIBRATION,
        optimizer: OptimizerSpec = SGD_MOMENTUM,
    ) -> None:
        self.spec = spec
        self.constants = constants
        self.optimizer = optimizer

    def _context(self) -> int:
        return self.constants.cuda_context_bytes + self.constants.framework_reserved_bytes

    def workspace_bytes(self, stats: NetworkStats, batch: int) -> int:
        """Sum of cached per-convolution cuDNN workspaces."""
        cap = self.constants.cudnn_per_op_workspace_cap
        return sum(
            min(op_bytes * batch, cap)
            for op_bytes in stats.conv_im2col_bytes_per_sample
        )

    def pretraining(self, stats: NetworkStats) -> MemoryUsage:
        """Footprint after the model broadcast, before the first batch."""
        return MemoryUsage(
            context=self._context(),
            parameters=stats.model_bytes,
            activations=0,
            workspace=0,
            input_batch=0,
            server_buffers=0,
        )

    def training(
        self, stats: NetworkStats, batch: int, is_server: bool = False
    ) -> MemoryUsage:
        """Steady-state footprint during training.

        ``is_server`` selects GPU0, which carries the KVStore aggregation
        buffers on top of a worker's footprint.
        """
        c = self.constants
        activations = int(
            stats.materialized_activation_bytes_per_sample
            * batch
            * c.activation_training_multiplier
        )
        input_batch = stats.input_shape.numel * DTYPE_BYTES * batch * 2  # double buffer
        server = c.server_extra_copies * stats.model_bytes if is_server else 0
        return MemoryUsage(
            context=self._context(),
            # weights + gradients + optimizer state, all parameter-sized
            parameters=self.optimizer.param_copies * stats.model_bytes,
            activations=activations,
            workspace=self.workspace_bytes(stats, batch),
            input_batch=input_batch,
            server_buffers=server,
        )

    def check_fits(self, stats: NetworkStats, batch: int, is_server: bool = True) -> None:
        """Raise :class:`OutOfMemoryError` if training cannot fit."""
        usage = self.training(stats, batch, is_server=is_server)
        if usage.total > self.spec.memory_bytes:
            raise OutOfMemoryError(
                device=self.spec.name,
                requested=usage.total,
                free=self.spec.memory_bytes,
            )

    def max_batch_size(self, stats: NetworkStats, limit: int = 4096) -> int:
        """Largest per-GPU batch size that trains without OOM."""
        best = 0
        batch = 1
        while batch <= limit:
            try:
                self.check_fits(stats, batch)
            except OutOfMemoryError:
                break
            best = batch
            batch *= 2
        if best == 0:
            return 0
        lo, hi = best, min(limit, best * 2)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            try:
                self.check_fits(stats, mid)
                lo = mid
            except OutOfMemoryError:
                hi = mid
        return lo
