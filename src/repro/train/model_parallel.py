"""Model-parallel training estimation (paper Section I / II-B).

The paper motivates its data-parallel focus by the classic trade-off:
*model parallelism* suits networks dominated by fully connected layers
(huge weights, small activations at layer boundaries), *data parallelism*
suits convolutional networks (small weights, huge activations).  This
module makes that trade-off measurable on the simulated DGX-1.

The network's layers are partitioned into contiguous segments (balanced by
forward FLOPs), one per GPU, in the style of 2012-era model parallelism:

* FP: each segment computes, then DMAs every tensor crossing the boundary
  to the next GPU (batch-scaled);
* BP: the reverse flow with activation gradients;
* WU: purely local -- each GPU owns its segment's weights, so *no gradient
  synchronization happens at all*, which is exactly why MP can win for
  AlexNet's 236 MB of FC weights;
* optional microbatch pipelining overlaps segments GPipe-style.

The estimator is analytic (no event simulation): with a single stream per
boundary there is no contention to resolve, and the pipeline algebra is
exact.  Costs reuse the same kernel and link models as the event-driven
trainer, so DP-vs-MP comparisons are apples to apples.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import TrainingConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import ConfigurationError
from repro.dnn import build_network, compile_network, network_input_shape
from repro.dnn.network import INPUT, Network
from repro.dnn.shapes import Shape
from repro.dnn.stats import DTYPE_BYTES, NetworkStats
from repro.gpu import KernelCostModel
from repro.gpu.spec import TESLA_V100, GpuSpec
from repro.topology import Router, build_dgx1v


@dataclass(frozen=True)
class ModelParallelPlan:
    """A contiguous partition of a network across GPUs."""

    network_name: str
    num_gpus: int
    #: segment index of each layer, in topological order.
    assignment: Tuple[int, ...]
    #: per-boundary crossing bytes per sample (boundary i = seg i -> i+1).
    boundary_bytes: Tuple[int, ...]
    #: per-segment forward FLOPs per sample.
    segment_fwd_flops: Tuple[float, ...]
    #: per-segment backward FLOPs per sample.
    segment_bwd_flops: Tuple[float, ...]
    #: per-segment parameter counts.
    segment_params: Tuple[int, ...]

    @property
    def balance(self) -> float:
        """max/mean forward FLOPs across segments (1.0 = perfect)."""
        mean = sum(self.segment_fwd_flops) / len(self.segment_fwd_flops)
        return max(self.segment_fwd_flops) / mean if mean else 1.0


def partition_network(
    network: Network, stats: NetworkStats, num_gpus: int
) -> ModelParallelPlan:
    """Split layers into ``num_gpus`` contiguous FLOP-balanced segments."""
    if num_gpus < 1:
        raise ConfigurationError("num_gpus must be positive")
    layers = stats.layers
    if num_gpus > len(layers):
        raise ConfigurationError(
            f"cannot split {len(layers)} layers across {num_gpus} GPUs"
        )
    # Cut at FLOP quantiles (a small epsilon keeps zero-FLOP layers
    # countable), then repair the cuts so every segment is non-empty.
    weights = [l.forward_flops + 1.0 for l in layers]
    total = sum(weights)
    prefix: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        prefix.append(acc)
    cuts: List[int] = []
    for k in range(1, num_gpus):
        cuts.append(bisect.bisect_left(prefix, k * total / num_gpus) + 1)
    for k in range(len(cuts)):
        lower = (cuts[k - 1] + 1) if k else 1
        upper = len(layers) - (num_gpus - 1 - k)
        cuts[k] = min(max(cuts[k], lower), upper)
    assignment = [sum(1 for c in cuts if c <= i) for i in range(len(layers))]
    # Boundary traffic: every producer in segment <= b consumed beyond b.
    seg_of = {name: assignment[i] for i, name in enumerate(network.layer_names)}
    seg_of[INPUT] = 0
    boundary = [0] * max(0, num_gpus - 1)
    out_numel = {l.name: l.output_numel for l in layers}
    for name, node in network.nodes():
        for src in node.inputs:
            if src == INPUT:
                continue
            lo, hi = seg_of[src], seg_of[name]
            if hi > lo:
                for b in range(lo, hi):
                    boundary[b] += out_numel[src] * DTYPE_BYTES
    fwd = [0.0] * num_gpus
    bwd = [0.0] * num_gpus
    params = [0] * num_gpus
    for i, layer in enumerate(layers):
        fwd[assignment[i]] += layer.forward_flops
        bwd[assignment[i]] += layer.backward_flops
        params[assignment[i]] += layer.param_numel
    return ModelParallelPlan(
        network_name=stats.name,
        num_gpus=num_gpus,
        assignment=tuple(assignment),
        boundary_bytes=tuple(boundary),
        segment_fwd_flops=tuple(fwd),
        segment_bwd_flops=tuple(bwd),
        segment_params=tuple(params),
    )


@dataclass(frozen=True)
class ModelParallelResult:
    """Estimated behaviour of one model-parallel configuration."""

    config: TrainingConfig
    plan: ModelParallelPlan
    iteration_time: float
    epoch_time: float
    images_per_second: float
    communication_bytes_per_iteration: int
    pipeline_microbatches: int

    def describe(self) -> str:
        return (
            f"{self.config.describe()}[model-parallel x{self.pipeline_microbatches}]: "
            f"epoch={self.epoch_time:.2f}s ({self.images_per_second:.0f} img/s, "
            f"balance={self.plan.balance:.2f})"
        )


class ModelParallelEstimator:
    """Analytic cost model for layer-split training on the DGX-1."""

    def __init__(
        self,
        config: TrainingConfig,
        constants: CalibrationConstants = CALIBRATION,
        spec: GpuSpec = TESLA_V100,
        network: Optional[Network] = None,
        input_shape: Optional[Shape] = None,
        pipeline_microbatches: int = 1,
    ) -> None:
        if pipeline_microbatches < 1:
            raise ConfigurationError("pipeline_microbatches must be >= 1")
        if config.batch_size % pipeline_microbatches:
            raise ConfigurationError(
                "pipeline_microbatches must divide the batch size"
            )
        self.config = config
        self.constants = constants
        self.pipeline_microbatches = pipeline_microbatches
        self.cost_model = KernelCostModel(spec, constants)
        if network is None:
            network = build_network(config.network)
            input_shape = network_input_shape(config.network)
        elif input_shape is None:
            raise ConfigurationError("a custom network needs an input_shape")
        self.network = network
        self.stats = compile_network(network, input_shape)
        self.plan = partition_network(self.network, self.stats, config.num_gpus)
        self._router = Router(build_dgx1v())

    # ------------------------------------------------------------------
    # Cost components
    # ------------------------------------------------------------------
    def _segment_compute(self, micro_batch: int) -> List[float]:
        """Per-segment FP+BP time for one microbatch."""
        times = [0.0] * self.plan.num_gpus
        layers = self.stats.layers
        for i, layer in enumerate(layers):
            seg = self.plan.assignment[i]
            fwd = self.cost_model.forward_kernels(layer, micro_batch)
            bwd = self.cost_model.backward_kernels(layer, micro_batch)
            times[seg] += sum(k.duration for k in fwd)
            times[seg] += sum(k.duration for k in bwd)
        return times

    def _boundary_times(self, micro_batch: int) -> List[float]:
        """Per-boundary transfer time (forward + backward) per microbatch."""
        topo = self._router.topology
        times = []
        for b, crossing in enumerate(self.plan.boundary_bytes):
            route = self._router.gpu_to_gpu(topo.gpu(b), topo.gpu(b + 1))
            nbytes = crossing * micro_batch
            one_way = (
                self.constants.p2p_copy_setup
                + route.serialized_time(nbytes, self.constants)
            )
            times.append(2.0 * one_way)  # activations forward + grads back
        return times

    def _local_update_time(self) -> float:
        """The slowest segment's local SGD update (runs in parallel)."""
        worst = 0.0
        for numel in self.plan.segment_params:
            if numel:
                worst = max(
                    worst,
                    self.cost_model.kernel_time(
                        4.0 * numel, 5 * numel * DTYPE_BYTES, matmul=False
                    ),
                )
        return worst

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def run(self) -> ModelParallelResult:
        m = self.pipeline_microbatches
        micro = self.config.batch_size // m
        compute = self._segment_compute(micro)
        boundaries = self._boundary_times(micro)
        # One microbatch traverses every stage and boundary once (FP+BP
        # folded together); with m microbatches the pipeline adds m-1
        # repeats of the slowest stage.
        stage_times = list(compute)
        for b, t in enumerate(boundaries):
            stage_times[b] += t  # charge the boundary to its producer side
        path = sum(stage_times)
        steady = max(stage_times) if stage_times else 0.0
        iteration = (
            path
            + (m - 1) * steady
            + self._local_update_time()
            + self.constants.framework_iteration_overhead
            + self.plan.num_gpus * self.constants.stream_sync_overhead
            + self.constants.input_pipeline_residual
            + self.constants.input_cost_per_image * self.config.batch_size
        )
        # Model parallelism processes the *global* batch once per iteration
        # (the batch is not split across GPUs).
        iterations = -(-self.config.total_images // self.config.batch_size)
        epoch = iterations * iteration + self.constants.run_startup_overhead
        comm_bytes = sum(self.plan.boundary_bytes) * self.config.batch_size * 2
        return ModelParallelResult(
            config=self.config,
            plan=self.plan,
            iteration_time=iteration,
            epoch_time=epoch,
            images_per_second=self.config.total_images / epoch,
            communication_bytes_per_iteration=comm_bytes,
            pipeline_microbatches=m,
        )
