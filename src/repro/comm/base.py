"""Communicator interface shared by the P2P and NCCL implementations."""

from __future__ import annotations

import abc
import functools
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.dnn.stats import WeightArray
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelCostModel, KernelSpec
from repro.sim import Environment
from repro.sim.events import Event
from repro.topology.fabric import Fabric
from repro.train.optimizers import SGD_MOMENTUM, OptimizerSpec


def run_constant(build: Callable) -> Callable:
    """Keep what the communicator method ``build`` returns, per argument,
    once :meth:`Communicator.keep_tables` has turned its tables on;
    without them, build it on every call.

    ``build`` depends only on its arguments while the communicator
    lives.  Its first argument is a :class:`WeightArray`, keyed by its
    ``id`` (the table keeps the array alive, so no other array can take
    over that id); the rest are keyed by value.
    """
    @functools.wraps(build)
    def kept_or_built(self, array: WeightArray, *args):
        kept = self._kept
        if kept is None:
            return build(self, array, *args)
        key = (build, id(array), *args)
        built = kept.get(key)
        if built is None:
            built = kept[key] = build(self, array, *args)
            self._kept_arrays.append(array)
        return built

    return kept_or_built


class Communicator(abc.ABC):
    """Synchronizes one gradient array across the training GPUs.

    A communicator implements the complete per-array weight-update path:
    gradient aggregation, the SGD update on the server GPU, and the
    distribution of updated weights back to every worker.  The trainer
    spawns :meth:`sync_array` once per weight array per iteration, as soon
    as that array's gradients are ready on all GPUs.
    """

    #: Human-readable method name ("p2p" / "nccl").
    name: str = "base"

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        devices: Sequence[GpuDevice],
        cost_model: KernelCostModel,
        constants: CalibrationConstants = CALIBRATION,
        profiler: Optional[object] = None,
        gradient_bytes_scale: float = 1.0,
        optimizer: OptimizerSpec = SGD_MOMENTUM,
        checks: Optional[object] = None,
    ) -> None:
        """``gradient_bytes_scale`` shrinks the bytes moved per array
        (0.5 models fp16 gradient communication); update kernels stay at
        full precision.  ``checks`` is an optional
        :class:`~repro.checks.CheckEngine`; implementations fire their
        structural/conservation checkpoints through :meth:`_check`."""
        if not devices:
            raise ValueError("communicator needs at least one device")
        if gradient_bytes_scale <= 0 or gradient_bytes_scale > 1:
            raise ValueError("gradient_bytes_scale must be in (0, 1]")
        self.env = env
        self.fabric = fabric
        self.devices = list(devices)
        self.cost_model = cost_model
        self.constants = constants
        self.profiler = profiler
        self.gradient_bytes_scale = gradient_bytes_scale
        self.optimizer = optimizer
        self.checks = checks
        # What the run_constant methods built, once keep_tables runs;
        # ``None`` builds each value afresh.
        self._kept: Optional[Dict[tuple, object]] = None

    @property
    def num_gpus(self) -> int:
        return len(self.devices)

    @property
    def server(self) -> GpuDevice:
        """GPU0 -- the parameter server in MXNet's KVStore."""
        return self.devices[0]

    # ------------------------------------------------------------------
    # Costs charged outside the event simulation
    # ------------------------------------------------------------------
    def epoch_fixed_overhead(self) -> float:
        """Once-per-run setup cost added to the epoch time (seconds)."""
        return 0.0

    def per_iteration_overhead(self) -> float:
        """Host-side cost the method adds to every iteration (seconds)."""
        return 0.0

    # ------------------------------------------------------------------
    # The per-array weight-update process
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        """Process: aggregate, update and redistribute one weight array.

        Returns once every GPU holds the updated weights for ``array``.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def keep_tables(self) -> None:
        """Keep what each :func:`run_constant` method returns, per
        argument, for the rest of this communicator's run.

        For a run that simulates more than one iteration of the same
        system: every later iteration reuses what the first one built.
        A one-iteration run keeps nothing, since it would look each value
        up only once.
        """
        self._kept = {}
        self._kept_arrays: List[WeightArray] = []

    @run_constant
    def _update_kernel(self, array: WeightArray) -> KernelSpec:
        """The optimizer's weight-update kernel for one array.

        Memory bound: the optimizer spec gives the FLOPs per parameter and
        the number of array-sized memory passes (5 for SGD+momentum, 7 for
        Adam's two moment buffers).
        """
        flops = self.optimizer.flops_per_param * array.numel
        nbytes = self.optimizer.memory_passes * array.nbytes
        duration = self.cost_model.kernel_time(
            flops=flops, bytes_moved=nbytes, matmul=False
        )
        return KernelSpec(
            name=f"{self.optimizer.name}_update.{array.name}",
            layer=array.layer,
            stage="wu",
            duration=duration,
            flops=flops,
            bytes_moved=nbytes,
        )

    @run_constant
    def _add_kernel(self, array: WeightArray, src: int, dst: int) -> KernelSpec:
        """Gradient accumulation kernel for the tree edge ``src -> dst``."""
        duration = self.cost_model.kernel_time(
            flops=float(array.numel), bytes_moved=3 * array.nbytes, matmul=False
        )
        return KernelSpec(
            name=f"grad_add.{array.name}.g{src}->g{dst}",
            layer=array.layer,
            stage="wu",
            duration=duration,
            flops=float(array.numel),
            bytes_moved=3 * array.nbytes,
        )

    def _comm_bytes(self, array: WeightArray) -> int:
        """Bytes one array moves on the wire (after precision scaling)."""
        return max(1, int(array.nbytes * self.gradient_bytes_scale))

    def _record_transfer(self, kind: str, src: int, dst: int, nbytes: int,
                         start: float, end: float) -> None:
        if self.profiler is not None and self.profiler.enabled:
            self.profiler.record_transfer(kind, src, dst, nbytes, start, end)

    @property
    def checks_active(self) -> bool:
        """True when an enabled check engine is attached — callers gate
        checkpoint-payload construction on this to keep the disabled path
        free."""
        return self.checks is not None and self.checks.enabled

    def _check(self, point: str, **payload) -> None:
        """Fire one invariant checkpoint (no-op without an active engine)."""
        if self.checks is not None and self.checks.enabled:
            self.checks.check(point, **payload)

    def _wants(self, event_type: type) -> bool:
        """Whether an ``event_type`` event published now has a listener.

        Emitters ask once per collective and build nothing when the
        answer is no; then they publish through ``self.profiler``.  Bare
        profilers (only ``record_*`` methods, no ``wants``) want nothing.
        """
        wants = getattr(self.profiler, "wants", None)
        return wants is not None and wants(event_type)

