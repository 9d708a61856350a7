"""Asynchronous SGD on the simulated DGX-1 (paper Section II-B).

The paper contrasts synchronous SGD with ASGD: each GPU pushes its
gradients to the parameter server and pulls fresh weights *without*
waiting for the other GPUs, eliminating stragglers at the cost of the
**delayed gradient problem** -- by the time a gradient arrives, the server
weights have moved on by however many updates the other workers landed in
between.

The server-model simulation itself lives in the strategy registry
(:class:`~repro.train.strategies.AsyncUpdateStrategy`, registered as
``"async-update"``); :class:`AsyncTrainer` is the thin legacy wrapper
that compiles the network and returns the historical
:class:`AsyncResult` shape.  New code should run
``Trainer(config.with strategy="async-update")`` (or the ``strategies``
experiment) and read :attr:`~repro.train.results.TrainingResult.async_stats`
instead -- see docs/TRAINING.md for the migration notes.

Convergence itself is out of scope for a performance study, but
:attr:`AsyncResult.effective_epoch_time` exposes the standard
linear-staleness penalty model (each unit of mean staleness inflates the
epochs-to-converge proportionally) so examples can show when ASGD's
throughput win survives the statistical cost.  The penalty coefficient is
a documented model input, not a measured quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.config import SimulationConfig, TrainingConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.dnn import build_network, compile_network, network_input_shape
from repro.gpu import KernelCostModel, MemoryModel
from repro.gpu.spec import TESLA_V100, GpuSpec

# Re-exported for backwards compatibility; the value lives beside the
# simulation it parameterizes.
from repro.train.strategies import ASYNC_MEASURE_ITERATIONS  # noqa: F401

#: Default linear staleness penalty: epochs-to-converge multiplier is
#: ``1 + coefficient * mean_staleness`` (illustrative model input).
STALENESS_PENALTY_COEFFICIENT = 0.12


@dataclass(frozen=True)
class AsyncResult:
    """Measured behaviour of one asynchronous training run."""

    config: TrainingConfig
    iteration_time: float            # mean per-worker iteration (s)
    epoch_time: float                # wall time for one pass over the data
    images_per_second: float
    staleness_mean: float            # server updates between pull and push
    staleness_max: int
    staleness_samples: Tuple[int, ...]
    server_updates: int

    def effective_epoch_time(
        self, penalty: float = STALENESS_PENALTY_COEFFICIENT
    ) -> float:
        """Epoch time scaled by the linear staleness convergence penalty."""
        return self.epoch_time * (1.0 + penalty * self.staleness_mean)

    def describe(self) -> str:
        return (
            f"{self.config.describe()}[async]: epoch={self.epoch_time:.2f}s "
            f"({self.images_per_second:.0f} img/s, "
            f"staleness mean={self.staleness_mean:.2f} max={self.staleness_max})"
        )


class AsyncTrainer:
    """Thin legacy wrapper over the ``async-update`` strategy.

    Weights live on GPU0.  Each worker (including GPU0's own compute)
    repeatedly pulls the model, computes FP+BP on its mini-batch, and
    pushes gradients back; the server applies each push immediately.
    Transfers ride the same P2P routes as the synchronous ``device``
    KVStore and contend on the NVLink fabric.
    """

    def __init__(
        self,
        config: TrainingConfig,
        sim: SimulationConfig = SimulationConfig(),
        constants: CalibrationConstants = CALIBRATION,
        spec: GpuSpec = TESLA_V100,
        check_memory: bool = True,
        gpu_speed_factors=None,
        checks=None,
    ) -> None:
        self.config = config
        self.gpu_speed_factors = dict(gpu_speed_factors or {})
        #: Accepted for constructor parity with :class:`~repro.train.trainer.Trainer`
        #: so callers can thread one ``CheckEngine`` everywhere; the async
        #: parameter-server path does not run invariant checkpoints yet.
        self.checks = checks
        self.sim = sim
        self.constants = constants
        self.spec = spec
        self.stats = compile_network(
            build_network(config.network), network_input_shape(config.network)
        )
        self.cost_model = KernelCostModel(spec, constants)
        if check_memory:
            MemoryModel(spec, constants).check_fits(
                self.stats, config.batch_size, is_server=config.num_gpus > 1
            )
        self._fwd = self.cost_model.forward_schedule(self.stats, config.batch_size)
        self._bwd = self.cost_model.backward_schedule(self.stats, config.batch_size)

    def run(self) -> AsyncResult:
        """Run the registry's server-model simulation; historical shape."""
        from repro.train.strategies import get_strategy

        measured = get_strategy("async-update").simulate(self)
        return AsyncResult(
            config=self.config,
            iteration_time=measured.iteration_time,
            epoch_time=measured.epoch_time,
            images_per_second=measured.images_per_second,
            staleness_mean=measured.stats.staleness_mean,
            staleness_max=measured.stats.staleness_max,
            staleness_samples=measured.stats.staleness_samples,
            server_updates=measured.stats.server_updates,
        )
