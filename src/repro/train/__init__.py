"""Multi-GPU data-parallel training simulation.

:class:`~repro.train.trainer.Trainer` assembles the whole system -- DGX-1
fabric, V100 devices, kernel cost model, communicator, profiler -- and
simulates training at event fidelity, extrapolating steady-state
iteration time to a full epoch.  *How* an iteration turns gradients into
updated weights is pluggable: the strategy registry
(:mod:`repro.train.strategies`, selected via
``TrainingConfig.strategy``) covers the synchronous P2P/NCCL/parameter-
server reductions, asynchronous parameter-server SGD and the
model-parallel placement estimator behind one result schema.
"""

from repro.train.async_trainer import AsyncResult, AsyncTrainer
from repro.train.dataset import SyntheticImageDataset, imagenet_subset
from repro.train.inference import InferenceEstimate, InferenceEstimator
from repro.train.optimizers import ADAM, SGD, SGD_MOMENTUM, OptimizerSpec, available_optimizers, get_optimizer
from repro.train.model_parallel import (
    ModelParallelEstimator,
    ModelParallelPlan,
    ModelParallelResult,
    partition_network,
)
from repro.train.results import AsyncStats, TrainingResult
from repro.train.strategies import (
    ReductionStrategy,
    RecoverySemantics,
    available_strategies,
    get_strategy,
    register_strategy,
    strategy_for,
)
from repro.train.trainer import Trainer, train

__all__ = [
    "ADAM",
    "AsyncResult",
    "AsyncStats",
    "AsyncTrainer",
    "InferenceEstimate",
    "InferenceEstimator",
    "ModelParallelEstimator",
    "ModelParallelPlan",
    "ModelParallelResult",
    "OptimizerSpec",
    "RecoverySemantics",
    "ReductionStrategy",
    "SGD",
    "SGD_MOMENTUM",
    "SyntheticImageDataset",
    "Trainer",
    "TrainingResult",
    "available_optimizers",
    "available_strategies",
    "get_optimizer",
    "get_strategy",
    "imagenet_subset",
    "partition_network",
    "register_strategy",
    "strategy_for",
    "train",
]
