"""Multi-GPU data-parallel training simulation.

:class:`~repro.train.trainer.Trainer` assembles the whole system -- DGX-1
fabric, V100 devices, kernel cost model, communicator, profiler -- and
simulates training at event fidelity, extrapolating steady-state
iteration time to a full epoch.  *How* an iteration turns gradients into
updated weights is pluggable: the strategy registry
(:mod:`repro.train.strategies`, selected via
``TrainingConfig.strategy``) covers the synchronous P2P/NCCL/parameter-
server reductions and asynchronous parameter-server SGD behind one
result schema.
"""

from repro.train.dataset import SyntheticImageDataset, imagenet_subset
from repro.train.inference import InferenceEstimate, InferenceEstimator
from repro.train.optimizers import ADAM, SGD, SGD_MOMENTUM, OptimizerSpec, available_optimizers, get_optimizer
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
    "AsyncStats",
    "InferenceEstimate",
    "InferenceEstimator",
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
    "register_strategy",
    "strategy_for",
    "train",
]
