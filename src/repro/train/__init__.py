"""Multi-GPU data-parallel training simulation.

:class:`~repro.train.trainer.Trainer` assembles the whole system -- DGX-1
fabric, V100 devices, kernel cost model, communicator, profiler -- and
simulates training at event fidelity, extrapolating steady-state
iteration time to a full epoch.  *How* an iteration turns gradients
into updated weights is one row of the strategy table
(:mod:`repro.train.strategies`, selected via ``TrainingConfig.strategy``):
the trainer owns the one weight-update schedule the synchronous
P2P/NCCL/parameter-server strategies share, each row names the
communicator behind it, and asynchronous parameter-server SGD runs its
own loop -- all behind one result schema.
"""

from repro.train.dataset import SyntheticImageDataset, imagenet_subset
from repro.train.inference import InferenceEstimate, InferenceEstimator
from repro.train.optimizers import ADAM, SGD, SGD_MOMENTUM, OptimizerSpec, available_optimizers, get_optimizer
from repro.train.results import AsyncStats, TrainingResult
from repro.train.strategies import Strategy, available_strategies, get_strategy, strategy_for
from repro.train.trainer import Trainer, train

__all__ = [
    "ADAM",
    "AsyncStats",
    "InferenceEstimate",
    "InferenceEstimator",
    "OptimizerSpec",
    "SGD",
    "SGD_MOMENTUM",
    "Strategy",
    "SyntheticImageDataset",
    "Trainer",
    "TrainingResult",
    "available_optimizers",
    "available_strategies",
    "get_optimizer",
    "get_strategy",
    "imagenet_subset",
    "strategy_for",
    "train",
]
