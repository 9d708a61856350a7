"""Steady-state twins: one simulated iteration answers every epoch size.

A healthy synchronous run simulates a few steady-state iterations and
extrapolates the epoch (:func:`extrapolate_epoch`).  Following Shi et
al.'s DAG model, the epoch is the iteration DAG repeated, and the two
fields that only size the epoch -- ``scaling`` and ``dataset_images``,
which reach the run solely through
:attr:`~repro.core.config.TrainingConfig.iterations_per_epoch` -- cannot
change that DAG.  So every such variant of a point shares one
simulation: its *steady-state twin*, the same point under strong scaling
on the paper's dataset (:func:`steady_twin`).  :func:`rebase` turns the
twin's result into the variant's, equal as a whole dataclass to what the
variant's own simulation returns.

Only runs whose result depends on the epoch size through that one
formula qualify: the synchronous strategies on the healthy path, with
nothing attached that observes the run itself.  The async-update
strategy reads ``total_images`` on its own, and a fault plan places its
faults on the epoch timeline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

from repro.core.config import PAPER_DATASET_IMAGES, ScalingMode, TrainingConfig
from repro.faults.plan import FaultPlan
from repro.train.results import TrainingResult
from repro.train.strategies import strategy_for

#: Trainer keyword arguments that attach something to the run itself; a
#: run carrying any of them is never answered from a twin.
RUN_OBSERVERS = frozenset({"obs", "checks", "keep_profiler"})


def extrapolate_epoch(config: TrainingConfig, iteration_time: float,
                      fixed_overhead: float) -> float:
    """Epoch seconds of a healthy run: iterations x mean iteration + fixed."""
    return config.iterations_per_epoch * iteration_time + fixed_overhead


def steady_twin(
    config: TrainingConfig,
    trainer_kwargs: Optional[Mapping[str, Any]] = None,
) -> Optional[TrainingConfig]:
    """The strong-scaling, paper-dataset twin of ``config``.

    ``None`` when ``config`` is its own twin or when its result may
    depend on the epoch size beyond :func:`extrapolate_epoch`: a
    non-empty fault plan, an attached observer (``obs``, ``checks``,
    ``keep_profiler``) or a strategy that is not synchronous.
    """
    if (config.scaling is ScalingMode.STRONG
            and config.dataset_images == PAPER_DATASET_IMAGES):
        return None
    kwargs = trainer_kwargs or {}
    if RUN_OBSERVERS.intersection(kwargs):
        return None
    faults = kwargs.get("faults")
    if faults is not None and not (isinstance(faults, FaultPlan)
                                   and faults.empty):
        return None
    if strategy_for(config).asynchronous:
        return None
    return dataclasses.replace(config, scaling=ScalingMode.STRONG,
                               dataset_images=PAPER_DATASET_IMAGES)


def rebase(result: TrainingResult, config: TrainingConfig) -> TrainingResult:
    """The result of ``config`` from the result of its steady-state twin."""
    return dataclasses.replace(
        result, config=config,
        epoch_time=extrapolate_epoch(config, result.iteration_time,
                                     result.fixed_overhead),
    )
