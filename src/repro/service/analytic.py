"""The analytic fast path degraded requests are answered with.

When the service must shed load -- a request over its point budget,
past its deadline, or arriving while the circuit breaker is open -- it
does not refuse: it answers from the closed-form DAG model of S-SGD
(Shi et al., the same model :mod:`repro.checks.dag` uses as a
cross-check oracle)::

    iteration >= max(input + compute, wire) + host

The estimate reuses the trainer's own compilation (kernel schedules,
gradient arrays, topology) but runs *no event simulation*, so it costs
microseconds instead of seconds.  Because the floors are lower bounds,
the answer is a sound optimistic estimate of the simulated number --
clearly marked ``degraded: true`` with its floor breakdown so clients
can tell an analytic answer from a measured one.

Only points of a synchronous strategy degrade: the DAG model has no
notion of parameter-server staleness, so ``async-update`` points past
their budget are refused instead of answered wrongly.
"""

from __future__ import annotations

import functools
from typing import Any, Dict

from repro.checks.dag import critical_path_floor, system_floors
from repro.core.config import TrainingConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.runner.spec import SweepPoint


class AnalyticUnsupported(ValueError):
    """The point cannot be answered analytically (e.g. async SGD)."""


def degradable(point: SweepPoint) -> bool:
    """Whether the synchronous DAG model covers ``point``'s strategy."""
    from repro.train.strategies import strategy_for

    return not strategy_for(point.config).asynchronous


@functools.lru_cache(maxsize=256)
def _estimate(
    config: TrainingConfig, constants: CalibrationConstants,
) -> Dict[str, float]:
    """The cached floor breakdown for one configuration.

    Builds a trainer (compilation only -- schedules, cost model, memory
    model) and assembles its system once to read the communicator's
    per-iteration overhead and the topology's aggregate bandwidth;
    nothing is simulated.
    """
    from repro.train.trainer import Trainer

    trainer = Trainer(config, constants=constants, check_memory=False)
    _env, _profiler, fabric, _router, devices, comm = trainer._build_system()
    return system_floors(trainer, fabric, devices, comm)


def analytic_estimate(
    point: SweepPoint,
    constants: CalibrationConstants = CALIBRATION,
) -> Dict[str, Any]:
    """The degraded (analytic) per-point response payload for ``point``.

    Raises :class:`AnalyticUnsupported` for points of a non-synchronous
    strategy and for points with trainer overrides.
    """
    if not degradable(point):
        raise AnalyticUnsupported(
            "the analytic DAG model covers synchronous SGD only; "
            f"{point.config.strategy} points cannot degrade"
        )
    if point.overrides:
        raise AnalyticUnsupported(
            "points with trainer overrides cannot degrade analytically"
        )
    floors = _estimate(point.config, constants)
    iteration = critical_path_floor(
        floors["compute"], floors["input"], floors["wire"], floors["host"],
    )
    config = point.config
    epoch = iteration * config.iterations_per_epoch
    return {
        "label": point.describe(),
        "kind": "analytic",
        "degraded": True,
        "path": "analytic-dag",
        "iteration_time": iteration,
        "epoch_time": epoch,
        "images_per_second": (
            config.global_batch_size / iteration if iteration > 0 else 0.0
        ),
        "floors": dict(floors),
    }
