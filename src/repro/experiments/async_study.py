"""Extension study: synchronous vs asynchronous SGD (paper Section II-B).

The paper describes ASGD and its delayed-gradient problem as the
alternative to the synchronous training it profiles.  This study
quantifies the trade-off on the same simulated DGX-1: raw epoch time
(ASGD wins -- no barriers, no stragglers), gradient staleness (grows with
GPU count), and the staleness-penalized effective time (where synchronous
SGD wins back for compute-heavy networks).

The asynchronous runs are the ``async-update`` strategy; their
staleness accounting is :attr:`TrainingResult.async_stats`.
Convergence itself is out of scope for a performance study, so the
effective time uses the standard linear-staleness penalty model (each
unit of mean staleness inflates the epochs-to-converge proportionally).
The penalty coefficient is a documented model input, not a measured
quantity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.experiments.tables import render_table
from repro.runner import SweepPoint, SweepRunner, SweepSpec
from repro.train.results import TrainingResult

#: Default linear staleness penalty: epochs-to-converge multiplier is
#: ``1 + coefficient * mean_staleness`` (illustrative model input).
STALENESS_PENALTY_COEFFICIENT = 0.12


def effective_epoch_time(
    result: TrainingResult, penalty: float = STALENESS_PENALTY_COEFFICIENT,
) -> float:
    """An async run's epoch time scaled by the linear staleness penalty."""
    return result.epoch_time * (
        1.0 + penalty * result.async_stats.staleness_mean)


@dataclass(frozen=True)
class AsyncStudyRow:
    """Sync vs async SGD epoch times for one (network, GPUs) cell."""

    network: str
    num_gpus: int
    sync_epoch: float
    async_epoch: float
    staleness_mean: float
    staleness_max: int
    async_effective_epoch: float

    @property
    def raw_speedup(self) -> float:
        return self.sync_epoch / self.async_epoch

    @property
    def effective_speedup(self) -> float:
        return self.sync_epoch / self.async_effective_epoch


@dataclass(frozen=True)
class AsyncStudyResult:
    """The sync-vs-async comparison grid."""

    rows: Tuple[AsyncStudyRow, ...]

    def row(self, network: str, gpus: int) -> AsyncStudyRow:
        for r in self.rows:
            if (r.network, r.num_gpus) == (network, gpus):
                return r
        raise KeyError((network, gpus))


def sweep_spec(
    networks: Tuple[str, ...] = ("lenet", "inception-v3"),
    batch_size: int = 16,
    gpu_counts: Tuple[int, ...] = (2, 4, 8),
) -> SweepSpec:
    """Paired points: every configuration once synchronous, once with
    the ``async-update`` strategy."""
    points: List[SweepPoint] = []
    for network in networks:
        for gpus in gpu_counts:
            config = TrainingConfig(network, batch_size, gpus,
                                    comm_method=CommMethodName.P2P)
            points.append(SweepPoint(config=config))
            points.append(SweepPoint(config=dataclasses.replace(
                config, strategy="async-update")))
    return SweepSpec.explicit("async-study", points)


def run(
    networks: Tuple[str, ...] = ("lenet", "inception-v3"),
    batch_size: int = 16,
    gpu_counts: Tuple[int, ...] = (2, 4, 8),
    sim: Optional[SimulationConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> AsyncStudyResult:
    if runner is None:
        runner = SweepRunner(sim=sim or SimulationConfig())
    results = runner.run(sweep_spec(networks, batch_size, gpu_counts))
    rows: List[AsyncStudyRow] = []
    for network in networks:
        for gpus in gpu_counts:
            sync = results.result(network=network, num_gpus=gpus,
                                  strategy="auto")
            asyn = results.result(network=network, num_gpus=gpus,
                                  strategy="async-update")
            rows.append(
                AsyncStudyRow(
                    network=network,
                    num_gpus=gpus,
                    sync_epoch=sync.epoch_time,
                    async_epoch=asyn.epoch_time,
                    staleness_mean=asyn.async_stats.staleness_mean,
                    staleness_max=asyn.async_stats.staleness_max,
                    async_effective_epoch=effective_epoch_time(asyn),
                )
            )
    return AsyncStudyResult(rows=tuple(rows))


def render(result: AsyncStudyResult) -> str:
    return render_table(
        [
            "Network", "GPUs", "Sync (s)", "Async (s)", "Raw speedup",
            "Staleness", "Effective (s)", "Effective speedup",
        ],
        [
            (
                r.network,
                r.num_gpus,
                f"{r.sync_epoch:.2f}",
                f"{r.async_epoch:.2f}",
                f"x{r.raw_speedup:.2f}",
                f"{r.staleness_mean:.1f} (max {r.staleness_max})",
                f"{r.async_effective_epoch:.2f}",
                f"x{r.effective_speedup:.2f}",
            )
            for r in result.rows
        ],
        title="Sync vs async SGD (batch 16; effective = staleness-penalized)",
    )
