"""Extension study: the training-strategy matrix (ROADMAP item 3).

One table over the paper's five networks comparing every registered
training strategy -- the synchronous reductions the paper profiles
(``p2p-tree``, ``nccl-collective``), the modern replicated AllReduce, the
CPU and GPU parameter servers and asynchronous parameter-server SGD --
all through the same :class:`~repro.train.trainer.Trainer` entry point,
result schema, sweep runner and cache (tensorpack's trainer matrix,
measured instead of documented).

Every point is a plain :class:`~repro.runner.SweepPoint`: the strategy
field on the config selects the execution model inside the trainer, so
caching and invariant enforcement are uniform across the matrix (every
strategy, ``async-update`` included, runs its checkpoints), and
``async-update``, which has no fault-recovery semantics, refuses a fault
plan when the trainer is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import SimulationConfig, TrainingConfig
from repro.experiments.tables import render_table
from repro.runner import SweepPoint, SweepRunner, SweepSpec
from repro.train.strategies import STRATEGIES

#: Every registered strategy, in registration order, and the
#: ``comm_method`` it runs over (the validation matrix in docs/TRAINING.md).
STRATEGY_COMM = {name: s.comm_method for name, s in STRATEGIES.items()}

#: The paper's five networks (Table I).
PAPER_NETWORKS = ("lenet", "alexnet", "googlenet", "inception-v3", "resnet")

#: The strategy every other row is normalized against.
BASELINE_STRATEGY = "p2p-tree"


@dataclass(frozen=True)
class StrategyRow:
    """One (network, strategy) cell of the matrix."""

    network: str
    strategy: str
    epoch_time: float
    images_per_second: float
    speedup_over_baseline: float     # baseline epoch / this epoch
    note: str                        # staleness etc.; "" when N/A


@dataclass(frozen=True)
class StrategiesResult:
    """The full strategy-comparison matrix."""

    batch_size: int
    num_gpus: int
    rows: Tuple[StrategyRow, ...]

    def row(self, network: str, strategy: str) -> StrategyRow:
        for r in self.rows:
            if (r.network, r.strategy) == (network, strategy):
                return r
        raise KeyError((network, strategy))


def sweep_spec(
    networks: Tuple[str, ...] = PAPER_NETWORKS,
    batch_size: int = 32,
    num_gpus: int = 4,
    strategies: Tuple[str, ...] = tuple(STRATEGY_COMM),
) -> SweepSpec:
    """Every strategy on every network, one batch size and GPU count."""
    points: List[SweepPoint] = []
    for network in networks:
        for strategy in strategies:
            config = TrainingConfig(
                network,
                batch_size,
                num_gpus,
                comm_method=STRATEGY_COMM[strategy],
                strategy=strategy,
            )
            points.append(SweepPoint.make(config, tags={"study": "strategies"}))
    return SweepSpec.explicit("strategies", points)


def run(
    networks: Tuple[str, ...] = PAPER_NETWORKS,
    batch_size: int = 32,
    num_gpus: int = 4,
    strategies: Tuple[str, ...] = tuple(STRATEGY_COMM),
    sim: Optional[SimulationConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> StrategiesResult:
    """Run (or replay from cache) the matrix and assemble the rows."""
    if runner is None:
        runner = SweepRunner(sim=sim or SimulationConfig())
    results = runner.run(sweep_spec(networks, batch_size, num_gpus, strategies))
    baseline_name = (BASELINE_STRATEGY if BASELINE_STRATEGY in strategies
                     else strategies[0])
    rows: List[StrategyRow] = []
    for network in networks:
        baseline = results.result(network=network, strategy=baseline_name)
        for strategy in strategies:
            r = results.result(network=network, strategy=strategy)
            note = ""
            if r.async_stats is not None:
                note = (f"staleness {r.async_stats.staleness_mean:.1f} "
                        f"(max {r.async_stats.staleness_max})")
            rows.append(
                StrategyRow(
                    network=network,
                    strategy=strategy,
                    epoch_time=r.epoch_time,
                    images_per_second=r.images_per_second,
                    speedup_over_baseline=(
                        baseline.epoch_time / r.epoch_time
                        if r.epoch_time > 0 else 0.0
                    ),
                    note=note,
                )
            )
    return StrategiesResult(batch_size=batch_size, num_gpus=num_gpus,
                            rows=tuple(rows))


def render(result: StrategiesResult) -> str:
    """The strategy-matrix table."""
    return render_table(
        ["Network", "Strategy", "Epoch (s)", "img/s",
         f"vs {BASELINE_STRATEGY}", "Notes"],
        [
            (
                r.network,
                r.strategy,
                f"{r.epoch_time:.2f}",
                f"{r.images_per_second:.0f}",
                f"x{r.speedup_over_baseline:.2f}",
                r.note,
            )
            for r in result.rows
        ],
        title=(f"Training-strategy matrix (batch {result.batch_size}, "
               f"{result.num_gpus} GPUs)"),
    )
