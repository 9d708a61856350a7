"""Table IV: per-GPU memory usage (pre-training vs training, 4 GPUs).

Columns mirror the paper: pre-training usage (identical on all GPUs),
training usage on GPU0 (the KVStore server) and on the other GPUs,
GPU0's additional usage relative to the workers, and growth relative to
batch size 16.  The maximum trainable batch size per network reproduces
the OOM findings (Inception-v3/ResNet stop above 64).

This sweep evaluates the analytic memory model rather than running the
trainer: the declarative grid supplies the points and each is evaluated
in place, without the runner's cache or process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import PAPER_BATCH_SIZES, CommMethodName, TrainingConfig
from repro.dnn import build_network, compile_network, network_input_shape
from repro.dnn.zoo import PAPER_NETWORKS
from repro.experiments.tables import render_table
from repro.gpu.memory import MemoryModel
from repro.runner import SweepSpec

#: The paper measures Table IV on a 4-GPU NCCL run.
TABLE4_GPU_COUNT = 4


@dataclass(frozen=True)
class Table4Row:
    """Per-GPU memory readings for one (network, batch) cell."""

    network: str
    batch_size: int
    pretraining_gb: float
    training_gpu0_gb: float
    training_gpux_gb: float
    max_batch: int               # memory-limited maximum batch for the network

    @property
    def gpu0_extra_percent(self) -> float:
        return 100.0 * (self.training_gpu0_gb / self.training_gpux_gb - 1.0)


@dataclass(frozen=True)
class Table4Result:
    """The Table IV memory grid plus per-network max batch."""

    rows: Tuple[Table4Row, ...]
    max_batch: Dict[str, int]

    def row(self, network: str, batch: int) -> Table4Row:
        for r in self.rows:
            if (r.network, r.batch_size) == (network, batch):
                return r
        raise KeyError((network, batch))

    def increase_vs_b16(self, network: str, batch: int) -> float:
        base = self.row(network, 16).training_gpu0_gb
        return 100.0 * (self.row(network, batch).training_gpu0_gb / base - 1.0)


def sweep_spec(
    networks: Tuple[str, ...] = PAPER_NETWORKS,
    batch_sizes: Tuple[int, ...] = PAPER_BATCH_SIZES,
) -> SweepSpec:
    """The network-x-batch grid behind Table IV."""
    return SweepSpec.grid(
        "table4",
        networks=networks,
        comm_methods=(CommMethodName.NCCL,),
        batch_sizes=batch_sizes,
        gpu_counts=(TABLE4_GPU_COUNT,),
    )


def _evaluate(config: TrainingConfig, model: MemoryModel) -> Table4Row:
    """Memory-model evaluation of one grid point."""
    stats = compile_network(
        build_network(config.network), network_input_shape(config.network)
    )
    pre = model.pretraining(stats)
    gpu0 = model.training(stats, config.batch_size, is_server=True)
    gpux = model.training(stats, config.batch_size, is_server=False)
    return Table4Row(
        network=config.network,
        batch_size=config.batch_size,
        pretraining_gb=pre.total_gb,
        training_gpu0_gb=gpu0.total_gb,
        training_gpux_gb=gpux.total_gb,
        max_batch=model.max_batch_size(stats),
    )


def run(
    networks: Tuple[str, ...] = PAPER_NETWORKS,
    batch_sizes: Tuple[int, ...] = PAPER_BATCH_SIZES,
    memory_model: Optional[MemoryModel] = None,
) -> Table4Result:
    model = memory_model or MemoryModel()
    rows = [
        _evaluate(point.config, model)
        for point in sweep_spec(networks, batch_sizes).points
    ]
    max_batch = {row.network: row.max_batch for row in rows}
    return Table4Result(rows=tuple(rows), max_batch=max_batch)


def render(result: Table4Result) -> str:
    table = render_table(
        [
            "Network",
            "Batch",
            "Pre-train GPUz (GB)",
            "Train GPU0 (GB)",
            "Train GPUx (GB)",
            "GPU0 extra (%)",
            "Increase vs b16 (%)",
        ],
        [
            (
                r.network,
                r.batch_size,
                f"{r.pretraining_gb:.2f}",
                f"{r.training_gpu0_gb:.2f}",
                f"{r.training_gpux_gb:.2f}",
                f"{r.gpu0_extra_percent:.2f}",
                f"{result.increase_vs_b16(r.network, r.batch_size):.1f}",
            )
            for r in result.rows
        ],
        title="Table IV: memory usage with NCCL, 4 GPUs",
    )
    limits = render_table(
        ["Network", "Max trainable batch/GPU"],
        sorted(result.max_batch.items()),
        title="Memory-limited maximum batch size",
    )
    return table + "\n" + limits
