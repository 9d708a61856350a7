"""Every sweep point the benchmark can draw, named by a stable label.

Each workload draws its timed ops from the finite populations below, so
``expected.json`` (written by ``record_expected.py``) can hold the
simulated ``iteration_time``/``epoch_time`` of every point any seed can
ask for.  A label names the point's content, not its cache fingerprint,
so the table survives fingerprint-scheme changes.

The populations are stratified by what sets a point's host cost --
network, GPU count, communication method, point family -- and a seed only
chooses among variants inside one stratum (batch size, scaling mode, NCCL
algorithm/protocol, fault draw).  Every seed therefore runs the same cost
mix, so throughput and latency compare across seeds.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

from repro.analysis.validation import anchor_sweep_spec
from repro.core.config import CommMethodName, ScalingMode, TrainingConfig
from repro.faults import FaultPlan, RailFault
from repro.runner import SweepPoint

NETS = ("lenet", "alexnet", "googlenet", "inception-v3", "resnet")
COMMS = ("p2p", "nccl")
BATCHES = (16, 32, 64)
GPUS = (1, 2, 4, 8)
SCALINGS = ("strong", "weak")

#: NCCL tuner family: (network, GPUs) strata; the seed picks the knobs.
TUNER_STRATA = tuple(itertools.product(("alexnet", "googlenet", "resnet"), (4, 8)))
TUNER_KNOBS = tuple(itertools.product(("ring", "tree", "auto"),
                                      ("simple", "ll", "ll128", "auto")))

#: Single-node ``FaultPlan.random`` family: (network, comm, GPUs) strata;
#: the seed picks the fault seed from ``range(FAULT_SEEDS)``.
FAULT_STRATA = (
    ("lenet", "nccl", 8), ("lenet", "p2p", 4), ("lenet", "nccl", 2),
    ("alexnet", "nccl", 8), ("alexnet", "p2p", 4), ("alexnet", "nccl", 2),
)
FAULT_SEEDS = 32

#: 2-node rail-fabric hierarchical family with one rail fault; the seed
#: picks (node, rail, bandwidth scale).
RAIL_NETS = ("lenet", "alexnet")
RAIL_FAULTS = tuple(itertools.product((0, 1), range(4), (0.0, 0.5)))

#: The >=16-node analytic fast-path point; the seed picks the batch.
FASTPATH_NODES = 16

#: Service fresh-point family: cheap single-GPU LeNet points made distinct
#: by their dataset size, so a replay keeps finding points to simulate.
FRESH_BASES = tuple(itertools.product(BATCHES, COMMS))
FRESH_DATASETS = tuple(200_000 + 1_000 * k for k in range(400))

#: The warm set the service store is seeded with during set-up: cheap
#: AlexNet cells, disjoint from the anchor cells the service must degrade.
WARM_SET = tuple(itertools.product(BATCHES, (1, 2, 4), COMMS))


def grid_label(net: str, batch: int, gpus: int, comm: str, scaling: str) -> str:
    return f"grid/{net}/b{batch}/g{gpus}/{comm}/{scaling}"


def grid_point(net: str, batch: int, gpus: int, comm: str,
               scaling: str = "strong") -> Tuple[str, SweepPoint]:
    config = TrainingConfig(
        network=net, batch_size=batch, num_gpus=gpus,
        comm_method=CommMethodName(comm), scaling=ScalingMode(scaling),
    )
    return grid_label(net, batch, gpus, comm, scaling), SweepPoint(config=config)


def anchor_points() -> Tuple[Tuple[str, SweepPoint], ...]:
    """The 24 paper-anchor cells, labelled as grid cells."""
    out = []
    for point in anchor_sweep_spec().points:
        cfg = point.config
        out.append((grid_label(cfg.network, cfg.batch_size, cfg.num_gpus,
                               cfg.comm_method.value, cfg.scaling.value), point))
    return tuple(out)


def tuner_point(net: str, gpus: int, algorithm: str,
                protocol: str) -> Tuple[str, SweepPoint]:
    config = TrainingConfig(net, 16, gpus, comm_method=CommMethodName.NCCL,
                            nccl_algorithm=algorithm, nccl_protocol=protocol)
    return f"tuner/{net}/g{gpus}/{algorithm}+{protocol}", SweepPoint.make(config)


def fault_point(net: str, comm: str, gpus: int,
                fault_seed: int) -> Tuple[str, SweepPoint]:
    config = TrainingConfig(net, 16, gpus, comm_method=CommMethodName(comm))
    plan = FaultPlan.random(seed=fault_seed, num_gpus=gpus)
    return (f"faults/{net}/g{gpus}/{comm}/seed{fault_seed}",
            SweepPoint.make(config, overrides={"faults": plan}))


def _cluster_config(net: str, nodes: int, fast_path: str,
                    batch: int = 16) -> TrainingConfig:
    return TrainingConfig(
        net, batch, 8 * nodes, comm_method=CommMethodName.NCCL_ALLREDUCE,
        cluster_nodes=nodes, cluster_fabric="single-switch",
        cluster_collective="hierarchical-ring", cluster_fast_path=fast_path,
    )


def rail_point(net: str, node: int, rail: int,
               scale: float) -> Tuple[str, SweepPoint]:
    plan = FaultPlan(rail_faults=(
        RailFault(node=node, rail=rail, at=0.05, bandwidth_scale=scale),))
    return (f"rail/{net}/n2/node{node}-rail{rail}-x{scale}",
            SweepPoint.make(_cluster_config(net, 2, "event"),
                            overrides={"faults": plan}))


def fastpath_point(batch: int) -> Tuple[str, SweepPoint]:
    return (f"fastpath/alexnet/b{batch}/n{FASTPATH_NODES}",
            SweepPoint.make(_cluster_config("alexnet", FASTPATH_NODES,
                                            "analytic", batch)))


def fresh_point(batch: int, comm: str, dataset: int) -> Tuple[str, SweepPoint]:
    config = TrainingConfig("lenet", batch, 1, comm_method=CommMethodName(comm),
                            dataset_images=dataset)
    return f"fresh/lenet/b{batch}/g1/{comm}/d{dataset}", SweepPoint(config=config)


def warm_point(batch: int, gpus: int, comm: str) -> Tuple[str, SweepPoint]:
    return grid_point("alexnet", batch, gpus, comm)


def everything() -> Iterator[Tuple[str, SweepPoint]]:
    """Every point any workload can draw (what ``expected.json`` covers)."""
    for net, comm, batch, gpus, scaling in itertools.product(
            NETS, COMMS, BATCHES, GPUS, SCALINGS):
        yield grid_point(net, batch, gpus, comm, scaling)
    for (net, gpus), (alg, proto) in itertools.product(TUNER_STRATA, TUNER_KNOBS):
        yield tuner_point(net, gpus, alg, proto)
    for (net, comm, gpus), seed in itertools.product(FAULT_STRATA,
                                                     range(FAULT_SEEDS)):
        yield fault_point(net, comm, gpus, seed)
    for net, (node, rail, scale) in itertools.product(RAIL_NETS, RAIL_FAULTS):
        yield rail_point(net, node, rail, scale)
    for batch in BATCHES:
        yield fastpath_point(batch)
    for (batch, comm), dataset in itertools.product(FRESH_BASES, FRESH_DATASETS):
        yield fresh_point(batch, comm, dataset)

