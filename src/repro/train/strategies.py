"""The training-strategy registry: one :class:`Strategy` record per name.

ROADMAP item 3 asked for a training-strategy matrix in the tensorpack
mold (``SyncMultiGPUTrainerParameterServer`` / ``Replicated`` /
``AsyncMultiGPUTrainer``).  Following the DAG model of synchronous SGD
(Shi et al.), the compute stages of an iteration do not depend on the
strategy and the reduction schedule *is* the strategy: every synchronous
strategy runs the one weight-update schedule
:class:`~repro.train.trainer.Trainer` owns, and differs only in the
communicator behind it.  So a strategy is data -- the ``comm_method`` it
runs over, the communicator-factory key, whether it spans nodes, whether
it is asynchronous and what the fault layer may assume about recovery --
and the registry is a table of those records.  The one execution model
that is not the trainer's measured loop, asynchronous parameter-server
SGD, is :func:`run_async`.  The same DAG model doubles as an analytic
cross-check oracle -- see :mod:`repro.checks.dag`.

Registered strategies (``TrainingConfig.strategy``):

=============================  ==========================================
name                           execution model
=============================  ==========================================
``p2p-tree``                   sync; binomial-tree P2P (MXNet ``device``)
``nccl-collective``            sync; NCCL reduce+broadcast KVStore
``nccl-allreduce-replicated``  sync; fused AllReduce, replicated update
``ps-cpu``                     sync; CPU parameter server (``local``)
``ps-gpu``                     sync; GPU0 parameter server, flat star
``async-update``               async parameter server (no barrier)
=============================  ==========================================

The default ``strategy="auto"`` maps the configured ``comm_method`` onto
the matching synchronous strategy, reproducing pre-registry outputs
byte-identically (golden-tested).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.config import CommMethodName
from repro.core.errors import ConfigurationError, FaultPlanError
from repro.gpu import GpuDevice
from repro.gpu.kernel import KernelSpec
from repro.perf.spans import PERF
from repro.sim import Environment
from repro.sim.events import Event
from repro.topology import Fabric, Router
from repro.train.results import AsyncStats, TrainingResult

#: Per-worker iteration count the asynchronous simulation measures (the
#: async loop has no barrier, so a fixed window replaces
#: ``SimulationConfig.measure_iterations``).
ASYNC_MEASURE_ITERATIONS = 4

#: Node count above which ``cluster_fast_path="auto"`` switches from the
#: event-driven to the analytic collective path (the 1/2/4-node grids
#: the agreement invariant cross-validates stay event-driven).
AUTO_ANALYTIC_NODES = 4


def resolve_fast_path(config, faults=None) -> str:
    """The concrete collective fast path a config (and fault plan) selects.

    ``"auto"`` keeps the fully event-driven path up to
    ``AUTO_ANALYTIC_NODES`` nodes and folds larger clusters' inter-node
    segments in analytically (a 1024-GPU AllReduce cannot simulate
    per-chunk events on every link); explicit values pass through.

    The resolution is fault-aware: the analytic path simulates only a
    representative node, so a plan it cannot represent
    (:meth:`~repro.faults.plan.FaultPlan.analytic_conflict`) forces the
    event path when the analytic choice was automatic, and raises
    :class:`~repro.core.errors.FaultPlanError` when the config demanded
    ``cluster_fast_path="analytic"`` explicitly -- the fast path never
    silently simulates a healthy cluster.
    """
    if config.cluster_fast_path != "auto":
        resolved = config.cluster_fast_path
    else:
        resolved = (
            "analytic" if config.cluster_nodes > AUTO_ANALYTIC_NODES
            else "event"
        )
    if resolved != "analytic" or faults is None or faults.empty:
        return resolved
    conflict = faults.analytic_conflict()
    if conflict is None:
        return resolved
    if config.cluster_fast_path == "analytic":
        raise FaultPlanError(
            "cluster_fast_path='analytic' cannot represent this fault "
            f"plan: {conflict}; the representative-node simulation would "
            "silently model a healthy cluster -- use "
            "cluster_fast_path='event' (or 'auto' to fall back "
            "automatically; see docs/SCALING.md)"
        )
    return "event"


@dataclass(frozen=True)
class Strategy:
    """One way to turn per-layer gradients into updated weights.

    ``comm_method``
        The ``TrainingConfig.comm_method`` the strategy runs over.
    ``comm_key``
        Communicator-factory key; ``None`` uses ``config.comm_method``.
    ``multi_node``
        Whether the strategy is modeled across InfiniBand-linked nodes.
    ``asynchronous``
        No iteration barrier and no reduction schedule: the run is
        :func:`run_async` and builds no communicator.
    ``supports_faults``
        The segment-based faulted epoch assembly
        (:meth:`~repro.train.trainer.Trainer._run_faulted`) applies: the
        trainer rebuilds the communicator per degraded segment.  When
        false, ``Trainer.__init__`` rejects a non-empty fault plan.
    ``ring_rebuild``
        Recovering from a link fault or crash additionally pays the NCCL
        communicator re-init cost (ring-based collectives only); tree and
        star schedules recompute routes for free beyond the route cost.
    """

    name: str
    comm_method: CommMethodName
    comm_key: Optional[str] = None
    multi_node: bool = False
    asynchronous: bool = False
    supports_faults: bool = True
    ring_rebuild: bool = False

    def validate(self, config) -> None:
        """Raise :class:`ConfigurationError` for an incompatible config."""
        if config.comm_method is not self.comm_method:
            raise ConfigurationError(
                f"strategy {self.name!r} runs over "
                f"comm_method={self.comm_method.value!r}, got "
                f"{config.comm_method.value!r} (see the strategy matrix in "
                "docs/TRAINING.md)"
            )
        if config.cluster_nodes > 1 and not self.multi_node:
            raise ConfigurationError(
                f"strategy {self.name!r} is modeled for a single DGX-1 node "
                f"but cluster_nodes={config.cluster_nodes}: only the NCCL "
                "strategies span nodes (MXNet's device/local KVStores "
                "cannot; see the strategy matrix in docs/TRAINING.md)"
            )


# ----------------------------------------------------------------------
# Asynchronous parameter-server SGD (paper Section II-B)
# ----------------------------------------------------------------------
def run_async(trainer) -> TrainingResult:
    """Drive one asynchronous parameter-server epoch for ``trainer``.

    Weights live on GPU0.  Each worker repeatedly pulls the model,
    computes FP+BP on its mini-batch, and pushes gradients back; the
    server applies each push immediately.  Transfers ride the same P2P
    routes as the synchronous ``device`` KVStore and contend on the
    NVLink fabric.  There is no barrier, so there is no reduction
    schedule: this replaces the trainer's whole measured loop.
    """
    config = trainer.config
    env, profiler, fabric, router, devices, _ = trainer._build_system()
    # The result keeps no nvprof view of an async run, so the profiler
    # records only for an obs session, over every worker iteration.
    profiler.enabled = trainer.obs is not None
    state = _ServerState()
    warmup = trainer.sim.warmup_iterations
    iterations = warmup + ASYNC_MEASURE_ITERATIONS
    update = _update_kernel(trainer)
    workers = [
        env.process(
            _worker(trainer, env, fabric, router, devices, pos, state,
                    iterations, update)
        )
        for pos in range(len(devices))
    ]
    env.run(until=env.all_of(workers))
    if PERF.enabled:
        PERF.count("sim.events", env.dispatched)

    measured = tuple(
        t for pos, it, t in state.iteration_records if it >= warmup
    )
    staleness = tuple(
        s for pos, it, s in state.staleness_records if it >= warmup
    )
    mean_iteration = statistics.mean(measured)
    # Workers proceed independently: aggregate throughput is the sum of
    # per-worker rates.
    images_per_second = sum(
        config.batch_size / t for t in measured
    ) / max(1, len(measured)) * config.num_gpus
    epoch_time = (
        config.total_images / images_per_second
        + trainer.constants.run_startup_overhead
    )
    return trainer._result(
        measured, mean_iteration, epoch_time,
        trainer.constants.run_startup_overhead,
        async_stats=AsyncStats(
            staleness_mean=(statistics.mean(staleness)
                            if staleness else 0.0),
            staleness_max=max(staleness) if staleness else 0,
            staleness_samples=staleness,
            server_updates=state.version,
        ),
    )


def _worker(
    trainer,
    env: Environment,
    fabric: Fabric,
    router: Router,
    devices: List[GpuDevice],
    pos: int,
    state: "_ServerState",
    iterations: int,
    update: KernelSpec,
) -> Generator[Event, None, None]:
    c = trainer.constants
    dev = devices[pos]
    server = devices[0]
    model_bytes = trainer.stats.model_bytes
    for iteration in range(iterations):
        start = env.now
        # Pull the current weights from the server.
        version_seen = state.version
        if pos != 0:
            route = router.gpu_to_gpu(
                fabric.topology.gpu(server.index),
                fabric.topology.gpu(dev.index),
            )
            yield env.timeout(c.p2p_copy_setup)
            yield from fabric.pipelined_transfer(
                route, model_bytes, 4 * 2**20)
        # Compute FP + BP.
        yield env.timeout(
            c.input_pipeline_residual
            + c.input_cost_per_image * trainer.config.batch_size
        )
        for kernel in trainer._fwd:
            yield from dev.run_kernel(kernel)
        for _, kernels in trainer._bwd:
            yield from dev.run_kernels(kernels)
        # Push gradients; the server updates immediately on arrival.
        if pos != 0:
            route = router.gpu_to_gpu(
                fabric.topology.gpu(dev.index),
                fabric.topology.gpu(server.index),
            )
            yield env.timeout(c.p2p_copy_setup)
            yield from fabric.pipelined_transfer(
                route, model_bytes, 4 * 2**20)
        yield from server.run_kernel(update)
        staleness = state.version - version_seen
        state.version += 1
        state.staleness_records.append((pos, iteration, staleness))
        state.iteration_records.append((pos, iteration, env.now - start))
        yield env.timeout(c.stream_sync_overhead)


def _update_kernel(trainer) -> KernelSpec:
    """The server's whole-model update, costed by the trainer's optimizer."""
    optimizer = trainer.optimizer
    flops = optimizer.flops_per_param * trainer.stats.total_params
    nbytes = optimizer.memory_passes * trainer.stats.model_bytes
    return KernelSpec(
        name="asgd_update",
        layer="@server",
        stage="wu",
        duration=trainer.cost_model.kernel_time(flops, nbytes, False),
        flops=flops,
        bytes_moved=nbytes,
    )


class _ServerState:
    """Mutable server-side bookkeeping shared by async worker processes."""

    def __init__(self) -> None:
        self.version = 0
        self.staleness_records: List[Tuple[int, int, int]] = []
        self.iteration_records: List[Tuple[int, int, float]] = []


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Every registered strategy by name, in registration order.
STRATEGIES: Dict[str, Strategy] = {s.name: s for s in (
    # MXNet ``device`` KVStore: binomial P2P reduction tree onto GPU0.
    Strategy("p2p-tree", CommMethodName.P2P),
    # MXNet ``nccl`` KVStore: ring/tree Reduce + Broadcast collectives.
    Strategy("nccl-collective", CommMethodName.NCCL,
             multi_node=True, ring_rebuild=True),
    # DDP/Horovod style: fused AllReduce with replicated local updates.
    Strategy("nccl-allreduce-replicated", CommMethodName.NCCL_ALLREDUCE,
             multi_node=True, ring_rebuild=True),
    # MXNet ``local`` KVStore: CPU parameter server over PCIe.
    Strategy("ps-cpu", CommMethodName.LOCAL),
    # GPU0 parameter server: flat-star P2P reduction (no tree stages).
    Strategy("ps-gpu", CommMethodName.P2P, comm_key="ps-gpu"),
    # Asynchronous parameter-server SGD: no barrier, no fault recovery.
    Strategy("async-update", CommMethodName.P2P,
             asynchronous=True, supports_faults=False),
)}

#: ``strategy="auto"``: the synchronous strategy implied by the
#: configured communication method (the pre-registry behaviour).
AUTO_STRATEGY = {
    CommMethodName.P2P: "p2p-tree",
    CommMethodName.NCCL: "nccl-collective",
    CommMethodName.NCCL_ALLREDUCE: "nccl-allreduce-replicated",
    CommMethodName.LOCAL: "ps-cpu",
}


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(STRATEGIES))


def get_strategy(name: str) -> Strategy:
    """Look up a registered strategy by name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: "
            f"{sorted(STRATEGIES)} (or 'auto')"
        ) from None


def strategy_for(config) -> Strategy:
    """The strategy a config selects (resolving ``"auto"``)."""
    name = config.strategy
    if name == "auto":
        name = AUTO_STRATEGY[config.comm_method]
    return get_strategy(name)


def validate_config(config) -> None:
    """Eager strategy x comm x topology validation for ``config``."""
    strategy_for(config).validate(config)
