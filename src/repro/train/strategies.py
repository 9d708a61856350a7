"""The pluggable training-strategy registry.

ROADMAP item 3 asks for a training-strategy matrix in the tensorpack
mold (``SyncMultiGPUTrainerParameterServer`` / ``Replicated`` /
``AsyncMultiGPUTrainer``).  This module provides the abstraction
boundary: a :class:`ReductionStrategy` owns everything that differs
between those trainers -- which communicator to build, how gradient-ready
events map onto weight-update work, which execution model drives the
epoch, and what the fault/resilience layer may assume about recovery --
while :class:`~repro.train.trainer.Trainer` keeps the parts they share
(network compilation, kernel schedules, system assembly through
``Trainer._build_system``, measurement, extrapolation, and the one
result constructor ``Trainer._result``).

The split follows the DAG model of synchronous SGD (Shi et al.): the
iteration is a stage DAG whose compute stages are strategy-independent
and whose reduction schedule is exactly the strategy.  That same model
doubles as an analytic cross-check oracle -- see
:mod:`repro.checks.dag`.

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
class RecoverySemantics:
    """What the fault/resilience layer may assume about a strategy.

    ``supports_faults``
        The segment-based faulted epoch assembly
        (:meth:`~repro.train.trainer.Trainer._run_faulted`) applies: the
        strategy rebuilds its communicator per degraded segment.  When
        false, ``Trainer.__init__`` rejects a non-empty fault plan.
    ``ring_rebuild``
        Recovering from a link fault or crash additionally pays the NCCL
        communicator re-init cost (ring-based collectives only); tree and
        star schedules recompute routes for free beyond the route cost.
    """

    supports_faults: bool
    ring_rebuild: bool


class ReductionStrategy:
    """One way to turn per-layer gradients into updated weights.

    Subclasses override the class attributes (the validation matrix) and
    whichever hooks differ from the synchronous default:

    * :meth:`validate` -- strategy x comm x topology compatibility,
      called eagerly from ``TrainingConfig.__post_init__``;
    * :meth:`build_communicator` -- strategy-owned communicator
      construction for one assembled system;
    * :meth:`schedule_weight_update` -- the reduction schedule: a
      process mapping gradient-ready events onto communicator work;
    * :meth:`run` -- the execution model driving a whole epoch;
    * :meth:`recovery_semantics` -- contract with :mod:`repro.faults`.
    """

    #: Registry key and ``TrainingConfig.strategy`` value.
    name: str = ""
    #: The ``comm_method`` this strategy runs over (``None`` = any).
    comm_method: Optional[CommMethodName] = None
    #: Communicator-factory key; ``None`` uses ``config.comm_method``.
    comm_key: Optional[str] = None
    #: Whether the strategy is modeled across InfiniBand-linked nodes.
    multi_node: bool = False

    # ------------------------------------------------------------------
    # Validation matrix (strategy x comm x topology)
    # ------------------------------------------------------------------
    def validate(self, config) -> None:
        """Raise :class:`ConfigurationError` for an incompatible config."""
        if (self.comm_method is not None
                and config.comm_method is not self.comm_method):
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

    # ------------------------------------------------------------------
    # Fault contract
    # ------------------------------------------------------------------
    def recovery_semantics(self) -> RecoverySemantics:
        """Default: segment-rebuild recovery without a ring re-init."""
        return RecoverySemantics(supports_faults=True, ring_rebuild=False)

    # ------------------------------------------------------------------
    # System construction
    # ------------------------------------------------------------------
    def build_communicator(self, trainer, env, fabric, devices, profiler,
                           cluster_nodes=None, rail_scales=None):
        """Build this strategy's communicator for one assembled system.

        A non-compat ``cluster_collective`` reroutes the NCCL strategies
        onto the hierarchical rail-aware communicator (docs/SCALING.md);
        everything else keeps the flat per-method factory key.  A faulted
        cluster segment passes ``cluster_nodes`` (a crashed node shrinks
        the rank space) and ``rail_scales`` (degraded rails); ``None``
        keeps the configured cluster and healthy rails.
        """
        # Imported lazily: repro.comm itself imports the train package
        # (optimizer specs), so a module-level import would be circular.
        from repro.comm import make_communicator

        config = trainer.config
        key = self.comm_key or config.comm_method
        kwargs = {}
        if config.cluster_collective != "compat":
            from repro.topology.cluster import IB_LANE_BANDWIDTH

            key = "nccl-hierarchical"
            kwargs = dict(
                cluster_nodes=(
                    cluster_nodes if cluster_nodes is not None
                    else config.cluster_nodes
                ),
                rail_bandwidth=IB_LANE_BANDWIDTH,
                inter_algorithm=config.cluster_collective.removeprefix(
                    "hierarchical-"),
                fast_path=resolve_fast_path(config, trainer.faults),
                rail_scales=rail_scales,
            )
        return make_communicator(
            key,
            env,
            fabric,
            devices,
            trainer.cost_model,
            trainer.constants,
            profiler,
            gradient_bytes_scale=0.5 if config.fp16_gradients else 1.0,
            optimizer=trainer.optimizer,
            algorithm=config.nccl_algorithm,
            protocol=config.nccl_protocol,
            checks=trainer.checks,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Reduction schedule
    # ------------------------------------------------------------------
    def schedule_weight_update(
        self, trainer, env: Environment, comm,
        grad_ready: Dict[str, List[Event]],
    ) -> Generator[Event, None, None]:
        """Spawn per-array synchronization as gradients become ready."""
        pending = []
        if trainer.config.overlap_bp_wu:
            # Layers appear in BP completion order, so waiting on each in
            # turn streams arrays into the communicator as they are ready.
            for layer, _ in trainer._bwd:
                if not layer.is_weighted:
                    continue
                yield env.all_of(grad_ready[layer.name])
                for array in trainer.stats.arrays_of_layer(layer.name):
                    pending.append(env.process(comm.sync_array(array)))
        else:
            # No overlap: wait for every gradient, then synchronize.
            all_events = [e for events in grad_ready.values() for e in events]
            if all_events:
                yield env.all_of(all_events)
            for layer, _ in trainer._bwd:
                if layer.is_weighted:
                    for array in trainer.stats.arrays_of_layer(layer.name):
                        pending.append(env.process(comm.sync_array(array)))
        if pending:
            yield env.all_of(pending)

    # ------------------------------------------------------------------
    # Execution model
    # ------------------------------------------------------------------
    def run(self, trainer) -> TrainingResult:
        """Drive one epoch for ``trainer`` and return its result."""
        raise NotImplementedError


class SyncStrategy(ReductionStrategy):
    """Shared execution model of the synchronous data-parallel strategies.

    The epoch is the trainer's measured steady-state extrapolation (or
    its segment-based faulted assembly); subclasses differ only in the
    communicator they build and the recovery semantics they declare.
    """

    def run(self, trainer) -> TrainingResult:
        from repro.faults.injector import FaultInjector

        if trainer.faults is None or trainer.faults.empty:
            return trainer._run_healthy()
        return trainer._run_faulted(FaultInjector(trainer.faults))


class P2pTreeStrategy(SyncStrategy):
    """MXNet ``device`` KVStore: binomial P2P reduction tree onto GPU0."""

    name = "p2p-tree"
    comm_method = CommMethodName.P2P


class NcclCollectiveStrategy(SyncStrategy):
    """MXNet ``nccl`` KVStore: ring/tree Reduce + Broadcast collectives."""

    name = "nccl-collective"
    comm_method = CommMethodName.NCCL
    multi_node = True

    def recovery_semantics(self) -> RecoverySemantics:
        return RecoverySemantics(supports_faults=True, ring_rebuild=True)


class NcclAllReduceReplicatedStrategy(SyncStrategy):
    """DDP/Horovod style: fused AllReduce with replicated local updates."""

    name = "nccl-allreduce-replicated"
    comm_method = CommMethodName.NCCL_ALLREDUCE
    multi_node = True

    def recovery_semantics(self) -> RecoverySemantics:
        return RecoverySemantics(supports_faults=True, ring_rebuild=True)


class PsCpuStrategy(SyncStrategy):
    """MXNet ``local`` KVStore: CPU parameter server over PCIe."""

    name = "ps-cpu"
    comm_method = CommMethodName.LOCAL


class PsGpuStrategy(SyncStrategy):
    """GPU0 parameter server: flat-star P2P reduction (no tree stages)."""

    name = "ps-gpu"
    comm_method = CommMethodName.P2P
    comm_key = "ps-gpu"


class AsyncUpdateStrategy(ReductionStrategy):
    """Asynchronous parameter-server SGD (paper Section II-B).

    Weights live on GPU0.  Each worker repeatedly pulls the model,
    computes FP+BP on its mini-batch, and pushes gradients back; the
    server applies each push immediately.  Transfers ride the same P2P
    routes as the synchronous ``device`` KVStore and contend on the
    NVLink fabric.  There is no barrier, so there is no reduction
    schedule: :meth:`schedule_weight_update` never applies and the
    execution model replaces the whole measured loop.
    """

    name = "async-update"
    comm_method = CommMethodName.P2P

    def recovery_semantics(self) -> RecoverySemantics:
        return RecoverySemantics(supports_faults=False, ring_rebuild=False)

    def build_communicator(self, trainer, env, fabric, devices, profiler,
                           cluster_nodes=None, rail_scales=None):
        """No reduction schedule, so no communicator: the workers pull and
        push the model over the fabric themselves (:meth:`_worker`)."""
        return None

    def run(self, trainer) -> TrainingResult:
        config = trainer.config
        env, profiler, fabric, router, devices, _ = trainer._build_system()
        # The result keeps no nvprof view of an async run, so the profiler
        # records only for an obs session, over every worker iteration.
        profiler.enabled = trainer.obs is not None
        state = _ServerState()
        warmup = trainer.sim.warmup_iterations
        iterations = warmup + ASYNC_MEASURE_ITERATIONS
        workers = [
            env.process(
                self._worker(trainer, env, fabric, router, devices, pos,
                             state, iterations)
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
        # Workers proceed independently: aggregate throughput is the sum
        # of per-worker rates.
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
        self,
        trainer,
        env: Environment,
        fabric: Fabric,
        router: Router,
        devices: List[GpuDevice],
        pos: int,
        state: "_ServerState",
        iterations: int,
    ) -> Generator[Event, None, None]:
        c = trainer.constants
        dev = devices[pos]
        server = devices[0]
        model_bytes = trainer.stats.model_bytes
        update = self._update_kernel(trainer)
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

    def _update_kernel(self, trainer) -> KernelSpec:
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
_REGISTRY: Dict[str, ReductionStrategy] = {}

#: ``strategy="auto"``: the synchronous strategy implied by the
#: configured communication method (the pre-registry behaviour).
AUTO_STRATEGY = {
    CommMethodName.P2P: "p2p-tree",
    CommMethodName.NCCL: "nccl-collective",
    CommMethodName.NCCL_ALLREDUCE: "nccl-allreduce-replicated",
    CommMethodName.LOCAL: "ps-cpu",
}


def register_strategy(strategy: ReductionStrategy) -> ReductionStrategy:
    """Add ``strategy`` to the registry (keyed by its ``name``)."""
    if not strategy.name:
        raise ValueError("a strategy needs a non-empty name")
    _REGISTRY[strategy.name] = strategy
    return strategy


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_strategy(name: str) -> ReductionStrategy:
    """Look up a registered strategy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; available: "
            f"{sorted(_REGISTRY)} (or 'auto')"
        ) from None


def strategy_for(config) -> ReductionStrategy:
    """The strategy a config selects (resolving ``"auto"``)."""
    name = config.strategy
    if name == "auto":
        name = AUTO_STRATEGY[config.comm_method]
    return get_strategy(name)


def validate_config(config) -> None:
    """Eager strategy x comm x topology validation for ``config``."""
    strategy_for(config).validate(config)


for _strategy in (
    P2pTreeStrategy(),
    NcclCollectiveStrategy(),
    NcclAllReduceReplicatedStrategy(),
    PsCpuStrategy(),
    PsGpuStrategy(),
    AsyncUpdateStrategy(),
):
    register_strategy(_strategy)
del _strategy
