"""The multi-GPU synchronous-SGD training simulation.

One :class:`Trainer` assembles the full system for a
:class:`~repro.core.config.TrainingConfig`:

* the DGX-1 fabric and one :class:`~repro.gpu.device.GpuDevice` per GPU,
* the kernel schedules of the chosen network at the chosen batch size,
* a :class:`~repro.comm.base.Communicator` (P2P or NCCL),
* a :class:`~repro.profile.profiler.Profiler`.

Each simulated iteration reproduces MXNet's execution structure: every GPU
stages its input batch (prefetched, double-buffered over PCIe), runs FP
then BP; as soon as a layer's backward kernels finish on *all* GPUs its
weight arrays are handed to the communicator (the BP/WU overlap MXNet
pipelines); the iteration barrier falls when both compute and weight
update complete, plus the host-side synchronization cost.

Training is periodic, so the trainer measures steady-state iterations at
full event fidelity and extrapolates the epoch:
``epoch = iterations * mean_iteration + once_per_run_overheads``.  The
simulated clock is translation-invariant and a fresh environment is
already a steady boundary, so when the boundary after iteration 0 is
quiescent too, iteration 0 provably repeats bit for bit and the trainer
stops after it (:meth:`Trainer._measure`).

Fault injection (``faults=``, a :class:`~repro.faults.plan.FaultPlan`)
generalizes this: the epoch timeline splits into *segments* -- maximal
windows with a constant active-fault set -- and each segment gets its own
fully-assembled mini-simulation over the degraded topology
(:func:`~repro.faults.view.degraded_topology`), so routing and NCCL
ring construction recompute over the surviving graph exactly as a real
communicator re-init would.  The epoch is then the sum of per-segment
extrapolations plus modeled transition/recovery costs; the no-faults
path is byte-identical to a faultless build (golden-tested).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.config import SimulationConfig, TrainingConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import FaultPlanError, WorkerCrashError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ResiliencePolicy
from repro.faults.recovery import (
    FaultSummary,
    SegmentReport,
    checkpoint_write_cost,
    crash_recovery_cost,
)
from repro.faults.view import degraded_topology
from repro.obs.session import ObsSession
from repro.perf.spans import PERF
from repro.obs.events import (
    FaultInjectedEvent,
    RecoveryCostEvent,
    RingRebuiltEvent,
    RouteRecomputedEvent,
)
from repro.dnn import build_network, compile_network, network_input_shape
from repro.dnn.network import Network
from repro.dnn.shapes import Shape
from repro.dnn.stats import CompiledLayer, NetworkStats
from repro.gpu import GpuDevice, KernelCostModel, MemoryModel
from repro.gpu.kernel import KernelSpec
from repro.gpu.spec import TESLA_V100, GpuSpec
from repro.profile import MemoryMonitor, Profiler, summarize_apis, summarize_stages
from repro.profile.smi import MemoryReading
from repro.profile.summary import ApiSummary, StageBreakdown, gpu_busy_fractions
from repro.sim import Environment
from repro.sim.events import Event
from repro.topology import (
    ClusterSpec,
    Fabric,
    Route,
    Router,
    SystemTopology,
    build_cluster,
    build_dgx1v,
)
from repro.train.optimizers import OptimizerSpec, get_optimizer
from repro.train.results import TrainingResult
from repro.train.steady import extrapolate_epoch
from repro.train.strategies import resolve_fast_path, run_async, strategy_for


def _fault_kind(label: str) -> str:
    return label.split(":", 1)[0]


@functools.lru_cache(maxsize=8)
def _shared_topology(spec: Optional[ClusterSpec]) -> SystemTopology:
    """The default DGX-1V (``spec=None``) or one cluster fabric, built once.

    A :class:`~repro.topology.SystemTopology` never changes after
    construction and fault segments derive degraded copies from it, so
    one instance (with its ``route_cache``) serves every trainer in the
    process.  The bound keeps a sweep over many cluster sizes from
    holding every graph it ever built.
    """
    return build_dgx1v() if spec is None else build_cluster(spec)


@dataclass(frozen=True)
class _CompiledNetwork:
    """Everything a trainer derives from its network before simulating.

    The kernel schedules are batch-dependent but iteration- and
    GPU-count-invariant, so one compile serves every trainer with the
    same (network, batch, GPU, constants, tensor-core, optimizer) key
    (:func:`_compiled_zoo_network`).  Schedules are tuples, so a shared
    entry cannot be mutated by one of its users.
    """

    network: Network
    stats: NetworkStats
    batch: int
    optimizer: OptimizerSpec
    cost_model: KernelCostModel
    memory_model: MemoryModel
    fwd: Tuple[KernelSpec, ...]
    bwd: Tuple[Tuple[CompiledLayer, Tuple[KernelSpec, ...]], ...]
    kernels_per_iter: int
    #: Raw per-GPU kernel seconds of one iteration -- the compute stage of
    #: the analytic DAG oracle (repro.checks.dag).
    kernel_seconds: float
    compute_utilization: float
    #: ``num_gpus`` -> the nvidia-smi readings of a run on that many GPUs.
    _memory: Dict[int, Tuple[MemoryReading, ...]] = field(
        default_factory=dict, compare=False, repr=False)

    def memory_readings(self, num_gpus: int) -> Tuple[MemoryReading, ...]:
        """Per-GPU memory readings, sampled once per GPU count."""
        readings = self._memory.get(num_gpus)
        if readings is None:
            monitor = MemoryMonitor(self.memory_model.spec,
                                    self.memory_model.constants,
                                    optimizer=self.optimizer)
            readings = self._memory[num_gpus] = tuple(
                monitor.sample(self.stats, self.batch, num_gpus))
        return readings


def _compile(network: Network, input_shape: Shape, batch: int, spec: GpuSpec,
             constants: CalibrationConstants, use_tensor_cores: bool,
             optimizer: str) -> _CompiledNetwork:
    """Compile ``network`` and build its kernel schedules at ``batch``."""
    PERF.count("trainer.compiles")
    stats = compile_network(network, input_shape)
    optimizer_spec = get_optimizer(optimizer)
    cost_model = KernelCostModel(spec, constants, use_tensor_cores)
    fwd = tuple(cost_model.forward_schedule(stats, batch))
    bwd = tuple((layer, tuple(kernels))
                for layer, kernels in cost_model.backward_schedule(stats, batch))
    return _CompiledNetwork(
        network=network,
        stats=stats,
        batch=batch,
        optimizer=optimizer_spec,
        cost_model=cost_model,
        memory_model=MemoryModel(spec, constants, optimizer=optimizer_spec),
        fwd=fwd,
        bwd=bwd,
        kernels_per_iter=len(fwd) + sum(len(k) for _, k in bwd),
        kernel_seconds=(
            sum(k.duration for k in fwd)
            + sum(k.duration for _, ks in bwd for k in ks)
        ),
        compute_utilization=cost_model.compute_utilization(
            stats, batch, busy=cost_model.schedule_time(fwd, bwd)),
    )


@functools.lru_cache(maxsize=32)
def _compiled_zoo_network(name: str, batch: int, spec: GpuSpec,
                          constants: CalibrationConstants,
                          use_tensor_cores: bool,
                          optimizer: str) -> _CompiledNetwork:
    """The compile of zoo network ``name``, once per key per process.

    The key is everything the compile reads, all frozen and hashable; a
    paper sweep has far fewer distinct keys than points (one per
    (network, batch) at the defaults).  The bound keeps a long-lived
    process (the sweep service) from holding every schedule it ever
    built.
    """
    return _compile(build_network(name), network_input_shape(name), batch,
                    spec, constants, use_tensor_cores, optimizer)


class Trainer:
    """Simulates training one network on the DGX-1."""

    def __init__(
        self,
        config: TrainingConfig,
        sim: SimulationConfig = SimulationConfig(),
        constants: CalibrationConstants = CALIBRATION,
        spec: GpuSpec = TESLA_V100,
        use_tensor_cores: bool = True,
        check_memory: bool = True,
        keep_profiler: bool = False,
        topology_builder=build_dgx1v,
        network=None,
        input_shape=None,
        gpu_speed_factors=None,
        obs: Optional[ObsSession] = None,
        faults: Optional[FaultPlan] = None,
        checks=None,
    ) -> None:
        """``network``/``input_shape`` override the zoo lookup, letting a
        custom :class:`~repro.dnn.network.Network` train under any
        configuration (``config.network`` then serves only as a label).
        ``gpu_speed_factors`` maps GPU position -> kernel-duration
        multiplier (>1 = slower) for straggler-injection studies; each
        value is either a scalar or a time-varying
        :class:`~repro.faults.plan.SlowdownProfile` sampled at kernel
        start times.  ``obs`` attaches an
        :class:`~repro.obs.session.ObsSession`: the profiler, devices,
        fabric, communicator and sim engine then emit typed events onto
        its bus, feeding the metrics registry and (if enabled) the JSONL
        recorder.  ``faults`` attaches a deterministic
        :class:`~repro.faults.plan.FaultPlan`; ``None`` (or an empty
        plan) takes the exact healthy code path.  ``checks`` attaches a
        :class:`~repro.checks.CheckEngine`: the sim engine, fabric,
        communicator and trainer then fire their invariant checkpoints
        (no-ops when the engine's mode is ``off``); accumulated
        violations land on :attr:`TrainingResult.violations`."""
        self.config = config
        self.sim = sim
        self.constants = constants
        self.spec = spec
        self.check_memory = check_memory
        self.keep_profiler = keep_profiler
        self.topology_builder = topology_builder
        self.gpu_speed_factors = dict(gpu_speed_factors or {})
        self.obs = obs
        self.faults = faults
        self.checks = checks
        # Summary mode unless something reads the profiler's record lists:
        # the caller or an obs subscriber.
        self._profiler_records = keep_profiler or obs is not None
        if checks is not None and obs is not None:
            checks.bind_bus(obs.bus)
        self.strategy = strategy_for(config)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise FaultPlanError(
                f"faults must be a FaultPlan, got {type(faults).__name__}"
            )
        if faults is not None:
            self._validate_fault_plan(faults)
        with PERF.span("trainer.compile"):
            if network is not None:
                # A custom network is not a zoo key: compile it privately.
                if input_shape is None:
                    raise ValueError(
                        "a custom network needs an explicit input_shape")
                compiled = _compile(network, input_shape, config.batch_size,
                                    spec, constants, use_tensor_cores,
                                    config.optimizer)
            else:
                compiled = _compiled_zoo_network(
                    config.network, config.batch_size, spec, constants,
                    use_tensor_cores, config.optimizer)
        self._compiled = compiled
        # The fields run_async and the checkers read off a trainer; the
        # rest is read through ``_compiled``.
        self.stats = compiled.stats
        self.optimizer = compiled.optimizer
        self.cost_model = compiled.cost_model
        self._fwd = compiled.fwd
        self._bwd = compiled.bwd
        self._kernel_seconds = compiled.kernel_seconds

    def _validate_fault_plan(self, plan: FaultPlan) -> None:
        """Reject a plan this run cannot execute, before any simulation.

        Every fault target is bounds-checked against the configuration
        eagerly (a bad plan must fail at construction, not minutes into
        a sweep), cluster-tier primitives require the hierarchical
        collective, the strategy must support fault recovery
        (:attr:`~repro.train.strategies.Strategy.supports_faults`), and
        an explicit analytic fast path must be able to represent the
        plan (:func:`~repro.train.strategies.resolve_fast_path`).
        """
        cfg = self.config
        for what, faults in (("crash", plan.crashes),
                             ("straggler", plan.stragglers),
                             ("ecc fault", plan.ecc_faults)):
            for f in faults:
                if f.gpu >= cfg.num_gpus:
                    raise FaultPlanError(
                        f"{what} targets gpu{f.gpu} but the run uses "
                        f"{cfg.num_gpus} GPU(s)"
                    )
        if plan.cluster_faults and cfg.cluster_collective == "compat":
            raise FaultPlanError(
                "rail/node faults live on the hierarchical cluster tier: "
                "select a non-compat cluster_collective "
                "(see docs/FAULTS.md)"
            )
        if plan.cluster_faults:
            from repro.topology.cluster import IB_LANES_PER_NODE

            for f in plan.rail_faults:
                if f.node >= cfg.cluster_nodes:
                    raise FaultPlanError(
                        f"rail fault targets node {f.node} but the "
                        f"cluster has {cfg.cluster_nodes} node(s)"
                    )
                if f.rail >= IB_LANES_PER_NODE:
                    raise FaultPlanError(
                        f"rail fault targets rail {f.rail} but nodes "
                        f"have {IB_LANES_PER_NODE} rails"
                    )
            for f in (*plan.node_stragglers, *plan.node_crashes):
                if f.node >= cfg.cluster_nodes:
                    raise FaultPlanError(
                        f"{f.label()} targets node {f.node} but the "
                        f"cluster has {cfg.cluster_nodes} node(s)"
                    )
        if (plan.crashes and cfg.cluster_nodes > 1
                and cfg.cluster_collective != "compat"):
            raise FaultPlanError(
                "hierarchical collectives need full 8-GPU nodes, so a "
                "single-GPU crash cannot shrink a multi-node cluster -- "
                "use NodeCrashFault for node-granularity recovery"
            )
        if not plan.empty:
            if not self.strategy.supports_faults:
                raise FaultPlanError(
                    f"strategy {self.strategy.name!r} declares no "
                    "fault-recovery semantics: fault plans apply to the "
                    "synchronous strategies only (see docs/TRAINING.md)"
                )
            # Raises under an explicit analytic fast path the plan's
            # faults cannot be represented on.
            resolve_fast_path(cfg, plan)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> TrainingResult:
        """Simulate the run and return the measured result.

        Runs the configured :class:`~repro.train.strategies.Strategy`
        (resolved from ``config.strategy``; the default ``"auto"`` maps
        ``comm_method`` to the matching synchronous strategy,
        byte-identical to the pre-registry trainer): the measured
        synchronous loop, its segment-based faulted assembly under a
        fault plan, or :func:`~repro.train.strategies.run_async`.  Raises
        :class:`~repro.core.errors.OutOfMemoryError` when the
        configuration cannot fit in GPU memory (as the paper hit for
        Inception-v3/ResNet above batch 64), and
        :class:`~repro.core.errors.WorkerCrashError` when the fault plan
        crashes a worker under the ``FAIL_FAST`` policy.
        """
        with PERF.span(f"strategy.{self.strategy.name}"):
            # Every strategy replicates the model on each GPU.
            if self.check_memory:
                self._compiled.memory_model.check_fits(
                    self.stats, self.config.batch_size,
                    is_server=self.config.num_gpus > 1,
                )
            if self.strategy.asynchronous:
                return run_async(self)
            if self.faults is None or self.faults.empty:
                return self._run_healthy()
            return self._run_faulted(FaultInjector(self.faults))

    # ------------------------------------------------------------------
    # System assembly and steady-state measurement
    # ------------------------------------------------------------------
    def _base_topology(self) -> SystemTopology:
        """The pristine topology this run assembles its systems over.

        The default builder and the cluster fabrics are built once per
        process (:func:`_shared_topology`), so every trainer and every
        fault segment over them shares one graph and its memoized
        routes; a custom ``topology_builder`` is called every time.
        """
        cfg = self.config
        if cfg.cluster_nodes > 1 or cfg.cluster_fabric != "compat":
            # "compat" keeps the aggregated width-4 attachment (the
            # pre-cluster-tier graph, byte-identical); the rail fabrics
            # go through the parameterized ClusterSpec (docs/SCALING.md).
            interconnect = (
                cfg.cluster_fabric
                if cfg.cluster_fabric != "compat"
                else "aggregated"
            )
            return _shared_topology(
                ClusterSpec(cfg.cluster_nodes, interconnect=interconnect))
        if self.topology_builder is build_dgx1v:
            return _shared_topology(None)
        return self.topology_builder()

    @property
    def _simulated_gpus(self) -> int:
        """GPUs the event simulation instantiates devices for.

        The analytic cluster fast path simulates one *representative
        node* (node 0's eight GPUs): compute and per-node host costs are
        identical on every node, while the hierarchical communicator
        charges collective durations and rendezvous for the full
        cluster.  Every other configuration simulates all GPUs.
        """
        cfg = self.config
        if cfg.cluster_collective != "compat":
            from repro.topology import GPUS_PER_NODE

            if resolve_fast_path(cfg, self.faults) == "analytic":
                return min(cfg.num_gpus, GPUS_PER_NODE)
        return cfg.num_gpus

    def _build_system(
        self,
        topology=None,
        gpu_indices: Optional[Sequence[int]] = None,
        speed_overrides: Optional[Dict[int, float]] = None,
        ecc_models: Optional[Dict[int, object]] = None,
        cluster_nodes: Optional[int] = None,
        rail_scales: Optional[Tuple[float, ...]] = None,
    ):
        """Assemble env, profiler, fabric, router, devices and comm.

        One code path for healthy and faulted construction: with no
        overrides this is the exact healthy sequence (byte-identical
        outputs); the faulted path passes a degraded topology, a survivor
        GPU set, per-segment speed/ECC models and, on a cluster, the
        surviving node count and degraded rail scales.  Every strategy
        that simulates events builds here, so the check engine and the
        obs session reach all of them (:meth:`_build_communicator`).
        """
        with PERF.span("trainer.build"):
            env = Environment()
            profiler = Profiler(
                enabled=False,
                bus=self.obs.bus if self.obs is not None else None,
                clock=env,
                records=self._profiler_records,
            )
            if self.obs is not None:
                env.set_observer(self.obs.queue_observer(profiler),
                                 every=self.obs.queue_sample_every)
            if self.checks is not None:
                env.set_checks(self.checks)
            if topology is None:
                topology = self._base_topology()
            fabric = Fabric(env, topology, self.constants, observer=profiler,
                            checks=self.checks)
            router = Router(topology)
            if gpu_indices is None:
                gpu_indices = range(self._simulated_gpus)
            speed_overrides = speed_overrides or {}
            ecc_models = ecc_models or {}
            devices = [
                GpuDevice(env, topology.gpu(i), self.spec, profiler,
                          speed_factor=speed_overrides.get(
                              i, self.gpu_speed_factors.get(i, 1.0)),
                          ecc=ecc_models.get(i))
                for i in gpu_indices
            ]
            comm = self._build_communicator(
                env, fabric, devices, profiler,
                cluster_nodes=cluster_nodes, rail_scales=rail_scales)
            return env, profiler, fabric, router, devices, comm

    def _build_communicator(self, env, fabric, devices, profiler,
                            cluster_nodes=None, rail_scales=None):
        """The strategy's communicator for one assembled system.

        ``None`` for an asynchronous strategy: it has no reduction
        schedule, and its workers pull and push the model over the
        fabric themselves.  A non-compat ``cluster_collective`` reroutes
        the NCCL strategies onto the hierarchical rail-aware
        communicator (docs/SCALING.md); everything else keeps the flat
        per-method factory key.  A faulted cluster segment passes
        ``cluster_nodes`` (a crashed node shrinks the rank space) and
        ``rail_scales`` (degraded rails); ``None`` keeps the configured
        cluster and healthy rails.
        """
        if self.strategy.asynchronous:
            return None
        # Imported lazily: repro.comm itself imports the train package
        # (optimizer specs), so a module-level import would be circular.
        from repro.comm import make_communicator

        config = self.config
        key = self.strategy.comm_key or config.comm_method
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
                fast_path=resolve_fast_path(config, self.faults),
                rail_scales=rail_scales,
            )
        return make_communicator(
            key,
            env,
            fabric,
            devices,
            self.cost_model,
            self.constants,
            profiler,
            gradient_bytes_scale=0.5 if config.fp16_gradients else 1.0,
            optimizer=self.optimizer,
            algorithm=config.nccl_algorithm,
            protocol=config.nccl_protocol,
            checks=self.checks,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Invariant checkpoints over one measured system
    # ------------------------------------------------------------------
    def _sync_arrays(self):
        """The weight arrays one iteration hands to the communicator."""
        return [
            array
            for layer, _ in self._bwd
            if layer.is_weighted
            for array in self.stats.arrays_of_layer(layer.name)
        ]

    def _post_measure_checks(self, env, profiler, fabric, devices, comm,
                             iterations: int) -> None:
        """Fire the trainer-level checkpoints after a measured segment.

        Covers temporal span structure (``trainer.stages``), exact
        gradient-traffic conservation (``trainer.traffic``) and the
        fabric's cumulative link accounting (``fabric.totals``).
        """
        checks = self.checks
        if checks is None or not checks.enabled:
            return
        with PERF.span("trainer.checks"):
            self._post_measure_checks_inner(
                env, profiler, fabric, devices, comm, iterations)

    def _post_measure_checks_inner(self, env, profiler, fabric, devices,
                                   comm, iterations: int) -> None:
        from repro.checks.dag import system_floors
        from repro.checks.expect import expected_sync_bytes

        checks = self.checks
        spans = list(profiler.spans)
        floors = system_floors(self, fabric, devices, comm)
        windows = [s for s in spans if s.name == "iteration"]
        elapsed = (
            max(s.end for s in windows) - min(s.start for s in windows)
            if windows else 0.0
        )
        checks.check(
            "trainer.stages",
            spans=spans,
            host_overhead=floors["host"],
            busy=dict(profiler.kernel_busy),
            elapsed=elapsed,
            now=env.now,
        )
        measured = {kind: nbytes
                    for kind, nbytes in profiler.transfer_bytes.items()
                    if kind in ("p2p", "nccl")}
        expected = expected_sync_bytes(
            comm.name,
            self._sync_arrays(),
            len(devices),
            gradient_bytes_scale=comm.gradient_bytes_scale,
        )
        checks.check(
            "trainer.traffic",
            comm=comm.name,
            measured=measured,
            expected=expected,
            iterations=iterations,
            now=env.now,
        )
        checks.check(
            "fabric.totals",
            bytes_moved=dict(fabric.bytes_moved),
            busy_time=dict(fabric.busy_time),
            wait_time=dict(fabric.wait_time),
            elapsed=env.now,
            now=env.now,
        )
        # Analytic-DAG cross-check oracle (Shi et al.'s stage model of
        # synchronous SGD): the measured mean iteration must dominate the
        # closed-form critical-path floor computed from quantities the
        # event simulation never touches.
        checks.check(
            "trainer.dag",
            mean_iteration=elapsed / iterations if iterations else 0.0,
            compute_floor=floors["compute"],
            input_floor=floors["input"],
            wire_floor=floors["wire"],
            host_floor=floors["host"],
            iterations=iterations,
            now=env.now,
        )
        if comm.name == "nccl-hierarchical":
            # Fast-path contract: the resolved path never silently
            # drops a fault plan, and the measured iteration dominates
            # the fault-aware closed-form collective floor both modes
            # share (temporal.fallback-agreement).
            plan = self.faults
            faulted = plan is not None and not plan.empty
            checks.check(
                "trainer.fastpath",
                requested=self.config.cluster_fast_path,
                resolved=comm.fast_path,
                analytic_ok=(
                    not faulted or plan.analytic_conflict() is None
                ),
                faulted=faulted,
                mean_iteration=elapsed / iterations if iterations else 0.0,
                analytic_wu=sum(
                    comm.allreduce_duration(comm._comm_bytes(a))
                    for a in self._sync_arrays()
                ),
                iterations=iterations,
                now=env.now,
            )

    def _result(
        self,
        iteration_times: Sequence[float],
        mean_iteration: float,
        epoch_time: float,
        fixed: float,
        profiler: Optional[Profiler] = None,
        epoch_iterations: Optional[int] = None,
        **extra,
    ) -> TrainingResult:
        """The run's :class:`TrainingResult`; every strategy returns here.

        Samples per-GPU memory and summarizes ``profiler`` into stages,
        API totals and busy fractions (without one, the zero breakdown of
        a run with no nvprof view).  A measured-and-extrapolated run
        passes ``epoch_iterations``, which fires the run-level
        ``trainer.epoch``/``trainer.memory`` checkpoints.  The violations
        are the attached check engine's records; ``extra`` carries the
        strategy-specific blocks (``faults``, ``async_stats``).
        """
        cfg = self.config
        memory = self._compiled.memory_readings(cfg.num_gpus)
        checks = self.checks
        if epoch_iterations is not None and checks is not None and checks.enabled:
            checks.check(
                "trainer.epoch",
                epoch_time=epoch_time,
                iterations=epoch_iterations,
                mean_iteration=mean_iteration,
                fixed=fixed,
            )
            checks.check(
                "trainer.memory",
                totals=[(m.gpu, m.usage.total) for m in memory],
                capacity=self.spec.memory_bytes,
                check_memory=self.check_memory,
            )
        if profiler is None:
            stages = StageBreakdown(fp=0.0, bp=0.0, wu=0.0,
                                    iteration=mean_iteration)
            apis, gpu_busy = ApiSummary(totals=()), {}
        else:
            stages = summarize_stages(profiler)
            apis = summarize_apis(profiler)
            gpu_busy = gpu_busy_fractions(profiler)
        return TrainingResult(
            config=cfg,
            iteration_time=mean_iteration,
            iteration_times=tuple(iteration_times),
            epoch_time=epoch_time,
            fixed_overhead=fixed,
            stages=stages,
            apis=apis,
            gpu_busy=gpu_busy,
            compute_utilization=self._compiled.compute_utilization,
            memory=memory,
            profiler=profiler if self.keep_profiler else None,
            violations=checks.violation_records() if checks is not None else (),
            **extra,
        )

    @staticmethod
    def _steady_boundary(env, devices, input_ready) -> bool:
        """Whether an iteration boundary is the canonical steady state.

        That state is unique up to a translation of the clock: no
        pending event (empty heap and same-instant FIFO), idle resources
        and a clock inside the origin's binade
        (:meth:`~repro.sim.engine.Environment.quiescent`), no input
        prefetch in flight (with nothing pending, a triggered event has
        been processed; :meth:`_gpu_compute` takes the same branch for a
        missing prefetch as for a fired one), and no device whose speed
        varies with time.  A fresh environment without such a device is
        a steady boundary, and determinism makes every iteration that
        starts from one bit-identical to every other.
        """
        return (
            env.quiescent()
            and all(e is None or e.triggered for e in input_ready)
            and all(dev.slowdown is None for dev in devices)
        )

    def _measure(
        self, env, profiler, fabric, router, devices, comm
    ) -> List[float]:
        """Measure steady-state iterations at full fidelity.

        The fresh environment is boundary 0.  When it and boundary 1 are
        both steady (:meth:`_steady_boundary`), iteration 0 repeats
        exactly and is the whole answer: the run stops there.  Otherwise
        the first ``warmup_iterations`` are discarded and the following
        ``measure_iterations`` kept.  With invariants on, a periodic run
        still simulates ``warmup + measure`` iterations, with the profiler
        closed after iteration 0, and ``temporal.periodic`` requires every
        one of them to equal iteration 0; the answer is iteration 0
        either way.  A run known at its start to simulate more than one
        iteration has the communicator keep its run-constant kernels
        (:meth:`~repro.comm.base.Communicator.keep_tables`).
        """
        with PERF.span("trainer.measure"):
            checks = self.checks
            verify = checks is not None and checks.enabled
            first = self.sim.warmup_iterations
            total = first + self.sim.measure_iterations
            input_ready: List[Optional[Event]] = [None] * len(devices)
            # Each GPU's mini-batch rides the same HtoD route every iteration.
            input_routes = [
                router.cpu_to_gpu(fabric.topology.home_cpu(dev.node), dev.node)
                for dev in devices
            ]
            iteration_times: List[float] = []
            # Boundary 0, the fresh environment, is steady unless a device's
            # speed varies with time; iteration 0 then decides periodicity.
            periodic = self._steady_boundary(env, devices, input_ready)
            if comm is not None and total > 1 and (verify or not periodic):
                # More than one iteration of this system will run: each
                # later one reuses the kernels the first one built.
                comm.keep_tables()
            profiler.enabled = periodic
            for iteration in range(total):
                if iteration == first and not periodic:
                    profiler.enabled = True
                    profiler.reset()
                start = env.now
                done = env.process(
                    self._iteration(
                        env, iteration, devices, comm, profiler, fabric,
                        input_routes, input_ready,
                    )
                )
                env.run(until=done)
                iteration_times.append(env.now - start)
                if iteration == 0 and periodic:
                    periodic = self._steady_boundary(env, devices, input_ready)
                    if periodic and not verify:
                        break
                    # Periodic: the window was iteration 0.  Otherwise it
                    # opens (again) at iteration ``first``.
                    profiler.enabled = first == 0 and not periodic
            if verify:
                checks.check("trainer.periodic", periodic=periodic,
                             times=tuple(iteration_times), now=env.now)
            if PERF.enabled:
                PERF.count("sim.events", env.dispatched)
                PERF.count("trainer.iterations", len(iteration_times))
            return iteration_times[:1] if periodic else iteration_times[first:]

    def _run_healthy(self) -> TrainingResult:
        env, profiler, fabric, router, devices, comm = self._build_system()
        iteration_times = self._measure(
            env, profiler, fabric, router, devices, comm
        )
        self._post_measure_checks(env, profiler, fabric, devices, comm,
                                  len(iteration_times))
        mean_iteration = sum(iteration_times) / len(iteration_times)
        fixed = comm.epoch_fixed_overhead() + self.constants.run_startup_overhead
        epoch_time = extrapolate_epoch(self.config, mean_iteration, fixed)
        return self._result(
            iteration_times, mean_iteration, epoch_time, fixed,
            profiler=profiler,
            epoch_iterations=self.config.iterations_per_epoch,
        )

    # ------------------------------------------------------------------
    # Faulted runs: segment-by-segment epoch assembly
    # ------------------------------------------------------------------
    def _run_faulted(self, injector: FaultInjector) -> TrainingResult:
        cfg = self.config
        plan = injector.plan
        crash = injector.crash
        node_crash = injector.node_crash
        # At most one of the two (FaultPlan enforces it); either way the
        # epoch sees a single membership change at one iteration boundary.
        crash_event = crash if crash is not None else node_crash
        policy = plan.policy
        if (crash is not None and policy is ResiliencePolicy.SHRINK
                and cfg.num_gpus == 1):
            # Nothing to shrink to: a 1-GPU run cannot survive its only
            # worker, so SHRINK degenerates to FAIL_FAST.
            policy = ResiliencePolicy.FAIL_FAST
        if (node_crash is not None and policy is ResiliencePolicy.SHRINK
                and cfg.cluster_nodes == 1):
            # Same rule one level up: a 1-node cluster cannot shrink.
            policy = ResiliencePolicy.FAIL_FAST
        costs = plan.costs
        bus = self.obs.bus if self.obs is not None else None
        boundaries = list(injector.boundaries())
        total_iters = cfg.iterations_per_epoch
        cluster = cfg.cluster_collective != "compat"
        if cluster:
            from repro.topology.cluster import GPUS_PER_NODE, IB_LANES_PER_NODE

            rails = IB_LANES_PER_NODE
        active_nodes = cfg.cluster_nodes

        participants = list(range(self._simulated_gpus))
        now = 0.0                # epoch-timeline seconds
        done_iters = 0           # epoch iterations completed
        remaining = total_iters
        segments: List[SegmentReport] = []
        seg_profilers: List[Tuple[int, Profiler]] = []
        iteration_times: List[float] = []
        transition_cost = 0.0
        recovery_cost = 0.0
        crash_pending = crash_event is not None
        crashed_gpu: Optional[int] = None
        crashed_node: Optional[int] = None
        replayed = 0
        fixed: Optional[float] = None
        ring_reason: Optional[str] = None
        # The pristine topology is segment-invariant; each segment derives
        # its degraded view from this one base instead of re-deriving it.
        base = self._base_topology()

        if bus is not None:
            for label in injector.active_labels(0.0):
                bus.publish(FaultInjectedEvent(
                    fault=label, kind=_fault_kind(label), at=0.0))

        while remaining > 0:
            topo = degraded_topology(base, injector, now)
            # Faults that change the communication structure (routable
            # links, inter-node rails); a change between segments pays
            # the route/ring transition costs.
            link_sig = tuple(
                label for label in injector.active_labels(now)
                if label.startswith(("link:", "rail:"))
            )
            rails_degraded = 0
            # A crashed node narrows the cluster's rank space and rail
            # faults degrade rails; None keeps the configured cluster.
            fault_nodes = fault_scales = None
            if cluster:
                scales = injector.rail_scales(rails, now)
                rails_degraded = sum(1 for s in scales if s < 1.0)
                if rails_degraded:
                    fault_scales = scales
                if active_nodes != cfg.cluster_nodes:
                    fault_nodes = active_nodes
            speed = {
                i: self._base_factor(i, now) * injector.gpu_factor(i, now)
                for i in participants
            }
            ecc = {
                i: m for i in participants
                if (m := injector.ecc_model(i, now)) is not None
            }
            env, profiler, fabric, router, devices, comm = self._build_system(
                topology=topo,
                gpu_indices=participants,
                speed_overrides=speed,
                ecc_models=ecc,
                cluster_nodes=fault_nodes,
                rail_scales=fault_scales,
            )
            plan_obj = getattr(comm, "plan", None)
            if bus is not None and topo is not base:
                bus.publish(RouteRecomputedEvent(
                    reason=ring_reason or "link-fault",
                    surviving_links=len(topo.links),
                    failed_links=len(base.links) - len(topo.links),
                    cost=costs.route_recompute,
                    at=now,
                ))
            if bus is not None and ring_reason is not None:
                bus.publish(RingRebuiltEvent(
                    gpus=len(participants),
                    uses_pcie=bool(plan_obj.uses_pcie) if plan_obj else False,
                    bandwidth=plan_obj.aggregate_bandwidth if plan_obj else 0.0,
                    cost=costs.ring_rebuild if plan_obj else 0.0,
                    at=now,
                ))
            ring_reason = None

            times = self._measure(env, profiler, fabric, router, devices, comm)
            self._post_measure_checks(env, profiler, fabric, devices, comm,
                                      len(times))
            # An obs session's bus outlives the segment: keep later
            # segments' events out of this one's records.
            profiler.detach()
            mean = sum(times) / len(times)
            iteration_times.extend(times)
            if fixed is None:
                fixed = (comm.epoch_fixed_overhead()
                         + self.constants.run_startup_overhead)

            next_boundary = next((b for b in boundaries if b > now), None)
            if next_boundary is None:
                n = remaining
            else:
                n = min(remaining,
                        max(1, math.ceil((next_boundary - now) / mean)))
            crash_now = (
                crash_pending
                and done_iters < crash_event.at_iteration <= done_iters + n
            )
            if crash_now:
                n = crash_event.at_iteration - done_iters

            segments.append(SegmentReport(
                index=len(segments),
                start_time=now,
                start_iteration=done_iters,
                iterations=n,
                mean_iteration=mean,
                active=injector.active_labels(now),
                ring_bandwidth=plan_obj.aggregate_bandwidth if plan_obj else 0.0,
                ring_uses_pcie=bool(plan_obj.uses_pcie) if plan_obj else False,
                gpus=len(participants),
                rails_degraded=rails_degraded,
            ))
            seg_profilers.append((n, profiler))

            prev_now = now
            now += n * mean
            done_iters += n
            remaining -= n

            if crash_now:
                crash_pending = False
                if bus is not None:
                    bus.publish(FaultInjectedEvent(
                        fault=crash_event.label(),
                        kind=_fault_kind(crash_event.label()),
                        at=now))
                if node_crash is not None:
                    crashed_node = node_crash.node
                    first_rank = node_crash.node * GPUS_PER_NODE
                    if policy is ResiliencePolicy.FAIL_FAST:
                        raise WorkerCrashError(
                            first_rank, node_crash.at_iteration)
                else:
                    crashed_gpu = crash.gpu
                    first_rank = crash.gpu
                    if policy is ResiliencePolicy.FAIL_FAST:
                        raise WorkerCrashError(crash.gpu, crash.at_iteration)
                cost, replay = crash_recovery_cost(crash_event, policy, costs)
                recovery_cost += cost
                replayed = replay
                if policy is ResiliencePolicy.SHRINK:
                    if node_crash is not None:
                        # Node-granularity shrink: the survivors re-rank
                        # densely into the low global ranks (elastic
                        # training re-ranks on every membership change),
                        # keeping the hierarchical communicator's
                        # representative intra-node ring well-formed.
                        active_nodes -= 1
                        participants = list(
                            range(active_nodes * GPUS_PER_NODE))
                    else:
                        participants = [
                            i for i in participants if i != crash.gpu]
                    images_left = (cfg.total_images
                                   - done_iters * cfg.global_batch_size)
                    remaining = max(0, math.ceil(
                        images_left / (cfg.batch_size * len(participants))
                    )) if images_left > 0 else 0
                else:  # CHECKPOINT_RESTART: replay lost work at full width
                    remaining += replay
                if bus is not None:
                    bus.publish(RecoveryCostEvent(
                        policy=policy.value,
                        gpu=first_rank,
                        iteration=crash_event.at_iteration,
                        cost=cost,
                        replayed_iterations=replay,
                        at=now,
                    ))
                now += cost
                ring_reason = "crash"
            if remaining > 0 and not crash_now:
                new_sig = tuple(
                    label for label in injector.active_labels(now)
                    if label.startswith(("link:", "rail:"))
                )
                if new_sig != link_sig:
                    # The communication structure changed: pay a route
                    # recomputation and (ring-based strategies only) an
                    # NCCL communicator rebuild before the next segment.
                    cost = costs.route_recompute
                    if self.strategy.ring_rebuild and plan_obj is not None:
                        cost += costs.ring_rebuild
                        changed = set(new_sig) ^ set(link_sig)
                        ring_reason = (
                            "rail-fault"
                            if any(l.startswith("rail:") for l in changed)
                            else "link-fault"
                        )
                    transition_cost += cost
                    now += cost
                if bus is not None:
                    for label in injector.activated_between(prev_now, now):
                        bus.publish(FaultInjectedEvent(
                            fault=label, kind=_fault_kind(label), at=now))

        checkpoint_cost = 0.0
        if policy is ResiliencePolicy.CHECKPOINT_RESTART:
            checkpoint_cost = checkpoint_write_cost(done_iters, costs)

        sim_seconds = sum(s.span for s in segments)
        overhead = transition_cost + recovery_cost + checkpoint_cost
        epoch_time = sim_seconds + fixed + overhead
        mean_iteration = sim_seconds / done_iters
        # Stage/API/busy summaries come from the dominant segment (most
        # epoch iterations; first on ties) -- the regime the epoch mostly
        # ran in.
        dominant = max(range(len(seg_profilers)),
                       key=lambda i: seg_profilers[i][0])
        dom_profiler = seg_profilers[dominant][1]
        summary = FaultSummary(
            policy=policy.value,
            segments=tuple(segments),
            transition_cost=transition_cost,
            recovery_cost=recovery_cost,
            checkpoint_cost=checkpoint_cost,
            healthy_iteration=segments[0].mean_iteration,
            crashed_gpu=crashed_gpu,
            crash_iteration=(
                crash_event.at_iteration
                if crashed_gpu is not None or crashed_node is not None
                else None
            ),
            replayed_iterations=replayed,
            survivors=len(participants),
            crashed_node=crashed_node,
        )
        return self._result(
            iteration_times, mean_iteration, epoch_time, fixed + overhead,
            profiler=dom_profiler, epoch_iterations=done_iters, faults=summary,
        )

    def _base_factor(self, gpu: int, now: float) -> float:
        """The user-supplied straggler factor for ``gpu`` sampled at ``now``."""
        base = self.gpu_speed_factors.get(gpu, 1.0)
        if hasattr(base, "at"):
            return base.at(now)
        return float(base)

    # ------------------------------------------------------------------
    # One synchronous-SGD iteration
    # ------------------------------------------------------------------
    def _iteration(
        self,
        env: Environment,
        iteration: int,
        devices: Sequence[GpuDevice],
        comm,
        profiler: Profiler,
        fabric: Fabric,
        input_routes: Sequence[Route],
        input_ready: List[Optional[Event]],
    ) -> Generator[Event, None, None]:
        c = self.constants
        start = env.now
        # Gradient readiness: one event per weighted layer per GPU.
        grad_ready: Dict[str, List[Event]] = {
            layer.name: [env.event() for _ in devices]
            for layer, kernels in self._bwd
            if layer.is_weighted
        }
        bp_end_times: List[float] = [start] * len(devices)

        # Prefetch the *next* batch while this one computes (double buffer).
        this_input = list(input_ready)
        for pos, dev in enumerate(devices):
            input_ready[pos] = env.process(
                self._stage_input(env, fabric, input_routes[pos], dev,
                                  profiler)
            )

        compute = [
            env.process(
                self._gpu_compute(
                    env, dev, pos, iteration, grad_ready, bp_end_times,
                    profiler, this_input[pos],
                )
            )
            for pos, dev in enumerate(devices)
        ]
        update = env.process(self._weight_update(env, comm, grad_ready))

        yield env.all_of(compute)
        compute_done = env.now
        yield update
        wu_end = max(env.now, compute_done)
        profiler.record_span("wu", -1, iteration, compute_done, wu_end)

        # Host-side barrier: one cudaStreamSynchronize per GPU (plus the
        # communicator's per-iteration launch rendezvous) and the
        # framework's iteration bookkeeping.
        yield env.timeout(
            c.framework_iteration_overhead
            + len(devices) * c.stream_sync_overhead
            + comm.per_iteration_overhead()
        )
        dispatch_time = (self._compiled.kernels_per_iter
                         * c.host_dispatch_per_kernel)
        for pos, dev in enumerate(devices):
            # nvprof's view: the engine thread blocks in the sync call
            # from the moment its dispatch work ends until the barrier.
            sync_start = min(start + dispatch_time, env.now)
            profiler.record_api("cudaStreamSynchronize", dev.index, sync_start, env.now)
            profiler.record_api(
                "cudaLaunchKernel", dev.index, start, start + dispatch_time
            )
        profiler.record_span("iteration", -1, iteration, start, env.now)

    def _stage_input(
        self, env: Environment, fabric: Fabric, route: Route, dev: GpuDevice,
        profiler: Profiler,
    ) -> Generator[Event, None, None]:
        """HtoD copy of one GPU's next mini-batch (prefetch) along ``route``."""
        nbytes = (
            self.stats.input_shape.numel * 4 * self.config.batch_size
        )
        start = env.now
        yield from fabric.transfer(route, nbytes)
        profiler.record_transfer("h2d", -1, dev.index, nbytes, start, env.now)

    def _gpu_compute(
        self,
        env: Environment,
        dev: GpuDevice,
        pos: int,
        iteration: int,
        grad_ready: Dict[str, List[Event]],
        bp_end_times: List[float],
        profiler: Profiler,
        input_event: Optional[Event],
    ) -> Generator[Event, None, None]:
        """FP then BP on one GPU, signalling per-layer gradient readiness."""
        if input_event is not None and not input_event.triggered:
            yield input_event
        yield env.timeout(
            self.constants.input_pipeline_residual
            + self.constants.input_cost_per_image * self.config.batch_size
        )
        # One GPU's FP/BP kernels are a sequential chain on this process's
        # own stream, so they run inline rather than one process each.
        with profiler.span("fp", dev.index, iteration):
            for kernel in self._fwd:
                yield from dev.run_kernel(kernel)
        with profiler.span("bp", dev.index, iteration):
            for layer, kernels in self._bwd:
                for kernel in kernels:
                    yield from dev.run_kernel(kernel)
                if layer.is_weighted:
                    grad_ready[layer.name][pos].succeed()
        bp_end_times[pos] = env.now

    def _weight_update(
        self, env: Environment, comm, grad_ready: Dict[str, List[Event]]
    ) -> Generator[Event, None, None]:
        """The reduction schedule: per-array synchronization spawned as
        gradients become ready over the gradient-ready DAG."""
        pending = []
        if self.config.overlap_bp_wu:
            # Layers appear in BP completion order, so waiting on each in
            # turn streams arrays into the communicator as they are ready.
            for layer, _ in self._bwd:
                if not layer.is_weighted:
                    continue
                yield env.all_of(grad_ready[layer.name])
                for array in self.stats.arrays_of_layer(layer.name):
                    pending.append(env.process(comm.sync_array(array)))
        else:
            # No overlap: wait for every gradient, then synchronize.
            all_events = [e for events in grad_ready.values() for e in events]
            if all_events:
                yield env.all_of(all_events)
            for layer, _ in self._bwd:
                if layer.is_weighted:
                    for array in self.stats.arrays_of_layer(layer.name):
                        pending.append(env.process(comm.sync_array(array)))
        if pending:
            yield env.all_of(pending)


def train(
    config: TrainingConfig,
    sim: SimulationConfig = SimulationConfig(),
    constants: CalibrationConstants = CALIBRATION,
    **kwargs,
) -> TrainingResult:
    """Convenience wrapper: build a :class:`Trainer` and run it."""
    return Trainer(config, sim=sim, constants=constants, **kwargs).run()
