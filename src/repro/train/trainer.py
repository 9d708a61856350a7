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

Training is periodic, so the trainer simulates a warm-up then a few
measured iterations at full event fidelity and extrapolates the epoch:
``epoch = iterations * mean_iteration + once_per_run_overheads``.

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

import math
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
from repro.dnn.stats import NetworkStats
from repro.gpu import GpuDevice, KernelCostModel, MemoryModel
from repro.gpu.spec import TESLA_V100, GpuSpec
from repro.profile import MemoryMonitor, Profiler, summarize_apis, summarize_stages
from repro.profile.summary import gpu_busy_fractions
from repro.sim import Environment
from repro.sim.events import Event
from repro.topology import Fabric, Router, build_dgx1v
from repro.train.optimizers import get_optimizer
from repro.train.results import TrainingResult
from repro.train.strategies import strategy_for


def _fault_kind(label: str) -> str:
    return label.split(":", 1)[0]


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
        if checks is not None and obs is not None:
            checks.bind_bus(obs.bus)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise FaultPlanError(
                f"faults must be a FaultPlan, got {type(faults).__name__}"
            )
        # Per-segment cluster overrides the faulted segment loop sets and
        # the strategy's communicator construction consults; None outside
        # a faulted cluster segment (the healthy path never touches them).
        self._fault_cluster_nodes: Optional[int] = None
        self._fault_rail_scales: Optional[Tuple[float, ...]] = None
        if faults is not None:
            self._validate_fault_plan(faults)
        with PERF.span("trainer.compile"):
            if network is not None:
                if input_shape is None:
                    raise ValueError(
                        "a custom network needs an explicit input_shape")
                self.stats = compile_network(network, input_shape)
            else:
                self.stats = compile_network(
                    build_network(config.network),
                    network_input_shape(config.network)
                )
            self.optimizer = get_optimizer(config.optimizer)
            self.cost_model = KernelCostModel(spec, constants, use_tensor_cores)
            self.memory_model = MemoryModel(spec, constants,
                                            optimizer=self.optimizer)
            # Kernel schedules are batch-dependent but iteration-invariant.
            self._fwd = self.cost_model.forward_schedule(
                self.stats, config.batch_size)
            self._bwd = self.cost_model.backward_schedule(
                self.stats, config.batch_size)
            self._kernels_per_iter = (
                len(self._fwd) + sum(len(k) for _, k in self._bwd))
            # Raw per-GPU kernel seconds of one iteration -- the compute
            # stage of the analytic DAG oracle (repro.checks.dag).
            self._kernel_seconds = (
                sum(k.duration for k in self._fwd)
                + sum(k.duration for _, ks in self._bwd for k in ks)
            )
        self.strategy = strategy_for(config)

    def _validate_fault_plan(self, plan: FaultPlan) -> None:
        """Reject a plan this run cannot execute, before any simulation.

        Every fault target is bounds-checked against the configuration
        eagerly (a bad plan must fail at construction, not minutes into
        a sweep), cluster-tier primitives require the hierarchical
        collective, and an explicit analytic fast path must be able to
        represent the plan (:func:`~repro.train.strategies.resolve_fast_path`).
        """
        cfg = self.config
        for f in plan.crashes:
            if f.gpu >= cfg.num_gpus:
                raise FaultPlanError(
                    f"crash targets gpu{f.gpu} but the run uses "
                    f"{cfg.num_gpus} GPU(s)"
                )
        for f in plan.stragglers:
            if f.gpu >= cfg.num_gpus:
                raise FaultPlanError(
                    f"straggler targets gpu{f.gpu} but the run uses "
                    f"{cfg.num_gpus} GPU(s)"
                )
        for f in plan.ecc_faults:
            if f.gpu >= cfg.num_gpus:
                raise FaultPlanError(
                    f"ecc fault targets gpu{f.gpu} but the run uses "
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
            from repro.train.strategies import resolve_fast_path

            # Raises under an explicit analytic fast path the plan's
            # faults cannot be represented on.
            resolve_fast_path(cfg, plan)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> TrainingResult:
        """Simulate the run and return the measured result.

        Delegates to the configured
        :class:`~repro.train.strategies.ReductionStrategy` (resolved from
        ``config.strategy``; the default ``"auto"`` maps ``comm_method``
        to the matching synchronous strategy, byte-identical to the
        pre-registry trainer).  Raises
        :class:`~repro.core.errors.OutOfMemoryError` when the
        configuration cannot fit in GPU memory (as the paper hit for
        Inception-v3/ResNet above batch 64), and
        :class:`~repro.core.errors.WorkerCrashError` when the fault plan
        crashes a worker under the ``FAIL_FAST`` policy.
        """
        with PERF.span(f"strategy.{self.strategy.name}"):
            return self.strategy.run(self)

    # ------------------------------------------------------------------
    # System assembly and steady-state measurement
    # ------------------------------------------------------------------
    def _base_topology(self):
        cfg = self.config
        if cfg.cluster_nodes > 1 or cfg.cluster_fabric != "compat":
            from repro.topology import ClusterSpec, build_cluster

            # "compat" keeps the aggregated width-4 attachment (the
            # pre-cluster-tier graph, byte-identical); the rail fabrics
            # go through the parameterized ClusterSpec (docs/SCALING.md).
            interconnect = (
                cfg.cluster_fabric
                if cfg.cluster_fabric != "compat"
                else "aggregated"
            )
            return build_cluster(
                ClusterSpec(cfg.cluster_nodes, interconnect=interconnect)
            )
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
            from repro.train.strategies import resolve_fast_path

            if resolve_fast_path(cfg, self.faults) == "analytic":
                return min(cfg.num_gpus, GPUS_PER_NODE)
        return cfg.num_gpus

    def _build_system(
        self,
        topology=None,
        gpu_indices: Optional[Sequence[int]] = None,
        speed_overrides: Optional[Dict[int, float]] = None,
        ecc_models: Optional[Dict[int, object]] = None,
    ):
        """Assemble env, profiler, fabric, router, devices and comm.

        One code path for healthy and faulted construction: with no
        overrides this is the exact healthy sequence (byte-identical
        outputs); the faulted path passes a degraded topology, a survivor
        GPU set and per-segment speed/ECC models.  The communicator
        itself is strategy-owned
        (:meth:`~repro.train.strategies.ReductionStrategy.build_communicator`).
        """
        with PERF.span("trainer.build"):
            env = Environment()
            profiler = Profiler(
                enabled=False,
                bus=self.obs.bus if self.obs is not None else None,
                clock=env,
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
            comm = self.strategy.build_communicator(
                self, env, fabric, devices, profiler)
            return env, profiler, fabric, router, devices, comm

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
        busy: Dict[int, float] = {}
        for kernel in profiler.kernels:
            busy[kernel.gpu] = busy.get(kernel.gpu, 0.0) + (kernel.end - kernel.start)
        windows = [s for s in spans if s.name == "iteration"]
        elapsed = (
            max(s.end for s in windows) - min(s.start for s in windows)
            if windows else 0.0
        )
        checks.check(
            "trainer.stages",
            spans=spans,
            host_overhead=floors["host"],
            busy=busy,
            elapsed=elapsed,
            now=env.now,
        )
        measured: Dict[str, int] = {}
        for t in profiler.transfers:
            if t.kind in ("p2p", "nccl"):
                measured[t.kind] = measured.get(t.kind, 0) + t.nbytes
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

    def _result_checks(self, epoch_time: float, iterations: int,
                       mean_iteration: float, fixed: float, memory) -> tuple:
        """Fire the run-level checkpoints; return the violation records."""
        checks = self.checks
        if checks is None:
            return ()
        if checks.enabled:
            checks.check(
                "trainer.epoch",
                epoch_time=epoch_time,
                iterations=iterations,
                mean_iteration=mean_iteration,
                fixed=fixed,
            )
            checks.check(
                "trainer.memory",
                totals=[(m.gpu, m.usage.total) for m in memory],
                capacity=self.spec.memory_bytes,
                check_memory=self.check_memory,
            )
        return checks.violation_records()

    def _measure(
        self, env, profiler, fabric, router, devices, comm
    ) -> List[float]:
        """Warm up, then measure steady-state iterations at full fidelity."""
        with PERF.span("trainer.measure"):
            input_ready: List[Optional[Event]] = [None] * len(devices)
            iteration_times: List[float] = []
            total_iterations = (
                self.sim.warmup_iterations + self.sim.measure_iterations)
            for iteration in range(total_iterations):
                if iteration == self.sim.warmup_iterations:
                    profiler.enabled = True
                    profiler.reset()
                start = env.now
                done = env.process(
                    self._iteration(
                        env, iteration, devices, comm, profiler, fabric,
                        router, input_ready,
                    )
                )
                env.run(until=done)
                if iteration >= self.sim.warmup_iterations:
                    iteration_times.append(env.now - start)
            if PERF.enabled:
                PERF.count("sim.events", env.dispatched)
                PERF.count("trainer.iterations", total_iterations)
            return iteration_times

    def _run_healthy(self) -> TrainingResult:
        env, profiler, fabric, router, devices, comm = self._build_system()
        iteration_times = self._measure(
            env, profiler, fabric, router, devices, comm
        )
        self._post_measure_checks(env, profiler, fabric, devices, comm,
                                  len(iteration_times))
        mean_iteration = sum(iteration_times) / len(iteration_times)
        fixed = comm.epoch_fixed_overhead() + self.constants.run_startup_overhead
        epoch_time = self.config.iterations_per_epoch * mean_iteration + fixed
        monitor = MemoryMonitor(self.spec, self.constants, optimizer=self.optimizer)
        memory = tuple(
            monitor.sample(self.stats, self.config.batch_size, self.config.num_gpus)
        )
        violations = self._result_checks(
            epoch_time, self.config.iterations_per_epoch, mean_iteration,
            fixed, memory,
        )
        return TrainingResult(
            config=self.config,
            iteration_time=mean_iteration,
            iteration_times=tuple(iteration_times),
            epoch_time=epoch_time,
            fixed_overhead=fixed,
            stages=summarize_stages(profiler),
            apis=summarize_apis(profiler),
            gpu_busy=gpu_busy_fractions(profiler),
            compute_utilization=self.cost_model.compute_utilization(
                self.stats, self.config.batch_size
            ),
            memory=memory,
            profiler=profiler if self.keep_profiler else None,
            violations=violations,
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
        # The strategy's contract with the fault layer: whether topology
        # changes additionally pay an NCCL communicator re-init.
        recovery = self.strategy.recovery_semantics()
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
            if cluster:
                scales = injector.rail_scales(rails, now)
                rails_degraded = sum(1 for s in scales if s < 1.0)
                self._fault_rail_scales = (
                    scales if rails_degraded else None
                )
                self._fault_cluster_nodes = (
                    active_nodes if active_nodes != cfg.cluster_nodes
                    else None
                )
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
            )
            # The overrides only steer communicator construction; clear
            # them so an exception (or a later healthy run on this
            # trainer) never sees a stale cluster narrowing.
            self._fault_cluster_nodes = None
            self._fault_rail_scales = None
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
                    # recomputation and (strategies declaring ring-based
                    # recovery semantics only) an NCCL communicator
                    # rebuild before the next segment.
                    cost = costs.route_recompute
                    if recovery.ring_rebuild and plan_obj is not None:
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
        monitor = MemoryMonitor(self.spec, self.constants, optimizer=self.optimizer)
        memory = tuple(
            monitor.sample(self.stats, cfg.batch_size, cfg.num_gpus)
        )
        violations = self._result_checks(
            epoch_time, done_iters, mean_iteration, fixed + overhead, memory,
        )
        return TrainingResult(
            config=cfg,
            iteration_time=mean_iteration,
            iteration_times=tuple(iteration_times),
            epoch_time=epoch_time,
            fixed_overhead=fixed + overhead,
            stages=summarize_stages(dom_profiler),
            apis=summarize_apis(dom_profiler),
            gpu_busy=gpu_busy_fractions(dom_profiler),
            compute_utilization=self.cost_model.compute_utilization(
                self.stats, cfg.batch_size
            ),
            memory=memory,
            profiler=dom_profiler if self.keep_profiler else None,
            faults=summary,
            violations=violations,
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
        router: Router,
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
                self._stage_input(env, fabric, router, dev, profiler)
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
        dispatch_time = self._kernels_per_iter * c.host_dispatch_per_kernel
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
        self, env: Environment, fabric: Fabric, router: Router, dev: GpuDevice,
        profiler: Profiler,
    ) -> Generator[Event, None, None]:
        """HtoD copy of one GPU's next mini-batch (prefetch)."""
        nbytes = (
            self.stats.input_shape.numel * 4 * self.config.batch_size
        )
        cpu = fabric.topology.home_cpu(dev.node)
        route = router.cpu_to_gpu(cpu, dev.node)
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
        with profiler.span("fp", dev.index, iteration):
            for kernel in self._fwd:
                yield env.process(dev.run_kernel(kernel))
        with profiler.span("bp", dev.index, iteration):
            for layer, kernels in self._bwd:
                for kernel in kernels:
                    yield env.process(dev.run_kernel(kernel))
                if layer.is_weighted:
                    grad_ready[layer.name][pos].succeed()
        bp_end_times[pos] = env.now

    def _weight_update(
        self, env: Environment, comm, grad_ready: Dict[str, List[Event]]
    ) -> Generator[Event, None, None]:
        """The strategy's reduction schedule over the gradient-ready DAG."""
        yield from self.strategy.schedule_weight_update(
            self, env, comm, grad_ready)


def train(
    config: TrainingConfig,
    sim: SimulationConfig = SimulationConfig(),
    constants: CalibrationConstants = CALIBRATION,
    **kwargs,
) -> TrainingResult:
    """Convenience wrapper: build a :class:`Trainer` and run it."""
    return Trainer(config, sim=sim, constants=constants, **kwargs).run()
