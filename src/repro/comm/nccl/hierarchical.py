"""Hierarchical rail-aware NCCL collectives for the cluster tier.

The flat global ring (:mod:`repro.comm.nccl.rings`) paces every hop at
the slowest link, so a 1024-GPU ring moves at InfiniBand speed even for
the seven-eighths of its hops that sit on NVLink.  NCCL's multi-node
schedule -- and FireCaffe's before it -- is hierarchical instead:

1. **intra-node reduce-scatter** over the NVLink ring: after ``g - 1``
   steps local GPU ``i`` holds the node-local sum of shard ``i``;
2. **inter-node exchange** of shard ``i`` across the ``M`` nodes over
   the InfiniBand *rail* serving GPU ``i`` (ring or tree schedule, all
   rails concurrent);
3. **intra-node allgather** over the NVLink ring redistributes the
   fully reduced shards.

This module provides the pure algebra of that schedule (exact integer
wire totals, closed-form phase timings built on the audited
:func:`~repro.comm.nccl.protocol._pipelined_time` pipeline model) and
:class:`HierarchicalNcclCommunicator`, which folds it into the event
timeline either *event*-wise (one charged window per phase, per-rail
ring-step events) or *analytically* (one closed-form window per
collective -- a 1024-GPU AllReduce cannot afford per-chunk events on
every link).  Both modes charge the same float algebra; the
``temporal.hierarchical-agreement`` invariant compares the clock each
collective actually charged with the closed form.  See docs/SCALING.md
for the model and its validity envelope.
"""

from __future__ import annotations

import functools
import math
from typing import Generator, List, Sequence, Tuple

from repro.comm.base import run_constant
from repro.comm.nccl.allreduce import NcclAllReduceCommunicator
from repro.comm.nccl.protocol import (
    _pipelined_time,
    _segments,
    ring_wire_total,
    tree_wire_total,
)
from repro.comm.nccl.rings import RingPlan, build_ring_plan
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import ConfigurationError
from repro.dnn.stats import WeightArray
from repro.obs.events import RingStepEvent
from repro.perf.spans import PERF
from repro.sim.events import Event
from repro.topology.cluster import (
    GPUS_PER_NODE,
    IB_LANE_BANDWIDTH,
    IB_LANES_PER_NODE,
    IB_RAIL_LATENCY,
    rail_of_rank,
)

#: Valid inter-node exchange schedules.
INTER_ALGORITHMS = ("ring", "tree")

#: Valid fast-path modes (the resolved values; ``"auto"`` is resolved by
#: the strategy layer before construction).
FAST_PATHS = ("event", "analytic")


# ----------------------------------------------------------------------
# Pure schedule algebra (no simulation state)
# ----------------------------------------------------------------------
def rail_bytes(
    nbytes: int,
    gpus_per_node: int = GPUS_PER_NODE,
    rails: int = IB_LANES_PER_NODE,
) -> List[int]:
    """Bytes each inter-node rail carries for one shard exchange.

    The intra-node reduce-scatter leaves shard ``i`` (of the
    ``gpus_per_node`` integer segments of the payload) on local GPU
    ``i``; rail ``r`` then exchanges the shards of its GPUs.  Sums to
    exactly ``nbytes``:

    >>> rail_bytes(100, 8, 4)
    [26, 26, 24, 24]
    >>> sum(rail_bytes(100, 8, 4))
    100
    """
    shards = _segments(nbytes, gpus_per_node)
    per_rail = [0] * rails
    for i, s in enumerate(shards):
        per_rail[rail_of_rank(i, rails)] += s
    return per_rail


def rail_assignment(
    nbytes: int,
    gpus_per_node: int = GPUS_PER_NODE,
    rails: int = IB_LANES_PER_NODE,
    rail_scales: Tuple[float, ...] | None = None,
) -> List[int]:
    """Bytes each rail carries after re-railing around failed rails.

    Healthy rails (``rail_scales`` omitted or all 1.0) keep the
    :func:`rail_bytes` split.  A failed rail (scale 0) re-rails its shard
    traffic onto the survivors: its bytes are integer-split evenly
    (:func:`~repro.comm.nccl.protocol._segments`) over the surviving
    rails in index order, so conservation is exact and the assignment is
    deterministic.  Degraded-but-alive rails (0 < scale < 1) keep their
    own traffic -- they are slow, not gone.

    >>> rail_assignment(100, 8, 4, (1.0, 0.0, 1.0, 1.0))
    [35, 0, 33, 32]
    >>> sum(rail_assignment(100, 8, 4, (1.0, 0.0, 1.0, 1.0)))
    100
    """
    base = rail_bytes(nbytes, gpus_per_node, rails)
    if rail_scales is None or all(s == 1.0 for s in rail_scales):
        return base
    survivors = [r for r in range(rails) if rail_scales[r] > 0.0]
    if not survivors:
        from repro.core.errors import FaultPlanError

        raise FaultPlanError(
            "every inter-node rail is down: re-railing needs at least "
            "one surviving rail"
        )
    assigned = [base[r] if rail_scales[r] > 0.0 else 0 for r in range(rails)]
    for r in range(rails):
        if rail_scales[r] > 0.0 or base[r] == 0:
            continue
        for j, part in enumerate(_segments(base[r], len(survivors))):
            assigned[survivors[j]] += part
    return assigned


def hierarchical_phase_wire(
    nbytes: int, nodes: int, gpus_per_node: int = GPUS_PER_NODE
) -> Tuple[int, int, int]:
    """Exact wire bytes of the three phases, all links summed.

    Intra-node reduce-scatter and allgather each move every payload
    segment across ``g - 1`` ring steps on every node; the inter-node
    exchange AllReduces each shard across ``M`` nodes, which costs
    ``2(M-1)`` segment traversals per shard for the ring schedule and
    ``(M-1)`` edges x 2 directions for the tree -- the *same* total:

    >>> hierarchical_phase_wire(800, nodes=4, gpus_per_node=8)
    (22400, 4800, 22400)
    """
    if nbytes <= 0:
        return (0, 0, 0)
    intra = nodes * (gpus_per_node - 1) * nbytes if gpus_per_node > 1 else 0
    inter = 2 * (nodes - 1) * nbytes if nodes > 1 else 0
    return (intra, inter, intra)


def hierarchical_wire_total(
    nbytes: int, nodes: int, gpus_per_node: int = GPUS_PER_NODE
) -> int:
    """Closed-form total wire bytes of one hierarchical AllReduce."""
    rs, inter, ag = hierarchical_phase_wire(nbytes, nodes, gpus_per_node)
    return rs + inter + ag


@functools.lru_cache(maxsize=1024)
def hierarchical_schedule_total(
    nbytes: int,
    nodes: int,
    gpus_per_node: int = GPUS_PER_NODE,
    inter_algorithm: str = "ring",
) -> int:
    """Enumerated wire total: every phase's schedule, segment by segment.

    Independent of :func:`hierarchical_wire_total`'s closed form -- the
    conservation checker compares the two, so a schedule bug and an
    algebra bug cannot hide each other (memoized):

    >>> hierarchical_schedule_total(800, 4) == hierarchical_wire_total(800, 4)
    True
    >>> hierarchical_schedule_total(801, 3, inter_algorithm="tree") == \\
    ...     hierarchical_wire_total(801, 3)
    True
    """
    if nbytes <= 0 or nodes * gpus_per_node < 2:
        return 0
    total = 0
    if gpus_per_node > 1:
        # Ring reduce-scatter + allgather on every node is exactly the
        # wire schedule of one intra-node ring AllReduce.
        total += nodes * ring_wire_total("allreduce", nbytes, gpus_per_node)
    if nodes > 1:
        for shard in _segments(nbytes, gpus_per_node):
            if inter_algorithm == "tree":
                total += tree_wire_total("allreduce", shard, nodes - 1)
            else:
                total += ring_wire_total("allreduce", shard, nodes)
    return total


def hierarchical_phase_times(
    nbytes: int,
    nodes: int,
    intra_bandwidth: float,
    rail_bandwidth: float,
    rail_latency: float,
    gpus_per_node: int = GPUS_PER_NODE,
    rails: int = IB_LANES_PER_NODE,
    inter_algorithm: str = "ring",
    constants: CalibrationConstants = CALIBRATION,
    rail_scales: Tuple[float, ...] | None = None,
) -> Tuple[float, float, float]:
    """Closed-form (reduce-scatter, inter-exchange, allgather) seconds.

    The intra phases are ``g - 1``-step ring pipelines moving one
    ``S/g`` segment per step at the NVLink ring's aggregate bandwidth
    (``intra_bandwidth``, already efficiency-scaled).  The inter phase
    is paced by the *fullest* rail (rails run concurrently but the
    barrier is the slowest): a ``2(M-1)``-step ring pipeline of
    ``B_max/M`` segments, or a ``2 x ceil(log2 M)``-deep tree pipeline
    of the full ``B_max``, at ``rail_bandwidth`` derated by the NCCL
    bus efficiency.  All three use the audited fill+drain pipeline
    model (:func:`~repro.comm.nccl.protocol._pipelined_time`).

    ``rail_scales`` (per-rail bandwidth multipliers from an active
    :class:`~repro.faults.plan.RailFault` set) makes the inter phase
    fault-aware: failed rails' traffic re-rails per
    :func:`rail_assignment` and the phase paces at the *slowest loaded
    rail* -- the max over surviving rails of that rail's pipeline time at
    its degraded bandwidth.  A healthy scale set takes the exact code
    path of the no-argument form, so no-fault runs stay byte-identical.
    """
    chunk = constants.nccl_chunk_bytes
    t_intra = 0.0
    if gpus_per_node > 1:
        t_intra = _pipelined_time(
            max(1, nbytes // gpus_per_node),
            gpus_per_node - 1,
            chunk,
            intra_bandwidth,
            constants.nccl_ring_step_latency,
        )
    t_inter = 0.0
    if nodes > 1:
        bw = rail_bandwidth * constants.nccl_bandwidth_efficiency
        depth = max(1, math.ceil(math.log2(nodes)))
        if rail_scales is None or all(s == 1.0 for s in rail_scales):
            busiest = max(rail_bytes(nbytes, gpus_per_node, rails))
            if inter_algorithm == "tree":
                t_inter = 2.0 * _pipelined_time(
                    busiest, depth, chunk, bw, rail_latency
                )
            else:
                t_inter = _pipelined_time(
                    max(1, busiest // nodes),
                    2 * (nodes - 1),
                    chunk,
                    bw,
                    rail_latency,
                )
        else:
            assigned = rail_assignment(
                nbytes, gpus_per_node, rails, rail_scales
            )
            for b, scale in zip(assigned, rail_scales):
                if b <= 0 or scale <= 0.0:
                    continue
                rail_bw = bw * scale
                if inter_algorithm == "tree":
                    t = 2.0 * _pipelined_time(
                        b, depth, chunk, rail_bw, rail_latency
                    )
                else:
                    t = _pipelined_time(
                        max(1, b // nodes),
                        2 * (nodes - 1),
                        chunk,
                        rail_bw,
                        rail_latency,
                    )
                t_inter = max(t_inter, t)
    return (t_intra, t_inter, t_intra)


# ----------------------------------------------------------------------
# The communicator
# ----------------------------------------------------------------------
class HierarchicalNcclCommunicator(NcclAllReduceCommunicator):
    """Rail-aware hierarchical AllReduce with replicated local updates.

    Covers the whole cluster (``cluster_nodes * 8`` ranks) even when the
    trainer event-simulates only a *representative node* (node 0's eight
    GPUs): collective durations, wire accounting and the per-iteration
    group rendezvous are always charged for the full cluster, while
    kernels run on the simulated devices only.  ``fast_path`` selects
    how collectives enter the timeline -- ``"event"`` charges one window
    per phase and emits per-rail ring-step events, ``"analytic"``
    charges a single closed-form window -- and both modes evaluate the
    same float algebra (invariant ``temporal.hierarchical-agreement``).
    The replicated-update :meth:`sync_array` is the flat AllReduce's.
    """

    name = "nccl-hierarchical"

    def __init__(
        self,
        *args,
        cluster_nodes: int = 1,
        rails: int = IB_LANES_PER_NODE,
        rail_bandwidth: float = IB_LANE_BANDWIDTH,
        rail_latency: float | None = None,
        inter_algorithm: str = "ring",
        fast_path: str = "event",
        rail_scales: Tuple[float, ...] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if cluster_nodes < 1:
            raise ConfigurationError("cluster_nodes must be positive")
        if inter_algorithm not in INTER_ALGORITHMS:
            raise ConfigurationError(
                f"inter_algorithm must be one of {INTER_ALGORITHMS}, "
                f"got {inter_algorithm!r}"
            )
        if fast_path not in FAST_PATHS:
            raise ConfigurationError(
                f"fast_path must be one of {FAST_PATHS}, got {fast_path!r} "
                "(resolve 'auto' before construction)"
            )
        if rails < 1 or GPUS_PER_NODE % rails:
            raise ConfigurationError(
                f"rails must divide {GPUS_PER_NODE}, got {rails}"
            )
        if rail_scales is not None:
            if len(rail_scales) != rails:
                raise ConfigurationError(
                    f"rail_scales needs one entry per rail ({rails}), "
                    f"got {len(rail_scales)}"
                )
            if any(not 0.0 <= s <= 1.0 for s in rail_scales):
                raise ConfigurationError(
                    "rail_scales entries must be in [0, 1]"
                )
            if all(s == 0.0 for s in rail_scales):
                from repro.core.errors import FaultPlanError

                raise FaultPlanError(
                    "every inter-node rail is down: re-railing needs at "
                    "least one surviving rail"
                )
            if all(s == 1.0 for s in rail_scales):
                # A healthy scale set is the no-fault communicator; drop
                # it so the no-fault algebra path stays byte-identical.
                rail_scales = None
        self.cluster_nodes = cluster_nodes
        self.rails = rails
        self.rail_scales = tuple(rail_scales) if rail_scales else None
        self.rail_bandwidth = rail_bandwidth
        self.rail_latency = (
            rail_latency if rail_latency is not None else IB_RAIL_LATENCY
        )
        self.inter_algorithm = inter_algorithm
        self.fast_path = fast_path
        with PERF.span("nccl.build"):
            # The intra-node NVLink ring of the representative node; the
            # parent's plan equals it when only node 0 is simulated.
            intra_indices = [
                d.index for d in self.devices if d.index < GPUS_PER_NODE
            ]
            self.intra_plan: RingPlan = build_ring_plan(
                self.fabric.topology, intra_indices, self.constants
            )
            self._intra_hops = self._build_ring_hops(self.intra_plan.order)

    @property
    def total_ranks(self) -> int:
        """GPUs participating in the collective across the cluster (the
        grouped-launch rendezvous spans all of their engines)."""
        return self.cluster_nodes * GPUS_PER_NODE

    @property
    def representative(self) -> bool:
        """True when fewer devices are simulated than ranks exist."""
        return len(self.devices) < self.total_ranks

    # ------------------------------------------------------------------
    # Durations
    # ------------------------------------------------------------------
    def _phase_times(self, nbytes: int) -> Tuple[float, float, float]:
        return hierarchical_phase_times(
            nbytes,
            self.cluster_nodes,
            self.intra_plan.aggregate_bandwidth,
            self.rail_bandwidth,
            self.rail_latency,
            gpus_per_node=GPUS_PER_NODE,
            rails=self.rails,
            inter_algorithm=self.inter_algorithm,
            constants=self.constants,
            rail_scales=self.rail_scales,
        )

    def allreduce_duration(self, nbytes: int) -> float:
        """Closed-form hierarchical AllReduce time (all three phases)."""
        t_rs, t_inter, t_ag = self._phase_times(nbytes)
        return self.constants.nccl_call_overhead + t_rs + t_inter + t_ag

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def _check_hierarchical(
        self, nbytes: int, duration: float, analytic: float,
        phases: Tuple[float, float, float],
    ) -> None:
        """Fire the ``comm.hierarchical`` checkpoint for one collective
        that charged ``duration`` on the clock."""
        if not self.checks_active:
            return
        t_rs, t_inter, t_ag = phases
        scales = self.rail_scales or (1.0,) * self.rails
        multi = self.cluster_nodes > 1
        self._check(
            "comm.hierarchical",
            kind="allreduce",
            nbytes=nbytes,
            size=self.total_ranks,
            nodes=self.cluster_nodes,
            gpus_per_node=GPUS_PER_NODE,
            rails=self.rails,
            inter_algorithm=self.inter_algorithm,
            mode=self.fast_path,
            duration=duration,
            analytic=analytic,
            t_reduce_scatter=t_rs,
            t_inter=t_inter,
            t_allgather=t_ag,
            wire_total=hierarchical_wire_total(
                nbytes, self.cluster_nodes, GPUS_PER_NODE
            ),
            schedule_total=hierarchical_schedule_total(
                nbytes, self.cluster_nodes, GPUS_PER_NODE,
                self.inter_algorithm,
            ),
            max_rail_bytes=(
                max(rail_bytes(nbytes, GPUS_PER_NODE, self.rails))
                if self.cluster_nodes > 1
                else 0
            ),
            intra_bound_bandwidth=self.intra_plan.aggregate_bandwidth,
            rail_bound_bandwidth=self.rail_bandwidth,
            rail_scales=scales,
            healthy_rail_bytes=(
                tuple(rail_bytes(nbytes, GPUS_PER_NODE, self.rails))
                if multi else ()
            ),
            rail_assignment=(
                tuple(rail_assignment(
                    nbytes, GPUS_PER_NODE, self.rails, self.rail_scales
                ))
                if multi else ()
            ),
            faulted=self.rail_scales is not None,
            now=self.env.now,
        )

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _emit_inter_steps(
        self, array: WeightArray, start: float, end: float, nbytes: int,
    ) -> None:
        """Per-rail inter-node exchange windows.

        Each rail is represented by its first GPU on consecutive nodes
        (rank ``node * 8 + rail_lead``); ring mode has ``2(M-1)`` step
        windows moving one ``B_r/M`` segment per hop, tree mode
        ``2*ceil(log2 M)`` windows moving the full ``B_r``.
        """
        m = self.cluster_nodes
        if m < 2 or end <= start or not self._wants(RingStepEvent):
            return
        per_rail = rail_assignment(
            nbytes, GPUS_PER_NODE, self.rails, self.rail_scales
        )
        lead = GPUS_PER_NODE // self.rails
        collective = f"hier-inter-{self.inter_algorithm}"
        if self.inter_algorithm == "tree":
            steps = 2 * max(1, math.ceil(math.log2(m)))
        else:
            steps = 2 * (m - 1)
        slot = (end - start) / steps
        for r, b in enumerate(per_rail):
            if self.rail_scales is not None and b <= 0:
                continue  # failed rail: its traffic re-railed elsewhere
            seg = b if self.inter_algorithm == "tree" else max(1, b // m)
            for step in range(steps):
                src_node = step % m
                dst_node = (step + 1) % m
                self.profiler.publish(RingStepEvent(
                    collective=collective, array=array.name, step=step,
                    src=src_node * GPUS_PER_NODE + r * lead,
                    dst=dst_node * GPUS_PER_NODE + r * lead,
                    link_type="infiniband", nbytes=seg,
                    start=start + step * slot, end=start + (step + 1) * slot,
                ))

    def _emit_windows(
        self, kind: str, array: WeightArray, wire_bytes: int, start: float,
        ends: Sequence[float], windows: Sequence[float],
    ) -> None:
        """Per-phase ring steps (event mode) or one summary window."""
        if self.fast_path == "event":
            rs_end, inter_end, _ = ends
            g = self.intra_plan.size
            seg = max(1, wire_bytes // g)
            self._emit_ring_windows("hier-reduce-scatter", array,
                                    self._intra_hops, g - 1, seg,
                                    start, rs_end)
            self._emit_inter_steps(array, rs_end, inter_end, wire_bytes)
            self._emit_ring_windows("hier-allgather", array,
                                    self._intra_hops, g - 1, seg,
                                    inter_end, inter_end + windows[2])
        elif self._wants(RingStepEvent):
            # Analytic mode: one summary window, no per-step fan-out.
            self.profiler.publish(RingStepEvent(
                collective="hier-analytic", array=array.name, step=0,
                src=self.server.index, dst=self.server.index + 1,
                link_type="infiniband", nbytes=wire_bytes,
                start=start, end=start + sum(windows),
            ))

    # ------------------------------------------------------------------
    # Weight-update path
    # ------------------------------------------------------------------
    def _allreduce(self, array: WeightArray) -> Generator[Event, None, None]:
        wire_bytes, phases, analytic, windows = self._allreduce_plan(array)
        start, ends = yield from self._launch("allreduce", array,
                                              wire_bytes, windows)
        self._check_hierarchical(wire_bytes, ends[-1] - start, analytic,
                                 phases)

    @run_constant
    def _allreduce_plan(self, array: WeightArray) -> tuple:
        """``(wire bytes, phase times, analytic time, charged windows)``
        of one AllReduce over ``array``."""
        c = self.constants
        wire_bytes = self._comm_bytes(array)
        phases = t_rs, t_inter, t_ag = self._phase_times(wire_bytes)
        analytic = c.nccl_call_overhead + t_rs + t_inter + t_ag
        if self.fast_path == "event" or t_inter == 0:
            # One charged window per phase: the inter-node exchange
            # cannot start before the reduce-scatter finishes, and the
            # allgather not before the exchange.  With no inter-node
            # phase to fold (one node) the analytic path charges the same
            # windows, so both paths advance the clock identically.
            windows: Tuple[float, ...] = (c.nccl_call_overhead + t_rs,
                                          t_inter, t_ag)
        else:
            windows = (analytic,)
        return wire_bytes, phases, analytic, windows
