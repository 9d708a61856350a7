"""The NCCL communicator (MXNet ``nccl`` KVStore).

Per weight array and iteration: a ring ``Reduce`` brings the summed
gradients to GPU0, GPU0 runs the SGD update on its compute engine, and a
ring ``Broadcast`` returns the updated weights -- the AllReduce/Broadcast
pair the paper describes.  Collectives serialize on the NCCL stream, so
many small arrays pipeline back to back with one launch overhead each,
which is how NCCL amortizes its higher per-call cost on layer-rich
networks.

Two costs distinguish NCCL from P2P even on a single GPU (paper Table II):
the Reduce/Broadcast kernels still launch per array, and the communicator
setup is paid once per run (``nccl_epoch_fixed_overhead``).

The ``algorithm``/``protocol`` knobs select the fidelity layer of
:mod:`repro.comm.nccl.protocol`: with the default ``"compat"`` pair the
communicator charges the original pinned ring+Simple cost model
(byte-identical outputs); any other pairing routes every collective
through an :class:`~repro.comm.nccl.tuning.NcclTuner` that picks (or
pins) Ring/Tree x Simple/LL/LL128 per message size, emitting per-choice
and per-chunk observability events.  See docs/COMM.md.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.comm.base import Communicator, run_constant
from repro.comm.nccl.protocol import (
    NcclAlgorithm,
    ring_wire_total,
    tree_hop_bytes,
    tree_wire_total,
)
from repro.comm.nccl.rings import RingPlan, build_ring_plan
from repro.comm.nccl.tuning import NcclTuner, TuningChoice
from repro.dnn.stats import WeightArray
from repro.obs.events import (
    CollectiveChunkEvent,
    LinkWaitEvent,
    ProtocolChoiceEvent,
    RingStepEvent,
)
from repro.perf.spans import PERF
from repro.sim import Resource
from repro.sim.events import Event
from repro.topology.trees import TreeEdge, TreePlan, build_tree_plan, tree_edges

#: One directed ring hop: (src GPU, dst GPU, link name, link type).
RingHop = Tuple[int, int, str, str]


class NcclCommunicator(Communicator):
    """NCCL collective weight synchronization (paper's "NCCL")."""

    name = "nccl"

    def __init__(self, *args, algorithm: str = "compat",
                 protocol: str = "compat", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if (algorithm == "compat") != (protocol == "compat"):
            raise ValueError(
                "'compat' pins the whole legacy model: algorithm and "
                "protocol must both be 'compat' or neither"
            )
        self.algorithm = algorithm
        self.protocol = protocol
        self._stream = Resource(self.env)
        with PERF.span("nccl.build"):
            self.plan: RingPlan = build_ring_plan(
                self.fabric.topology,
                [d.index for d in self.devices],
                self.constants,
            )
            self._ring_hops: List[RingHop] = self._build_ring_hops(
                self.plan.order)
            self.tree: Optional[TreePlan] = None
            self._tree_edges: List[TreeEdge] = []
            self._tuner: Optional[NcclTuner] = None
            if algorithm != "compat":
                self.tree = build_tree_plan(
                    self.fabric.topology,
                    [d.index for d in self.devices],
                    self.constants,
                )
                self._tree_edges = tree_edges(self.fabric.topology, self.tree)
                self._tuner = NcclTuner(
                    ring=self.plan, tree=self.tree, constants=self.constants,
                    algorithm=algorithm, protocol=protocol,
                )
        self._check_plans()

    def _check_plans(self) -> None:
        """Fire the structural checkpoints over the ring (and tree) plans.

        Runs at construction and therefore again after every fault-driven
        re-ring, so a rebuilt communicator re-proves its spanning
        structure."""
        if not self.checks_active:
            return
        participants = tuple(d.index for d in self.devices)
        self._check(
            "comm.ring",
            order=tuple(self.plan.order),
            participants=participants,
            hops=list(self._ring_hops),
            uses_pcie=self.plan.uses_pcie,
        )
        if self.tree is not None:
            self._check(
                "comm.tree",
                root=self.tree.root,
                parent=tuple(self.tree.parent),
                participants=participants,
                depth=self.tree.depth,
            )

    @property
    def _bound_bandwidth(self) -> float:
        """Best aggregate bandwidth any algorithm could use (capacity bound)."""
        bound = self.plan.aggregate_bandwidth
        if self.tree is not None:
            bound = max(bound, self.tree.channels * self.tree.channel_bandwidth)
        return bound

    def _check_collective(self, kind: str, wire_bytes: int, duration: float) -> None:
        """Fire the ``comm.collective`` conservation/capacity checkpoint."""
        if not self.checks_active:
            return
        choice = self._choose(kind, wire_bytes)
        if choice is not None and choice.algorithm is NcclAlgorithm.TREE:
            schedule_total = tree_wire_total(kind, wire_bytes, len(self._tree_edges))
        else:
            schedule_total = ring_wire_total(kind, wire_bytes, self.plan.size)
        self._check(
            "comm.collective",
            kind=kind,
            nbytes=wire_bytes,
            size=self.plan.size,
            duration=duration,
            bound_bandwidth=self._bound_bandwidth,
            schedule_total=schedule_total,
            now=self.env.now,
        )

    def _build_ring_hops(self, order: Sequence[int]) -> List[RingHop]:
        """The directed (src -> dst) hops around the ring ``order``, with
        the physical link each hop rides (NVLink, or the PCIe/IB fallback)."""
        if len(order) < 2:
            return []
        topology = self.fabric.topology
        from repro.topology.cluster import GPUS_PER_NODE

        hops: List[RingHop] = []
        for a, b in zip(order, order[1:] + order[:1]):
            link = topology.nvlink_between(topology.gpu(a), topology.gpu(b))
            if link is not None:
                hops.append((a, b, link.name, link.link_type.value))
            elif a // GPUS_PER_NODE != b // GPUS_PER_NODE:
                hops.append((a, b, f"gpu{a}<->gpu{b}:infiniband", "infiniband"))
            else:
                hops.append((a, b, f"gpu{a}<->gpu{b}:pcie", "pcie"))
        return hops

    # ------------------------------------------------------------------
    # Ring-step observability
    # ------------------------------------------------------------------
    def _emit_stream_waits(self, wait: float, at: float) -> None:
        """Attribute NCCL-stream queueing to the ring links it waited on.

        A collective that queues behind the previous array is waiting for
        exactly the ring's links, so the wait is charged to every hop --
        this is the per-link contention counter the Prometheus export
        surfaces as ``link_wait_time_total``.
        """
        if wait <= 0 or not self._wants(LinkWaitEvent):
            return
        for src, dst, link_name, link_type in self._ring_hops:
            self.profiler.publish(LinkWaitEvent(
                link=link_name, src=f"gpu{src}", dst=f"gpu{dst}",
                link_type=link_type, wait=wait, at=at,
            ))

    def _emit_ring_steps(
        self, collective: str, array: WeightArray,
        start: float, end: float, wire_bytes: int,
    ) -> None:
        """Per-ring-step timing of one collective window.

        Root-bound Reduce/Broadcast streams the full payload through each
        hop as the data front advances: ``N-1`` sequential step windows,
        one hop each, ``wire_bytes`` per hop.  AllReduce (see the
        subclass) overrides the schedule with its reduce-scatter +
        all-gather structure.
        """
        hops = self._ring_hops
        if not hops or end <= start or not self._wants(RingStepEvent):
            return
        steps = hops[:-1] if len(hops) > 1 else hops  # last hop closes the cycle
        slot = (end - start) / len(steps)
        for i, (src, dst, _, link_type) in enumerate(steps):
            self.profiler.publish(RingStepEvent(
                collective=collective, array=array.name, step=i,
                src=src, dst=dst, link_type=link_type, nbytes=wire_bytes,
                start=start + i * slot, end=start + (i + 1) * slot,
            ))

    def _emit_ring_windows(
        self, collective: str, array: WeightArray, hops: Sequence[RingHop],
        steps: int, nbytes: int, start: float, end: float,
    ) -> None:
        """``steps`` equal step windows over ``[start, end]`` in which
        *every* hop of ``hops`` is active carrying ``nbytes`` -- the ring
        reduce-scatter/all-gather structure "Demystifying NCCL" times
        step by step."""
        if not hops or end <= start or not self._wants(RingStepEvent):
            return
        slot = (end - start) / steps
        for step in range(steps):
            t0 = start + step * slot
            t1 = start + (step + 1) * slot
            for src, dst, _, link_type in hops:
                self.profiler.publish(RingStepEvent(
                    collective=collective, array=array.name, step=step,
                    src=src, dst=dst, link_type=link_type, nbytes=nbytes,
                    start=t0, end=t1,
                ))

    def epoch_fixed_overhead(self) -> float:
        return self.constants.nccl_epoch_fixed_overhead

    @property
    def total_ranks(self) -> int:
        """GPUs taking part in every collective."""
        return self.num_gpus

    def per_iteration_overhead(self) -> float:
        """Grouped-launch rendezvous across all engine threads.

        Every iteration, MXNet's NCCL KVStore must get all N engine
        threads to enqueue their collectives together; the rendezvous cost
        grows with GPU count and is independent of model size -- large for
        LeNet in relative terms, negligible for Inception-v3.
        """
        if self.total_ranks == 1:
            return 0.0
        return self.constants.nccl_group_sync_per_gpu * self.total_ranks

    # ------------------------------------------------------------------
    # Protocol-layer hooks (no-ops in compat mode)
    # ------------------------------------------------------------------
    def _choose(self, collective: str, nbytes: int) -> Optional[TuningChoice]:
        """The tuner's decision for this message, or ``None`` in compat."""
        if self._tuner is None or self.plan.size < 2:
            return None
        return self._tuner.select(collective, nbytes)

    def _emit_choice(self, choice: TuningChoice, array: WeightArray,
                     at: float) -> None:
        if not self._wants(ProtocolChoiceEvent):
            return
        self.profiler.publish(ProtocolChoiceEvent(
            collective=choice.collective, array=array.name,
            nbytes=choice.nbytes, algorithm=choice.algorithm.value,
            protocol=choice.protocol.value, predicted=choice.predicted,
            pinned=choice.pinned, at=at,
        ))

    def _emit_tree_steps(
        self, choice: TuningChoice, array: WeightArray,
        start: float, end: float,
    ) -> None:
        """Per-chunk timing of one tree collective window.

        The window divides into one slot per (direction, chunk round);
        every tree edge is active in each round -- the pipelined
        steady-state, where all levels of the tree carry consecutive
        chunks simultaneously.
        """
        if (not self._tree_edges or end <= start
                or not self._wants(CollectiveChunkEvent)):
            return
        schedule = tree_hop_bytes(choice.collective, choice.nbytes,
                                  len(self._tree_edges))
        if not schedule:
            return
        chunk_bytes = self.constants.nccl_chunk_bytes
        num_chunks = max(1, -(-choice.nbytes // chunk_bytes))
        directions = len({direction for _, direction, _ in schedule})
        slots = directions * num_chunks
        slot = (end - start) / slots
        for edge_index, direction, nbytes in schedule:
            child, parent, _, link_type = self._tree_edges[edge_index]
            src, dst = (child, parent) if direction == 0 else (parent, child)
            base, rem = divmod(nbytes, num_chunks)
            for chunk in range(num_chunks):
                t0 = start + (direction * num_chunks + chunk) * slot
                self.profiler.publish(CollectiveChunkEvent(
                    collective=choice.collective, array=array.name,
                    algorithm=choice.algorithm.value,
                    protocol=choice.protocol.value,
                    chunk=chunk, num_chunks=num_chunks,
                    src=src, dst=dst, link_type=link_type,
                    nbytes=base + (1 if chunk < rem else 0),
                    start=t0, end=t0 + slot,
                ))

    # ------------------------------------------------------------------
    # Collective durations
    # ------------------------------------------------------------------
    def _ring_duration(self, kind: str, nbytes: int, steps: int,
                       wire_fraction: float) -> float:
        """A chunk-pipelined ring collective: the launch overhead,
        ``steps`` ring-step latencies of pipeline fill, and
        ``wire_fraction * S`` at the ring's aggregate bandwidth.
        Non-compat modes defer to the tuner's protocol-aware cost model
        instead."""
        c = self.constants
        if self.plan.size == 1:
            return c.nccl_single_gpu_kernel
        choice = self._choose(kind, nbytes)
        if choice is not None:
            return choice.predicted
        wire = wire_fraction * nbytes / self.plan.aggregate_bandwidth
        return c.nccl_call_overhead + steps * c.nccl_ring_step_latency + wire

    def reduce_duration(self, nbytes: int) -> float:
        """Ring Reduce toward the root GPU.

        With chunk pipelining every ring link stays busy carrying the
        accumulating stream, so each channel moves the full array: the
        wire cost is ``S / aggregate_bandwidth`` plus the pipeline fill of
        ``N-1`` chunk steps.
        """
        return self._ring_duration("reduce", nbytes, self.plan.size - 1, 1.0)

    def broadcast_duration(self, nbytes: int) -> float:
        """Ring Broadcast from the root: same pipelined full-array cost."""
        return self._ring_duration("broadcast", nbytes, self.plan.size - 1,
                                   1.0)

    # ------------------------------------------------------------------
    # Weight-update path
    # ------------------------------------------------------------------
    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        # Joined processes: inlining the reduce or the update reorders
        # same-instant GPU-engine grants and moves answers (sim.events).
        yield self.env.process(self._collective("reduce", array))
        yield self.env.process(self.server.run_kernel(self._update_kernel(array)))
        yield from self._collective("broadcast", array)

    @run_constant
    def _collective_kernel(self, array: WeightArray, kind: str,
                           duration: float):
        """The ReduceKernel/BroadcastKernel occupancy on one GPU.

        NCCL collectives are cooperative kernels: every participating GPU
        runs one, and it occupies SMs (briefly, but per array and per
        call) -- this is the per-array NCCL cost the paper's Table II
        isolates on a single GPU and that layer-rich networks amortize
        through back-to-back pipelining.
        """
        from repro.gpu.kernel import KernelSpec

        return KernelSpec(
            name=f"nccl.{kind}.{array.name}",
            layer=array.layer,
            stage="wu",
            duration=duration,
            flops=float(array.numel),
            bytes_moved=array.nbytes,
        )

    def _collective(self, kind: str, array: WeightArray) -> Generator[Event, None, None]:
        c = self.constants
        if self.plan.size == 1:
            # Single GPU: the collective degenerates to a device-local
            # kernel that still occupies the compute engine.
            kernel = self._collective_kernel(array, kind, c.nccl_single_gpu_kernel)
            yield self.env.process(self.server.run_kernel(kernel))
            return
        wire_bytes, duration = self._collective_cost(array, kind)
        self._check_collective(kind, wire_bytes, duration)
        yield from self._launch(kind, array, wire_bytes, (duration,))

    @run_constant
    def _collective_cost(self, array: WeightArray,
                         kind: str) -> Tuple[int, float]:
        """``(wire bytes, duration)`` of one ``kind`` collective over
        ``array``, timed by the ``<kind>_duration`` method."""
        wire_bytes = self._comm_bytes(array)
        return wire_bytes, getattr(self, f"{kind}_duration")(wire_bytes)

    def _launch(
        self, kind: str, array: WeightArray, wire_bytes: int,
        windows: Sequence[float],
    ) -> Generator[Event, None, Tuple[float, List[float]]]:
        """Run one collective on the NCCL stream; every collective of
        every NCCL communicator goes through here.

        Queues on the stream, starts each GPU's cooperative tax kernel,
        charges ``windows`` back to back (a zero window charges nothing),
        joins the taxes and releases the stream.  Returns ``(start,
        ends)``: the clock when the stream was granted and after each
        window.
        """
        queued = self.env.now
        req = self._stream.request_now()
        if req is None:
            req = self._stream.request()
            yield req
        start = self.env.now
        # Outside the profiler's window nothing would be delivered; the
        # window opens and closes only between iterations.
        observed = self.profiler is not None and self.profiler.enabled
        if observed:
            self._emit_stream_waits(start - queued, start)
        # Each GPU launches its cooperative kernel; the brief SM occupancy
        # contends with backward-pass compute on every device.
        tax = self._collective_kernel(array, kind, self.constants.nccl_engine_tax)
        taxes = [self.env.process(dev.run_kernel(tax)) for dev in self.devices]
        ends: List[float] = []
        try:
            for window in windows:
                if window > 0:
                    yield self.env.timeout(window)
                ends.append(self.env.now)
            yield self.env.all_of(taxes)
        finally:
            self._stream.release(req)
        # Synchronous post-collective bookkeeping: tuner choice replay and
        # the per-step/per-chunk event fan-out (allocation-heavy, a known
        # self-time hot spot) -- spanned as "nccl.pipeline" so the perf
        # profile attributes it separately from simulated progress.
        with PERF.span("nccl.pipeline"):
            if PERF.enabled:
                PERF.count("nccl.collectives")
            if observed:
                self._emit_windows(kind, array, wire_bytes, start, ends,
                                   windows)
                self.profiler.record_transfer(
                    "nccl", self.server.index, -1, wire_bytes, start,
                    self.env.now)
        return start, ends

    def _emit_windows(
        self, kind: str, array: WeightArray, wire_bytes: int, start: float,
        ends: Sequence[float], windows: Sequence[float],
    ) -> None:
        """The observability fan-out of one charged collective window."""
        end = start + windows[0]
        choice = self._choose(kind, wire_bytes)
        if choice is None or choice.algorithm is NcclAlgorithm.RING:
            self._emit_ring_steps(kind, array, start, end, wire_bytes)
        else:
            self._emit_tree_steps(choice, array, start, end)
        if choice is not None:
            self._emit_choice(choice, array, start)
