"""The typed event taxonomy of the observability bus.

Every instrumented component emits one of these frozen dataclasses onto an
:class:`~repro.obs.bus.EventBus`:

===================  ======================================================
event                emitted by
===================  ======================================================
KernelEvent          :class:`~repro.gpu.device.GpuDevice` (via the profiler)
TransferEvent        communicators and the trainer's input staging
ApiEvent             the trainer's host-side CUDA API accounting
SpanEvent            the trainer's FP/BP/WU/iteration stage spans
EngineWaitEvent      :class:`~repro.gpu.device.GpuDevice` queueing delay
LinkBusyEvent        :class:`~repro.topology.fabric.Fabric`, one per DMA
                     per directed link it holds
LinkWaitEvent        fabric FIFO queueing and NCCL stream contention,
                     attributed to the directed link that was busy
RingStepEvent        :mod:`repro.comm.nccl` per-ring-step timing
ProtocolChoiceEvent  the NCCL tuner, one per collective in non-compat
                     algorithm/protocol modes (see docs/COMM.md)
CollectiveChunkEvent :mod:`repro.comm.nccl` per-chunk timing of tree
                     collectives (non-compat modes)
QueueDepthEvent      :class:`~repro.sim.engine.Environment` (sampled)
SweepPointStart      :class:`~repro.runner.SweepRunner`, per sweep point
SweepPointDone       the runner, on result (executed or cache hit)
SweepPointOom        the runner, on an out-of-memory point
SweepPointRetry      the runner, before re-executing a failed point
SweepPointFailed     the runner, when a point exhausts its retries
FaultInjectedEvent   the trainer's fault layer, per fault activation
RouteRecomputedEvent the fault layer, when link faults change the topology
RingRebuiltEvent     the fault layer, per NCCL communicator rebuild
RecoveryCostEvent    the fault layer, per crash-recovery charge
InvariantViolationEvent :class:`repro.checks.CheckEngine`, per violated
                     invariant in ``warn``/``strict`` modes
ServiceRequestEvent  :class:`repro.service.SweepService`, one per
                     completed (or rejected) client request
===================  ======================================================

All timestamps are simulated seconds; byte counts are plain ints; ``src``
and ``dst`` on link-level events are node names (``gpu0``, ``cpu1``, ...),
while on GPU-level events they are GPU indices (``-1`` = host/all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Field metadata of a field added to an event after its JSONL shape was
#: published: :func:`~repro.obs.export.event_to_dict` leaves the field
#: out while it holds its default, so existing event logs keep their shape.
ADDITIVE = {"additive": True}


@dataclass(frozen=True)
class ObsEvent:
    """Base class: lets subscribers register for *every* event type."""


@dataclass(frozen=True)
class KernelEvent(ObsEvent):
    """One kernel execution on one GPU."""

    gpu: int
    name: str
    layer: str
    stage: str       # "fp" | "bp" | "wu"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TransferEvent(ObsEvent):
    """One inter-device data movement (P2P DMA, NCCL collective, HtoD)."""

    kind: str        # "p2p" | "nccl" | "h2d" | "d2h"
    src: int
    dst: int         # -1 for collectives involving all GPUs
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ApiEvent(ObsEvent):
    """One CUDA runtime API call on the host."""

    name: str
    gpu: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SpanEvent(ObsEvent):
    """A labelled stage span (fp / bp / wu / iteration)."""

    name: str
    gpu: int         # -1 for global spans
    iteration: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EngineWaitEvent(ObsEvent):
    """Time a kernel spent queued behind others on one GPU's SM array."""

    gpu: int
    kernel: str
    wait: float
    at: float        # grant time


@dataclass(frozen=True)
class LinkBusyEvent(ObsEvent):
    """One DMA's occupancy of one directed physical link."""

    link: str        # canonical link name, e.g. "gpu0<->gpu1:nvlinkx2"
    src: str         # directed source endpoint name
    dst: str
    link_type: str   # "nvlink" | "pcie" | "qpi" | "infiniband"
    nbytes: int
    start: float     # grant time
    end: float

    @property
    def busy(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class LinkWaitEvent(ObsEvent):
    """Contention: time a transfer waited for a busy directed link."""

    link: str
    src: str
    dst: str
    link_type: str
    wait: float
    at: float        # grant time (end of the wait)


@dataclass(frozen=True)
class RingStepEvent(ObsEvent):
    """One hop of a pipelined NCCL ring collective.

    ``nbytes`` is what this hop's link carries during the step: the full
    wire payload for root-bound Reduce/Broadcast streams, ``S/N`` chunks
    for the reduce-scatter/all-gather phases of AllReduce.
    """

    collective: str  # "reduce" | "broadcast" | "allreduce"
    array: str
    step: int
    src: int         # GPU index of the sending ring member
    dst: int
    link_type: str
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ProtocolChoiceEvent(ObsEvent):
    """The NCCL tuner resolved one collective's algorithm and protocol.

    Emitted once per collective call in non-compat modes.  ``pinned`` is
    true when the training configuration fixed both axes; otherwise the
    cost model chose the combination and ``predicted`` is its modelled
    duration (which is also what the simulation charges).
    """

    collective: str  # "reduce" | "broadcast" | "allreduce"
    array: str
    nbytes: int
    algorithm: str   # "ring" | "tree"
    protocol: str    # "simple" | "ll" | "ll128"
    predicted: float
    pinned: bool
    at: float        # collective start time


@dataclass(frozen=True)
class CollectiveChunkEvent(ObsEvent):
    """One pipelined chunk crossing one tree edge of a collective.

    The tree analogue of :class:`RingStepEvent`: ``chunk`` of
    ``num_chunks`` rounds, direction encoded by ``src``/``dst`` (child
    to parent while reducing, parent to child while broadcasting).
    """

    collective: str
    array: str
    algorithm: str
    protocol: str
    chunk: int
    num_chunks: int
    src: int         # GPU index of the sending tree member
    dst: int
    link_type: str
    nbytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class QueueDepthEvent(ObsEvent):
    """Sampled number of pending engine events (heap plus same-instant FIFO)."""

    now: float
    depth: int


@dataclass(frozen=True)
class SweepPointStart(ObsEvent):
    """A :class:`~repro.runner.SweepRunner` picked up one sweep point."""

    sweep: str       # SweepSpec name
    index: int       # 0-based position within the spec
    total: int
    label: str       # point.describe()


@dataclass(frozen=True)
class SweepPointDone(ObsEvent):
    """One sweep point produced a result."""

    sweep: str
    index: int
    total: int
    label: str
    source: str      # "executed" | "memory" | "disk" | "derived"
    elapsed: float   # wall seconds (0.0 for cache hits and derived points)


@dataclass(frozen=True)
class SweepPointOom(ObsEvent):
    """One sweep point failed with an out-of-memory error."""

    sweep: str
    index: int
    total: int
    label: str
    message: str


@dataclass(frozen=True)
class SweepPointRetry(ObsEvent):
    """A failed/timed-out sweep point is about to be re-executed."""

    sweep: str
    index: int
    total: int
    label: str
    attempt: int     # the attempt that just failed (1-based)
    max_attempts: int
    reason: str      # one-line failure description
    backoff: float   # simulated-deterministic backoff charged before retry (s)


@dataclass(frozen=True)
class SweepPointFailed(ObsEvent):
    """A sweep point exhausted its retries and was recorded as failed."""

    sweep: str
    index: int
    total: int
    label: str
    attempts: int
    reason: str


@dataclass(frozen=True)
class FaultInjectedEvent(ObsEvent):
    """One fault from a :class:`~repro.faults.plan.FaultPlan` activated."""

    fault: str       # fault label, e.g. "link:gpu0<->gpu1:nvlinkx1:down@5s"
    kind: str        # "link" | "straggler" | "ecc" | "crash"
    at: float        # epoch-timeline seconds


@dataclass(frozen=True)
class RouteRecomputedEvent(ObsEvent):
    """Link faults changed the routable topology; routes were recomputed."""

    reason: str      # "link-fault" | "crash"
    surviving_links: int
    failed_links: int
    cost: float      # modeled host-side recompute cost charged (s)
    at: float


@dataclass(frozen=True)
class RingRebuiltEvent(ObsEvent):
    """The NCCL communicator was rebuilt over the surviving GPUs/links."""

    gpus: int
    uses_pcie: bool  # the new ring fell back to PCIe
    bandwidth: float # new aggregate ring bandwidth (bytes/s)
    cost: float      # modeled re-init cost charged (s)
    at: float


@dataclass(frozen=True)
class RecoveryCostEvent(ObsEvent):
    """A crash-recovery policy charged its modeled cost."""

    policy: str      # "shrink" | "checkpoint-restart"
    gpu: int         # the crashed GPU
    iteration: int   # epoch iteration the crash was observed at
    cost: float      # seconds charged at the crash point
    replayed_iterations: int
    at: float


@dataclass(frozen=True)
class InvariantViolationEvent(ObsEvent):
    """A physical-invariant checker rejected a checkpoint payload.

    Published by :class:`repro.checks.CheckEngine` in ``warn`` and
    ``strict`` modes (in strict mode the matching
    :class:`~repro.core.errors.InvariantViolationError` is raised right
    after publication).  See docs/INVARIANTS.md for the checker catalog.
    """

    invariant: str   # e.g. "conservation.collective-wire"
    checkpoint: str  # e.g. "comm.collective"
    message: str     # human-readable description of the violated property
    mode: str        # "warn" | "strict"
    at: float        # simulated seconds (0.0 when outside the sim clock)


@dataclass(frozen=True)
class ServiceRequestEvent(ObsEvent):
    """One sweep-service request finished (served, shed, or refused).

    Published by :class:`repro.service.SweepService` after the response
    is written, so the JSONL event log doubles as a request log: how many
    points each client asked for, how the service sourced them
    (simulated / disk hits / deduped onto another client's in-flight
    execution / degraded to the analytic fast path / derived from a
    steady-state twin), and why over-limit
    requests were shed.  ``shed_reason`` is ``""`` for admitted requests;
    otherwise one of ``"quota"``, ``"budget"``, ``"backpressure"``,
    ``"draining"`` (see docs/SERVICE.md).
    """

    client: str      # client-supplied identity (quota key)
    status: str      # "ok" | "busy" | "rejected" | "error"
    points: int      # points in the request
    executed: int    # points this request simulated itself
    disk_hits: int   # points served from the sharded store
    deduped: int     # points coalesced onto concurrent identical work
    degraded: int    # points answered by the analytic fast path
    shed_reason: str # "" | "quota" | "budget" | "backpressure" | "draining"
    elapsed: float   # wall-clock request latency (s)
    #: Points answered from their steady-state twin's result.
    derived: int = field(default=0, metadata=ADDITIVE)
    #: Seconds the request spent committing its derived entries to the
    #: store (one :meth:`~repro.runner.store.ResultStore.store_many`).
    store_s: float = field(default=0.0, metadata=ADDITIVE)
