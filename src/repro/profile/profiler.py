"""The profiler: collects interval records during a simulated run.

Since the observability refactor the profiler is a thin gate in front of a
:class:`~repro.obs.bus.EventBus`: every ``record_*`` call constructs a
typed event (:class:`~repro.obs.events.KernelEvent`, ...) and publishes it
when measurement is enabled.  The record lists (``.kernels``,
``.transfers``, ``.apis``, ``.spans``) are themselves bus subscribers that
keep the published event objects, while any number of additional
subscribers (metrics bridge, JSONL recorder) can ride the same stream.

Measurement can be gated (``profiler.enabled``) so warm-up iterations do
not pollute the statistics, mirroring how nvprof sessions are windowed.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Union

from repro.gpu.kernel import KernelSpec
from repro.obs.bus import EventBus
from repro.obs.events import (
    ApiEvent,
    KernelEvent,
    ObsEvent,
    SpanEvent,
    TransferEvent,
)

#: A clock is anything with a ``now`` attribute (a simulation
#: :class:`~repro.sim.engine.Environment`) or a zero-argument callable.
Clock = Union[Callable[[], float], object]


class Profiler:
    """Collects kernel/transfer/API/span events and feeds the event bus."""

    def __init__(
        self,
        enabled: bool = True,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.enabled = enabled
        self.bus = bus if bus is not None else EventBus()
        self.clock = clock
        self.kernels: List[KernelEvent] = []
        self.transfers: List[TransferEvent] = []
        self.apis: List[ApiEvent] = []
        self.spans: List[SpanEvent] = []
        # List accumulation is itself just one subscriber of the bus.
        self.bus.subscribe(KernelEvent, self.kernels.append)
        self.bus.subscribe(TransferEvent, self.transfers.append)
        self.bus.subscribe(ApiEvent, self.apis.append)
        self.bus.subscribe(SpanEvent, self.spans.append)

    # ------------------------------------------------------------------
    # Bus plumbing
    # ------------------------------------------------------------------
    def publish(self, event: ObsEvent) -> None:
        """Publish any typed event, honouring the measurement window."""
        if self.enabled:
            self.bus.publish(event)

    def bind_clock(self, clock: Clock) -> None:
        """Attach the time source :meth:`span` reads (normally the env)."""
        self.clock = clock

    def _now(self) -> float:
        if self.clock is None:
            raise ValueError(
                "Profiler.span() needs a clock; pass clock= to the "
                "constructor or call bind_clock(env)"
            )
        now = getattr(self.clock, "now", None)
        if now is not None:
            return float(now)
        return float(self.clock())

    # ------------------------------------------------------------------
    # Recording hooks (called by devices, communicators, trainer)
    # ------------------------------------------------------------------
    def record_kernel(self, gpu: int, kernel: KernelSpec, start: float, end: float) -> None:
        self.publish(
            KernelEvent(gpu=gpu, name=kernel.name, layer=kernel.layer,
                        stage=kernel.stage, start=start, end=end)
        )

    def record_transfer(
        self, kind: str, src: int, dst: int, nbytes: int, start: float, end: float
    ) -> None:
        self.publish(
            TransferEvent(kind=kind, src=src, dst=dst, nbytes=nbytes,
                          start=start, end=end)
        )

    def record_api(self, name: str, gpu: int, start: float, end: float) -> None:
        self.publish(ApiEvent(name=name, gpu=gpu, start=start, end=end))

    def record_span(
        self, name: str, gpu: int, iteration: int, start: float, end: float
    ) -> None:
        self.publish(
            SpanEvent(name=name, gpu=gpu, iteration=iteration,
                      start=start, end=end)
        )

    @contextlib.contextmanager
    def span(self, name: str, gpu: int = -1, iteration: int = 0) -> Iterator[None]:
        """Record the enclosed block as one span, reading the bound clock.

        Replaces hand-paired ``start = env.now ... record_span(..., start,
        env.now)`` call sites::

            with profiler.span("fp", gpu=dev.index, iteration=it):
                ... run forward kernels ...
        """
        start = self._now()
        try:
            yield
        finally:
            self.record_span(name, gpu, iteration, start, self._now())

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (end of warm-up)."""
        self.kernels.clear()
        self.transfers.clear()
        self.apis.clear()
        self.spans.clear()

    # ------------------------------------------------------------------
    # Simple aggregates
    # ------------------------------------------------------------------
    def kernel_time(self, gpu: Optional[int] = None, stage: Optional[str] = None) -> float:
        """Total kernel busy time, optionally filtered."""
        return sum(
            k.duration
            for k in self.kernels
            if (gpu is None or k.gpu == gpu) and (stage is None or k.stage == stage)
        )

    def bytes_transferred(self, kind: Optional[str] = None) -> int:
        return sum(t.nbytes for t in self.transfers if kind is None or t.kind == kind)

    def api_time(self, name: Optional[str] = None) -> float:
        return sum(a.duration for a in self.apis if name is None or a.name == name)
