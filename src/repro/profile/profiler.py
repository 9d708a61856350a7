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

A profiler built with ``records=False`` runs in *summary mode*, like
``nvprof --print-summary``: it keeps the spans (a few per iteration),
the per-GPU kernel and per-API sums (:attr:`Profiler.kernel_busy`,
:attr:`Profiler.api_totals`) the paper's tables are made of and the
per-kind byte sums (:attr:`Profiler.transfer_bytes`) the traffic
invariant reads, and builds no kernel, transfer or API event at all.
In both modes the record hooks add to those sums directly, in record
order, so :mod:`repro.profile.summary` returns bit-identical floats from
either; the sums count only this profiler's own records, never events
another publisher puts on its bus.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Callable, DefaultDict, Iterator, List, Optional, Tuple, Union

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
    """Collects kernel/transfer/API/span events and feeds the event bus.

    ``records=False`` selects summary mode (see the module docstring):
    the ``kernels``, ``transfers`` and ``apis`` lists stay empty.
    """

    def __init__(
        self,
        enabled: bool = True,
        bus: Optional[EventBus] = None,
        clock: Optional[Clock] = None,
        records: bool = True,
    ) -> None:
        self.enabled = enabled
        self.records = records
        self.bus = bus if bus is not None else EventBus()
        self.clock = clock
        self.kernels: List[KernelEvent] = []
        self.transfers: List[TransferEvent] = []
        self.apis: List[ApiEvent] = []
        self.spans: List[SpanEvent] = []
        #: Kernel seconds per GPU, seconds per API and bytes per transfer
        #: kind over the window, added by the record hooks themselves in
        #: either mode.
        self.kernel_busy: DefaultDict[int, float] = defaultdict(float)
        self.api_totals: DefaultDict[str, float] = defaultdict(float)
        self.transfer_bytes: DefaultDict[str, int] = defaultdict(int)
        # List accumulation is itself just one subscriber of the bus.
        self._subscriptions: List[Tuple[type, Callable[[ObsEvent], None]]] = [
            (SpanEvent, self.spans.append)]
        if records:
            self._subscriptions += [
                (KernelEvent, self.kernels.append),
                (TransferEvent, self.transfers.append),
                (ApiEvent, self.apis.append),
            ]
        for event_type, handler in self._subscriptions:
            self.bus.subscribe(event_type, handler)

    # ------------------------------------------------------------------
    # Bus plumbing
    # ------------------------------------------------------------------
    def publish(self, event: ObsEvent) -> None:
        """Publish any typed event, honouring the measurement window."""
        if self.enabled:
            self.bus.publish(event)

    def detach(self) -> None:
        """Stop the record lists collecting from the bus.

        For a profiler whose window is over while its bus, shared with an
        obs session, carries on into a later profiler's window.
        """
        for event_type, handler in self._subscriptions:
            self.bus.unsubscribe(event_type, handler)

    def wants(self, event_type: type) -> bool:
        """Whether an ``event_type`` event published now would be delivered:
        measurement is enabled and the bus has a handler for it."""
        return self.enabled and self.bus.wants(event_type)

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
    # Each hook returns before building its event outside the window, so
    # warm-up iterations construct no event objects at all; in summary
    # mode none builds one inside it either.
    def record_kernel(self, gpu: int, kernel: KernelSpec, start: float, end: float) -> None:
        if self.enabled:
            self.kernel_busy[gpu] += end - start
            if self.records:
                self.bus.publish(
                    KernelEvent(gpu=gpu, name=kernel.name, layer=kernel.layer,
                                stage=kernel.stage, start=start, end=end)
                )

    def record_transfer(
        self, kind: str, src: int, dst: int, nbytes: int, start: float, end: float
    ) -> None:
        if self.enabled:
            self.transfer_bytes[kind] += nbytes
            if self.records:
                self.bus.publish(
                    TransferEvent(kind=kind, src=src, dst=dst, nbytes=nbytes,
                                  start=start, end=end)
                )

    def record_api(self, name: str, gpu: int, start: float, end: float) -> None:
        if self.enabled:
            self.api_totals[name] += end - start
            if self.records:
                self.bus.publish(ApiEvent(name=name, gpu=gpu, start=start, end=end))

    def record_span(
        self, name: str, gpu: int, iteration: int, start: float, end: float
    ) -> None:
        if self.enabled:
            self.bus.publish(
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
        self.kernel_busy.clear()
        self.api_totals.clear()
        self.transfer_bytes.clear()

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
