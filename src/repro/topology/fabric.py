"""Runtime binding of a topology to a simulation environment.

A :class:`Fabric` creates one FIFO :class:`~repro.sim.resources.Resource`
per *direction* of every physical link (NVLink and PCIe are full duplex, so
the two directions never contend with each other) and exposes a process that
performs a DMA along a route leg, holding each directed link for the
duration of the wire time.  Contention between concurrent transfers on the
same link direction therefore shows up as FIFO queueing -- exactly the
effect that serializes the P2P parameter-server traffic into GPU0.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.obs.events import LinkBusyEvent, LinkWaitEvent
from repro.perf.spans import PERF
from repro.sim import Environment, Resource
from repro.sim.resources import Store
from repro.sim.events import Event, Timeout
from repro.topology.links import Link
from repro.topology.nodes import Node
from repro.topology.routing import Leg, Route
from repro.topology.system import SystemTopology

#: A directed link is a (link, source-endpoint-name) pair.
DirectedKey = Tuple[str, str]


class Fabric:
    """Link-contention state for one simulation run."""

    def __init__(
        self,
        env: Environment,
        topology: SystemTopology,
        constants: CalibrationConstants = CALIBRATION,
        observer: Optional[object] = None,
        checks: Optional[object] = None,
    ) -> None:
        """``observer`` is anything with an ``enabled`` attribute and
        ``wants(event_type)`` and ``publish(event)`` methods (normally the
        run's :class:`~repro.profile.profiler.Profiler`); every DMA while
        it is enabled then emits the per-directed-link
        :class:`~repro.obs.events.LinkBusyEvent` /
        :class:`~repro.obs.events.LinkWaitEvent` records it wants.

        ``checks`` is an optional :class:`~repro.checks.CheckEngine`; when
        enabled, every DMA fires the ``fabric.dma`` checkpoint (link
        capacity + FIFO serialization invariants)."""
        self.env = env
        self.topology = topology
        self.constants = constants
        self.observer = observer
        self.checks = checks if checks is not None and checks.enabled else None
        # Previous DMA's release time per directed channel, maintained only
        # while checks are active (feeds temporal.link-serialization).
        self._busy_until: Dict[DirectedKey, float] = {}
        self._channels: Dict[DirectedKey, Resource] = {}
        # Per leg (keyed by identity; the entry holds the leg, so the id
        # stays its own): each hop's (link, source, channel), the leg's
        # latency and its bandwidth, worked out on the leg's first DMA.
        self._legs: Dict[int, tuple] = {}
        for link in topology.links:
            self._channels[(link.name, link.a.name)] = Resource(env)
            self._channels[(link.name, link.b.name)] = Resource(env)
        # Cumulative accounting, for profiler/bandwidth reports.
        self.bytes_moved: Dict[str, int] = {link.name: 0 for link in topology.links}
        self.busy_time: Dict[str, float] = {link.name: 0.0 for link in topology.links}
        #: Contention: cumulative FIFO-queueing wait per link (seconds).
        self.wait_time: Dict[str, float] = {link.name: 0.0 for link in topology.links}

    def channel(self, link: Link, source: Node) -> Resource:
        """The FIFO resource guarding ``link`` in the ``source ->`` direction."""
        try:
            return self._channels[(link.name, source.name)]
        except KeyError:
            raise ValueError(f"{source} is not an endpoint of {link.name}") from None

    # ------------------------------------------------------------------
    # DMA processes
    # ------------------------------------------------------------------
    def dma(self, leg: Leg, nbytes: int) -> Generator[Event, None, None]:
        """Process: move ``nbytes`` across one leg, cut-through.

        All links of the leg are held together for the leg's wire time;
        this conservatively models a cut-through DMA whose slowest link
        paces the whole chain.
        """
        if PERF.enabled:
            PERF.count("fabric.dmas")
            PERF.count("fabric.bytes", nbytes)
        env = self.env
        plan = self._legs.get(id(leg))
        if plan is None:
            plan = self._legs[id(leg)] = self._plan_leg(leg)
        _, hops, latency, bandwidth = plan
        requested = env.now
        # A free channel is held at once, with no grant event to wait on.
        requests, waits = [], []
        for _, _, channel in hops:
            req = channel.request_now()
            if req is None:
                req = channel.request()
                waits.append(req)
            requests.append(req)
        for req in waits:
            yield req
        granted = env.now
        wait = granted - requested
        wire_time = latency + nbytes / bandwidth
        try:
            yield Timeout(env, wire_time)
        finally:
            end = env.now
            if self.checks is not None:
                windows = []
                for link, src, _ in hops:
                    key = (link.name, src.name)
                    prev = self._busy_until.get(key)
                    if prev is not None:
                        windows.append((f"{link.name}:{src.name}->", prev))
                    self._busy_until[key] = end
                self.checks.check(
                    "fabric.dma",
                    nbytes=nbytes,
                    wire_time=wire_time,
                    latency=latency,
                    bandwidth=bandwidth,
                    granted=granted,
                    end=end,
                    windows=windows,
                    now=end,
                )
            observer = self.observer
            if observer is not None and observer.enabled:
                want_wait = wait > 0 and observer.wants(LinkWaitEvent)
                want_busy = observer.wants(LinkBusyEvent)
            else:
                want_wait = want_busy = False
            for (link, src, channel), req in zip(hops, requests):
                self.bytes_moved[link.name] += nbytes
                self.busy_time[link.name] += wire_time
                self.wait_time[link.name] += wait
                channel.release(req)
                if want_wait:
                    observer.publish(LinkWaitEvent(
                        link=link.name, src=src.name,
                        dst=link.other(src).name,
                        link_type=link.link_type.value, wait=wait, at=granted,
                    ))
                if want_busy:
                    observer.publish(LinkBusyEvent(
                        link=link.name, src=src.name,
                        dst=link.other(src).name,
                        link_type=link.link_type.value, nbytes=nbytes,
                        start=granted, end=end,
                    ))

    def _plan_leg(self, leg: Leg) -> tuple:
        """``(leg, hops, latency, bandwidth)`` for :meth:`dma`."""
        hops = []
        current = leg.src
        for link in leg.links:
            hops.append((link, current, self.channel(link, current)))
            current = link.other(current)
        return (leg, tuple(hops), leg.latency(self.constants),
                leg.bandwidth(self.constants))

    def transfer(self, route: Route, nbytes: int) -> Generator[Event, None, float]:
        """Process: move ``nbytes`` along a full route, store-and-forward.

        Returns the total elapsed time.  Staged routes (NVLink relay or
        DtoH+HtoD) execute their legs sequentially, matching how MXNet and
        CUDA actually perform them.
        """
        start = self.env.now
        for leg in route.legs:
            yield from self.dma(leg, nbytes)
        return self.env.now - start

    def pipelined_transfer(
        self, route: Route, nbytes: int, chunk_bytes: int
    ) -> Generator[Event, None, float]:
        """Process: move ``nbytes`` along a route with chunk pipelining.

        Multi-leg routes (NVLink relay, DtoH+HtoD) forward each chunk as
        soon as it lands on the staging node, so a large staged transfer
        approaches the bottleneck link's bandwidth instead of paying the
        full store-and-forward penalty.
        """
        if len(route.legs) <= 1 or nbytes <= chunk_bytes:
            result = yield from self.transfer(route, nbytes)
            return result
        start = self.env.now
        chunks = []
        remaining = nbytes
        while remaining > 0:
            size = min(chunk_bytes, remaining)
            chunks.append(size)
            remaining -= size
        # Hand-off queues between consecutive legs.
        queues = [Store(self.env) for _ in route.legs[1:]]

        def leg_runner(leg_index: int):
            leg = route.legs[leg_index]
            for size in chunks:
                if leg_index > 0:
                    yield queues[leg_index - 1].get()
                yield from self.dma(leg, size)
                if leg_index < len(queues):
                    queues[leg_index].put(size)

        runners = [self.env.process(leg_runner(i)) for i in range(len(route.legs))]
        yield self.env.all_of(runners)
        return self.env.now - start
