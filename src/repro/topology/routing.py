"""Routing over the DGX-1 fabric, mirroring CUDA/MXNet data movement.

The DGX-1's NVLink routers cannot forward packets (the paper calls this out
explicitly), so a GPU-to-GPU transfer takes one of three forms:

* ``DIRECT_NVLINK`` -- a single cudaMemcpyPeer DMA over the direct link;
* ``STAGED_NVLINK`` -- MXNet's multi-stage workaround: a store-and-forward
  copy through an intermediate GPU that has NVLink to both endpoints
  (e.g. GPU0 -> GPU1 -> GPU7);
* ``PCIE_HOST`` -- the CUDA fallback: DtoH into pinned host memory followed
  by HtoD, crossing QPI when the endpoints live under different sockets.

A :class:`Route` is a sequence of :class:`Leg` objects; each leg is one DMA
that traverses one or more physical links cut-through (bandwidth = min over
links, latency = sum over links).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.constants import CalibrationConstants
from repro.core.errors import RoutingError
from repro.topology.links import Link, LinkType
from repro.topology.nodes import CpuNode, GpuNode, Node
from repro.topology.system import SystemTopology


class RouteKind(str, enum.Enum):
    """How a transfer travels: direct/staged NVLink, PCIe, local."""

    DIRECT_NVLINK = "direct_nvlink"
    STAGED_NVLINK = "staged_nvlink"
    PCIE_HOST = "pcie_host"
    PCIE_LOCAL = "pcie_local"  # CPU <-> GPU (input staging)
    LOCAL = "local"            # same device, no data movement


@dataclass(frozen=True)
class Leg:
    """One DMA: ``src`` to ``dst`` across ``links`` (cut-through)."""

    src: Node
    dst: Node
    links: Tuple[Link, ...]

    def bandwidth(self, constants: CalibrationConstants) -> float:
        """Achieved bandwidth of the leg: the slowest constituent link."""
        return min(link.effective_bandwidth(constants) for link in self.links)

    def latency(self, constants: CalibrationConstants) -> float:
        """Sum of per-hop latencies."""
        return sum(link.latency(constants) for link in self.links)

    def reversed(self) -> "Leg":
        """The same physical path traversed in the opposite direction."""
        return Leg(src=self.dst, dst=self.src, links=tuple(reversed(self.links)))


@dataclass(frozen=True)
class Route:
    """A complete transfer plan between two endpoints."""

    kind: RouteKind
    legs: Tuple[Leg, ...]

    @property
    def hop_count(self) -> int:
        return sum(len(leg.links) for leg in self.legs)

    def bottleneck_bandwidth(self, constants: CalibrationConstants) -> float:
        if not self.legs:
            return float("inf")
        return min(leg.bandwidth(constants) for leg in self.legs)

    def serialized_time(self, nbytes: int, constants: CalibrationConstants) -> float:
        """Uncontended store-and-forward time for ``nbytes``.

        Each leg is a full DMA of the message, so legs add up (no
        pipelining between staging copies, matching cudaMemcpyPeer).
        """
        total = 0.0
        for leg in self.legs:
            total += leg.latency(constants) + nbytes / leg.bandwidth(constants)
        return total


class Router:
    """Computes :class:`Route` objects over a :class:`SystemTopology`.

    Routes are memoized in the topology's ``route_cache``, so every
    router over one topology computes each route once.
    """

    def __init__(self, topology: SystemTopology) -> None:
        self.topology = topology
        self._routes = topology.route_cache

    # ------------------------------------------------------------------
    # GPU <-> GPU
    # ------------------------------------------------------------------
    def gpu_to_gpu(self, src: GpuNode, dst: GpuNode) -> Route:
        """Best route between two GPUs, preferring NVLink."""
        key = ("gpu", src.name, dst.name)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._gpu_to_gpu(src, dst)
        return route

    def _gpu_to_gpu(self, src: GpuNode, dst: GpuNode) -> Route:
        if src == dst:
            return Route(RouteKind.LOCAL, ())
        direct = self.topology.nvlink_between(src, dst)
        if direct is not None:
            return Route(RouteKind.DIRECT_NVLINK, (Leg(src, dst, (direct,)),))
        relay = self._best_relay(src, dst)
        if relay is not None:
            first = self.topology.nvlink_between(src, relay)
            second = self.topology.nvlink_between(relay, dst)
            assert first is not None and second is not None
            return Route(
                RouteKind.STAGED_NVLINK,
                (Leg(src, relay, (first,)), Leg(relay, dst, (second,))),
            )
        return self._host_route(src, dst)

    def _best_relay(self, src: GpuNode, dst: GpuNode) -> Optional[GpuNode]:
        """The common NVLink neighbor maximizing the narrower of both hops."""
        best: Optional[GpuNode] = None
        best_key: Tuple[int, int] = (-1, -1)
        src_neighbors = set(self.topology.nvlink_neighbors(src))
        dst_neighbors = set(self.topology.nvlink_neighbors(dst))
        for node in src_neighbors & dst_neighbors:
            if not isinstance(node, GpuNode):
                continue
            w_in = self.topology.nvlink_between(src, node).width
            w_out = self.topology.nvlink_between(node, dst).width
            key = (min(w_in, w_out), w_in + w_out)
            if key > best_key or (key == best_key and best is not None and node.index < best.index):
                best, best_key = node, key
        return best

    def _host_route(self, src: GpuNode, dst: GpuNode) -> Route:
        """DtoH + HtoD through pinned host memory (the slow CUDA fallback).

        Within a node the host hop is QPI; across cluster nodes it rides
        the NIC / InfiniBand chain.
        """
        down = self._pcie_links(src)
        up = self._pcie_links(dst)
        src_cpu = self.topology.home_cpu(src)
        dst_cpu = self.topology.home_cpu(dst)
        up_links: List[Link] = list(reversed(up))
        if src_cpu != dst_cpu:
            host = self.topology.host_path(src_cpu, dst_cpu)
            host_links = []
            for a, b in zip(host, host[1:]):
                link = self.topology.link_between(a, b)
                if link is None:
                    raise RoutingError(f"broken host path between {a} and {b}")
                host_links.append(link)
            up_links = [*host_links, *up_links]
        return Route(
            RouteKind.PCIE_HOST,
            (Leg(src, src_cpu, tuple(down)), Leg(src_cpu, dst, tuple(up_links))),
        )

    # ------------------------------------------------------------------
    # CPU <-> GPU (input staging)
    # ------------------------------------------------------------------
    def cpu_to_gpu(self, cpu: CpuNode, gpu: GpuNode) -> Route:
        """HtoD route used when the CPU sends mini-batches to a GPU."""
        key = ("cpu", cpu.name, gpu.name)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._cpu_to_gpu(cpu, gpu)
        return route

    def _cpu_to_gpu(self, cpu: CpuNode, gpu: GpuNode) -> Route:
        up = list(reversed(self._pcie_links(gpu)))
        home = self.topology.home_cpu(gpu)
        links: List[Link] = list(up)
        if home != cpu:
            qpi = self.topology.link_between(cpu, home)
            if qpi is None:
                raise RoutingError(f"no QPI link between {cpu} and {home}")
            links = [qpi, *links]
        return Route(RouteKind.PCIE_LOCAL, (Leg(cpu, gpu, tuple(links)),))

    def _pcie_links(self, gpu: GpuNode) -> List[Link]:
        """PCIe links from ``gpu`` down to its home CPU, in GPU->CPU order."""
        path = self.topology.pcie_path(gpu)
        links: List[Link] = []
        for a, b in zip(path, path[1:]):
            link = self.topology.link_between(a, b)
            assert link is not None
            links.append(link)
        return links

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def nvlink_distance(self, src: GpuNode, dst: GpuNode) -> int:
        """0 for same GPU, 1 for direct NVLink, 2 for staged, 3 for host."""
        route = self.gpu_to_gpu(src, dst)
        return {
            RouteKind.LOCAL: 0,
            RouteKind.DIRECT_NVLINK: 1,
            RouteKind.STAGED_NVLINK: 2,
            RouteKind.PCIE_HOST: 3,
        }[route.kind]
