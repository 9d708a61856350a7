"""Link types of the interconnect graph.

Each :class:`Link` is an *undirected* physical connection carrying full
bandwidth independently in each direction (NVLink and PCIe are full duplex).
Dual NVLink connections between a GPU pair are modelled as one link of
``width=2`` whose aggregated bandwidth is double, matching the "50 GB/s
virtual connection" the paper describes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.core.constants import CalibrationConstants
from repro.core.units import gbps
from repro.topology.nodes import Node


class LinkType(str, enum.Enum):
    """Physical interconnect classes of the DGX-1 fabric."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    QPI = "qpi"
    INFINIBAND = "infiniband"


#: Peak bandwidth per direction for a single lane of each link type.
PEAK_BANDWIDTH = {
    LinkType.NVLINK: gbps(25.0),      # NVLink 2.0, per link per direction
    LinkType.PCIE: gbps(16.0),        # PCIe Gen3 x16
    LinkType.QPI: gbps(19.2),         # Intel QuickPath between the two Xeons
    LinkType.INFINIBAND: gbps(12.5),  # EDR InfiniBand, 100 Gb/s per HCA
}


@dataclass(frozen=True)
class Link:
    """An undirected physical connection between two nodes.

    ``lane_bandwidth`` overrides the type's default per-lane peak; the
    bandwidth-sweep experiments use it to explore hypothetical fabrics.
    """

    a: Node
    b: Node
    link_type: LinkType
    width: int = 1
    lane_bandwidth: float | None = None
    #: Per-hop latency override, seconds; ``None`` uses the calibrated
    #: default for the link type.  The rail-aware cluster fabrics use it
    #: to give each InfiniBand rail its own latency (docs/SCALING.md).
    latency_override: float | None = None

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"link width must be >= 1, got {self.width}")
        if self.a == self.b:
            raise ValueError(f"self-link on {self.a}")
        if self.lane_bandwidth is not None and self.lane_bandwidth <= 0:
            raise ValueError("lane_bandwidth must be positive")
        if self.latency_override is not None and self.latency_override < 0:
            raise ValueError("latency_override must be >= 0")

    @cached_property
    def name(self) -> str:
        return f"{self.a.name}<->{self.b.name}:{self.link_type.value}x{self.width}"

    def endpoints(self) -> tuple[Node, Node]:
        return (self.a, self.b)

    def other(self, node: Node) -> Node:
        """The endpoint that is not ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node} is not an endpoint of {self.name}")

    def peak_bandwidth(self) -> float:
        """Aggregated peak bandwidth per direction, bytes/second."""
        per_lane = (
            self.lane_bandwidth
            if self.lane_bandwidth is not None
            else PEAK_BANDWIDTH[self.link_type]
        )
        return per_lane * self.width

    def effective_bandwidth(self, constants: CalibrationConstants) -> float:
        """Achieved large-transfer bandwidth per direction, bytes/second."""
        if self.link_type is LinkType.NVLINK:
            return self.peak_bandwidth() * constants.nvlink_efficiency
        return self.peak_bandwidth() * constants.pcie_efficiency

    def latency(self, constants: CalibrationConstants) -> float:
        """Per-message latency of this hop, seconds."""
        if self.latency_override is not None:
            return self.latency_override
        if self.link_type is LinkType.NVLINK:
            return constants.nvlink_latency
        if self.link_type is LinkType.QPI:
            return constants.qpi_latency
        if self.link_type is LinkType.INFINIBAND:
            return constants.infiniband_latency
        return constants.pcie_latency
