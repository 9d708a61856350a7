"""Topology-aware ring construction, as NCCL performs at init time.

NCCL 2.x (the version in the paper's 18.04 container) builds one ring over
the NVLink graph and uses it in both directions, giving two pipelined
channels.  On the DGX-1V every power-of-two GPU prefix {0..N-1} admits a
Hamiltonian NVLink cycle, so rings never fall back to PCIe in the paper's
experiments; the search below still handles the fallback for other device
subsets (a PCIe hop caps the channel bandwidth, which is exactly the
behaviour NCCL exhibits on non-NVLink boxes).
"""

from __future__ import annotations

import functools

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import RoutingError
from repro.topology.links import LinkType
from repro.topology.system import SystemTopology


def find_nvlink_ring(
    topology: SystemTopology, gpu_indices: Sequence[int]
) -> Optional[List[int]]:
    """A Hamiltonian cycle over NVLink among ``gpu_indices``, or ``None``.

    Deterministic backtracking starting from the lowest index; for the
    two-GPU case the "cycle" is the single direct link used both ways.
    """
    indices = sorted(gpu_indices)
    if len(indices) == 1:
        return indices
    nodes = {i: topology.gpu(i) for i in indices}

    def connected(a: int, b: int) -> bool:
        return topology.nvlink_between(nodes[a], nodes[b]) is not None

    if len(indices) == 2:
        a, b = indices
        return [a, b] if connected(a, b) else None

    start = indices[0]
    remaining = set(indices[1:])
    path = [start]

    def extend() -> bool:
        if not remaining:
            return connected(path[-1], start)
        for candidate in sorted(remaining):
            if connected(path[-1], candidate):
                remaining.remove(candidate)
                path.append(candidate)
                if extend():
                    return True
                path.pop()
                remaining.add(candidate)
        return False

    return path if extend() else None


@dataclass(frozen=True)
class RingPlan:
    """The communication structure NCCL settles on for a GPU set."""

    order: Tuple[int, ...]           # GPUs in ring order
    channels: int                    # pipelined directions (2 for a ring)
    channel_bandwidth: float         # bytes/s per channel
    uses_pcie: bool

    @functools.cached_property
    def size(self) -> int:
        # Read on every collective.
        return len(self.order)

    @property
    def aggregate_bandwidth(self) -> float:
        return self.channels * self.channel_bandwidth


def build_ring_plan(
    topology: SystemTopology,
    gpu_indices: Sequence[int],
    constants: CalibrationConstants = CALIBRATION,
) -> RingPlan:
    """Construct the ring NCCL would use for ``gpu_indices``."""
    indices = sorted(set(gpu_indices))
    if not indices:
        raise RoutingError("cannot build a ring over zero GPUs")
    if len(indices) == 1:
        return RingPlan(
            order=(indices[0],),
            channels=1,
            channel_bandwidth=float("inf"),
            uses_pcie=False,
        )

    pcie_bw = 16e9 * constants.pcie_efficiency

    # Multi-node sets: NCCL threads the ring through each node's NVLink
    # section and hops nodes over InfiniBand; the IB lane paces every
    # channel (EDR: 12.5 GB/s vs NVLink's 25).
    from repro.topology.cluster import GPUS_PER_NODE, IB_LANE_BANDWIDTH

    spanned = {i // GPUS_PER_NODE for i in indices}
    if len(spanned) > 1:
        # Node-major order, each node's section threaded along its NVLink
        # Hamiltonian cycle so every intra-node hop rides NVLink and only
        # the node-to-node seams cross InfiniBand.
        order: List[int] = []
        pcie_fallback = False
        for node in sorted(spanned):
            section = [i for i in indices if i // GPUS_PER_NODE == node]
            threaded = find_nvlink_ring(topology, section)
            if threaded is None:
                pcie_fallback = True
                threaded = section
            order.extend(threaded)
        return RingPlan(
            order=tuple(order),
            channels=2,
            channel_bandwidth=IB_LANE_BANDWIDTH * constants.nccl_bandwidth_efficiency,
            uses_pcie=pcie_fallback,
        )

    ring = find_nvlink_ring(topology, indices)
    if ring is not None:
        # The slowest lane along the ring paces every channel (rings use
        # one lane per hop).  A two-GPU "ring" degenerates to one link:
        # root-bound collectives can only use the single direction toward
        # the root, so there is one channel (of the link's full width);
        # real rings run in both directions (two channels).
        if len(indices) == 2:
            link = topology.nvlink_between(
                topology.gpu(indices[0]), topology.gpu(indices[1])
            )
            assert link is not None
            return RingPlan(
                order=tuple(ring),
                channels=1,
                channel_bandwidth=(
                    link.peak_bandwidth() * constants.nccl_bandwidth_efficiency
                ),
                uses_pcie=False,
            )
        lane_bw = min(
            topology.nvlink_between(topology.gpu(a), topology.gpu(b)).peak_bandwidth()
            / topology.nvlink_between(topology.gpu(a), topology.gpu(b)).width
            for a, b in zip(ring, ring[1:] + ring[:1])
        )
        return RingPlan(
            order=tuple(ring),
            channels=2,
            channel_bandwidth=lane_bw * constants.nccl_bandwidth_efficiency,
            uses_pcie=False,
        )
    # Fallback: ring in index order; any hop without NVLink crosses PCIe
    # and paces the whole channel.
    return RingPlan(
        order=tuple(indices),
        channels=2,
        channel_bandwidth=pcie_bw,
        uses_pcie=True,
    )
