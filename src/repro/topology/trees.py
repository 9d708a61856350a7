"""Topology-aware reduction-tree construction for NCCL's Tree algorithm.

NCCL 2.4+ added a Tree AllReduce next to the classic ring: gradients are
reduced *up* a spanning tree and the result is broadcast back *down* it.
A tree trades the ring's ``2(N-1)`` pipeline steps for ``2*depth`` steps
(logarithmic for balanced trees), which wins whenever the per-step
latency term dominates -- exactly the small-message regime the paper's
layer-rich networks live in.

The construction below mirrors NCCL's intra-node behaviour on the DGX-1V
hybrid cube-mesh: a breadth-first binary spanning tree over the NVLink
graph rooted at the lowest GPU index, deterministic (children are taken
in ascending index order) so simulations are reproducible.  NCCL actually
builds a *double* binary tree -- two complementary trees, each carrying
half the payload, so both directions of every NVLink stay busy; we model
that as ``channels=2`` with the per-channel bandwidth of the slowest lane
used by a tree edge, matching how :mod:`repro.comm.nccl.rings` treats the
ring's two directions.

When the GPU set admits no NVLink spanning tree (PCIe-only boxes) the
tree falls back to index order over PCIe; multi-node sets chain the node
sections over InfiniBand, whose lane paces the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import RoutingError
from repro.topology.system import SystemTopology

#: One directed tree edge: (child GPU, parent GPU, link name, link type).
TreeEdge = Tuple[int, int, str, str]


@dataclass(frozen=True)
class TreePlan:
    """The spanning tree NCCL's Tree algorithm would use for a GPU set.

    ``parent`` maps every non-root GPU to its parent; ``depth`` is the
    longest leaf-to-root path (the number of sequential hops a gradient
    front crosses in each direction).
    """

    root: int
    parent: Tuple[Tuple[int, int], ...]   # (child, parent), sorted by child
    depth: int
    channels: int                          # complementary trees (2, as NCCL)
    channel_bandwidth: float               # bytes/s per channel
    uses_pcie: bool

    @property
    def size(self) -> int:
        return len(self.parent) + 1

    @property
    def aggregate_bandwidth(self) -> float:
        return self.channels * self.channel_bandwidth

    def children_of(self, gpu: int) -> List[int]:
        return [child for child, parent in self.parent if parent == gpu]


def find_nvlink_tree(
    topology: SystemTopology, gpu_indices: Sequence[int], max_children: int = 2
) -> Optional[Dict[int, int]]:
    """A binary spanning tree over NVLink among ``gpu_indices``.

    Deterministic BFS from the lowest index, adopting unvisited NVLink
    neighbours in ascending order, at most ``max_children`` per node.
    Returns a child -> parent map, or ``None`` when NVLink cannot span
    the set under the fan-out cap.
    """
    indices = sorted(set(gpu_indices))
    if len(indices) < 2:
        return {}
    nodes = {i: topology.gpu(i) for i in indices}
    root = indices[0]
    parent: Dict[int, int] = {}
    frontier = [root]
    visited = {root}
    while frontier:
        nxt: List[int] = []
        for gpu in frontier:
            adopted = 0
            for candidate in indices:
                if adopted >= max_children:
                    break
                if candidate in visited:
                    continue
                if topology.nvlink_between(nodes[gpu], nodes[candidate]) is None:
                    continue
                parent[candidate] = gpu
                visited.add(candidate)
                nxt.append(candidate)
                adopted += 1
        frontier = nxt
    if len(visited) != len(indices):
        return None
    return parent


def _tree_depth(parent: Dict[int, int], root: int) -> int:
    depth = 0
    for child in parent:
        d, node = 0, child
        while node != root:
            node = parent[node]
            d += 1
        depth = max(depth, d)
    return depth


def build_tree_plan(
    topology: SystemTopology,
    gpu_indices: Sequence[int],
    constants: CalibrationConstants = CALIBRATION,
) -> TreePlan:
    """Construct the spanning tree NCCL would use for ``gpu_indices``."""
    indices = sorted(set(gpu_indices))
    if not indices:
        raise RoutingError("cannot build a tree over zero GPUs")
    root = indices[0]
    if len(indices) == 1:
        return TreePlan(root=root, parent=(), depth=0, channels=1,
                        channel_bandwidth=float("inf"), uses_pcie=False)

    from repro.topology.cluster import GPUS_PER_NODE, IB_LANE_BANDWIDTH

    spanned = {i // GPUS_PER_NODE for i in indices}
    if len(spanned) > 1:
        # Multi-node: binary-heap-shaped tree in rank order; every
        # cross-node edge rides InfiniBand, which paces the channel.
        parent = {indices[i]: indices[(i - 1) // 2] for i in range(1, len(indices))}
        return TreePlan(
            root=root,
            parent=tuple(sorted(parent.items())),
            depth=_tree_depth(parent, root),
            channels=2,
            channel_bandwidth=IB_LANE_BANDWIDTH * constants.nccl_bandwidth_efficiency,
            uses_pcie=False,
        )

    parent = find_nvlink_tree(topology, indices)
    if parent is not None:
        # The slowest lane used by any tree edge paces both channels
        # (each complementary tree uses one lane per edge).
        lane_bw = min(
            topology.nvlink_between(topology.gpu(child), topology.gpu(par))
            .peak_bandwidth()
            / topology.nvlink_between(topology.gpu(child), topology.gpu(par)).width
            for child, par in parent.items()
        )
        return TreePlan(
            root=root,
            parent=tuple(sorted(parent.items())),
            depth=_tree_depth(parent, root),
            channels=2 if len(indices) > 2 else 1,
            channel_bandwidth=lane_bw * constants.nccl_bandwidth_efficiency,
            uses_pcie=False,
        )

    # PCIe fallback: binary heap in index order, channel paced by PCIe.
    heap_parent = {indices[i]: indices[(i - 1) // 2] for i in range(1, len(indices))}
    return TreePlan(
        root=root,
        parent=tuple(sorted(heap_parent.items())),
        depth=_tree_depth(heap_parent, root),
        channels=1,
        channel_bandwidth=16e9 * constants.pcie_efficiency,
        uses_pcie=True,
    )


def tree_edges(topology: SystemTopology, plan: TreePlan) -> List[TreeEdge]:
    """The directed child -> parent edges with the physical link each rides."""
    from repro.topology.cluster import GPUS_PER_NODE

    edges: List[TreeEdge] = []
    for child, parent in plan.parent:
        link = topology.nvlink_between(topology.gpu(child), topology.gpu(parent))
        if link is not None:
            edges.append((child, parent, link.name, link.link_type.value))
        elif child // GPUS_PER_NODE != parent // GPUS_PER_NODE:
            edges.append((child, parent,
                          f"gpu{child}<->gpu{parent}:infiniband", "infiniband"))
        else:
            edges.append((child, parent, f"gpu{child}<->gpu{parent}:pcie", "pcie"))
    return edges
