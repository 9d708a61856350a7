"""Multi-node clusters of DGX-1 systems over InfiniBand.

The paper studies a single DGX-1 and cites multi-node work (Awan et al.'s
MPI-vs-NCCL comparison); this module extends the fabric model to a
cluster so those scales can be explored:

* each node is a full DGX-1 (8 V100s, the NVLink cube-mesh, PCIe, QPI);
  node ``k`` hosts GPUs ``8k .. 8k+7`` in global rank order;
* the compat fabric (:func:`build_dgx1v_cluster`) attaches each node
  through one aggregated EDR InfiniBand link (the DGX-1 carries four
  100 Gb/s HCAs; modeled as one width-4 link hanging off CPU socket 0,
  12.5 GB/s per lane) to a single non-blocking IB switch;
* the parameterized fabric (:func:`build_cluster` with a
  :class:`ClusterSpec`) exposes the four HCAs as individual *rails*:
  each HCA hangs off the PCIe switch that hosts its GPU pair, carries
  its own latency/bandwidth, and connects through either one flat switch
  (``"single-switch"``) or a per-rail two-level fat-tree
  (``"fat-tree"``).  :func:`rail_of_rank` maps a global GPU rank to its
  rail.

Inter-node GPU transfers route GPU -> home CPU (PCIe) -> IB -> remote
CPU -> GPU; NCCL rings crossing nodes are paced by the IB lanes (see
``repro.comm.nccl.rings``).  The hierarchical rail-aware collectives in
:mod:`repro.comm.nccl.hierarchical` drive the per-rail fabric; see
docs/SCALING.md for the full model.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import List, Tuple

from repro.core.errors import ConfigurationError
from repro.topology.dgx1 import DGX1_PCIE_SWITCHES, DGX1V_NVLINKS
from repro.topology.links import Link, LinkType
from repro.topology.nodes import CpuNode, GpuNode, Node, NodeKind, SwitchNode
from repro.topology.system import SystemTopology

#: GPUs per DGX-1 node.
GPUS_PER_NODE = 8

#: EDR InfiniBand: 100 Gb/s per HCA = 12.5 GB/s per lane.
IB_LANE_BANDWIDTH = 12.5e9

#: HCAs per DGX-1, aggregated into one width-4 attachment.
IB_LANES_PER_NODE = 4

#: EDR InfiniBand port-to-port latency (switch traversal + wire).
IB_RAIL_LATENCY = 2.0e-6

#: Valid ``ClusterSpec.interconnect`` values.  ``"aggregated"`` is the
#: compat fabric (one width-4 attachment per node, byte-identical to
#: :func:`build_dgx1v_cluster`); ``"single-switch"`` and ``"fat-tree"``
#: expose per-HCA rails.
CLUSTER_INTERCONNECTS = ("aggregated", "single-switch", "fat-tree")


def node_of_rank(rank: int) -> int:
    """The cluster node hosting global GPU ``rank``."""
    return rank // GPUS_PER_NODE


def rail_of_rank(rank: int, rails_per_node: int = IB_LANES_PER_NODE) -> int:
    """The inter-node rail serving global GPU ``rank``.

    The DGX-1 pairs its four HCAs with its four PCIe switches, so with
    the default four rails GPU pair ``(2r, 2r+1)`` on every node shares
    rail ``r`` -- the HCA reachable without crossing QPI:

    >>> [rail_of_rank(r) for r in range(8)]
    [0, 0, 1, 1, 2, 2, 3, 3]
    >>> rail_of_rank(13)        # node 1, local GPU 5 -> rail 2
    2
    >>> rail_of_rank(5, rails_per_node=2)
    1
    """
    if rails_per_node < 1 or GPUS_PER_NODE % rails_per_node:
        raise ConfigurationError(
            f"rails_per_node must divide {GPUS_PER_NODE}, got {rails_per_node}"
        )
    return (rank % GPUS_PER_NODE) // (GPUS_PER_NODE // rails_per_node)


@dataclass(frozen=True)
class ClusterSpec:
    """Parameterized inter-node fabric for a DGX-1V cluster.

    The defaults describe the real machine: four EDR InfiniBand rails
    per node (one HCA per PCIe switch, 12.5 GB/s each) behind one
    non-blocking switch.  ``interconnect="aggregated"`` reproduces the
    compat width-4 attachment of :func:`build_dgx1v_cluster` exactly;
    ``"fat-tree"`` splits each rail into leaf switches of
    ``leaf_radix`` nodes under a non-blocking spine.
    """

    num_nodes: int
    interconnect: str = "single-switch"
    rails_per_node: int = IB_LANES_PER_NODE
    rail_bandwidth: float = IB_LANE_BANDWIDTH
    rail_latency: float = IB_RAIL_LATENCY
    leaf_radix: int = 16

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        if self.interconnect not in CLUSTER_INTERCONNECTS:
            raise ConfigurationError(
                f"interconnect must be one of {CLUSTER_INTERCONNECTS}, "
                f"got {self.interconnect!r}"
            )
        if self.rails_per_node < 1 or GPUS_PER_NODE % self.rails_per_node:
            raise ConfigurationError(
                f"rails_per_node must divide {GPUS_PER_NODE}, "
                f"got {self.rails_per_node}"
            )
        if self.rail_bandwidth <= 0:
            raise ConfigurationError("rail_bandwidth must be positive")
        if self.rail_latency < 0:
            raise ConfigurationError("rail_latency must be >= 0")
        if self.leaf_radix < 2:
            raise ConfigurationError("leaf_radix must be >= 2")

    def rail_switch_of_node(self, k: int, rail: int) -> str:
        """Name of the first-hop rail switch for node ``k`` on ``rail``."""
        if self.interconnect == "fat-tree":
            return f"leaf{rail}_{k // self.leaf_radix}"
        return "ibswitch"


def build_dgx1v_cluster(num_nodes: int) -> SystemTopology:
    """A cluster of ``num_nodes`` DGX-1V systems on one IB switch.

    With ``num_nodes=1`` the result is a superset of :func:`build_dgx1v`
    (same graph plus an idle IB attachment), so single-node behaviour is
    unchanged.
    """
    if num_nodes < 1:
        raise ConfigurationError("a cluster needs at least one node")
    nodes: List[Node] = []
    links: List[Link] = []

    ib_switch = SwitchNode(name="ibswitch", kind=NodeKind.PCIE_SWITCH)

    for k in range(num_nodes):
        _, cpus, _ = _add_dgx1_node(k, nodes, links)
        # Aggregated IB attachment on socket 0.
        nic = SwitchNode(name=f"nic{k}", kind=NodeKind.PCIE_SWITCH)
        nodes.append(nic)
        links.append(Link(cpus[0], nic, LinkType.PCIE, width=IB_LANES_PER_NODE))
        links.append(
            Link(
                nic,
                ib_switch,
                LinkType.INFINIBAND,
                width=IB_LANES_PER_NODE,
                lane_bandwidth=IB_LANE_BANDWIDTH,
            )
        )

    nodes.append(ib_switch)
    return SystemTopology(f"dgx1v-cluster-{num_nodes}", nodes, links)


def _add_dgx1_node(
    k: int, nodes: List[Node], links: List[Link]
) -> Tuple[List[GpuNode], List[CpuNode], List[SwitchNode]]:
    """Append node ``k``'s intra-node DGX-1 graph (no IB attachment)."""
    base = k * GPUS_PER_NODE
    gpus = [GpuNode.named(base + i) for i in range(GPUS_PER_NODE)]
    cpus = [CpuNode.named(2 * k + s) for s in range(2)]
    switches = [
        SwitchNode(name=f"plx{k}_{i}", kind=NodeKind.PCIE_SWITCH)
        for i, _, _ in DGX1_PCIE_SWITCHES
    ]
    nodes.extend([*gpus, *cpus, *switches])
    for a, b, width in DGX1V_NVLINKS:
        links.append(Link(gpus[a], gpus[b], LinkType.NVLINK, width=width))
    for idx, gpu_pair, socket in DGX1_PCIE_SWITCHES:
        switch = switches[idx]
        for g in gpu_pair:
            links.append(Link(gpus[g], switch, LinkType.PCIE))
        links.append(Link(switch, cpus[socket], LinkType.PCIE))
    links.append(Link(cpus[0], cpus[1], LinkType.QPI))
    return gpus, cpus, switches


def build_cluster(spec: ClusterSpec) -> SystemTopology:
    """A DGX-1V cluster with the inter-node fabric described by ``spec``.

    ``interconnect="aggregated"`` delegates to
    :func:`build_dgx1v_cluster` (the compat graph, bit-for-bit).  The
    rail fabrics give every node ``spec.rails_per_node`` individual HCAs
    (``nic{k}r{r}``), each hanging off the PCIe switch that hosts the
    rail's GPUs -- so rail traffic never crosses QPI -- and joined
    across nodes by either one flat switch or a per-rail two-level
    fat-tree (``leaf{r}_{g}`` under ``spine{r}``, non-blocking uplinks).
    """
    if spec.interconnect == "aggregated":
        return build_dgx1v_cluster(spec.num_nodes)

    nodes: List[Node] = []
    links: List[Link] = []
    num_plx = len(DGX1_PCIE_SWITCHES)

    if spec.interconnect == "single-switch":
        rail_switches = [SwitchNode(name="ibswitch", kind=NodeKind.PCIE_SWITCH)]
        fabric_links: List[Link] = []
    else:  # fat-tree
        num_groups = -(-spec.num_nodes // spec.leaf_radix)  # ceil division
        rail_switches = []
        fabric_links = []
        for r in range(spec.rails_per_node):
            spine = SwitchNode(name=f"spine{r}", kind=NodeKind.PCIE_SWITCH)
            rail_switches.append(spine)
            for g in range(num_groups):
                leaf = SwitchNode(
                    name=f"leaf{r}_{g}", kind=NodeKind.PCIE_SWITCH
                )
                rail_switches.append(leaf)
                in_group = min(spec.leaf_radix,
                               spec.num_nodes - g * spec.leaf_radix)
                fabric_links.append(
                    Link(
                        leaf,
                        spine,
                        LinkType.INFINIBAND,
                        width=in_group,
                        lane_bandwidth=spec.rail_bandwidth,
                        latency_override=spec.rail_latency,
                    )
                )

    switch_by_name = {s.name: s for s in rail_switches}
    for k in range(spec.num_nodes):
        _, _, plx = _add_dgx1_node(k, nodes, links)
        for r in range(spec.rails_per_node):
            nic = SwitchNode(name=f"nic{k}r{r}", kind=NodeKind.PCIE_SWITCH)
            nodes.append(nic)
            # The HCA shares the PLX switch of the first GPU pair on its
            # rail: no QPI crossing between a GPU and its rail.
            links.append(
                Link(plx[r * num_plx // spec.rails_per_node], nic, LinkType.PCIE)
            )
            links.append(
                Link(
                    nic,
                    switch_by_name[spec.rail_switch_of_node(k, r)],
                    LinkType.INFINIBAND,
                    width=1,
                    lane_bandwidth=spec.rail_bandwidth,
                    latency_override=spec.rail_latency,
                )
            )

    nodes.extend(rail_switches)
    links.extend(fabric_links)
    return SystemTopology(
        f"dgx1v-cluster-{spec.num_nodes}-{spec.interconnect}", nodes, links
    )
