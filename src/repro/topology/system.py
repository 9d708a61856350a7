"""Static system topology: the node/link graph plus lookup helpers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.core.errors import ConfigurationError
from repro.topology.links import Link, LinkType
from repro.topology.nodes import CpuNode, GpuNode, Node, NodeKind, SwitchNode


class SystemTopology:
    """An immutable multi-GPU system description.

    Wraps a :class:`networkx.Graph` whose edges carry :class:`Link`
    objects.  Parallel NVLink connections are pre-aggregated into a single
    ``width=2`` link, so the graph is simple.  Because the graph never
    changes after construction, derived paths are searched once per
    instance and memoized.
    """

    def __init__(self, name: str, nodes: Iterable[Node], links: Iterable[Link]) -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise ConfigurationError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
        self._graph = nx.Graph()
        self._graph.add_nodes_from(self._nodes.values())
        self._links: List[Link] = []
        for link in links:
            for end in link.endpoints():
                if end.name not in self._nodes:
                    raise ConfigurationError(f"link {link.name} references unknown node {end}")
            if self._graph.has_edge(link.a, link.b):
                raise ConfigurationError(f"duplicate link between {link.a} and {link.b}")
            self._graph.add_edge(link.a, link.b, link=link)
            self._links.append(link)
        self._pcie_paths: Dict[str, Tuple[Node, ...]] = {}
        self._host_paths: Dict[Tuple[str, str], Tuple[Node, ...]] = {}
        #: Memo of :class:`~repro.topology.routing.Router` routes, shared
        #: by every router over this topology (routes are frozen values).
        self.route_cache: Dict[Tuple[str, str, str], object] = {}

    # ------------------------------------------------------------------
    # Node lookup
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes.values())

    @property
    def links(self) -> Tuple[Link, ...]:
        return tuple(self._links)

    @property
    def graph(self) -> nx.Graph:
        """The underlying graph (treat as read-only)."""
        return self._graph

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r} in {self.name}") from None

    def gpu(self, index: int) -> GpuNode:
        node = self.node(f"gpu{index}")
        assert isinstance(node, GpuNode)
        return node

    def cpu(self, socket: int) -> CpuNode:
        node = self.node(f"cpu{socket}")
        assert isinstance(node, CpuNode)
        return node

    @property
    def gpus(self) -> Tuple[GpuNode, ...]:
        found = [n for n in self._nodes.values() if isinstance(n, GpuNode)]
        return tuple(sorted(found, key=lambda g: g.index))

    @property
    def cpus(self) -> Tuple[CpuNode, ...]:
        found = [n for n in self._nodes.values() if isinstance(n, CpuNode)]
        return tuple(sorted(found, key=lambda c: c.socket))

    # ------------------------------------------------------------------
    # Link lookup
    # ------------------------------------------------------------------
    def link_between(self, a: Node, b: Node) -> Optional[Link]:
        """The direct link between two nodes, or ``None``."""
        data = self._graph.get_edge_data(a, b)
        return None if data is None else data["link"]

    def nvlink_between(self, a: Node, b: Node) -> Optional[Link]:
        link = self.link_between(a, b)
        if link is not None and link.link_type is LinkType.NVLINK:
            return link
        return None

    def nvlink_neighbors(self, node: Node) -> List[Node]:
        """GPUs directly reachable from ``node`` over NVLink."""
        out = []
        for neighbor in self._graph.neighbors(node):
            link = self.link_between(node, neighbor)
            if link is not None and link.link_type is LinkType.NVLINK:
                out.append(neighbor)
        return sorted(out, key=lambda n: n.name)

    def links_of(self, node: Node) -> List[Link]:
        return [self.link_between(node, nbr) for nbr in self._graph.neighbors(node)]

    def nvlink_port_count(self, node: Node) -> int:
        """Number of NVLink ports ``node`` consumes (dual links count twice)."""
        total = 0
        for link in self.links_of(node):
            if link.link_type is LinkType.NVLINK:
                total += link.width
        return total

    def pcie_path(self, gpu: GpuNode) -> List[Node]:
        """The PCIe chain from ``gpu`` up to its home CPU socket."""
        path = self._pcie_paths.get(gpu.name)
        if path is None:
            path = self._pcie_paths[gpu.name] = tuple(self._search_pcie_path(gpu))
        return list(path)

    def _search_pcie_path(self, gpu: GpuNode) -> List[Node]:
        """One breadth-first search from ``gpu`` over PCIe and QPI links:
        the path to the first CPU socket (by index) that no other socket
        sits on."""
        subgraph_types = {LinkType.PCIE, LinkType.QPI}
        allowed = nx.Graph()
        for link in self._links:
            if link.link_type in subgraph_types:
                allowed.add_edge(link.a, link.b)
        if allowed.has_node(gpu):
            paths = nx.shortest_path(allowed, gpu)
            for cpu in self.cpus:
                path = paths.get(cpu)
                if path is not None and all(
                        not isinstance(n, CpuNode) for n in path[1:-1]):
                    return path
        raise ConfigurationError(f"{gpu} has no PCIe path to a CPU")

    def host_path(self, src: CpuNode, dst: CpuNode) -> List[Node]:
        """Host-side path between two CPU sockets (QPI or PCIe/IB fabric).

        Same-node sockets connect over QPI; sockets of different cluster
        nodes route through the NIC / InfiniBand-switch chain.  GPU nodes
        are excluded from the search.
        """
        key = (src.name, dst.name)
        path = self._host_paths.get(key)
        if path is None:
            path = self._host_paths[key] = tuple(self._search_host_path(src, dst))
        return list(path)

    def _search_host_path(self, src: CpuNode, dst: CpuNode) -> List[Node]:
        allowed = nx.Graph()
        host_types = {LinkType.PCIE, LinkType.QPI, LinkType.INFINIBAND}
        for link in self._links:
            if link.link_type not in host_types:
                continue
            if isinstance(link.a, GpuNode) or isinstance(link.b, GpuNode):
                continue
            allowed.add_edge(link.a, link.b)
        if not (allowed.has_node(src) and allowed.has_node(dst)):
            raise ConfigurationError(f"no host fabric between {src} and {dst}")
        try:
            return nx.shortest_path(allowed, src, dst)
        except nx.NetworkXNoPath:
            raise ConfigurationError(f"no host path from {src} to {dst}") from None

    def home_cpu(self, gpu: GpuNode) -> CpuNode:
        """The CPU socket whose PCIe root complex hosts ``gpu``."""
        tail = self.pcie_path(gpu)[-1]
        assert isinstance(tail, CpuNode)
        return tail
