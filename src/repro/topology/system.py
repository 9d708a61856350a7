"""Static system topology: the node/link graph plus lookup helpers."""

from __future__ import annotations

from functools import cached_property
from typing import (Callable, Dict, Hashable, Iterable, List, Mapping, Optional,
                    Tuple, TypeVar)

from repro.core.errors import ConfigurationError
from repro.topology.links import Link, LinkType
from repro.topology.nodes import CpuNode, GpuNode, Node, NodeKind, SwitchNode

N = TypeVar("N", bound=Hashable)


def shortest_paths(adj: Mapping[N, Iterable[N]], source: N) -> Dict[N, List[N]]:
    """Shortest paths from ``source`` to every node it reaches.

    A level-order breadth-first search that visits each node's
    neighbours in ``adj``'s order, so a node tied between two parents
    keeps the one reached first: the same paths as
    ``networkx.single_source_shortest_path`` over a graph whose edges
    were added in that order.
    """
    paths = {source: [source]}
    level = [source]
    while level:
        following = []
        for v in level:
            for w in adj[v]:
                if w not in paths:
                    paths[w] = paths[v] + [w]
                    following.append(w)
        level = following
    return paths


def shortest_path(adj: Mapping[N, Iterable[N]], source: N, target: N) -> Optional[List[N]]:
    """One shortest path from ``source`` to ``target``, or ``None``.

    A bidirectional breadth-first search that expands whichever fringe
    is smaller (the forward one on a tie) one level at a time and stops
    at the first node both searches have seen: the same path as
    ``networkx.bidirectional_shortest_path`` when ``adj`` lists
    neighbours in the graph's edge order.
    """
    if source == target:
        return [source]
    # parents[0] leads back to the source, parents[1] on to the target.
    parents: Tuple[Dict[N, Optional[N]], ...] = ({source: None}, {target: None})
    fringes = [[source], [target]]
    while fringes[0] and fringes[1]:
        side = 0 if len(fringes[0]) <= len(fringes[1]) else 1
        own, other = parents[side], parents[1 - side]
        level, fringes[side] = fringes[side], []
        for v in level:
            for w in adj[v]:
                if w not in own:
                    own[w] = v
                    fringes[side].append(w)
                if w in other:
                    return _join(parents, w)
    return None


def _join(parents: Tuple[Dict[N, Optional[N]], ...], meet: N) -> List[N]:
    """The path through ``meet``: back to the source, then on to the target."""
    path: List[N] = []
    node: Optional[N] = meet
    while node is not None:
        path.append(node)
        node = parents[0][node]
    path.reverse()
    node = parents[1][meet]
    while node is not None:
        path.append(node)
        node = parents[1][node]
    return path


class SystemTopology:
    """An immutable multi-GPU system description.

    Holds an adjacency map ``node -> {neighbour: link}`` filled in link
    order, which fixes every neighbour order and so every tie-break of
    the path searches.  Parallel NVLink connections are pre-aggregated
    into a single ``width=2`` link, so the graph is simple.  Because the
    graph never changes after construction, derived paths are searched
    once per instance and memoized.
    """

    def __init__(self, name: str, nodes: Iterable[Node], links: Iterable[Link]) -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise ConfigurationError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
        self._adj: Dict[Node, Dict[Node, Link]] = {n: {} for n in self._nodes.values()}
        self._links: List[Link] = []
        for link in links:
            near, far = self._adj.get(link.a), self._adj.get(link.b)
            if near is None or far is None:
                end = link.a if near is None else link.b
                raise ConfigurationError(f"link {link.name} references unknown node {end}")
            if link.b in near:
                raise ConfigurationError(f"duplicate link between {link.a} and {link.b}")
            near[link.b] = far[link.a] = link
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
        neighbours = self._adj.get(a)
        return None if neighbours is None else neighbours.get(b)

    def nvlink_between(self, a: Node, b: Node) -> Optional[Link]:
        link = self.link_between(a, b)
        if link is not None and link.link_type is LinkType.NVLINK:
            return link
        return None

    def nvlink_neighbors(self, node: Node) -> List[Node]:
        """GPUs directly reachable from ``node`` over NVLink."""
        out = [nbr for nbr, link in self._adj[node].items()
               if link.link_type is LinkType.NVLINK]
        return sorted(out, key=lambda n: n.name)

    def links_of(self, node: Node) -> List[Link]:
        return list(self._adj[node].values())

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
        adj = self._pcie_adjacency
        paths = shortest_paths(adj, gpu) if adj.get(gpu) else {}
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
        adj = self._host_adjacency
        if not (adj.get(src) and adj.get(dst)):
            raise ConfigurationError(f"no host fabric between {src} and {dst}")
        path = shortest_path(adj, src, dst)
        if path is None:
            raise ConfigurationError(f"no host path from {src} to {dst}")
        return path

    @cached_property
    def _pcie_adjacency(self) -> Dict[Node, List[Node]]:
        """Neighbours over PCIe and QPI links."""
        return self._adjacency(lambda link: link.link_type in (LinkType.PCIE, LinkType.QPI))

    @cached_property
    def _host_adjacency(self) -> Dict[Node, List[Node]]:
        """Neighbours over the host fabric: PCIe, QPI and InfiniBand links
        that touch no GPU."""
        host_types = (LinkType.PCIE, LinkType.QPI, LinkType.INFINIBAND)
        return self._adjacency(lambda link: link.link_type in host_types and not (
            isinstance(link.a, GpuNode) or isinstance(link.b, GpuNode)))

    def _adjacency(self, keep: Callable[[Link], bool]) -> Dict[Node, List[Node]]:
        """Each node's neighbours over the links ``keep`` accepts, in link order."""
        return {node: [nbr for nbr, link in nbrs.items() if keep(link)]
                for node, nbrs in self._adj.items()}

    def home_cpu(self, gpu: GpuNode) -> CpuNode:
        """The CPU socket whose PCIe root complex hosts ``gpu``."""
        tail = self.pcie_path(gpu)[-1]
        assert isinstance(tail, CpuNode)
        return tail
