"""The topology's path searches give exactly the answers of networkx.

``SystemTopology`` keeps a plain adjacency map and two breadth-first
searches of its own (:func:`~repro.topology.system.shortest_paths` and
:func:`~repro.topology.system.shortest_path`).  Tied shortest paths
exist (multi-rail cluster hosts), so agreeing on lengths is not
enough: every path, neighbour order and tie-break must equal what
networkx returns over a graph built from the same links in the same
order.  networkx is the reference here only; nothing under ``src/``
imports it.
"""

from dataclasses import dataclass

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.faults.view import degraded_topology
from repro.topology import ClusterSpec, build_cluster, build_dgx1v
from repro.topology.links import LinkType
from repro.topology.nodes import CpuNode, GpuNode
from repro.topology.system import shortest_path, shortest_paths


# ----------------------------------------------------------------------
# The networkx reference: the searches SystemTopology ran before
# ----------------------------------------------------------------------
def _subgraph(topology, keep):
    graph = nx.Graph()
    for link in topology.links:
        if keep(link):
            graph.add_edge(link.a, link.b)
    return graph


def _reference_pcie_path(topology, gpu):
    allowed = _subgraph(
        topology, lambda link: link.link_type in {LinkType.PCIE, LinkType.QPI})
    if allowed.has_node(gpu):
        paths = nx.shortest_path(allowed, gpu)
        for cpu in topology.cpus:
            path = paths.get(cpu)
            if path is not None and all(
                    not isinstance(n, CpuNode) for n in path[1:-1]):
                return path
    raise ConfigurationError(f"{gpu} has no PCIe path to a CPU")


def _reference_host_path(topology, src, dst):
    host_types = {LinkType.PCIE, LinkType.QPI, LinkType.INFINIBAND}
    allowed = _subgraph(topology, lambda link: link.link_type in host_types and not (
        isinstance(link.a, GpuNode) or isinstance(link.b, GpuNode)))
    if not (allowed.has_node(src) and allowed.has_node(dst)):
        raise ConfigurationError(f"no host fabric between {src} and {dst}")
    try:
        return nx.shortest_path(allowed, src, dst)
    except nx.NetworkXNoPath:
        raise ConfigurationError(f"no host path from {src} to {dst}") from None


def _answer(search, *args):
    """A search's path as names, or the error it raised."""
    try:
        return [n.name for n in search(*args)]
    except ConfigurationError as exc:
        return ("error", str(exc))


def _assert_matches_networkx(topology):
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes)
    for link in topology.links:
        graph.add_edge(link.a, link.b, link=link)
    for node in topology.nodes:
        expected = [graph.edges[node, nbr]["link"] for nbr in graph.neighbors(node)]
        assert topology.links_of(node) == expected
        nvlink = [nbr for nbr in graph.neighbors(node)
                  if graph.edges[node, nbr]["link"].link_type is LinkType.NVLINK]
        assert topology.nvlink_neighbors(node) == sorted(nvlink, key=lambda n: n.name)
    for gpu in topology.gpus:
        assert _answer(topology.pcie_path, gpu) == \
            _answer(_reference_pcie_path, topology, gpu), gpu
    for src in topology.cpus:
        for dst in topology.cpus:
            assert _answer(topology.host_path, src, dst) == \
                _answer(_reference_host_path, topology, src, dst), (src, dst)


# ----------------------------------------------------------------------
# Every topology the repository builds
# ----------------------------------------------------------------------
_BUILDS = {
    "dgx1v": build_dgx1v,
    "cluster-2": lambda: build_cluster(ClusterSpec(num_nodes=2)),
    "cluster-4": lambda: build_cluster(ClusterSpec(num_nodes=4)),
    "cluster-16": lambda: build_cluster(ClusterSpec(num_nodes=16)),
    "cluster-4-fat-tree": lambda: build_cluster(
        ClusterSpec(num_nodes=4, interconnect="fat-tree", leaf_radix=2)),
    "cluster-2-aggregated": lambda: build_cluster(
        ClusterSpec(num_nodes=2, interconnect="aggregated")),
}


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_built_topology_matches_networkx(name):
    _assert_matches_networkx(_BUILDS[name]())


@dataclass
class _OneLinkDown:
    """A stand-in fault injector that fails exactly one link."""

    link: str

    def degrades_links(self, now):
        return True

    def link_scale(self, name, now):
        return 0.0 if name == self.link else 1.0


@pytest.mark.parametrize("name", ["dgx1v", "cluster-2"])
def test_every_single_link_fault_matches_networkx(name):
    topology = _BUILDS[name]()
    for link in topology.links:
        view = degraded_topology(topology, _OneLinkDown(link.name), 0.0)
        assert view is not topology
        _assert_matches_networkx(view)


# ----------------------------------------------------------------------
# The two helpers on small random graphs with ties
# ----------------------------------------------------------------------
@st.composite
def _graphs(draw):
    size = draw(st.integers(min_value=1, max_value=9))
    node = st.integers(min_value=0, max_value=size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    graph = nx.Graph()
    graph.add_nodes_from(range(size))
    # The same neighbour order networkx keeps: first insertion wins.
    adj = {v: {} for v in range(size)}
    for a, b in edges:
        graph.add_edge(a, b)
        adj[a][b] = adj[b][a] = None
    return graph, adj


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_helpers_match_networkx_on_random_graphs(graph_and_adj):
    graph, adj = graph_and_adj
    for source in graph:
        paths = shortest_paths(adj, source)
        assert list(paths.items()) == \
            list(nx.single_source_shortest_path(graph, source).items())
        for target in graph:
            try:
                expected = nx.bidirectional_shortest_path(graph, source, target)
            except nx.NetworkXNoPath:
                expected = None
            assert shortest_path(adj, source, target) == expected


def test_helpers_break_ties_by_neighbour_order():
    # A square 0-1-3, 0-2-3: both routes to 3 are shortest.
    assert shortest_paths({0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}, 0)[3] == [0, 1, 3]
    assert shortest_paths({0: [2, 1], 1: [0, 3], 2: [0, 3], 3: [2, 1]}, 0)[3] == [0, 2, 3]
    assert shortest_path({0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}, 0, 3) == [0, 1, 3]
    assert shortest_path({0: [2, 1], 1: [0, 3], 2: [0, 3], 3: [2, 1]}, 0, 3) == [0, 2, 3]
    assert shortest_path({0: [], 1: []}, 0, 1) is None
