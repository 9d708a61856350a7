"""Tests for SystemTopology construction and lookup helpers."""

import pytest

from repro.core.constants import CALIBRATION
from repro.core.errors import ConfigurationError
from repro.topology import build_dgx1v
from repro.topology.links import Link, LinkType, PEAK_BANDWIDTH
from repro.topology.nodes import CpuNode, GpuNode, NodeKind, SwitchNode
from repro.topology.system import SystemTopology


@pytest.fixture(scope="module")
def topo():
    return build_dgx1v()


# ----------------------------------------------------------------------
# Construction validation
# ----------------------------------------------------------------------
def test_duplicate_node_rejected():
    g = GpuNode.named(0)
    with pytest.raises(ConfigurationError):
        SystemTopology("t", [g, GpuNode.named(0)], [])


def test_link_to_unknown_node_rejected():
    a, b = GpuNode.named(0), GpuNode.named(1)
    link = Link(a, b, LinkType.NVLINK)
    with pytest.raises(ConfigurationError):
        SystemTopology("t", [a], [link])


def test_duplicate_link_rejected():
    a, b = GpuNode.named(0), GpuNode.named(1)
    links = [Link(a, b, LinkType.NVLINK), Link(b, a, LinkType.NVLINK)]
    with pytest.raises(ConfigurationError):
        SystemTopology("t", [a, b], links)


def test_self_link_rejected():
    a = GpuNode.named(0)
    with pytest.raises(ValueError):
        Link(a, a, LinkType.NVLINK)


def test_invalid_width_rejected():
    a, b = GpuNode.named(0), GpuNode.named(1)
    with pytest.raises(ValueError):
        Link(a, b, LinkType.NVLINK, width=0)


def test_invalid_lane_bandwidth_rejected():
    a, b = GpuNode.named(0), GpuNode.named(1)
    with pytest.raises(ValueError):
        Link(a, b, LinkType.NVLINK, lane_bandwidth=-1.0)


# ----------------------------------------------------------------------
# Lookup helpers
# ----------------------------------------------------------------------
def test_node_lookup(topo):
    assert topo.node("gpu3").kind is NodeKind.GPU
    assert topo.node("cpu1").kind is NodeKind.CPU
    with pytest.raises(ConfigurationError):
        topo.node("gpu9")


def test_gpu_and_cpu_accessors(topo):
    assert topo.gpu(5).index == 5
    assert topo.cpu(1).socket == 1
    assert [g.index for g in topo.gpus] == list(range(8))
    assert [c.socket for c in topo.cpus] == [0, 1]


def test_link_between_is_symmetric(topo):
    a, b = topo.gpu(0), topo.gpu(1)
    assert topo.link_between(a, b) is topo.link_between(b, a)
    assert topo.link_between(a, topo.gpu(5)) is None


def test_nvlink_between_ignores_pcie(topo):
    gpu = topo.gpu(0)
    switch = next(n for n in topo.nodes if isinstance(n, SwitchNode))
    if topo.link_between(gpu, switch) is not None:
        assert topo.nvlink_between(gpu, switch) is None


def test_nvlink_neighbors_sorted(topo):
    neighbors = topo.nvlink_neighbors(topo.gpu(0))
    names = [n.name for n in neighbors]
    assert names == sorted(names)
    assert len(names) == 4


def test_links_of_counts_all_attachments(topo):
    links = topo.links_of(topo.gpu(0))
    kinds = [l.link_type for l in links]
    assert kinds.count(LinkType.NVLINK) == 4
    assert kinds.count(LinkType.PCIE) == 1


def test_link_other_endpoint(topo):
    link = topo.link_between(topo.gpu(0), topo.gpu(1))
    assert link.other(topo.gpu(0)) == topo.gpu(1)
    assert link.other(topo.gpu(1)) == topo.gpu(0)
    with pytest.raises(ValueError):
        link.other(topo.gpu(5))


def test_link_name_encodes_structure(topo):
    link = topo.link_between(topo.gpu(0), topo.gpu(3))
    assert link.name == "gpu0<->gpu3:nvlinkx2"


def test_effective_bandwidth_below_peak(topo):
    for link in topo.links:
        assert link.effective_bandwidth(CALIBRATION) < link.peak_bandwidth()
        assert link.latency(CALIBRATION) > 0


def test_peak_bandwidth_table():
    assert PEAK_BANDWIDTH[LinkType.NVLINK] == 25e9
    assert PEAK_BANDWIDTH[LinkType.PCIE] == 16e9


def test_graph_read_access(topo):
    # 8 GPUs, 4 PCIe switches, 2 sockets; 16 NVLink, 12 PCIe and 1 QPI link.
    assert len(topo.nodes) == len({n.name for n in topo.nodes}) == 14
    assert len(topo.links) == len(set(topo.links)) == 29
    # Every link appears once at each of its two ends.
    assert sum(len(topo.links_of(n)) for n in topo.nodes) == 2 * len(topo.links)
    for node in topo.nodes:
        assert all(node in link.endpoints() for link in topo.links_of(node))
