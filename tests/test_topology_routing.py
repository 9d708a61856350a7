"""Tests for the routing layer."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constants import CALIBRATION
from repro.topology import Router, build_dgx1v
from repro.topology.routing import RouteKind


@pytest.fixture(scope="module")
def topo():
    return build_dgx1v()


@pytest.fixture(scope="module")
def router(topo):
    return Router(topo)


def test_local_route_is_empty(topo, router):
    route = router.gpu_to_gpu(topo.gpu(3), topo.gpu(3))
    assert route.kind is RouteKind.LOCAL
    assert route.legs == ()
    assert route.serialized_time(10**9, CALIBRATION) == 0.0


def test_direct_route_single_leg(topo, router):
    route = router.gpu_to_gpu(topo.gpu(0), topo.gpu(1))
    assert route.kind is RouteKind.DIRECT_NVLINK
    assert len(route.legs) == 1
    assert route.hop_count == 1


def test_staged_route_two_legs(topo, router):
    route = router.gpu_to_gpu(topo.gpu(0), topo.gpu(7))
    assert route.kind is RouteKind.STAGED_NVLINK
    assert len(route.legs) == 2
    # relay endpoint consistency
    assert route.legs[0].dst == route.legs[1].src


def test_staged_relay_prefers_wide_hops(topo, router):
    """The relay maximizes the narrower of its two hops."""
    route = router.gpu_to_gpu(topo.gpu(0), topo.gpu(7))
    for leg in route.legs:
        assert leg.links[0].width == 2  # 0-4-7 or 0-3-7? 0-4 (w2) + 4-7 (w2)


def test_all_pairs_routable(topo, router):
    for a, b in itertools.permutations(range(8), 2):
        route = router.gpu_to_gpu(topo.gpu(a), topo.gpu(b))
        assert route.kind in (
            RouteKind.DIRECT_NVLINK,
            RouteKind.STAGED_NVLINK,
            RouteKind.PCIE_HOST,
        )
        assert route.legs[0].src == topo.gpu(a)
        assert route.legs[-1].dst == topo.gpu(b)


def test_routing_symmetry(topo, router):
    """Route kind (and thus hop count) is symmetric on this fabric."""
    for a, b in itertools.combinations(range(8), 2):
        fwd = router.gpu_to_gpu(topo.gpu(a), topo.gpu(b))
        rev = router.gpu_to_gpu(topo.gpu(b), topo.gpu(a))
        assert fwd.kind == rev.kind
        assert fwd.hop_count == rev.hop_count


def test_pcie_host_route_on_nvlink_free_fabric():
    topo = build_dgx1v(nvlink=False)
    router = Router(topo)
    same_socket = router.gpu_to_gpu(topo.gpu(0), topo.gpu(1))
    cross_socket = router.gpu_to_gpu(topo.gpu(0), topo.gpu(7))
    assert same_socket.kind is RouteKind.PCIE_HOST
    assert cross_socket.kind is RouteKind.PCIE_HOST
    # crossing sockets adds the QPI hop
    assert cross_socket.hop_count == same_socket.hop_count + 1


def test_host_route_slower_than_nvlink(topo, router):
    nvlink = router.gpu_to_gpu(topo.gpu(0), topo.gpu(1))
    host = Router(build_dgx1v(nvlink=False)).gpu_to_gpu(topo.gpu(0), topo.gpu(1))
    nbytes = 100 * 10**6
    assert host.serialized_time(nbytes, CALIBRATION) > nvlink.serialized_time(
        nbytes, CALIBRATION
    )


def test_cpu_to_gpu_route(topo, router):
    route = router.cpu_to_gpu(topo.cpu(0), topo.gpu(2))
    assert route.kind is RouteKind.PCIE_LOCAL
    assert len(route.legs) == 1


def test_cpu_to_remote_gpu_crosses_qpi(topo, router):
    local = router.cpu_to_gpu(topo.cpu(0), topo.gpu(0))
    remote = router.cpu_to_gpu(topo.cpu(0), topo.gpu(5))
    assert remote.hop_count == local.hop_count + 1


@given(
    a=st.integers(min_value=0, max_value=7),
    b=st.integers(min_value=0, max_value=7),
    nbytes=st.integers(min_value=1, max_value=10**9),
)
def test_serialized_time_positive_and_monotone_property(a, b, nbytes):
    topo = build_dgx1v()
    router = Router(topo)
    route = router.gpu_to_gpu(topo.gpu(a), topo.gpu(b))
    if a == b:
        assert route.serialized_time(nbytes, CALIBRATION) == 0.0
        return
    t1 = route.serialized_time(nbytes, CALIBRATION)
    t2 = route.serialized_time(nbytes * 2, CALIBRATION)
    assert 0 < t1 < t2


def test_bottleneck_bandwidth_reflects_narrowest_leg(topo, router):
    route = router.gpu_to_gpu(topo.gpu(0), topo.gpu(3))  # dual link
    single = router.gpu_to_gpu(topo.gpu(0), topo.gpu(1))  # single link
    assert route.bottleneck_bandwidth(CALIBRATION) == pytest.approx(
        2 * single.bottleneck_bandwidth(CALIBRATION)
    )


# ----------------------------------------------------------------------
# Memoized paths and routes agree with a fresh search
# ----------------------------------------------------------------------
def _reference_pcie_path(topology, gpu):
    """The per-socket search the memoized path replaced: for each CPU in
    index order, the shortest PCIe/QPI path, kept if no other CPU is on it."""
    import networkx as nx

    from repro.topology.links import LinkType
    from repro.topology.nodes import CpuNode

    allowed = nx.Graph()
    for link in topology.links:
        if link.link_type in (LinkType.PCIE, LinkType.QPI):
            allowed.add_edge(link.a, link.b)
    for cpu in topology.cpus:
        if nx.has_path(allowed, gpu, cpu):
            path = nx.shortest_path(allowed, gpu, cpu)
            if all(not isinstance(n, CpuNode) for n in path[1:-1]):
                return path
    raise AssertionError(f"{gpu} has no PCIe path")


def _memo_topologies():
    from repro.topology import ClusterSpec, build_cluster

    return {
        "dgx1v": build_dgx1v(),
        "rail-2node": build_cluster(ClusterSpec(num_nodes=2)),
    }


@pytest.mark.parametrize("name", ["dgx1v", "rail-2node"])
def test_memoized_paths_equal_a_fresh_search(name):
    topology = _memo_topologies()[name]
    for gpu in topology.gpus:
        first = topology.pcie_path(gpu)
        assert topology.pcie_path(gpu) == first
        assert first == topology._search_pcie_path(gpu)
        assert first == _reference_pcie_path(topology, gpu)
        assert topology.home_cpu(gpu) == first[-1]
    for src in topology.cpus:
        for dst in topology.cpus:
            first = topology.host_path(src, dst)
            assert topology.host_path(src, dst) == first
            assert first == topology._search_host_path(src, dst)


@pytest.mark.parametrize("name", ["dgx1v", "rail-2node"])
def test_memoized_routes_equal_a_fresh_computation(name):
    topology = _memo_topologies()[name]
    router = Router(topology)
    for src in topology.gpus:
        for dst in topology.gpus:
            route = router.gpu_to_gpu(src, dst)
            assert router.gpu_to_gpu(src, dst) is route
            assert route == router._gpu_to_gpu(src, dst)
        for cpu in topology.cpus:
            if cpu.socket // 2 != src.index // 8:
                continue  # input staging stays inside one chassis
            route = router.cpu_to_gpu(cpu, src)
            assert router.cpu_to_gpu(cpu, src) is route
            assert route == router._cpu_to_gpu(cpu, src)


def test_routers_over_one_topology_share_their_routes():
    topology = build_dgx1v()
    a, b = Router(topology), Router(topology)
    route = a.gpu_to_gpu(topology.gpu(0), topology.gpu(7))
    assert b.gpu_to_gpu(topology.gpu(0), topology.gpu(7)) is route
    other = Router(build_dgx1v())
    assert other.gpu_to_gpu(other.topology.gpu(0), other.topology.gpu(7)) == route
