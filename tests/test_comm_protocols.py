"""Tests for the NCCL algorithm/protocol fidelity layer.

Covers the protocol cost table, tree plan construction, the auto-tuner's
regime structure, the non-compat communicator wiring (events, durations),
and -- critically -- that compat mode reproduces the pre-PR calibrated
numbers bit for bit.
"""

import pytest

from repro.comm import NcclAllReduceCommunicator, NcclCommunicator, make_communicator
from repro.comm.nccl.protocol import (
    NcclAlgorithm,
    NcclProtocol,
    protocol_table,
    ring_collective_time,
    ring_hop_bytes,
    ring_wire_total,
    tree_collective_time,
    tree_hop_bytes,
    tree_wire_total,
)
from repro.comm.nccl.rings import build_ring_plan
from repro.comm.nccl.tuning import CANDIDATE_ORDER, NcclTuner, crossover_sizes
from repro.core.config import CommMethodName, TrainingConfig
from repro.core.constants import CALIBRATION
from repro.core.errors import ConfigurationError
from repro.dnn.stats import WeightArray
from repro.gpu import GpuDevice, KernelCostModel
from repro.obs import CollectiveChunkEvent, EventBus, ProtocolChoiceEvent, RingStepEvent
from repro.profile import Profiler
from repro.sim import Environment
from repro.topology import Fabric, build_dgx1v
from repro.topology.trees import build_tree_plan, find_nvlink_tree
from repro.train import train


@pytest.fixture(scope="module")
def topo():
    return build_dgx1v()


# ----------------------------------------------------------------------
# Protocol table
# ----------------------------------------------------------------------
def test_protocol_table_efficiencies():
    table = protocol_table(CALIBRATION)
    assert table[NcclProtocol.SIMPLE].bandwidth_ratio == 1.0
    assert table[NcclProtocol.LL].bandwidth_ratio == 0.5
    assert table[NcclProtocol.LL128].bandwidth_ratio == 0.9375


def test_protocol_table_constraints():
    table = protocol_table(CALIBRATION)
    assert table[NcclProtocol.SIMPLE].max_bytes is None
    assert table[NcclProtocol.LL].max_bytes == CALIBRATION.nccl_ll_max_bytes
    assert table[NcclProtocol.LL128].nvlink_only
    assert not table[NcclProtocol.LL].nvlink_only
    # Only Simple pays a flush; LL-family latencies undercut Simple's.
    assert table[NcclProtocol.SIMPLE].flush_cost > 0
    assert table[NcclProtocol.LL].flush_cost == 0
    assert table[NcclProtocol.LL].hop_latency < table[NcclProtocol.SIMPLE].hop_latency
    assert table[NcclProtocol.LL128].hop_latency < table[NcclProtocol.SIMPLE].hop_latency


# ----------------------------------------------------------------------
# Tree construction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gpus", [2, 4, 8])
def test_nvlink_tree_spans_paper_configs(topo, gpus):
    tree = find_nvlink_tree(topo, list(range(gpus)))
    assert tree is not None
    assert {0} | set(tree) == set(range(gpus))
    assert len(tree) == gpus - 1


def test_tree_edges_are_nvlink(topo):
    tree = find_nvlink_tree(topo, list(range(8)))
    for child, parent in tree.items():
        assert topo.nvlink_between(topo.gpu(child), topo.gpu(parent)) is not None


def test_tree_depth_is_logarithmic(topo):
    assert build_tree_plan(topo, range(2)).depth == 1
    assert build_tree_plan(topo, range(4)).depth == 2
    assert build_tree_plan(topo, range(8)).depth == 3


def test_tree_plan_single_gpu(topo):
    plan = build_tree_plan(topo, [0])
    assert plan.size == 1 and plan.depth == 0 and not plan.parent


def test_tree_plan_binary(topo):
    plan = build_tree_plan(topo, range(8))
    for gpu in range(8):
        assert len(plan.children_of(gpu)) <= 2


def test_tree_pcie_fallback():
    pcie = build_dgx1v(nvlink=False)
    plan = build_tree_plan(pcie, range(4))
    assert plan.uses_pcie
    assert plan.depth == 2


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_ring_time_monotonic_in_bytes():
    proto = protocol_table(CALIBRATION)[NcclProtocol.SIMPLE]
    times = [
        ring_collective_time("allreduce", nbytes, 8, 40e9, proto)
        for nbytes in (1 << 12, 1 << 16, 1 << 20, 1 << 24)
    ]
    assert times == sorted(times)
    assert times[0] < times[-1]


def test_tree_beats_ring_latency_at_small_sizes():
    """Six tree steps versus fourteen ring steps: latency-bound sizes
    favour the tree."""
    proto = protocol_table(CALIBRATION)[NcclProtocol.LL]
    ring = ring_collective_time("allreduce", 4096, 8, 40e9, proto)
    tree = tree_collective_time("allreduce", 4096, 3, 40e9, proto)
    assert tree < ring


def test_ring_beats_tree_bandwidth_at_large_sizes():
    """2(N-1)/N * S per channel versus 2S: bandwidth-bound sizes favour
    the ring."""
    proto = protocol_table(CALIBRATION)[NcclProtocol.SIMPLE]
    nbytes = 64 * 1024 * 1024
    ring = ring_collective_time("allreduce", nbytes, 8, 40e9, proto)
    tree = tree_collective_time("allreduce", nbytes, 3, 40e9, proto)
    assert ring < tree


# ----------------------------------------------------------------------
# Exact wire-byte schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nbytes", [7, 1000, 4096, 999_983])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_ring_allreduce_wire_total_exact(nbytes, size):
    assert ring_wire_total("allreduce", nbytes, size) == 2 * (size - 1) * nbytes


@pytest.mark.parametrize("nbytes", [7, 1000, 999_983])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_ring_and_tree_move_identical_totals(nbytes, size):
    """Both algorithms put exactly 2(N-1)*S on the wire for AllReduce."""
    ring = ring_wire_total("allreduce", nbytes, size)
    tree = tree_wire_total("allreduce", nbytes, size - 1)
    assert ring == tree == 2 * (size - 1) * nbytes


def test_ring_hop_schedule_each_step_moves_full_payload():
    nbytes, size = 1001, 4
    for step in range(2 * (size - 1)):
        moved = sum(
            b
            for hop in range(size)
            for s, b in ring_hop_bytes("allreduce", nbytes, size, hop)
            if s == step
        )
        assert moved == nbytes


def test_tree_hop_schedule_directions():
    hops = tree_hop_bytes("allreduce", 100, 3)
    assert len(hops) == 6  # 3 edges x 2 directions
    assert {d for _, d, _ in hops} == {0, 1}
    reduce_only = tree_hop_bytes("reduce", 100, 3)
    assert {d for _, d, _ in reduce_only} == {0}


# ----------------------------------------------------------------------
# Tuner
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tuner():
    return NcclTuner.for_dgx1(num_gpus=8)


def test_tuner_small_messages_use_ll(tuner):
    choice = tuner.select("allreduce", 16 * 1024)
    assert choice.protocol is NcclProtocol.LL
    assert choice.algorithm is NcclAlgorithm.TREE


def test_tuner_large_messages_use_ring_simple(tuner):
    choice = tuner.select("allreduce", 64 * 1024 * 1024)
    assert choice.algorithm is NcclAlgorithm.RING
    assert choice.protocol is NcclProtocol.SIMPLE


def test_tuner_ll_respects_byte_cap(tuner):
    over_cap = CALIBRATION.nccl_ll_max_bytes + 1
    combos = [(a, p) for a, p, _ in tuner.candidates("allreduce", over_cap)]
    assert (NcclAlgorithm.RING, NcclProtocol.LL) not in combos
    assert (NcclAlgorithm.TREE, NcclProtocol.LL) not in combos


def test_tuner_crossover_structure(tuner):
    """The acceptance shape: LL first, ring+Simple last, monotone sizes."""
    points = crossover_sizes(tuner)
    sizes = [size for size, _ in points]
    assert sizes == sorted(sizes)
    first, last = points[0][1], points[-1][1]
    assert first.protocol is NcclProtocol.LL
    assert (last.algorithm, last.protocol) == (
        NcclAlgorithm.RING, NcclProtocol.SIMPLE)


def test_tuner_selection_is_argmin_of_candidates(tuner):
    for nbytes in (4096, 1 << 20, 1 << 26):
        choice = tuner.select("allreduce", nbytes)
        best = min(tuner.candidates("allreduce", nbytes), key=lambda c: c[2])
        assert (choice.algorithm, choice.protocol, choice.predicted) == best


def test_tuner_memoizes(tuner):
    assert tuner.select("allreduce", 8192) is tuner.select("allreduce", 8192)


def test_pinned_tuner_honours_pin_past_caps():
    pinned = NcclTuner.for_dgx1(num_gpus=8, algorithm="ring", protocol="ll")
    choice = pinned.select("allreduce", 64 * 1024 * 1024)  # way over LL cap
    assert choice.protocol is NcclProtocol.LL
    assert choice.pinned


def test_ll128_unavailable_on_pcie():
    pcie = build_dgx1v(nvlink=False)
    indices = list(range(4))
    t = NcclTuner(
        ring=build_ring_plan(pcie, indices, CALIBRATION),
        tree=build_tree_plan(pcie, indices, CALIBRATION),
    )
    combos = [(a, p) for a, p, _ in t.candidates("allreduce", 1 << 20)]
    assert all(p is not NcclProtocol.LL128 for _, p in combos)


def test_candidate_order_covers_grid():
    assert len(CANDIDATE_ORDER) == 6
    assert len(set(CANDIDATE_ORDER)) == 6


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
def test_config_rejects_mixed_compat():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 4, nccl_algorithm="compat",
                       nccl_protocol="ll")
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 4, nccl_algorithm="ring",
                       nccl_protocol="compat")


def test_config_rejects_unknown_values():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 4, nccl_algorithm="butterfly",
                       nccl_protocol="auto")
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 4, nccl_algorithm="auto",
                       nccl_protocol="ll256")


def test_config_describe_shows_non_compat_modes():
    compat = TrainingConfig("lenet", 16, 4)
    tuned = TrainingConfig("lenet", 16, 4, nccl_algorithm="auto",
                           nccl_protocol="auto")
    assert "auto" not in compat.describe()
    assert "auto+auto" in tuned.describe()


# ----------------------------------------------------------------------
# Communicator wiring
# ----------------------------------------------------------------------
def _run_sync(comm_cls, num_gpus, numel, **comm_kwargs):
    env = Environment()
    topo = build_dgx1v()
    fabric = Fabric(env, topo, CALIBRATION)
    devices = [GpuDevice(env, topo.gpu(i)) for i in range(num_gpus)]
    bus = EventBus()
    events = []
    bus.subscribe(ProtocolChoiceEvent, events.append)
    bus.subscribe(CollectiveChunkEvent, events.append)
    bus.subscribe(RingStepEvent, events.append)
    profiler = Profiler(bus=bus)
    comm = comm_cls(env, fabric, devices, KernelCostModel(), CALIBRATION,
                    profiler, **comm_kwargs)
    array = WeightArray(0, "w", numel, "l")
    done = env.process(comm.sync_array(array))
    env.run(until=done)
    return comm, events


def test_compat_constructor_rejects_mixed_modes():
    env = Environment()
    topo = build_dgx1v()
    fabric = Fabric(env, topo, CALIBRATION)
    devices = [GpuDevice(env, topo.gpu(i)) for i in range(2)]
    with pytest.raises(ValueError):
        NcclCommunicator(env, fabric, devices, KernelCostModel(), CALIBRATION,
                         algorithm="compat", protocol="ll")


def test_compat_communicator_builds_no_tuner():
    comm, events = _run_sync(NcclCommunicator, 4, 50_000)
    assert comm._tuner is None and comm.tree is None
    assert not any(isinstance(e, ProtocolChoiceEvent) for e in events)
    assert not any(isinstance(e, CollectiveChunkEvent) for e in events)


def test_auto_communicator_emits_choices():
    comm, events = _run_sync(NcclCommunicator, 4, 50_000,
                             algorithm="auto", protocol="auto")
    assert comm._tuner is not None and comm.tree is not None
    choices = [e for e in events if isinstance(e, ProtocolChoiceEvent)]
    # reduce + broadcast for the legacy NCCL KVStore path
    assert {c.collective for c in choices} == {"reduce", "broadcast"}
    for choice in choices:
        assert choice.algorithm in ("ring", "tree")
        assert choice.protocol in ("simple", "ll", "ll128")
        assert choice.predicted > 0


def test_tree_pinned_allreduce_emits_chunks():
    comm, events = _run_sync(NcclAllReduceCommunicator, 4, 50_000,
                             algorithm="tree", protocol="ll128")
    chunks = [e for e in events if isinstance(e, CollectiveChunkEvent)]
    assert chunks, "tree collectives must emit CollectiveChunkEvents"
    edges = {(c.src, c.dst) for c in chunks}
    # Both directions of every tree edge appear.
    tree_pairs = {(child, parent) for child, parent in comm.tree.parent}
    assert edges == tree_pairs | {(p, c) for c, p in tree_pairs}
    # Chunk bytes over one direction of one edge sum to the wire payload.
    child, parent = next(iter(tree_pairs))
    up = sum(c.nbytes for c in chunks if (c.src, c.dst) == (child, parent))
    assert up == comm._comm_bytes(WeightArray(0, "w", 50_000, "l"))


def test_ring_pinned_allreduce_keeps_ring_events():
    _, events = _run_sync(NcclAllReduceCommunicator, 4, 50_000,
                          algorithm="ring", protocol="simple")
    assert any(isinstance(e, RingStepEvent) for e in events)
    assert not any(isinstance(e, CollectiveChunkEvent) for e in events)
    assert any(isinstance(e, ProtocolChoiceEvent) for e in events)


def test_factory_drops_knobs_for_non_nccl():
    env = Environment()
    topo = build_dgx1v()
    fabric = Fabric(env, topo, CALIBRATION)
    devices = [GpuDevice(env, topo.gpu(i)) for i in range(2)]
    comm = make_communicator(
        CommMethodName.P2P, env, fabric, devices, KernelCostModel(),
        CALIBRATION, algorithm="auto", protocol="auto",
    )
    assert comm.name == "p2p"
    nccl = make_communicator(
        CommMethodName.NCCL, env, fabric, devices, KernelCostModel(),
        CALIBRATION, algorithm="auto", protocol="auto",
    )
    assert nccl.algorithm == "auto"


# ----------------------------------------------------------------------
# Compat golden outputs: the pre-PR calibrated numbers, bit for bit
# ----------------------------------------------------------------------
#: Captured on the commit preceding this layer (defaults throughout),
#: then re-recorded once when the clock became translation-invariant
#: (the origin moved every answer by at most 1.1e-10 relative).
PRE_PR_EPOCHS = {
    ("lenet", CommMethodName.P2P, 1): 15.866798216523602,
    ("lenet", CommMethodName.P2P, 4): 6.643653955182526,
    ("lenet", CommMethodName.NCCL, 1): 18.910558215389027,
    ("lenet", CommMethodName.NCCL, 4): 9.007942331535741,
    ("alexnet", CommMethodName.P2P, 1): 100.14179615774192,
    ("alexnet", CommMethodName.P2P, 4): 31.78186934114201,
    ("alexnet", CommMethodName.NCCL, 1): 104.5618121559266,
    ("alexnet", CommMethodName.NCCL, 4): 66.54231513732812,
}


@pytest.mark.parametrize("network,method,gpus", sorted(
    PRE_PR_EPOCHS, key=str))
def test_compat_mode_reproduces_pre_pr_numbers(network, method, gpus):
    result = train(TrainingConfig(network, 16, gpus, comm_method=method))
    assert result.epoch_time == PRE_PR_EPOCHS[(network, method, gpus)]


def test_auto_mode_changes_nccl_epoch():
    """The knob is live: auto tuning must not silently fall back to compat."""
    compat = train(TrainingConfig("alexnet", 16, 4,
                                  comm_method=CommMethodName.NCCL))
    tuned = train(TrainingConfig("alexnet", 16, 4,
                                 comm_method=CommMethodName.NCCL,
                                 nccl_algorithm="auto",
                                 nccl_protocol="auto"))
    assert tuned.epoch_time != compat.epoch_time
