"""Tests for the hierarchical rail-aware cluster collectives.

Covers the phase-wire algebra, the communicator's validation, the
event-vs-analytic fast-path cross-validation on 1/2/4-node topologies
under strict invariants, the cluster-tier config knobs (validation,
describe tags, schema-v6 serialization), the multinode study's routing
through the cluster tier, and the ``cluster`` scaling experiment.  See
docs/SCALING.md for the model.
"""

import math

import pytest

from repro.checks import CheckEngine
from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.core.errors import ConfigurationError
from repro.comm.nccl import (
    hierarchical_phase_times,
    hierarchical_phase_wire,
    hierarchical_schedule_total,
    hierarchical_wire_total,
)
from repro.comm.nccl.hierarchical import rail_bytes
from repro.train import Trainer

FAST = SimulationConfig(warmup_iterations=0, measure_iterations=2)


def cluster_config(nodes, fast_path, network="lenet", collective="hierarchical-ring"):
    return TrainingConfig(
        network, 16, 8 * nodes,
        comm_method=CommMethodName.NCCL_ALLREDUCE,
        cluster_nodes=nodes,
        cluster_fabric="single-switch",
        cluster_collective=collective,
        cluster_fast_path=fast_path,
    )


# ----------------------------------------------------------------------
# Phase-wire algebra
# ----------------------------------------------------------------------
def test_phase_wire_closed_forms():
    intra, inter, ag = hierarchical_phase_wire(800, 4, 8)
    assert intra == ag == 4 * 7 * 800
    assert inter == 2 * 3 * 800
    assert hierarchical_wire_total(800, 4, 8) == intra + inter + ag


def test_schedule_total_ring_equals_tree():
    ring = hierarchical_schedule_total(999, 4, 8, "ring")
    tree = hierarchical_schedule_total(999, 4, 8, "tree")
    assert ring == tree  # same bytes, different order


def test_single_node_has_no_inter_phase():
    _, inter, _ = hierarchical_phase_wire(800, 1, 8)
    assert inter == 0
    t_rs, t_inter, t_ag = hierarchical_phase_times(800, 1, 40e9, 10e9, 2e-6)
    assert t_inter == 0.0
    assert t_rs == t_ag > 0.0


def test_rail_bytes_distributes_remainder_to_low_rails():
    split = rail_bytes(100, 8, 4)
    assert split == [26, 26, 24, 24]
    assert sum(split) == 100
    assert max(split) - min(split) <= 2  # 8//4 = 2 shards per rail


def test_inter_tree_is_logarithmic_in_nodes():
    kwargs = dict(intra_bandwidth=40e9, rail_bandwidth=10e9, rail_latency=2e-6)
    _, ring16, _ = hierarchical_phase_times(
        1 << 10, 16, inter_algorithm="ring", **kwargs)
    _, tree16, _ = hierarchical_phase_times(
        1 << 10, 16, inter_algorithm="tree", **kwargs)
    # Tiny payload: latency-bound, so 2*log2(16) = 8 tree hops beat the
    # ring's 2*(16-1) = 30.
    assert tree16 < ring16


# ----------------------------------------------------------------------
# Event vs analytic fast-path cross-validation (strict invariants)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_event_and_analytic_paths_agree(nodes):
    results = {}
    for fast_path in ("event", "analytic"):
        r = Trainer(cluster_config(nodes, fast_path), sim=FAST,
                    checks=CheckEngine("strict")).run()
        assert r.violations == ()
        results[fast_path] = r
    event, analytic = results["event"], results["analytic"]
    # Collective charges are identical algebra in both modes, so the
    # exposed weight-update stage matches to float tolerance; the full
    # iteration additionally carries per-device dispatch overhead (the
    # event path simulates every node's GPUs, the analytic path only the
    # representative node), so it agrees loosely.
    assert analytic.stages.wu == pytest.approx(event.stages.wu, rel=1e-9)
    assert analytic.iteration_time == pytest.approx(
        event.iteration_time, rel=0.2)


def test_single_node_paths_are_byte_identical():
    event = Trainer(cluster_config(1, "event"), sim=FAST).run()
    analytic = Trainer(cluster_config(1, "analytic"), sim=FAST).run()
    assert event.iteration_time == analytic.iteration_time
    assert event.epoch_time == analytic.epoch_time


def test_tree_inter_algorithm_runs_strict():
    r = Trainer(cluster_config(2, "event", collective="hierarchical-tree"),
                sim=FAST, checks=CheckEngine("strict")).run()
    assert r.violations == ()


def test_auto_fast_path_threshold():
    from repro.train.strategies import AUTO_ANALYTIC_NODES, resolve_fast_path

    assert resolve_fast_path(cluster_config(2, "auto")) == "event"
    big = cluster_config(AUTO_ANALYTIC_NODES + 1, "auto")
    assert resolve_fast_path(big) == "analytic"
    assert resolve_fast_path(cluster_config(2, "analytic")) == "analytic"


# ----------------------------------------------------------------------
# Config validation and describe tags
# ----------------------------------------------------------------------
def test_hierarchical_requires_nccl_method():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 16, comm_method=CommMethodName.P2P,
                       cluster_nodes=2, cluster_collective="hierarchical-ring")


def test_hierarchical_requires_full_nodes():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 12,
                       comm_method=CommMethodName.NCCL_ALLREDUCE,
                       cluster_nodes=2, cluster_collective="hierarchical-ring")


def test_hierarchical_rejects_tuner_knobs():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 16,
                       comm_method=CommMethodName.NCCL_ALLREDUCE,
                       cluster_nodes=2, cluster_collective="hierarchical-ring",
                       nccl_algorithm="auto", nccl_protocol="auto")


@pytest.mark.parametrize("field, value", [
    ("cluster_fabric", "torus"),
    ("cluster_collective", "flat"),
    ("cluster_fast_path", "magic"),
])
def test_invalid_cluster_knobs_rejected(field, value):
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 16,
                       comm_method=CommMethodName.NCCL_ALLREDUCE,
                       cluster_nodes=2, **{field: value})


def test_describe_carries_cluster_tags():
    label = cluster_config(2, "auto").describe()
    assert "hierarchical-ring" in label
    assert "single-switch" in label
    compat = TrainingConfig("lenet", 16, 4).describe()
    assert "hierarchical" not in compat and "switch" not in compat


# ----------------------------------------------------------------------
# Schema-v7 serialization round-trip
# ----------------------------------------------------------------------
def test_schema_v7_roundtrips_cluster_fields():
    from repro.analysis.serialization import (
        SCHEMA_VERSION, result_from_dict, result_to_dict,
    )

    assert SCHEMA_VERSION == 7
    result = Trainer(cluster_config(2, "analytic"), sim=FAST).run()
    clone = result_from_dict(result_to_dict(result))
    assert clone.config.cluster_fabric == "single-switch"
    assert clone.config.cluster_collective == "hierarchical-ring"
    assert clone.config.cluster_fast_path == "analytic"
    assert clone.iteration_time == result.iteration_time


# ----------------------------------------------------------------------
# The multinode study routes through the cluster tier
# ----------------------------------------------------------------------
def test_multinode_default_routes_through_cluster_tier():
    from repro.experiments import multinode_study

    spec = multinode_study.sweep_spec(networks=("lenet",), node_counts=(1, 2))
    for point in spec.points:
        assert point.config.cluster_fabric == "single-switch"
        assert point.config.cluster_collective == "hierarchical-ring"
        assert point.config.cluster_fast_path == "auto"


# ----------------------------------------------------------------------
# The cluster scaling experiment
# ----------------------------------------------------------------------
def test_cluster_scaling_structure_and_render():
    from repro.experiments import cluster_scaling
    from repro.runner import SweepRunner
    from repro.train.strategies import AUTO_ANALYTIC_NODES

    result = cluster_scaling.run(
        networks=("lenet",),
        node_counts=(1, 2, 8),
        runner=SweepRunner(sim=FAST),
    )
    assert [r.num_gpus for r in result.rows] == [8, 16, 64]
    assert result.speedup("lenet", 1) == pytest.approx(1.0)
    eff = result.efficiency("lenet", 2)
    assert 0.0 < eff <= 1.001
    table = cluster_scaling.render(result)
    assert "1024" not in table  # only the requested node counts
    assert "8x8" in table
    # node counts past the auto threshold are labelled analytic
    assert 8 > AUTO_ANALYTIC_NODES
    assert "analytic" in table
    # no column overflows its clipped width (the title line is exempt)
    for line in table.splitlines():
        if "|" in line:
            assert all(len(cell.strip()) <= 24 for cell in line.split("|"))
