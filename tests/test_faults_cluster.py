"""Cluster-tier fault tests: rail/node primitives, re-rail algebra,
eager plan validation, the fault-aware fast path, and recovery
determinism (hypothesis-driven where the property is closed-form)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.nccl import rail_assignment, rail_bytes
from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.core.errors import FaultPlanError
from repro.faults import (
    FaultPlan,
    NodeCrashFault,
    NodeStragglerFault,
    RailFault,
    ResiliencePolicy,
    StragglerFault,
)
from repro.runner import SweepPoint, SweepRunner, SweepSpec
from repro.train import Trainer
from repro.train.strategies import resolve_fast_path

FAST = SimulationConfig(warmup_iterations=0, measure_iterations=2)


def cluster_config(nodes=2, fast_path="auto", network="lenet"):
    return TrainingConfig(
        network, 16, 8 * nodes,
        comm_method=CommMethodName.NCCL_ALLREDUCE,
        cluster_nodes=nodes,
        cluster_fabric="single-switch",
        cluster_collective="hierarchical-ring",
        cluster_fast_path=fast_path,
    )


# ----------------------------------------------------------------------
# Plan primitives
# ----------------------------------------------------------------------
def test_rail_fault_validation():
    with pytest.raises(FaultPlanError):
        RailFault(node=-1, rail=0)
    with pytest.raises(FaultPlanError):
        RailFault(node=0, rail=0, bandwidth_scale=1.0)   # no-op scale
    with pytest.raises(FaultPlanError):
        RailFault(node=0, rail=0, at=5.0, until=5.0)     # empty window
    with pytest.raises(FaultPlanError):
        NodeStragglerFault(node=0, factor=0.0)
    with pytest.raises(FaultPlanError):
        NodeCrashFault(node=0, at_iteration=-1)


def test_cluster_fault_labels():
    assert RailFault(1, 2).label() == "rail:n1r2:down@0s"
    assert RailFault(0, 3, at=2.0, bandwidth_scale=0.5).label() == \
        "rail:n0r3:x0.5@2s"
    assert NodeStragglerFault(1, 1.5).label() == "node-straggler:n1:x1.5@0s"
    assert NodeCrashFault(1, 40).label() == "node-crash:n1@iter40"


def test_at_most_one_crash_across_granularities():
    from repro.faults import CrashFault

    with pytest.raises(FaultPlanError):
        FaultPlan(node_crashes=(NodeCrashFault(0, 5), NodeCrashFault(1, 9)))
    with pytest.raises(FaultPlanError):
        FaultPlan(crashes=(CrashFault(gpu=0, at_iteration=5),),
                  node_crashes=(NodeCrashFault(1, 9),))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_random_cluster_plans_are_seed_deterministic(seed):
    a = FaultPlan.random(seed, cluster_nodes=4)
    assert a == FaultPlan.random(seed, cluster_nodes=4)
    # The single-node draw sequence is unchanged by the appended cluster
    # draws: a cluster plan never targets single-GPU crash machinery.
    assert a.crashes == ()


def test_random_cluster_plans_eventually_draw_each_kind():
    plans = [FaultPlan.random(s, cluster_nodes=4) for s in range(40)]
    assert any(p.rail_faults for p in plans)
    assert any(p.node_stragglers for p in plans)
    assert any(p.node_crashes for p in plans)


# ----------------------------------------------------------------------
# Re-rail algebra (closed-form properties)
# ----------------------------------------------------------------------
@given(
    nbytes=st.integers(min_value=1, max_value=10**9),
    down=st.sets(st.integers(min_value=0, max_value=3), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_rail_assignment_conserves_bytes(nbytes, down):
    scales = tuple(0.0 if r in down else 1.0 for r in range(4))
    assignment = rail_assignment(nbytes, 8, 4, scales)
    assert sum(assignment) == nbytes
    for r in down:
        assert assignment[r] == 0


def test_rail_assignment_healthy_identity():
    for nbytes in (1, 100, 12345):
        base = rail_bytes(nbytes, 8, 4)
        assert rail_assignment(nbytes, 8, 4, None) == base
        assert rail_assignment(nbytes, 8, 4, (1.0,) * 4) == base


def test_rail_assignment_degraded_rails_keep_their_traffic():
    assert rail_assignment(100, 8, 4, (1.0, 0.5, 1.0, 1.0)) == \
        rail_bytes(100, 8, 4)


def test_rail_assignment_all_rails_down_refused():
    with pytest.raises(FaultPlanError):
        rail_assignment(100, 8, 4, (0.0, 0.0, 0.0, 0.0))


# ----------------------------------------------------------------------
# Eager validation (satellite: fail at construction, not mid-sweep)
# ----------------------------------------------------------------------
def test_crash_out_of_range_fails_at_construction():
    from repro.faults import CrashFault

    plan = FaultPlan(crashes=(CrashFault(gpu=7, at_iteration=5),))
    with pytest.raises(FaultPlanError,
                       match="crash targets gpu7 but the run uses 4 GPU"):
        Trainer(TrainingConfig("lenet", 16, 4,
                               comm_method=CommMethodName.NCCL),
                sim=FAST, faults=plan)


def test_straggler_out_of_range_fails_at_construction():
    plan = FaultPlan(stragglers=(StragglerFault(gpu=6, factor=1.5),))
    with pytest.raises(FaultPlanError, match="straggler targets gpu6"):
        Trainer(TrainingConfig("lenet", 16, 2,
                               comm_method=CommMethodName.NCCL),
                sim=FAST, faults=plan)


def test_cluster_faults_need_hierarchical_collective():
    plan = FaultPlan(rail_faults=(RailFault(0, 0),))
    with pytest.raises(FaultPlanError, match="non-compat cluster_collective"):
        Trainer(TrainingConfig("lenet", 16, 8,
                               comm_method=CommMethodName.NCCL),
                sim=FAST, faults=plan)


def test_rail_and_node_targets_bounds_checked():
    with pytest.raises(FaultPlanError, match="targets node 5"):
        Trainer(cluster_config(2), sim=FAST,
                faults=FaultPlan(rail_faults=(RailFault(5, 0),)))
    with pytest.raises(FaultPlanError, match="targets rail 9"):
        Trainer(cluster_config(2), sim=FAST,
                faults=FaultPlan(rail_faults=(RailFault(0, 9),)))
    with pytest.raises(FaultPlanError, match="targets node 3"):
        Trainer(cluster_config(2), sim=FAST, faults=FaultPlan(
            node_crashes=(NodeCrashFault(3, 10),)))


def test_single_gpu_crash_cannot_shrink_a_cluster():
    from repro.faults import CrashFault

    plan = FaultPlan(crashes=(CrashFault(gpu=3, at_iteration=5),))
    with pytest.raises(FaultPlanError, match="use NodeCrashFault"):
        Trainer(cluster_config(2), sim=FAST, faults=plan)


# ----------------------------------------------------------------------
# The fault-aware analytic fast path
# ----------------------------------------------------------------------
def test_analytic_path_refuses_unrepresentable_plans():
    plan = FaultPlan(node_crashes=(NodeCrashFault(1, 10),),
                     policy=ResiliencePolicy.SHRINK)
    with pytest.raises(FaultPlanError, match="cannot represent this "
                                             "fault plan"):
        Trainer(cluster_config(2, fast_path="analytic"), sim=FAST,
                faults=plan)


def test_auto_fast_path_falls_back_to_event_under_conflicts():
    crash = FaultPlan(node_crashes=(NodeCrashFault(1, 10),))
    rail = FaultPlan(rail_faults=(RailFault(0, 0, bandwidth_scale=0.5),))
    config = cluster_config(8)   # 8 nodes: healthy auto resolves analytic
    assert resolve_fast_path(config) == "analytic"
    assert resolve_fast_path(config, crash) == "event"
    # Rail faults are global closed-form algebra: analytic-safe.
    assert resolve_fast_path(config, rail) == "analytic"
    # Node-0 stragglers live on the represented node; others do not.
    on0 = FaultPlan(node_stragglers=(NodeStragglerFault(0, 1.5),))
    off0 = FaultPlan(node_stragglers=(NodeStragglerFault(2, 1.5),))
    assert resolve_fast_path(config, on0) == "analytic"
    assert resolve_fast_path(config, off0) == "event"


def test_rail_fault_runs_on_the_analytic_path_and_slows_inter_phase():
    config = cluster_config(8, network="alexnet")
    healthy = Trainer(config, sim=FAST).run()
    plan = FaultPlan(rail_faults=(RailFault(0, 0, bandwidth_scale=0.25),))
    faulted = Trainer(config, sim=FAST, faults=plan).run()
    assert faulted.faults.segments[-1].rails_degraded == 1
    assert faulted.iteration_time > healthy.iteration_time


# ----------------------------------------------------------------------
# Recovery determinism (satellite: same seed + plan => identical runs)
# ----------------------------------------------------------------------
def _scenario_points():
    config = cluster_config(2, network="alexnet")
    return [
        SweepPoint.make(config, overrides={"faults": FaultPlan(
            rail_faults=(RailFault(0, 1, at=0.05, bandwidth_scale=0.0),),
        )}),
        SweepPoint.make(config, overrides={"faults": FaultPlan(
            node_crashes=(NodeCrashFault(1, 3),),
            policy=ResiliencePolicy.SHRINK,
        )}),
        SweepPoint.make(config, overrides={"faults": FaultPlan(
            node_crashes=(NodeCrashFault(0, 3),),
            policy=ResiliencePolicy.CHECKPOINT_RESTART,
        )}),
        SweepPoint.make(config, overrides={
            "faults": FaultPlan.random(11, cluster_nodes=2),
        }),
    ]


def test_cluster_recovery_identical_across_runs_and_job_counts():
    from repro.analysis.serialization import result_to_dict

    spec = SweepSpec.explicit("cluster-det", _scenario_points())
    serial_a = SweepRunner(sim=FAST).run(spec)
    serial_b = SweepRunner(sim=FAST).run(spec)
    pooled = SweepRunner(sim=FAST, jobs=2).run(spec)
    for a, b, c in zip(serial_a, serial_b, pooled):
        assert result_to_dict(a.result) == result_to_dict(b.result)
        assert result_to_dict(a.result) == result_to_dict(c.result)


def test_node_shrink_reranks_survivors_densely():
    plan = FaultPlan(node_crashes=(NodeCrashFault(0, 3),),
                     policy=ResiliencePolicy.SHRINK)
    result = Trainer(cluster_config(2), sim=FAST, faults=plan).run()
    summary = result.faults
    assert summary.crashed_node == 0
    assert summary.crashed_gpu is None
    # Survivors re-rank onto ranks 0..7: one full chassis keeps training.
    assert summary.segments[-1].gpus == 8
    assert summary.survivors == 8


# ----------------------------------------------------------------------
# Serialization and the cache's recovery breakdown
# ----------------------------------------------------------------------
def test_cluster_fault_summary_roundtrips():
    from repro.analysis.serialization import result_from_dict, result_to_dict

    plan = FaultPlan(
        rail_faults=(RailFault(0, 1, at=0.05, bandwidth_scale=0.0),),
        node_crashes=(NodeCrashFault(1, 3),),
        policy=ResiliencePolicy.SHRINK,
    )
    result = Trainer(cluster_config(2), sim=FAST, faults=plan).run()
    clone = result_from_dict(result_to_dict(result))
    assert clone.faults == result.faults
    assert clone.faults.crashed_node == 1
    assert max(s.rails_degraded for s in clone.faults.segments) == 1


def test_store_entry_carries_recovery_breakdown(tmp_path):
    from repro.runner import ResultStore

    plan = FaultPlan(node_crashes=(NodeCrashFault(1, 3),),
                     policy=ResiliencePolicy.CHECKPOINT_RESTART)
    point = SweepPoint.make(cluster_config(2),
                            overrides={"faults": plan})
    store = ResultStore(tmp_path)
    runner = SweepRunner(sim=FAST, store=store)
    runner.run(SweepSpec.explicit("bd", [point]))
    assert runner.stats.faulted == 1
    assert runner.stats.fault_overhead > 0.0

    # A fresh runner replays the point from disk: the breakdown must
    # come back from the stored result's own fault summary.
    replay = SweepRunner(sim=FAST, store=store)
    replay.run(SweepSpec.explicit("bd", [point]))
    assert replay.stats.executed == 0 and replay.stats.disk_hits == 1
    assert replay.stats.faulted == 1
    assert replay.stats.fault_overhead == pytest.approx(
        runner.stats.fault_overhead)
    line = replay.stats.describe_faults()
    assert line is not None and "1 fault-injected point(s)" in line


def test_entry_with_a_flat_faults_copy_replays_the_same_overhead(tmp_path):
    """A stored entry keeps one copy of the recovery breakdown, inside the
    serialized result.  A file that also carries the flat top-level
    ``"faults"`` copy older writers added still loads, and the replay
    reads the same overhead from the result itself."""
    import json

    from repro.runner import ResultStore

    plan = FaultPlan(node_crashes=(NodeCrashFault(1, 3),),
                     policy=ResiliencePolicy.CHECKPOINT_RESTART)
    point = SweepPoint.make(cluster_config(2), overrides={"faults": plan})
    store = ResultStore(tmp_path)
    runner = SweepRunner(sim=FAST, store=store)
    runner.run(SweepSpec.explicit("flat", [point]))
    store.close()
    (path,) = tmp_path.glob("shard-*/*.json")
    data = json.loads(path.read_text())
    assert "faults" not in data
    summary = data["result"]["faults"]
    data["faults"] = {
        "policy": summary["policy"],
        "segments": len(summary["segments"]),
        "transition_cost": summary["transition_cost"],
        "recovery_cost": summary["recovery_cost"],
        "checkpoint_cost": summary["checkpoint_cost"],
        "overhead": runner.stats.fault_overhead,
        "crashed_gpu": summary["crashed_gpu"],
        "crashed_node": summary["crashed_node"],
        "replayed_iterations": summary["replayed_iterations"],
        "rails_degraded": 0,
    }
    path.write_text(json.dumps(data))

    replay = SweepRunner(sim=FAST, store=ResultStore(tmp_path))
    replay.run(SweepSpec.explicit("flat", [point]))
    assert replay.stats.executed == 0 and replay.stats.disk_hits == 1
    assert replay.stats.faulted == 1
    assert replay.stats.fault_overhead == runner.stats.fault_overhead


def test_healthy_points_report_no_fault_line():
    runner = SweepRunner(sim=FAST)
    runner.run(SweepSpec.explicit(
        "healthy", [SweepPoint.make(cluster_config(2))]))
    assert runner.stats.faulted == 0
    assert runner.stats.describe_faults() is None
