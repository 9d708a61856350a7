"""Tests for the training-strategy registry (repro.train.strategies)."""

import pytest

from repro.analysis.serialization import result_from_dict, result_to_dict
from repro.core.config import CommMethodName, SimulationConfig, TrainingConfig
from repro.core.errors import ConfigurationError, FaultPlanError
from repro.faults import FaultPlan, StragglerFault
from repro.checks import CheckEngine
from repro.obs import ObsSession
from repro.obs.events import LinkBusyEvent
from repro.train import (
    Trainer,
    available_strategies,
    get_strategy,
    strategy_for,
    train,
)
from repro.train.strategies import AUTO_STRATEGY

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)

#: strategy -> the comm_method its validation matrix requires.
COMM_OF = {
    "p2p-tree": CommMethodName.P2P,
    "nccl-collective": CommMethodName.NCCL,
    "nccl-allreduce-replicated": CommMethodName.NCCL_ALLREDUCE,
    "ps-cpu": CommMethodName.LOCAL,
    "ps-gpu": CommMethodName.P2P,
    "async-update": CommMethodName.P2P,
    "model-parallel": CommMethodName.P2P,
}


def _config(strategy, network="lenet", batch=16, gpus=4, **kw):
    return TrainingConfig(network, batch, gpus,
                          comm_method=COMM_OF[strategy],
                          strategy=strategy, **kw)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_seven_strategies_registered():
    assert available_strategies() == tuple(sorted(COMM_OF))


def test_unknown_strategy_is_loud():
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        get_strategy("hogwild")
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        TrainingConfig("lenet", 16, 4, strategy="hogwild")


@pytest.mark.parametrize("comm,expected", sorted(
    AUTO_STRATEGY.items(), key=lambda kv: kv[0].value))
def test_auto_resolves_to_the_matching_sync_strategy(comm, expected):
    config = TrainingConfig("lenet", 16, 4, comm_method=comm)
    assert config.strategy == "auto"
    assert strategy_for(config).name == expected


def test_explicit_name_round_trips_through_describe():
    config = _config("ps-gpu")
    assert config.describe().endswith("/ps-gpu")
    # "auto" stays silent so pre-registry labels are unchanged.
    assert not TrainingConfig("lenet", 16, 4).describe().endswith("/auto")


# ----------------------------------------------------------------------
# Validation matrix (strategy x comm x topology) -- the config.py bugfix
# ----------------------------------------------------------------------
def test_strategy_comm_mismatch_is_rejected():
    with pytest.raises(ConfigurationError, match="runs over comm_method"):
        TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.NCCL,
                       strategy="ps-gpu")
    with pytest.raises(ConfigurationError, match="docs/TRAINING.md"):
        TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P,
                       strategy="nccl-collective")


def test_multi_node_requires_a_nccl_strategy():
    """The old string check only spelled out NCCL; the matrix names the
    strategy and the single-node modeling assumption explicitly."""
    with pytest.raises(ConfigurationError) as err:
        TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.LOCAL,
                       cluster_nodes=2)
    message = str(err.value)
    assert "single DGX-1 node" in message
    assert "'ps-cpu'" in message
    assert "cluster_nodes=2" in message
    # P2P auto-resolves to p2p-tree, also single-node only.
    with pytest.raises(ConfigurationError, match="single DGX-1 node"):
        TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P,
                       cluster_nodes=4)


@pytest.mark.parametrize("comm", [CommMethodName.NCCL,
                                  CommMethodName.NCCL_ALLREDUCE])
def test_nccl_strategies_span_nodes(comm):
    config = TrainingConfig("lenet", 16, 4, comm_method=comm,
                            cluster_nodes=2)
    assert strategy_for(config).multi_node


# ----------------------------------------------------------------------
# Byte-identity: "auto" is exactly the pre-registry trainer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("comm", [CommMethodName.P2P, CommMethodName.NCCL,
                                  CommMethodName.NCCL_ALLREDUCE,
                                  CommMethodName.LOCAL])
def test_auto_equals_explicit_strategy(comm):
    auto = train(TrainingConfig("lenet", 16, 4, comm_method=comm), sim=FAST)
    name = AUTO_STRATEGY[comm]
    explicit = train(TrainingConfig("lenet", 16, 4, comm_method=comm,
                                    strategy=name), sim=FAST)
    assert explicit.iteration_times == auto.iteration_times
    assert explicit.epoch_time == auto.epoch_time
    assert explicit.stages == auto.stages
    assert explicit.apis == auto.apis
    assert explicit.gpu_busy == auto.gpu_busy


# ----------------------------------------------------------------------
# Every strategy runs end-to-end and round-trips through schema v5
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", sorted(COMM_OF))
def test_every_strategy_round_trips_through_the_v5_schema(strategy):
    result = train(_config(strategy), sim=FAST)
    back = result_from_dict(result_to_dict(result))
    assert back.config == result.config
    assert back.config.strategy == strategy
    assert back.iteration_times == result.iteration_times
    assert back.epoch_time == result.epoch_time
    assert back.async_stats == result.async_stats
    if strategy == "async-update":
        assert back.async_stats is not None
        assert back.async_stats.server_updates > 0
        assert back.async_stats.staleness_samples
    else:
        assert back.async_stats is None


# ----------------------------------------------------------------------
# One run skeleton: async-update builds through Trainer._build_system
# ----------------------------------------------------------------------
#: lenet b16 g4 ``async-update`` iteration time, recorded before the
#: strategy assembled its system through the trainer (bit-identical).
ASYNC_LENET_G4_ITERATION = 0.0007969525525801657


def test_strict_async_run_is_checked():
    engine = CheckEngine("strict")
    result = Trainer(_config("async-update"), checks=engine).run()
    assert result.iteration_time == ASYNC_LENET_G4_ITERATION
    stats = engine.stats_dict()
    for invariant in ("temporal.event-monotone", "capacity.link-bandwidth",
                      "temporal.link-serialization"):
        checked, violated = stats[invariant]
        assert checked > 0, invariant
        assert violated == 0, invariant
    assert result.violations == ()


def test_warn_async_run_carries_the_engine_violations():
    engine = CheckEngine("warn")
    engine.check("sim.event", when=0.4, now=0.5)
    result = Trainer(_config("async-update"), checks=engine).run()
    assert [v.invariant for v in result.violations] == [
        "temporal.event-monotone"]


def test_obs_session_sees_async_link_traffic():
    obs = ObsSession()
    busy = []
    obs.bus.subscribe(LinkBusyEvent, busy.append)
    result = Trainer(_config("async-update"), obs=obs).run()
    assert result.iteration_time == ASYNC_LENET_G4_ITERATION
    assert busy
    assert all(e.end >= e.start for e in busy)


# ----------------------------------------------------------------------
# Fault contract: sync strategies recover, the others refuse loudly
# ----------------------------------------------------------------------
PLAN = FaultPlan(stragglers=(StragglerFault(gpu=1, factor=1.5, at=0.0),))

SYNC = ("p2p-tree", "nccl-collective", "nccl-allreduce-replicated",
        "ps-cpu", "ps-gpu")


@pytest.mark.parametrize("strategy", SYNC)
def test_sync_strategies_run_under_fault_injection(strategy):
    result = train(_config(strategy), sim=FAST, faults=PLAN)
    assert result.faults is not None
    assert result.faults.segments
    semantics = get_strategy(strategy).recovery_semantics()
    assert semantics.supports_faults
    assert semantics.ring_rebuild == strategy.startswith("nccl")


@pytest.mark.parametrize("strategy", ["async-update", "model-parallel"])
def test_non_segment_strategies_reject_fault_plans(strategy):
    semantics = get_strategy(strategy).recovery_semantics()
    assert not semantics.supports_faults
    with pytest.raises(FaultPlanError, match="no fault-recovery semantics"):
        train(_config(strategy), sim=FAST, faults=PLAN)


@pytest.mark.parametrize("strategy", ["async-update", "model-parallel"])
def test_non_segment_strategies_reject_fault_plans_at_construction(strategy):
    """The fault contract is checked with the rest of the plan, in
    ``Trainer.__init__``: nothing is built or simulated first."""
    with pytest.raises(FaultPlanError, match="no fault-recovery semantics"):
        Trainer(_config(strategy), sim=FAST, faults=PLAN)
    # An empty plan is the healthy path for every strategy.
    Trainer(_config(strategy), sim=FAST, faults=FaultPlan())


def test_model_parallel_strategy_matches_the_estimator():
    from repro.train import ModelParallelEstimator

    config = _config("model-parallel")
    via_registry = train(config, sim=FAST)
    direct = ModelParallelEstimator(config).run()
    assert via_registry.iteration_time == direct.iteration_time
    assert via_registry.epoch_time == direct.epoch_time


def test_unknown_attribute_still_raises():
    import sys

    pkg = sys.modules["repro.train"]
    with pytest.raises(AttributeError):
        pkg.no_such_thing


# ----------------------------------------------------------------------
# Work ceiling on the strategy dispatch path
# ----------------------------------------------------------------------
def test_strategy_matrix_stays_under_its_event_and_dma_ceilings():
    # The repository benchmark never runs async-update, model-parallel or
    # the PS strategies, so this pins their work as deterministic counts:
    # the 7-strategy matrix on lenet and alexnet at batch 16, simulated
    # from scratch.  The ceilings are the measured counts; any rise means
    # the dispatch path or the engine now does more work per point.
    # ``sim.events`` includes the async-update workers' events.
    from repro.experiments import strategies
    from repro.perf.spans import PERF
    from repro.runner import SweepRunner

    PERF.reset()
    PERF.enable()
    try:
        result = strategies.run(runner=SweepRunner(),
                                networks=("lenet", "alexnet"), batch_size=16)
        counters = dict(PERF.counters)
    finally:
        PERF.disable()
        PERF.reset()
    assert len(result.rows) == 14
    assert counters["sim.events"] <= 11380
    assert counters["fabric.dmas"] <= 992
