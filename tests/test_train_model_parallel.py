"""Tests for the model-parallel estimator."""

import pytest

from repro import CommMethodName, SimulationConfig, TrainingConfig, train
from repro.core.errors import ConfigurationError
from repro.dnn import build_network, compile_network, network_input_shape
from repro.train.model_parallel import ModelParallelEstimator, partition_network

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


@pytest.fixture(scope="module")
def alexnet_parts():
    net = build_network("alexnet")
    stats = compile_network(net, network_input_shape("alexnet"))
    return net, stats


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_partition_covers_all_layers(alexnet_parts):
    net, stats = alexnet_parts
    plan = partition_network(net, stats, 4)
    assert len(plan.assignment) == len(stats.layers)
    assert set(plan.assignment) == {0, 1, 2, 3}
    # contiguous and monotone
    assert list(plan.assignment) == sorted(plan.assignment)


def test_partition_preserves_totals(alexnet_parts):
    net, stats = alexnet_parts
    plan = partition_network(net, stats, 4)
    assert sum(plan.segment_fwd_flops) == pytest.approx(
        stats.forward_flops_per_sample
    )
    assert sum(plan.segment_params) == stats.total_params


def test_partition_roughly_balanced(alexnet_parts):
    net, stats = alexnet_parts
    plan = partition_network(net, stats, 2)
    assert plan.balance < 1.6


def test_partition_single_gpu_trivial(alexnet_parts):
    net, stats = alexnet_parts
    plan = partition_network(net, stats, 1)
    assert set(plan.assignment) == {0}
    assert plan.boundary_bytes == ()


def test_partition_branchy_network_counts_all_crossings():
    net = build_network("resnet")
    stats = compile_network(net, network_input_shape("resnet"))
    plan = partition_network(net, stats, 4)
    # residual shortcuts crossing a boundary add traffic: every boundary
    # moves at least one tensor
    assert all(b > 0 for b in plan.boundary_bytes)


def test_partition_validation(alexnet_parts):
    net, stats = alexnet_parts
    with pytest.raises(ConfigurationError):
        partition_network(net, stats, 0)
    with pytest.raises(ConfigurationError):
        partition_network(net, stats, len(stats.layers) + 1)


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------
def test_result_basic_invariants():
    r = ModelParallelEstimator(TrainingConfig("alexnet", 16, 2)).run()
    assert r.iteration_time > 0
    assert r.epoch_time > 0
    assert r.images_per_second > 0
    assert r.communication_bytes_per_iteration > 0
    assert "model-parallel" in r.describe()


def test_mp_trade_off_matches_paper():
    """MP is competitive for FC-heavy AlexNet, terrible for conv-heavy
    ResNet -- the paper's data-vs-model-parallelism argument."""
    ratios = {}
    for net in ("alexnet", "resnet"):
        dp = train(TrainingConfig(net, 16, 2, comm_method=CommMethodName.P2P),
                   sim=FAST)
        mp = ModelParallelEstimator(TrainingConfig(net, 16, 2)).run()
        ratios[net] = mp.epoch_time / dp.epoch_time
    assert ratios["alexnet"] < 1.3          # near parity
    assert ratios["resnet"] > 1.5           # clearly worse
    assert ratios["alexnet"] < ratios["resnet"]


def test_mp_has_no_gradient_communication():
    """Boundary traffic only: far less than DP's 2x model size."""
    r = ModelParallelEstimator(TrainingConfig("alexnet", 16, 2)).run()
    stats = compile_network(build_network("alexnet"),
                            network_input_shape("alexnet"))
    assert r.communication_bytes_per_iteration < stats.model_bytes


def test_pipelining_helps_when_stages_balanced():
    plain = ModelParallelEstimator(TrainingConfig("resnet", 64, 4)).run()
    piped = ModelParallelEstimator(TrainingConfig("resnet", 64, 4),
                                   pipeline_microbatches=4).run()
    assert piped.epoch_time < plain.epoch_time


def test_microbatch_validation():
    with pytest.raises(ConfigurationError):
        ModelParallelEstimator(TrainingConfig("alexnet", 16, 2),
                               pipeline_microbatches=0).run()
    with pytest.raises(ConfigurationError):
        ModelParallelEstimator(TrainingConfig("alexnet", 16, 2),
                               pipeline_microbatches=3).run()


def test_custom_network_needs_shape():
    net = build_network("lenet")
    with pytest.raises(ConfigurationError):
        ModelParallelEstimator(TrainingConfig("lenet", 16, 2), network=net)


def test_determinism():
    a = ModelParallelEstimator(TrainingConfig("googlenet", 16, 4)).run()
    b = ModelParallelEstimator(TrainingConfig("googlenet", 16, 4)).run()
    assert a.epoch_time == b.epoch_time


def test_strategy_routes_boundaries_over_the_trainers_topology():
    """The model-parallel strategy hands its estimator the trainer's
    topology, so a slower NVLink fabric slows the boundary transfers."""
    import functools

    from repro.topology import build_dgx1v

    config = TrainingConfig("alexnet", 16, 4, comm_method=CommMethodName.P2P,
                            strategy="model-parallel")
    slow = functools.partial(build_dgx1v, nvlink_bandwidth_scale=0.1)
    default = train(config)
    overridden = train(config, topology_builder=slow)
    assert default.epoch_time == ModelParallelEstimator(config).run().epoch_time
    assert overridden.epoch_time == ModelParallelEstimator(
        config, topology=slow()).run().epoch_time
    assert overridden.epoch_time > 2 * default.epoch_time


# ----------------------------------------------------------------------
# The model-parallel strategy inside the trainer
# ----------------------------------------------------------------------
MP_CONFIG = TrainingConfig("lenet", 16, 4, comm_method=CommMethodName.P2P,
                           strategy="model-parallel")


def test_strategy_run_is_checked_against_the_dag_floor():
    from repro.checks.engine import CheckEngine
    from repro.train import Trainer

    engine = CheckEngine("strict")
    result = Trainer(MP_CONFIG, checks=engine).run()
    stats = engine.stats_dict()
    assert sum(checked for checked, _ in stats.values()) > 0
    assert sum(violated for _, violated in stats.values()) == 0
    assert stats["temporal.dag-lower-bound"] == (1, 0)
    assert result.violations == ()


def test_strategy_estimate_below_the_floor_raises_under_strict(monkeypatch):
    import dataclasses

    from repro.checks.engine import CheckEngine
    from repro.core.errors import InvariantViolationError
    from repro.train import Trainer

    honest = ModelParallelEstimator.run

    def too_fast(self):
        result = honest(self)
        return dataclasses.replace(result,
                                   iteration_time=result.iteration_time / 10)

    monkeypatch.setattr(ModelParallelEstimator, "run", too_fast)
    with pytest.raises(InvariantViolationError, match="dag-lower-bound"):
        Trainer(MP_CONFIG, checks=CheckEngine("strict")).run()


def test_strategy_reuses_the_trainers_compile(monkeypatch):
    import importlib

    from repro.train import Trainer

    mp_module = importlib.import_module("repro.train.model_parallel")

    expected = ModelParallelEstimator(MP_CONFIG).run()

    def no_second_compile(*args, **kwargs):
        raise AssertionError("the strategy compiled the network again")

    monkeypatch.setattr(mp_module, "compile_network", no_second_compile)
    monkeypatch.setattr(mp_module, "build_network", no_second_compile)
    result = Trainer(MP_CONFIG).run()
    assert result.iteration_time == expected.iteration_time
    assert result.epoch_time == expected.epoch_time


@pytest.mark.parametrize("variant", ["no-tensor-cores", "custom-network"])
def test_strategy_costs_the_zoo_network_with_tensor_cores(variant):
    # The estimator answers for the configured zoo network with tensor
    # cores whatever the trainer was built with (the pre-memo answers);
    # the floor it is checked against comes from that same compile.
    from repro.checks.engine import CheckEngine
    from repro.dnn import build_network, network_input_shape
    from repro.train import Trainer

    kwargs = (dict(use_tensor_cores=False) if variant == "no-tensor-cores"
              else dict(network=build_network("alexnet"),
                        input_shape=network_input_shape("alexnet")))
    engine = CheckEngine("strict")
    result = Trainer(MP_CONFIG, checks=engine, **kwargs).run()
    expected = ModelParallelEstimator(MP_CONFIG).run()
    assert result.iteration_time == expected.iteration_time
    assert result.epoch_time == expected.epoch_time
    assert engine.stats_dict()["temporal.dag-lower-bound"] == (1, 0)
