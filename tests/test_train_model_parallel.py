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
