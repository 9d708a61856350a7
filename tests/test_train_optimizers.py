"""Tests for optimizer descriptors and their propagation."""

import pytest

from repro import CommMethodName, SimulationConfig, TrainingConfig, train
from repro.core.errors import ConfigurationError
from repro.dnn import build_network, compile_network, network_input_shape
from repro.gpu import MemoryModel
from repro.train import ADAM, SGD, SGD_MOMENTUM, available_optimizers, get_optimizer

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


def test_registry():
    assert set(available_optimizers()) == {"sgd", "sgd-momentum", "adam"}
    assert get_optimizer("adam") is ADAM
    with pytest.raises(ConfigurationError):
        get_optimizer("lamb")


def test_param_copies():
    assert SGD.param_copies == 2            # weights + gradients
    assert SGD_MOMENTUM.param_copies == 3   # + momentum
    assert ADAM.param_copies == 4           # + two moments


def test_update_cost_ordering():
    assert SGD.flops_per_param < SGD_MOMENTUM.flops_per_param < ADAM.flops_per_param
    assert SGD.memory_passes < SGD_MOMENTUM.memory_passes < ADAM.memory_passes


def test_memory_grows_with_optimizer_state():
    stats = compile_network(build_network("alexnet"),
                            network_input_shape("alexnet"))
    totals = {
        opt.name: MemoryModel(optimizer=opt).training(stats, 32).total
        for opt in (SGD, SGD_MOMENTUM, ADAM)
    }
    assert totals["sgd"] < totals["sgd-momentum"] < totals["adam"]
    # each state buffer is one parameter-sized array
    assert totals["adam"] - totals["sgd-momentum"] == stats.model_bytes


def test_default_matches_paper_calibration():
    """Table IV was calibrated with SGD+momentum; the default must stay."""
    stats = compile_network(build_network("alexnet"),
                            network_input_shape("alexnet"))
    usage = MemoryModel().training(stats, 64, is_server=True)
    assert usage.total_gb == pytest.approx(2.37, rel=0.08)


def test_training_with_each_optimizer():
    epochs = {}
    for opt in available_optimizers():
        r = train(TrainingConfig("alexnet", 16, 4,
                                 comm_method=CommMethodName.P2P, optimizer=opt),
                  sim=FAST)
        epochs[opt] = r.epoch_time
    # heavier update kernels cost a little more wall time
    assert epochs["sgd"] <= epochs["adam"]


def test_adam_oom_earlier_than_sgd():
    stats = compile_network(build_network("inception-v3"),
                            network_input_shape("inception-v3"))
    assert MemoryModel(optimizer=ADAM).max_batch_size(stats) <= (
        MemoryModel(optimizer=SGD).max_batch_size(stats)
    )


def test_unknown_optimizer_rejected_at_trainer():
    with pytest.raises(ConfigurationError):
        train(TrainingConfig("lenet", 16, 1, optimizer="rmsprop"), sim=FAST)


#: sgd-momentum iteration times of alexnet, batch 32, 4 GPUs, as simulated
#: before these strategies read their update cost from the optimizer.
_SGD_MOMENTUM_ITERATION = {
    ("ps-cpu", CommMethodName.LOCAL): 0.15068445901516725,
    ("async-update", CommMethodName.P2P): 0.022928429023821195,
}


@pytest.mark.parametrize("strategy,method", sorted(_SGD_MOMENTUM_ITERATION),
                         ids=lambda v: getattr(v, "value", v))
def test_update_cost_follows_the_optimizer(strategy, method):
    def iteration(opt):
        return train(TrainingConfig("alexnet", 32, 4, comm_method=method,
                                    strategy=strategy, optimizer=opt),
                     sim=FAST).iteration_time

    assert iteration("sgd-momentum") == _SGD_MOMENTUM_ITERATION[strategy, method]
    assert iteration("sgd") < iteration("sgd-momentum") < iteration("adam")
