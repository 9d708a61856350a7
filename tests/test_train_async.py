"""Tests for the asynchronous-SGD trainer."""

import pytest

from repro import CommMethodName, OutOfMemoryError, SimulationConfig, TrainingConfig
from repro.train import AsyncTrainer, train

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


def _async(net="lenet", batch=16, gpus=4, **kwargs):
    return AsyncTrainer(TrainingConfig(net, batch, gpus), sim=FAST, **kwargs).run()


def test_basic_invariants():
    r = _async()
    assert r.iteration_time > 0
    assert r.epoch_time > 0
    assert r.images_per_second > 0
    assert r.server_updates > 0


def test_single_gpu_has_zero_staleness():
    r = _async(gpus=1)
    assert r.staleness_mean == 0.0
    assert r.staleness_max == 0


def test_staleness_grows_with_gpu_count():
    """The delayed-gradient problem: staleness scales with workers."""
    means = [_async(gpus=n).staleness_mean for n in (2, 4, 8)]
    assert means[0] < means[1] < means[2]
    # roughly N-1 updates land between a worker's pull and push
    assert means[2] == pytest.approx(7.0, abs=1.5)


def test_async_throughput_beats_synchronous():
    """No barrier, no stragglers: raw epoch time drops below sync SGD."""
    for net in ("lenet", "inception-v3"):
        sync = train(TrainingConfig(net, 16, 8, comm_method=CommMethodName.P2P),
                     sim=FAST)
        asyn = _async(net=net, gpus=8)
        assert asyn.epoch_time < sync.epoch_time


def test_effective_time_penalizes_staleness():
    r = _async(gpus=8)
    assert r.effective_epoch_time() > r.epoch_time
    assert r.effective_epoch_time(penalty=0.0) == r.epoch_time
    assert r.effective_epoch_time(penalty=1.0) > r.effective_epoch_time(penalty=0.1)


def test_effective_time_can_lose_to_sync():
    """With a strong enough penalty, sync SGD wins back -- the reason the
    paper's frameworks default to synchronous training."""
    sync = train(TrainingConfig("inception-v3", 16, 8,
                                comm_method=CommMethodName.NCCL), sim=FAST)
    asyn = _async(net="inception-v3", gpus=8)
    assert asyn.effective_epoch_time(penalty=0.5) > sync.epoch_time


def test_oom_still_checked():
    with pytest.raises(OutOfMemoryError):
        _async(net="inception-v3", batch=256, gpus=2)


def test_determinism():
    a, b = _async(), _async()
    assert a.epoch_time == b.epoch_time
    assert a.staleness_samples == b.staleness_samples


def test_describe():
    r = _async()
    assert "async" in r.describe()
    assert "staleness" in r.describe()
