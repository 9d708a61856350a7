"""Tests for straggler injection (per-GPU speed factors).

The knob accepts both forms: a plain positive float (the original scalar
multiplier) and a :class:`repro.faults.SlowdownProfile` (a time-varying
piecewise-constant multiplier), backward-compatibly.
"""

import dataclasses

import pytest

from repro import CommMethodName, SimulationConfig, TrainingConfig
from repro.faults import SlowdownProfile
from repro.gpu import GpuDevice
from repro.sim import Environment
from repro.topology.nodes import GpuNode
from repro.train import Trainer

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)
CONFIG = TrainingConfig("googlenet", 16, 4, comm_method=CommMethodName.NCCL)
#: The same job under asynchronous SGD (the strategy runs over P2P).
ASYNC = dataclasses.replace(CONFIG, comm_method=CommMethodName.P2P,
                            strategy="async-update")


def test_speed_factor_validation():
    env = Environment()
    with pytest.raises(ValueError):
        GpuDevice(env, GpuNode.named(0), speed_factor=0.0)
    with pytest.raises(ValueError):
        GpuDevice(env, GpuNode.named(0), speed_factor=-1.0)


def test_speed_factor_scales_kernel_time():
    from repro.gpu.kernel import KernelSpec

    env = Environment()
    slow = GpuDevice(env, GpuNode.named(0), speed_factor=3.0)
    kernel = KernelSpec("k", "l", "fp", duration=1.0, flops=0, bytes_moved=0)
    env.process(slow.run_kernel(kernel))
    env.run()
    assert env.now == pytest.approx(3.0)


def test_sync_training_paced_by_straggler():
    base = Trainer(CONFIG, sim=FAST).run()
    slow = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: 2.0}).run()
    slowdown = slow.epoch_time / base.epoch_time
    # the barrier transmits most of the 2x slowdown to the whole job
    assert 1.4 < slowdown <= 2.1


def test_straggler_position_immaterial_for_sync():
    """Synchronous SGD waits for the slowest GPU wherever it sits."""
    a = Trainer(CONFIG, sim=FAST, gpu_speed_factors={1: 2.0}).run()
    b = Trainer(CONFIG, sim=FAST, gpu_speed_factors={3: 2.0}).run()
    assert a.epoch_time == pytest.approx(b.epoch_time, rel=0.05)


def test_async_tolerates_straggler():
    base = Trainer(ASYNC, sim=FAST).run()
    slow = Trainer(ASYNC, sim=FAST, gpu_speed_factors={2: 2.0}).run()
    slowdown = slow.epoch_time / base.epoch_time
    assert slowdown < 1.35  # other workers keep going


def test_async_suffers_less_than_sync():
    sync_base = Trainer(CONFIG, sim=FAST).run()
    sync_slow = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: 2.0}).run()
    async_base = Trainer(ASYNC, sim=FAST).run()
    async_slow = Trainer(ASYNC, sim=FAST, gpu_speed_factors={2: 2.0}).run()
    assert (async_slow.epoch_time / async_base.epoch_time) < (
        sync_slow.epoch_time / sync_base.epoch_time
    )


def test_faster_gpu_does_not_help_sync():
    """One GPU at 0.5x duration (2x speed) barely moves the barrier."""
    base = Trainer(CONFIG, sim=FAST).run()
    boosted = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: 0.5}).run()
    assert boosted.epoch_time == pytest.approx(base.epoch_time, rel=0.1)


# ----------------------------------------------------------------------
# Time-varying slowdown profiles (the generalized knob)
# ----------------------------------------------------------------------
def test_device_accepts_slowdown_profile():
    from repro.gpu.kernel import KernelSpec

    profile = SlowdownProfile(steps=((0.0, 1.0), (2.0, 3.0)))
    env = Environment()
    gpu = GpuDevice(env, GpuNode.named(0), speed_factor=profile)
    kernel = KernelSpec("k", "l", "fp", duration=1.0, flops=0, bytes_moved=0)

    def work():
        yield from gpu.run_kernel(kernel)     # starts at 0.0 -> 1x
        yield from gpu.run_kernel(kernel)     # starts at 1.0 -> 1x
        yield from gpu.run_kernel(kernel)     # starts at 2.0 -> 3x

    env.process(work())
    env.run()
    assert env.now == pytest.approx(5.0)


def test_constant_profile_equals_scalar_knob():
    profile = SlowdownProfile(steps=((0.0, 2.0),))
    scalar = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: 2.0}).run()
    profiled = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: profile}).run()
    assert profiled.epoch_time == scalar.epoch_time


def test_time_varying_straggler_bounded_by_extremes():
    """A GPU that degrades mid-run lands between always-fast and always-slow."""
    profile = SlowdownProfile(steps=((0.0, 1.0), (0.05, 2.0)))
    base = Trainer(CONFIG, sim=FAST).run()
    slow = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: 2.0}).run()
    varying = Trainer(CONFIG, sim=FAST, gpu_speed_factors={2: profile}).run()
    assert base.epoch_time < varying.epoch_time <= slow.epoch_time
