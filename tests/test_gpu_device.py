"""Tests for the runtime GPU device."""

import pytest

from repro.gpu import GpuDevice
from repro.gpu.kernel import KernelSpec
from repro.obs.events import EngineWaitEvent
from repro.profile import Profiler
from repro.sim import Environment, Resource
from repro.topology.nodes import GpuNode


def _kernel(name, duration, stage="fp"):
    return KernelSpec(name=name, layer="l", stage=stage, duration=duration,
                      flops=0.0, bytes_moved=0)


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def device(env):
    return GpuDevice(env, GpuNode.named(0), profiler=Profiler())


def test_kernel_takes_its_duration(env, device):
    env.process(device.run_kernel(_kernel("k", 1.5)))
    env.run()
    assert env.now == pytest.approx(1.5)
    assert device.busy_time == pytest.approx(1.5)


def test_kernels_serialize_on_one_gpu(env, device):
    for i in range(3):
        env.process(device.run_kernel(_kernel(f"k{i}", 1.0)))
    env.run()
    assert env.now == pytest.approx(3.0)


def test_different_gpus_run_in_parallel(env):
    d0 = GpuDevice(env, GpuNode.named(0))
    d1 = GpuDevice(env, GpuNode.named(1))
    env.process(d0.run_kernel(_kernel("a", 2.0)))
    env.process(d1.run_kernel(_kernel("b", 2.0)))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_run_kernels_sequences(env, device):
    kernels = [_kernel(f"k{i}", 0.5) for i in range(4)]
    env.process(device.run_kernels(kernels))
    env.run()
    assert env.now == pytest.approx(2.0)


def test_profiler_records_kernels(env, device):
    env.process(device.run_kernel(_kernel("k", 1.0, stage="bp")))
    env.run()
    records = device.profiler.kernels
    assert len(records) == 1
    assert records[0].gpu == 0
    assert records[0].stage == "bp"
    assert records[0].duration == pytest.approx(1.0)


def test_device_without_profiler_is_fine(env):
    device = GpuDevice(env, GpuNode.named(3))
    env.process(device.run_kernel(_kernel("k", 1.0)))
    env.run()
    assert device.index == 3


def test_idle_engine_kernel_starts_now_and_skips_the_grant_event(env, device):
    def queued_kernel(env, engine, duration):
        # The grant path a busy engine takes: request, then wait for it.
        req = engine.request()
        yield req
        yield env.timeout(duration)
        engine.release(req)

    reference = Environment()
    reference.timeout(0.25)
    reference.run()
    reference.process(queued_kernel(reference, Resource(reference), 1.0))
    reference.run()

    env.timeout(0.25)
    env.run()
    env.process(device.run_kernel(_kernel("k", 1.0)))
    env.run()
    (record,) = device.profiler.kernels
    assert record.start == 0.25 and record.end == 1.25
    assert env.dispatched == reference.dispatched - 1
    assert device.engine.count == 0


def test_busy_engine_grants_fifo_and_publishes_waits(env, device):
    waits = []
    device.profiler.bus.subscribe(EngineWaitEvent, waits.append)
    for i in range(3):
        env.process(device.run_kernel(_kernel(f"k{i}", 1.0)))
    env.run()
    starts = [(r.name, r.start) for r in device.profiler.kernels]
    assert starts == [("k0", 0.0), ("k1", 1.0), ("k2", 2.0)]
    assert [(w.kernel, w.wait, w.at) for w in waits] == [
        ("k1", 1.0, 1.0), ("k2", 2.0, 2.0)]
    assert device.engine.count == 0 and device.engine.queue_length == 0


def test_inline_kernels_run_back_to_back_on_one_stream(env, device):
    def stream(env):
        for i in range(3):
            yield from device.run_kernel(_kernel(f"k{i}", 0.5))

    env.run(until=env.process(stream(env)))
    assert [r.start for r in device.profiler.kernels] == [0.0, 0.5, 1.0]
    # Start, three timeouts, completion: no per-kernel process or grant.
    assert env.dispatched == 5
    assert device.engine.count == 0
