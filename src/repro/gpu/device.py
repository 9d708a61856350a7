"""Runtime GPU object used inside a simulation.

A :class:`GpuDevice` owns a single execution engine resource -- DNN
training kernels are large enough to occupy the whole SM array, so kernels
issued to any stream of one GPU serialize, while different GPUs run fully
in parallel.  Kernel executions are reported to an optional profiler
while its ``enabled`` window is open (anything with an ``enabled``
attribute and a ``record_kernel`` method; see
:class:`repro.profile.profiler.Profiler`).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.obs.events import EngineWaitEvent
from repro.sim import Environment, Resource
from repro.sim.events import Event, Timeout
from repro.gpu.kernel import KernelSpec
from repro.gpu.spec import TESLA_V100, GpuSpec
from repro.topology.nodes import GpuNode


class GpuDevice:
    """One GPU of the simulated system."""

    def __init__(
        self,
        env: Environment,
        node: GpuNode,
        spec: GpuSpec = TESLA_V100,
        profiler: Optional[object] = None,
        speed_factor=1.0,
        ecc: Optional[object] = None,
    ) -> None:
        """``speed_factor`` scales every kernel's duration on this device
        (>1 = slower); used for straggler-injection studies.  It is either
        a plain number (constant slowdown) or anything with an
        ``at(now) -> float`` method -- e.g. a
        :class:`~repro.faults.plan.SlowdownProfile` -- sampled at each
        kernel's start time for time-varying throttling.  ``ecc`` is an
        optional :class:`~repro.faults.injector.EccModel` adding a retry
        latency to memory-bound kernels (``delay(kernel) -> float``)."""
        # Duck-typed rather than isinstance so the gpu layer stays
        # decoupled from repro.faults (which sits above it).
        self.slowdown = speed_factor if hasattr(speed_factor, "at") else None
        if self.slowdown is None:
            speed_factor = float(speed_factor)
            if speed_factor <= 0:
                raise ValueError("speed_factor must be positive")
        self.env = env
        self.node = node
        #: The device index (``node.index``), read on every kernel.
        self.index = node.index
        self.spec = spec
        self.profiler = profiler
        # Queueing delay behind earlier kernels goes to the metrics bridge
        # when someone wants it (profilers without a bus lack ``wants``).
        self._wants = getattr(profiler, "wants", None)
        self.speed_factor = speed_factor
        self.ecc = ecc
        self.engine = Resource(env, capacity=1)
        self.busy_time = 0.0

    def run_kernel(self, kernel: KernelSpec) -> Generator[Event, None, None]:
        """Process: execute one kernel on this GPU's SM array."""
        env = self.env
        engine = self.engine
        # An idle engine is held at once, with no wait; a busy one
        # queues FIFO.
        issued = start = env.now
        req = engine.request_now()
        if req is None:
            req = engine.request()
            yield req
            start = env.now
        if self.slowdown is not None:
            duration = kernel.duration * self.slowdown.at(start)
        else:
            duration = kernel.duration * self.speed_factor
        if self.ecc is not None:
            duration += self.ecc.delay(kernel)
        try:
            yield Timeout(env, duration)
        finally:
            end = env.now
            self.busy_time += end - start
            engine.release(req)
            profiler = self.profiler
            if profiler is not None and profiler.enabled:
                profiler.record_kernel(self.index, kernel, start, end)
                if (start > issued and self._wants is not None
                        and self._wants(EngineWaitEvent)):
                    profiler.publish(EngineWaitEvent(
                        gpu=self.index, kernel=kernel.name,
                        wait=start - issued, at=start,
                    ))

    def run_kernels(self, kernels) -> Generator[Event, None, None]:
        """Process: execute a list of kernels back to back."""
        for kernel in kernels:
            yield from self.run_kernel(kernel)
