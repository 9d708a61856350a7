"""The modern NCCL path: AllReduce with replicated local updates.

The paper's MXNet container reduces gradients to GPU0, updates there, and
broadcasts the weights back.  Frameworks since then (Horovod, PyTorch DDP)
instead AllReduce the gradients and let *every* GPU run the identical
optimizer step locally:

* one collective per array instead of two (lower launch overhead),
* the bandwidth-optimal ``2(N-1)/N * S`` wire cost instead of ``2S``,
* no server GPU -- the update cost parallelizes and GPU0 stops being the
  straggler.

Included as the forward-looking comparison point: how much of the paper's
WU bottleneck was the algorithm rather than the hardware.
"""

from __future__ import annotations

from typing import Generator

from repro.comm.nccl.communicator import NcclCommunicator
from repro.comm.nccl.protocol import NcclAlgorithm
from repro.dnn.stats import WeightArray
from repro.obs.events import RingStepEvent
from repro.sim.events import Event


class NcclAllReduceCommunicator(NcclCommunicator):
    """AllReduce + replicated local SGD (DDP/Horovod style)."""

    name = "nccl-allreduce"

    def _emit_ring_steps(
        self, collective: str, array: WeightArray,
        start: float, end: float, wire_bytes: int,
    ) -> None:
        """Reduce-scatter + all-gather: ``2(N-1)`` step windows in which
        *every* ring link is simultaneously active carrying an ``S/N``
        chunk -- the structure "Demystifying NCCL" times step by step."""
        hops = self._ring_hops
        n = self.plan.size
        if not hops or n < 2 or end <= start or not self._wants(RingStepEvent):
            return
        num_steps = 2 * (n - 1)
        slot = (end - start) / num_steps
        chunk = max(1, wire_bytes // n)
        for step in range(num_steps):
            t0 = start + step * slot
            t1 = start + (step + 1) * slot
            for src, dst, _, link_type in hops:
                self.profiler.publish(RingStepEvent(
                    collective=collective, array=array.name, step=step,
                    src=src, dst=dst, link_type=link_type, nbytes=chunk,
                    start=t0, end=t1,
                ))

    def allreduce_duration(self, nbytes: int) -> float:
        """Pipelined ring AllReduce: reduce-scatter + all-gather.

        Each GPU sends and receives ``2(N-1)/N * S`` per channel -- the
        bandwidth-optimal collective.  Non-compat modes defer to the
        tuner's protocol-aware cost model instead.
        """
        c = self.constants
        n = self.plan.size
        if n == 1:
            return c.nccl_single_gpu_kernel
        choice = self._choose("allreduce", nbytes)
        if choice is not None:
            return choice.predicted
        wire = (2.0 * (n - 1) / n) * nbytes / self.plan.aggregate_bandwidth
        return c.nccl_call_overhead + 2 * (n - 1) * c.nccl_ring_step_latency + wire

    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        if self.plan.size == 1:
            kernel = self._collective_kernel(
                "allreduce", array, self.constants.nccl_single_gpu_kernel
            )
            yield self.env.process(self.server.run_kernel(kernel))
            yield self.env.process(self.server.run_kernel(self._update_kernel(array)))
            return
        yield self.env.process(self._allreduce(array))
        # Every GPU applies the identical update in parallel.
        updates = [
            self.env.process(dev.run_kernel(self._update_kernel(array)))
            for dev in self.devices
        ]
        yield self.env.all_of(updates)

    def _allreduce(self, array: WeightArray) -> Generator[Event, None, None]:
        c = self.constants
        wire_bytes = self._comm_bytes(array)
        duration = self.allreduce_duration(wire_bytes)
        self._check_collective("allreduce", wire_bytes, duration)
        queued = self.env.now
        req = self._stream.request()
        yield req
        start = self.env.now
        self._emit_stream_waits(start - queued, start)
        tax = self._collective_kernel("allreduce", array, c.nccl_engine_tax)
        taxes = [self.env.process(dev.run_kernel(tax)) for dev in self.devices]
        try:
            yield self.env.timeout(duration)
            yield self.env.all_of(taxes)
        finally:
            self._stream.release(req)
        choice = self._choose("allreduce", wire_bytes)
        if choice is None or choice.algorithm is NcclAlgorithm.RING:
            self._emit_ring_steps("allreduce", array, start, start + duration,
                                  wire_bytes)
        else:
            self._emit_tree_steps(choice, array, start, start + duration)
        if choice is not None:
            self._emit_choice(choice, array, start)
        self._record_transfer("nccl", self.server.index, -1, wire_bytes,
                              start, self.env.now)
