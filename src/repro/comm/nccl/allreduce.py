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
from repro.dnn.stats import WeightArray
from repro.sim.events import Event


class NcclAllReduceCommunicator(NcclCommunicator):
    """AllReduce + replicated local SGD (DDP/Horovod style)."""

    name = "nccl-allreduce"

    def _emit_ring_steps(
        self, collective: str, array: WeightArray,
        start: float, end: float, wire_bytes: int,
    ) -> None:
        """Reduce-scatter + all-gather: ``2(N-1)`` step windows in which
        every ring link carries an ``S/N`` chunk."""
        n = self.plan.size
        self._emit_ring_windows(collective, array, self._ring_hops,
                                2 * (n - 1), max(1, wire_bytes // n),
                                start, end)

    def allreduce_duration(self, nbytes: int) -> float:
        """Pipelined ring AllReduce: reduce-scatter + all-gather.

        Each GPU sends and receives ``2(N-1)/N * S`` per channel -- the
        bandwidth-optimal collective.
        """
        n = self.plan.size
        return self._ring_duration("allreduce", nbytes, 2 * (n - 1),
                                   2.0 * (n - 1) / n)

    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        if self.total_ranks == 1:
            kernel = self._collective_kernel(
                array, "allreduce", self.constants.nccl_single_gpu_kernel
            )
            yield self.env.process(self.server.run_kernel(kernel))
            yield self.env.process(self.server.run_kernel(self._update_kernel(array)))
            return
        # Joined, not inlined: inlining it moves answers (repro.sim.events).
        yield self.env.process(self._allreduce(array))
        # Every simulated GPU applies the identical update in parallel
        # (unsimulated cluster nodes run the same kernels on their own
        # engines).
        updates = [
            self.env.process(dev.run_kernel(self._update_kernel(array)))
            for dev in self.devices
        ]
        yield self.env.all_of(updates)

    def _allreduce(self, array: WeightArray) -> Generator[Event, None, None]:
        wire_bytes, duration = self._collective_cost(array, "allreduce")
        self._check_collective("allreduce", wire_bytes, duration)
        yield from self._launch("allreduce", array, wire_bytes, (duration,))
