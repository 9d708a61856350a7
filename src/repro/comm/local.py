"""MXNet ``local`` KVStore: aggregation in host memory over PCIe.

The third data-movement option the paper's background contrasts with
NVLink-based methods: every GPU DtoH-copies its gradients into pinned host
memory, the CPU reduces and updates the weights, and the result is HtoD
broadcast back.  All traffic rides PCIe (sharing the per-switch uplinks)
and the reduction itself runs on the host cores, so this method bounds
what a PCIe-only system could achieve -- useful as a baseline and for the
fabric ablation.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.comm.base import Communicator
from repro.dnn.stats import WeightArray
from repro.sim import Resource
from repro.sim.events import Event
from repro.topology.routing import Router

#: Host-side reduction throughput (bytes/s): summing N gradient arrays is
#: memory-bound on the Xeon's ~60 GB/s per-socket bandwidth, with two
#: reads and one write per element.
HOST_REDUCE_BANDWIDTH = 20e9

#: Host-side cost of staging one DtoH/HtoD copy.
HOST_COPY_SETUP = 10.0e-6


class LocalCommunicator(Communicator):
    """CPU parameter server (MXNet ``kvstore=local``)."""

    name = "local"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.router = Router(self.fabric.topology)
        self._dispatch: Dict[int, Resource] = {
            d.index: Resource(self.env) for d in self.devices
        }
        # The host reduction is single-threaded per key in MXNet's local
        # kvstore; model the CPU reducer as one resource.
        self._cpu = Resource(self.env)

    # ------------------------------------------------------------------
    # Weight-update path
    # ------------------------------------------------------------------
    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        if self.num_gpus == 1:
            yield self.env.process(self.server.run_kernel(self._update_kernel(array)))
            return
        # Phase 1: DtoH from every GPU (concurrent, contending on PCIe).
        pushes = [
            self.env.process(self._host_copy(array, dev.index, to_host=True))
            for dev in self.devices
        ]
        yield self.env.all_of(pushes)
        # Phase 2: sum N gradients and apply the optimizer on the host cores.
        reduce_bytes = array.nbytes * (self.num_gpus + 1)
        update_bytes = self.optimizer.memory_passes * array.nbytes
        yield self.env.process(self._cpu.hold(
            (reduce_bytes + update_bytes) / HOST_REDUCE_BANDWIDTH))
        # Phase 3: HtoD back to every GPU.
        pulls = [
            self.env.process(self._host_copy(array, dev.index, to_host=False))
            for dev in self.devices
        ]
        yield self.env.all_of(pulls)

    def _host_copy(self, array: WeightArray, gpu: int,
                   to_host: bool) -> Generator[Event, None, None]:
        """One DtoH (``to_host``) or HtoD copy between ``gpu`` and its
        home CPU, after the copy setup on the GPU's dispatch thread."""
        gpu_node = self.fabric.topology.gpu(gpu)
        cpu_node = self.fabric.topology.home_cpu(gpu_node)
        leg = self.router.cpu_to_gpu(cpu_node, gpu_node).legs[0]
        yield from self._dispatch[gpu].hold(HOST_COPY_SETUP)
        start = self.env.now
        nbytes = self._comm_bytes(array)
        if to_host:
            # DtoH rides the CPU->GPU route's links in reverse.
            yield self.env.process(self.fabric.dma(leg.reversed(), nbytes))
            self._record_transfer("d2h", gpu, -1, nbytes, start, self.env.now)
        else:
            yield self.env.process(self.fabric.dma(leg, nbytes))
            self._record_transfer("h2d", -1, gpu, nbytes, start, self.env.now)
