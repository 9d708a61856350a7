"""MXNet ``device`` KVStore: P2P direct transfers with a GPU0 server.

Gradients flow up a binomial reduction tree of cudaMemcpyPeer DMAs onto
GPU0 (the example the paper walks through: GPU1's gradients move to GPU0
while GPU2 collects GPU3's, then GPU0 collects GPU2's average); GPU0 runs
the SGD update and the updated weights flow back down the reversed tree
(the multi-stage NVLink relays the paper describes).

Modeling notes, each visible in the results:

* every DMA pays a driver-side setup cost serialized on the *source* GPU's
  dispatch thread -- with many weight arrays this serialization on GPU0 is
  what makes P2P lose to NCCL for GoogLeNet/ResNet/Inception-v3;
* large arrays are cut into chunks that pipeline across tree stages, so a
  61M-parameter AlexNet sync approaches link bandwidth instead of paying
  the full store-and-forward penalty per stage;
* gradient-accumulation and weight-update kernels run on the parents' (and
  GPU0's) *compute* engines, contending with backward-pass kernels --
  GPU0 is measurably the straggler, as the paper observes.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.dnn.stats import WeightArray
from repro.comm.base import Communicator, run_constant
from repro.gpu.kernel import KernelSpec
from repro.perf.spans import PERF
from repro.sim import Resource
from repro.sim.events import Event
from repro.topology.routing import Route, Router

#: Chunk size for pipelining large arrays across tree stages (matches the
#: granularity MXNet/CUDA use for big copies).
P2P_CHUNK_BYTES = 4 * 1024 * 1024

#: MXNet's MXNET_KVSTORE_BIGARRAY_BOUND default: arrays at or above this
#: many elements are sharded across all GPU servers instead of aggregating
#: on GPU0.  AlexNet's FC layers take this path; without it a 61M-parameter
#: model could never scale (2 x 244 MB through GPU0's links every
#: iteration), and it is why P2P stays competitive with NCCL for AlexNet:
#: the shards exploit the whole NVLink mesh while NCCL rides one ring.
BIGARRAY_BOUND_ELEMENTS = 1_000_000


def reduction_tree(num_gpus: int) -> List[List[Tuple[int, int]]]:
    """Binomial reduction tree as stages of ``(src, dst)`` transfers.

    >>> reduction_tree(8)
    [[(1, 0), (3, 2), (5, 4), (7, 6)], [(2, 0), (6, 4)], [(4, 0)]]
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be positive")
    stages: List[List[Tuple[int, int]]] = []
    step = 1
    while step < num_gpus:
        stage = [
            (i + step, i)
            for i in range(0, num_gpus, 2 * step)
            if i + step < num_gpus
        ]
        stages.append(stage)
        step *= 2
    return stages


def _split_chunks(nbytes: int, chunk: int) -> List[int]:
    """Chunk sizes for a transfer of ``nbytes``."""
    if nbytes <= 0:
        return [0]
    full, rest = divmod(nbytes, chunk)
    return [chunk] * full + ([rest] if rest else [])


class P2PCommunicator(Communicator):
    """P2P direct-transfer weight synchronization (paper's "P2P")."""

    name = "p2p"
    #: Arrays of at least this many elements take the sharded path.
    bigarray_bound: float = BIGARRAY_BOUND_ELEMENTS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        with PERF.span("p2p.plan"):
            self.router = Router(self.fabric.topology)
            # Driver-side DMA dispatch is serialized per source GPU.
            self._dispatch: Dict[int, Resource] = {
                d.index: Resource(self.env) for d in self.devices
            }
            n = self.num_gpus
            self._reduce_stages = self._plan_stages(n)
            # Device index at each tree position, and each index's device.
            self._index_at = [d.index for d in self.devices]
            self._device_by_index = {d.index: d for d in self.devices}
            # children[parent] = [(child, stage_index), ...]
            self._children: Dict[int, List[int]] = {d.index: [] for d in self.devices}
            for stage in self._reduce_stages:
                for src, dst in stage:
                    self._children[self._index_at[dst]].append(self._index_at[src])
            # Route per (src, dst) device pair, looked up on first use.
            self._routes: Dict[Tuple[int, int], Route] = {}
        # Per-chunk barrier on a receiving GPU: children still to arrive.
        self._pending_children: Dict[Event, int] = {}
        self._check("comm.p2p.plan", stages=self._reduce_stages, num_gpus=n)

    def _plan_stages(self, num_gpus: int) -> List[List[Tuple[int, int]]]:
        """The reduction schedule as stages of ``(src, dst)`` positions.

        Subclasses (the flat-star parameter server) override this; the
        broadcast always runs the reversed schedule.
        """
        return reduction_tree(num_gpus)

    def _route(self, src: int, dst: int) -> Route:
        """The route from device ``src`` to device ``dst``."""
        route = self._routes.get((src, dst))
        if route is None:
            topology = self.fabric.topology
            route = self._routes[(src, dst)] = self.router.gpu_to_gpu(
                topology.gpu(src), topology.gpu(dst))
        return route

    # ------------------------------------------------------------------
    # Weight-update path
    # ------------------------------------------------------------------
    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        if self.num_gpus == 1:
            # Single GPU: just the local SGD update.
            yield from self.server.run_kernel(self._update_kernel(array))
            return
        if array.numel >= self.bigarray_bound:
            yield from self._sharded_sync(array)
            return
        yield from self._tree_reduce(array)
        yield from self.server.run_kernel(self._update_kernel(array))
        yield from self._tree_broadcast(array)

    # ------------------------------------------------------------------
    # Sharded path (MXNet's big-array bound)
    # ------------------------------------------------------------------
    def _sharded_sync(self, array: WeightArray) -> Generator[Event, None, None]:
        """Reduce-scatter + update + all-gather for a sharded big array.

        Shard ``j`` lives on GPU ``j``: every other GPU DMAs its piece of
        the gradient there (phase 1), the owner accumulates and updates
        (phase 2), then DMAs the fresh weights back to everyone (phase 3).
        Owners proceed independently, so phase 3 of one shard overlaps
        phase 1 of another.
        """
        shard_bytes = -(-self._comm_bytes(array) // self.num_gpus)
        owners = [
            self.env.process(self._shard_owner(array, pos, shard_bytes))
            for pos in range(self.num_gpus)
        ]
        yield self.env.all_of(owners)

    def _shard_owner(
        self, array: WeightArray, owner_pos: int, shard_bytes: int
    ) -> Generator[Event, None, None]:
        owner = self.devices[owner_pos]
        receives = [
            self.env.process(
                self._shard_transfer(array, self.devices[src].index, owner.index,
                                     shard_bytes)
            )
            for src in range(self.num_gpus)
            if src != owner_pos
        ]
        yield self.env.all_of(receives)
        accumulate, update = self._shard_kernels(array, owner_pos,
                                                 shard_bytes)
        yield from owner.run_kernel(accumulate)
        yield from owner.run_kernel(update)
        sends = [
            self.env.process(
                self._shard_transfer(array, owner.index, self.devices[dst].index,
                                     shard_bytes)
            )
            for dst in range(self.num_gpus)
            if dst != owner_pos
        ]
        yield self.env.all_of(sends)

    @run_constant
    def _shard_kernels(self, array: WeightArray, owner_pos: int,
                       shard_bytes: int) -> Tuple[KernelSpec, KernelSpec]:
        """The shard owner's accumulate and update kernels."""
        shard_numel = -(-array.numel // self.num_gpus)
        n_in = self.num_gpus - 1
        accumulate = KernelSpec(
            name=f"grad_add.{array.name}.shard{owner_pos}",
            layer=array.layer,
            stage="wu",
            duration=self.cost_model.kernel_time(
                flops=float(shard_numel * n_in),
                bytes_moved=shard_bytes * (n_in + 2),
                matmul=False,
            ),
            flops=float(shard_numel * n_in),
            bytes_moved=shard_bytes * (n_in + 2),
        )
        update = KernelSpec(
            name=f"{self.optimizer.name}_update.{array.name}.shard{owner_pos}",
            layer=array.layer,
            stage="wu",
            duration=self.cost_model.kernel_time(
                flops=self.optimizer.flops_per_param * shard_numel,
                bytes_moved=self.optimizer.memory_passes * shard_bytes,
                matmul=False,
            ),
            flops=self.optimizer.flops_per_param * shard_numel,
            bytes_moved=self.optimizer.memory_passes * shard_bytes,
        )
        return accumulate, update

    def _shard_transfer(
        self, array: WeightArray, src: int, dst: int, nbytes: int
    ) -> Generator[Event, None, None]:
        route = self._route(src, dst)
        yield from self._dispatch[src].hold(self.constants.p2p_copy_setup)
        start = self.env.now
        yield from self.fabric.pipelined_transfer(route, nbytes, P2P_CHUNK_BYTES)
        self._record_transfer("p2p", src, dst, nbytes, start, self.env.now)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def _tree_reduce(self, array: WeightArray) -> Generator[Event, None, None]:
        """Gradients flow up the binomial tree onto GPU0, chunk-pipelined."""
        chunks = _split_chunks(self._comm_bytes(array), P2P_CHUNK_BYTES)
        # ready[gpu][c]: chunk c of the partial sum is complete on gpu;
        # None for a leaf, whose own gradient is already there.
        ready: Dict[int, Optional[List[Event]]] = {}
        for dev in self.devices:
            n_children = len(self._children[dev.index])
            if n_children:
                ready[dev.index] = [self.env.event() for _ in chunks]
                self._pending_children.update(
                    dict.fromkeys(ready[dev.index], n_children))
            else:
                ready[dev.index] = None

        edge_processes = []
        for stage in self._reduce_stages:
            for src_pos, dst_pos in stage:
                src, dst = self._index_at[src_pos], self._index_at[dst_pos]
                edge_processes.append(
                    self.env.process(
                        self._reduce_edge(array, src, dst, chunks, ready,
                                          self._device_by_index[dst])
                    )
                )
        yield self.env.all_of(edge_processes)

    def _reduce_edge(
        self,
        array: WeightArray,
        src: int,
        dst: int,
        chunks: List[int],
        ready: Dict[int, Optional[List[Event]]],
        dst_device,
    ) -> Generator[Event, None, None]:
        """One tree edge: dispatch setup, pipelined chunks, add on parent."""
        route = self._route(src, dst)
        yield from self._dispatch[src].hold(self.constants.p2p_copy_setup)
        env = self.env
        start = env.now
        for c, chunk_bytes in enumerate(chunks):
            if ready[src] is not None:
                yield ready[src][c]
            for leg in route.legs:
                yield from self.fabric.dma(leg, chunk_bytes)
            self._chunk_arrived(ready[dst][c])
        self._record_transfer("p2p", src, dst, sum(chunks), start, env.now)
        # Accumulate on the parent's compute engine (contends with BP).
        yield from dst_device.run_kernel(
            self._add_kernel(array, src, dst))

    def _chunk_arrived(self, event: Event) -> None:
        """Count down the per-chunk barrier on the receiving GPU."""
        pending = self._pending_children.pop(event)
        if pending > 1:
            self._pending_children[event] = pending - 1
        else:
            event.succeed()

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def _tree_broadcast(self, array: WeightArray) -> Generator[Event, None, None]:
        """Updated weights flow down the reversed tree, chunk-pipelined."""
        chunks = _split_chunks(self._comm_bytes(array), P2P_CHUNK_BYTES)
        # have[gpu][c]: chunk c of the weights is on gpu; None for the
        # server, which holds them all.
        have: Dict[int, Optional[List[Event]]] = {
            dev.index: (None if dev.index == self.server.index
                        else [self.env.event() for _ in chunks])
            for dev in self.devices}

        edge_processes = []
        for stage in reversed(self._reduce_stages):
            for src_pos, dst_pos in stage:
                # Reversed edge: the reduce destination now sends.
                sender, receiver = self._index_at[dst_pos], self._index_at[src_pos]
                edge_processes.append(
                    self.env.process(
                        self._broadcast_edge(array, sender, receiver, chunks, have)
                    )
                )
        yield self.env.all_of(edge_processes)

    def _broadcast_edge(
        self,
        array: WeightArray,
        src: int,
        dst: int,
        chunks: List[int],
        have: Dict[int, Optional[List[Event]]],
    ) -> Generator[Event, None, None]:
        route = self._route(src, dst)
        yield from self._dispatch[src].hold(self.constants.p2p_copy_setup)
        env = self.env
        start = env.now
        for c, chunk_bytes in enumerate(chunks):
            if have[src] is not None:
                yield have[src][c]
            for leg in route.legs:
                yield from self.fabric.dma(leg, chunk_bytes)
            have[dst][c].succeed()
        self._record_transfer("p2p", src, dst, sum(chunks), start, env.now)
