"""GPU parameter server: flat-star P2P reduction onto GPU0.

The ``ps-gpu`` strategy promotes the parameter-server execution model to
a first-class synchronous strategy (tensorpack's
``SyncMultiGPUTrainerParameterServer`` with the server pinned to a GPU):
every worker DMAs its full gradient straight to GPU0 in one stage, GPU0
runs the optimizer update, and the fresh weights fan back out -- no tree
stages, no big-array sharding.  Compared with the binomial ``p2p-tree``
schedule this trades stage parallelism for schedule simplicity: all
N-1 transfers land on GPU0's links and its dispatch thread, which is
exactly the GPU0 hot spot the paper measures, amplified.

Implementation-wise this is the :class:`~repro.comm.p2p.P2PCommunicator`
machinery with a one-stage star schedule and the sharded big-array path
disabled (a parameter server keeps whole arrays on the server).
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.comm.p2p import P2PCommunicator


class PsGpuCommunicator(P2PCommunicator):
    """Flat-star parameter-server synchronization with a GPU0 server."""

    name = "ps-gpu"
    # Whole arrays always aggregate on the server: no big-array sharding.
    bigarray_bound = math.inf

    def _plan_stages(self, num_gpus: int) -> List[List[Tuple[int, int]]]:
        """One stage: every worker position sends straight to position 0."""
        if num_gpus <= 1:
            return []
        return [[(src, 0) for src in range(1, num_gpus)]]
