"""Inter-GPU communication methods for the weight-update stage.

Two implementations of the :class:`~repro.comm.base.Communicator` interface
match the paper's comparison:

* :class:`~repro.comm.p2p.P2PCommunicator` -- MXNet's ``device`` KVStore:
  cudaMemcpyPeer DMAs arranged as a binomial reduction tree onto GPU0,
  an SGD update on GPU0, and a binomial broadcast tree back out.
* :class:`~repro.comm.nccl.NcclCommunicator` -- MXNet's ``nccl`` KVStore:
  topology-aware ring Reduce/Broadcast collectives with chunk pipelining,
  per-call launch overhead and a per-run communicator-setup cost.

A third method, :class:`~repro.comm.local.LocalCommunicator` (MXNet's
``local`` KVStore: CPU aggregation over PCIe), serves as the PCIe-era
baseline the paper's background section contrasts against.
"""

from repro.comm.base import Communicator
from repro.comm.local import LocalCommunicator
from repro.comm.nccl import (
    HierarchicalNcclCommunicator,
    NcclAllReduceCommunicator,
    NcclCommunicator,
)
from repro.comm.p2p import P2PCommunicator, reduction_tree
from repro.comm.ps import PsGpuCommunicator

__all__ = [
    "Communicator",
    "HierarchicalNcclCommunicator",
    "LocalCommunicator",
    "NcclAllReduceCommunicator",
    "NcclCommunicator",
    "P2PCommunicator",
    "PsGpuCommunicator",
    "reduction_tree",
]

#: The factory's keys and the classes they build.
_COMMUNICATORS = {
    "p2p": P2PCommunicator,
    "ps-gpu": PsGpuCommunicator,
    "nccl": NcclCommunicator,
    "local": LocalCommunicator,
    "nccl-allreduce": NcclAllReduceCommunicator,
    "nccl-hierarchical": HierarchicalNcclCommunicator,
}

#: Keyword arguments only the hierarchical cluster communicator takes.
_CLUSTER_KWARGS = (
    "cluster_nodes", "rails", "rail_bandwidth", "rail_latency",
    "inter_algorithm", "fast_path",
)


def make_communicator(name, *args, **kwargs) -> Communicator:
    """Factory keyed by :class:`~repro.core.config.CommMethodName` or string.

    The NCCL-family constructors additionally take ``algorithm`` /
    ``protocol`` keywords (the :class:`~repro.core.config.TrainingConfig`
    fidelity knobs) and the hierarchical communicator its cluster
    keywords; unsupported keywords are silently dropped for the methods
    that have no such selection space.
    """
    key = getattr(name, "value", name)
    if key not in _COMMUNICATORS:
        raise ValueError(f"unknown communication method {name!r}")
    if key not in ("nccl", "nccl-allreduce"):
        kwargs.pop("algorithm", None)
        kwargs.pop("protocol", None)
    if key != "nccl-hierarchical":
        for cluster_kwarg in _CLUSTER_KWARGS:
            kwargs.pop(cluster_kwarg, None)
    return _COMMUNICATORS[key](*args, **kwargs)
