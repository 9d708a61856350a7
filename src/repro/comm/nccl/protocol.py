"""The NCCL algorithm x protocol fidelity layer.

NCCL does not run "one collective": per message it chooses an
*algorithm* (Ring or Tree schedule over the topology) and a *wire
protocol* (how bytes travel each hop), then pipelines the message
through the schedule in chunks.  The three protocols trade latency
against payload efficiency:

============  ===================  =======================================
protocol      wire efficiency      per-hop behaviour
============  ===================  =======================================
``simple``    1.0 (full lines)     receiver must fence + flush per hop:
                                   highest hop latency, full bandwidth
``ll``        0.5 (4B data + 4B    receiver polls inline flags: lowest
              flag per 8B word)    latency, half the wire is flags
``ll128``     0.9375 (120B data    NVLink-only 128B atomic stores: near-
              per 128B line)       full bandwidth at low latency
============  ===================  =======================================

This module is pure cost arithmetic -- no simulation state.  It provides

* :class:`ProtocolSpec` / :func:`protocol_table` -- the per-protocol
  latency/bandwidth/flush constants, built from
  :class:`~repro.core.constants.CalibrationConstants`;
* :func:`ring_collective_time` / :func:`tree_collective_time` -- the
  chunk-pipelined alpha-beta cost of one collective, replacing the
  whole-message store-and-forward view (a message larger than
  ``nccl_chunk_bytes`` is split into chunks that overlap across hops, so
  a deep schedule only pays the pipeline fill once);
* :func:`ring_hop_bytes` / :func:`tree_hop_bytes` -- exact integer
  per-hop byte schedules (what each directed hop carries), used for
  event emission and byte-conservation tests.  Both algorithms move the
  same wire total for the same gradient: ``2*(N-1)*S``.

The legacy "compat" path never calls into this module, which is what
keeps the calibrated paper figures byte-stable (see docs/COMM.md).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.constants import CALIBRATION, CalibrationConstants


class NcclAlgorithm(str, enum.Enum):
    """Collective schedule shape: ring or spanning tree."""

    RING = "ring"
    TREE = "tree"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class NcclProtocol(str, enum.Enum):
    """Wire protocol: Simple, LL (low latency) or LL128."""

    SIMPLE = "simple"
    LL = "ll"
    LL128 = "ll128"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ProtocolSpec:
    """Cost profile of one wire protocol.

    ``bandwidth_ratio`` is the fraction of raw link bandwidth carrying
    payload; ``hop_latency`` is the per-hop handshake cost; ``flush_cost``
    is the once-per-collective fence/flush; ``max_bytes`` caps eligible
    message sizes (``None`` = unlimited); ``nvlink_only`` protocols are
    unavailable on plans that fall back to PCIe or InfiniBand.
    """

    protocol: NcclProtocol
    bandwidth_ratio: float
    hop_latency: float
    flush_cost: float
    max_bytes: Optional[int] = None
    nvlink_only: bool = False


def protocol_table(
    constants: CalibrationConstants = CALIBRATION,
) -> Dict[NcclProtocol, ProtocolSpec]:
    """The three protocol cost profiles under ``constants``."""
    return {
        NcclProtocol.SIMPLE: ProtocolSpec(
            protocol=NcclProtocol.SIMPLE,
            bandwidth_ratio=1.0,
            hop_latency=constants.nccl_simple_hop_latency,
            flush_cost=constants.nccl_simple_flush_cost,
        ),
        NcclProtocol.LL: ProtocolSpec(
            protocol=NcclProtocol.LL,
            bandwidth_ratio=constants.nccl_ll_bandwidth_ratio,
            hop_latency=constants.nccl_ll_hop_latency,
            flush_cost=0.0,
            max_bytes=constants.nccl_ll_max_bytes,
        ),
        NcclProtocol.LL128: ProtocolSpec(
            protocol=NcclProtocol.LL128,
            bandwidth_ratio=constants.nccl_ll128_bandwidth_ratio,
            hop_latency=constants.nccl_ll128_hop_latency,
            flush_cost=0.0,
            nvlink_only=True,
        ),
    }


# ----------------------------------------------------------------------
# Chunk-pipelined collective cost
# ----------------------------------------------------------------------
def _pipelined_time(
    unit_bytes: int,
    steps: int,
    chunk_bytes: int,
    effective_bandwidth: float,
    hop_latency: float,
) -> float:
    """Time for a ``unit_bytes`` payload to cross a ``steps``-deep
    pipeline of identical hops, split into ``chunk_bytes`` chunks.

    The classic fill+drain model: ``(steps + chunks - 1)`` chunk slots,
    each costing one hop handshake plus one chunk's wire time.  With one
    chunk this degenerates to store-and-forward; with many chunks the
    wire term approaches ``unit_bytes / bandwidth`` and only the fill
    pays the extra hops.
    """
    if unit_bytes <= 0 or steps <= 0:
        return 0.0
    chunks = max(1, math.ceil(unit_bytes / chunk_bytes))
    per_chunk = (unit_bytes / chunks) / effective_bandwidth
    return (steps + chunks - 1) * (hop_latency + per_chunk)


def ring_collective_time(
    collective: str,
    nbytes: int,
    size: int,
    aggregate_bandwidth: float,
    proto: ProtocolSpec,
    constants: CalibrationConstants = CALIBRATION,
) -> float:
    """Chunk-pipelined ring collective under one protocol.

    AllReduce runs reduce-scatter + all-gather: ``2(N-1)`` steps moving
    ``S/N`` segments, the bandwidth-optimal ``2(N-1)/N * S`` per channel.
    Root-bound Reduce/Broadcast stream the full payload around the ring:
    ``N-1`` steps, ``S`` on the wire.
    """
    if size < 2:
        return constants.nccl_single_gpu_kernel
    bw = aggregate_bandwidth * proto.bandwidth_ratio
    if collective == "allreduce":
        steps = 2 * (size - 1)
        unit = max(1, nbytes // size)   # one ring segment per step
    else:
        steps = size - 1
        unit = nbytes
    pipe = _pipelined_time(unit, steps, constants.nccl_chunk_bytes, bw, proto.hop_latency)
    return constants.nccl_call_overhead + proto.flush_cost + pipe


def tree_collective_time(
    collective: str,
    nbytes: int,
    depth: int,
    aggregate_bandwidth: float,
    proto: ProtocolSpec,
    constants: CalibrationConstants = CALIBRATION,
) -> float:
    """Chunk-pipelined tree collective under one protocol.

    Reduce climbs ``depth`` hops toward the root, Broadcast descends
    them, AllReduce does both back to back.  Chunks pipeline down the
    tree, so each direction costs one ``depth``-deep pipeline of the
    full payload -- ``2S`` on the wire for AllReduce versus the ring's
    ``2(N-1)/N * S``, but with logarithmic rather than linear step count.
    """
    if depth < 1:
        return constants.nccl_single_gpu_kernel
    bw = aggregate_bandwidth * proto.bandwidth_ratio
    directions = 2 if collective == "allreduce" else 1
    pipe = _pipelined_time(
        nbytes, depth, constants.nccl_chunk_bytes, bw, proto.hop_latency
    )
    return constants.nccl_call_overhead + proto.flush_cost + directions * pipe


# ----------------------------------------------------------------------
# Exact wire-byte schedules
# ----------------------------------------------------------------------
def _segments(nbytes: int, parts: int) -> List[int]:
    """Split ``nbytes`` into ``parts`` integer segments summing exactly."""
    base, rem = divmod(nbytes, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def ring_hop_bytes(
    collective: str, nbytes: int, size: int, hop: int
) -> List[Tuple[int, int]]:
    """Exact ``(step, bytes)`` schedule of ring hop ``hop``.

    AllReduce rotates the ``N`` integer segments of the payload around
    the ring: at step ``s`` the hop leaving ring position ``hop`` carries
    segment ``(hop - s) mod N``, for ``2(N-1)`` steps -- so each *step*
    moves exactly ``S`` across all hops and the sweep total is exactly
    ``2(N-1)*S`` even when ``S`` does not divide evenly.  Root-bound
    Reduce/Broadcast stream the full payload through ``N-1`` sequential
    step windows.
    """
    if size < 2 or nbytes <= 0:
        return []
    if collective == "allreduce":
        segments = _segments(nbytes, size)
        return [
            (step, segments[(hop - step) % size])
            for step in range(2 * (size - 1))
        ]
    return [(step, nbytes) for step in range(size - 1)]


def ring_wire_total(collective: str, nbytes: int, size: int) -> int:
    """Total bytes all ring links move for one collective.

    AllReduce: each of the ``2(N-1)`` steps moves every segment exactly
    once across the ``N`` directed hops -- ``2(N-1)*S`` overall, exactly
    (integer segment split included).
    """
    if size < 2 or nbytes <= 0:
        return 0
    if collective == "allreduce":
        return _ring_allreduce_total(nbytes, size)
    # Root-bound stream: the payload crosses N-1 hops once.
    return (size - 1) * nbytes


@functools.lru_cache(maxsize=1024)
def _ring_allreduce_total(nbytes: int, size: int) -> int:
    """The AllReduce schedule summed hop by hop: an enumeration, not the
    closed form the conservation checker compares it with; memoized."""
    return sum(b for hop in range(size)
               for _, b in ring_hop_bytes("allreduce", nbytes, size, hop))


def tree_hop_bytes(
    collective: str, nbytes: int, num_edges: int
) -> List[Tuple[int, int, int]]:
    """Exact ``(edge, direction, bytes)`` schedule over tree edges.

    Direction 0 is child -> parent (reduce), 1 is parent -> child
    (broadcast).  Every edge carries the full payload once per active
    direction, so AllReduce moves ``2*(N-1)*S`` in total -- the same
    wire total as the ring (see :func:`ring_wire_total`).
    """
    if num_edges < 1 or nbytes <= 0:
        return []
    out: List[Tuple[int, int, int]] = []
    directions: Tuple[int, ...]
    if collective == "allreduce":
        directions = (0, 1)
    elif collective == "reduce":
        directions = (0,)
    else:
        directions = (1,)
    for direction in directions:
        for edge in range(num_edges):
            out.append((edge, direction, nbytes))
    return out


@functools.lru_cache(maxsize=1024)
def tree_wire_total(collective: str, nbytes: int, num_edges: int) -> int:
    """Total bytes all tree edges move for one collective (memoized)."""
    return sum(b for _, _, b in tree_hop_bytes(collective, nbytes, num_edges))
