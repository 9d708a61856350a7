"""Runtime evaluation of a :class:`~repro.faults.plan.FaultPlan`.

The injector answers point-in-time queries -- which links are degraded at
``t``, how slow is GPU *i* at ``t``, what ECC penalty does a kernel pay --
without mutating anything.  The trainer samples it at fault-segment
boundaries (continuous faults are piecewise-constant between plan
activation times, so sampling the segment start characterizes the whole
segment) and :class:`~repro.gpu.device.GpuDevice` consults the derived
per-segment models on every kernel.

Activation windows are half-open: a fault with ``at=5, until=9`` is
active for ``5 <= t < 9``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.plan import (
    CrashFault,
    EccFault,
    FaultPlan,
    LinkFault,
    NodeCrashFault,
    RailFault,
    StragglerFault,
)
from repro.topology.cluster import GPUS_PER_NODE


@dataclass(frozen=True)
class EccModel:
    """The combined ECC-retry penalty one GPU pays during one segment.

    ``delay(kernel)`` is what :class:`~repro.gpu.device.GpuDevice` adds to
    a kernel's duration: active faults' retry latencies summed, charged
    only to memory-bound kernels (arithmetic intensity below the ridge).
    """

    retry_latency: float
    intensity_ridge: float

    def delay(self, kernel) -> float:
        """Extra seconds ``kernel`` pays under this ECC regime."""
        if kernel.bytes_moved <= 0:
            return 0.0
        if kernel.flops / kernel.bytes_moved >= self.intensity_ridge:
            return 0.0
        return self.retry_latency


class FaultInjector:
    """Deterministic point-in-time view over a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------
    # Segmenting
    # ------------------------------------------------------------------
    def boundaries(self) -> Tuple[float, ...]:
        """Epoch-timeline instants where the active fault set changes."""
        return self.plan.boundaries()

    def _continuous(self):
        return (*self.plan.link_faults, *self.plan.stragglers,
                *self.plan.ecc_faults, *self.plan.rail_faults,
                *self.plan.node_stragglers)

    def active_labels(self, now: float) -> Tuple[str, ...]:
        """Labels of every continuous fault active at ``now``."""
        return tuple(
            f.label() for f in self._continuous() if f.at <= now < f.until
        )

    def activated_between(self, start: float, end: float) -> Tuple[str, ...]:
        """Labels of faults whose activation lies in ``(start, end]``."""
        return tuple(
            f.label() for f in self._continuous() if start < f.at <= end
        )

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def _active_link_faults(self, now: float) -> Tuple[LinkFault, ...]:
        return tuple(
            f for f in self.plan.link_faults if f.at <= now < f.until
        )

    def link_scale(self, link_name: str, now: float) -> float:
        """Bandwidth multiplier for ``link_name`` at ``now`` (1 = healthy).

        Overlapping faults on the same link compound by taking the most
        severe (minimum) scale; 0 means the link is down.
        """
        scales = [
            f.bandwidth_scale
            for f in self._active_link_faults(now)
            if f.link == link_name
        ]
        return min(scales) if scales else 1.0

    def failed_links(self, now: float) -> frozenset:
        """Names of links that are outright down at ``now``."""
        return frozenset(
            f.link for f in self._active_link_faults(now) if f.is_failure
        )

    def degrades_links(self, now: float) -> bool:
        return bool(self._active_link_faults(now))

    # ------------------------------------------------------------------
    # Rail faults (cluster tier)
    # ------------------------------------------------------------------
    def _active_rail_faults(self, now: float) -> Tuple[RailFault, ...]:
        return tuple(
            f for f in self.plan.rail_faults if f.at <= now < f.until
        )

    def rail_scales(self, rails: int, now: float) -> Tuple[float, ...]:
        """Per-rail bandwidth multipliers at ``now`` (all 1.0 = healthy).

        The inter-node rail-*r* ring paces at its slowest member, so
        every active rail fault on rail *r* -- whichever node's HCA it
        hits -- applies, and overlapping faults take the most severe
        (minimum) scale.  0 means the rail ring is down and its shard
        traffic re-rails (:func:`repro.comm.nccl.hierarchical.rail_assignment`).
        """
        scales = [1.0] * rails
        for f in self._active_rail_faults(now):
            if f.rail < rails:
                scales[f.rail] = min(scales[f.rail], f.bandwidth_scale)
        return tuple(scales)

    # ------------------------------------------------------------------
    # Stragglers / ECC
    # ------------------------------------------------------------------
    def gpu_factor(self, gpu: int, now: float) -> float:
        """Combined slowdown multiplier for ``gpu`` at ``now``.

        Overlapping stragglers compound multiplicatively (a preempted GPU
        can also be thermally throttled), and a node straggler on the
        GPU's chassis compounds with its per-GPU stragglers.
        """
        factor = 1.0
        for f in self.plan.stragglers:
            if f.gpu == gpu and f.at <= now < f.until:
                factor *= f.factor
        node = gpu // GPUS_PER_NODE
        for f in self.plan.node_stragglers:
            if f.node == node and f.at <= now < f.until:
                factor *= f.factor
        return factor

    def ecc_model(self, gpu: int, now: float) -> Optional[EccModel]:
        """The ECC penalty model for ``gpu`` at ``now``, or ``None``."""
        active = [
            f for f in self.plan.ecc_faults
            if f.gpu == gpu and f.at <= now < f.until
        ]
        if not active:
            return None
        return EccModel(
            retry_latency=sum(f.retry_latency for f in active),
            intensity_ridge=min(f.intensity_ridge for f in active),
        )

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------
    @property
    def crash(self) -> Optional[CrashFault]:
        return self.plan.crash

    @property
    def node_crash(self) -> Optional[NodeCrashFault]:
        return self.plan.node_crash
