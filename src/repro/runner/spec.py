"""Declarative sweep specifications.

A :class:`SweepSpec` names the full set of training simulations an
experiment needs -- the cross-product grids behind Figures 3-5 and
Tables II-III as much as the hand-picked point lists of the extension
studies.  Specs are plain data: building one runs nothing, so the same
spec can be executed serially, on a process pool, or answered entirely
from a persistent cache by :class:`~repro.runner.runner.SweepRunner`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.config import (
    CommMethodName,
    ScalingMode,
    TrainingConfig,
)

class OomPolicy(str, enum.Enum):
    """What a sweep does when a point raises :class:`OutOfMemoryError`.

    The paper itself needs all three behaviours: the headline sweeps must
    never OOM (``RAISE``), Table IV reports *which* configurations OOM
    (``RECORD``), and exploratory sweeps simply skip untrainable points
    (``SKIP``).
    """

    RAISE = "raise"
    SKIP = "skip"
    RECORD = "record"


class FailurePolicy(str, enum.Enum):
    """What a sweep does when a point crashes or times out.

    Unlike OOM (an expected, physical outcome the paper itself reports),
    a crash is exceptional -- but one bad point must not abort a
    many-point sweep, so the default is ``RECORD``: the point is retried
    with backoff (see :class:`~repro.runner.runner.SweepRunner`) and, if
    it keeps failing, recorded as a :class:`FailureInfo` outcome while
    the rest of the sweep completes.  ``RAISE`` re-raises as
    :class:`~repro.core.errors.SweepPointError` after the whole sweep
    ran; ``SKIP`` silently drops failed points from the results.
    """

    RAISE = "raise"
    SKIP = "skip"
    RECORD = "record"


def _freeze(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class OomInfo:
    """Details of one recorded out-of-memory failure."""

    device: str
    requested: int
    free: int
    message: str


@dataclass(frozen=True)
class FailureInfo:
    """Details of one sweep point that failed after exhausting retries.

    Carried as plain data because worker exceptions do not reliably
    survive the process pool's pickle round-trip.  Failures are
    considered transient and are never written to the persistent cache
    or the in-process memo -- a re-run re-attempts the point.
    """

    error_type: str       # exception class name, e.g. "WorkerCrashError"
    message: str          # one-line failure description
    attempts: int         # execution attempts made (1 = no retries)
    timed_out: bool = False


@dataclass(frozen=True)
class SweepPoint:
    """One simulation in a sweep.

    ``config`` is the training configuration; ``overrides`` are extra
    :class:`~repro.train.trainer.Trainer` keyword arguments (GPU spec,
    topology builder, custom network, ...) stored as a sorted tuple of
    ``(name, value)`` pairs so the point stays hashable; ``tags`` are
    free-form labels the experiment attaches for later lookup -- they do
    not influence execution.  The execution model (synchronous or async
    parameter server) is ``config.strategy``.
    """

    config: TrainingConfig
    overrides: Tuple[Tuple[str, Any], ...] = ()
    tags: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        config: TrainingConfig,
        overrides: Optional[Mapping[str, Any]] = None,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> "SweepPoint":
        """Build a point from plain dicts (the ergonomic constructor)."""
        return cls(
            config=config,
            overrides=_freeze(overrides),
            tags=_freeze(tags),
        )

    def override_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def tag_dict(self) -> Dict[str, Any]:
        return dict(self.tags)

    def describe(self) -> str:
        """Short human-readable label, e.g. ``lenet/b16/g4/nccl+faults``."""
        extra = "+" + ",".join(k for k, _ in self.overrides) if self.overrides else ""
        return f"{self.config.describe()}{extra}"


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered collection of sweep points plus failure policies."""

    name: str
    points: Tuple[SweepPoint, ...] = ()
    oom_policy: OomPolicy = OomPolicy.RAISE
    failure_policy: FailurePolicy = FailurePolicy.RECORD

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __add__(self, other: "SweepSpec") -> "SweepSpec":
        """Concatenate two specs (the stricter policies win)."""
        policy = (
            OomPolicy.RAISE
            if OomPolicy.RAISE in (self.oom_policy, other.oom_policy)
            else self.oom_policy
        )
        failure = (
            FailurePolicy.RAISE
            if FailurePolicy.RAISE in (self.failure_policy, other.failure_policy)
            else self.failure_policy
        )
        return SweepSpec(
            name=f"{self.name}+{other.name}",
            points=self.points + other.points,
            oom_policy=policy,
            failure_policy=failure,
        )

    @classmethod
    def explicit(
        cls,
        name: str,
        points: Sequence[SweepPoint],
        oom_policy: OomPolicy = OomPolicy.RAISE,
        failure_policy: FailurePolicy = FailurePolicy.RECORD,
    ) -> "SweepSpec":
        """A spec from hand-constructed points (extension studies)."""
        return cls(name=name, points=tuple(points), oom_policy=oom_policy,
                   failure_policy=failure_policy)

    @classmethod
    def grid(
        cls,
        name: str,
        networks: Sequence[str],
        batch_sizes: Sequence[int],
        gpu_counts: Sequence[int],
        comm_methods: Sequence[CommMethodName] = (CommMethodName.NCCL,),
        scalings: Sequence[ScalingMode] = (ScalingMode.STRONG,),
        oom_policy: OomPolicy = OomPolicy.RAISE,
        config_extra: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> "SweepSpec":
        """The cross-product sweep the paper's artifacts are built from.

        Iteration order is deterministic and canonical: network, then
        communication method, then scaling mode, then batch size, then
        GPU count -- the same nesting every experiment module used to
        hand-roll.  ``config_extra`` passes fixed additional
        :class:`TrainingConfig` fields (``cluster_nodes``,
        ``overlap_bp_wu``, ...); ``overrides``/``tags`` apply to every
        point.
        """
        extra = dict(config_extra or {})
        frozen_overrides = _freeze(overrides)
        frozen_tags = _freeze(tags)
        points = tuple(
            SweepPoint(
                config=TrainingConfig(
                    network=network,
                    batch_size=batch,
                    num_gpus=gpus,
                    comm_method=method,
                    scaling=scaling,
                    **extra,
                ),
                overrides=frozen_overrides,
                tags=frozen_tags,
            )
            for network, method, scaling, batch, gpus in itertools.product(
                networks, comm_methods, scalings, batch_sizes, gpu_counts
            )
        )
        return cls(name=name, points=points, oom_policy=oom_policy)
