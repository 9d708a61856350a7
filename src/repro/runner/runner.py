"""Sweep execution: serial or process-pool, memoized, disk-cached.

:class:`SweepRunner` is the single execution path for every experiment
sweep in the library.  It layers three result sources, checked in order:

1. an in-process memo,
2. an optional persistent :class:`~repro.runner.store.ResultStore`
   keyed by content fingerprint,
3. actual simulation -- serially by default, or on a
   ``concurrent.futures`` process pool when ``jobs > 1``.

A miss whose point differs from its steady-state twin only in epoch size
(scaling mode, dataset size; see :mod:`repro.train.steady`) is *derived*
from the twin instead: the twin is looked up in the same two sources,
executed at most once per batch if absent, and the point's result is the
twin's rebased onto the point's configuration.

The simulator is deterministic, so parallel execution returns results
identical to serial execution; outcomes are always assembled in spec
order regardless of completion order.  Progress is published as
``SweepPoint*`` events on an optional :class:`~repro.obs.bus.EventBus`.

The runner degrades gracefully around bad points: a crashing point is
retried with exponential backoff (``retries``) and, if it keeps failing,
recorded as a :class:`~repro.runner.spec.FailureInfo` outcome under the
spec's :class:`~repro.runner.spec.FailurePolicy` instead of aborting the
sweep; ``point_timeout`` bounds each point's wall-clock execution (the
point is recorded as timed out, the rest of the sweep continues).
Failures are transient by definition and are never memoized or written
to the persistent cache.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.checks.engine import CheckMode, merge_stats
from repro.core.config import (
    CommMethodName,
    ScalingMode,
    SimulationConfig,
    TrainingConfig,
)
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.core.errors import OutOfMemoryError, SweepInterrupted, SweepPointError
from repro.obs.bus import EventBus
from repro.obs.events import (
    SweepPointDone,
    SweepPointFailed,
    SweepPointOom,
    SweepPointRetry,
    SweepPointStart,
)
from repro.runner.fingerprint import point_fingerprint
from repro.runner.spec import (
    FailureInfo,
    FailurePolicy,
    OomInfo,
    OomPolicy,
    SweepPoint,
    SweepSpec,
)
from repro.perf.spans import PERF
from repro.runner.pool import PoolDriver, backoff_delay
from repro.runner.store import CacheEntry, ResultStore

#: What one executed/cached point yields: a result object, an OOM record,
#: or a (never-cached) failure record.
PointValue = Union["TrainingResult", OomInfo, FailureInfo]  # noqa: F821

#: Poll interval of the timeout-enforcing pool wait loop (wall seconds).
_TIMEOUT_POLL = 0.05


@contextlib.contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM as :class:`KeyboardInterrupt` while a sweep runs.

    SIGINT already raises ``KeyboardInterrupt``; routing SIGTERM through
    the same exception gives both signals the one graceful-shutdown path
    (flush completed points, report partials, exit 130).  Signal handlers
    can only be installed from the main thread; elsewhere (e.g. a sweep
    driven from a worker thread) this is a no-op and SIGTERM keeps its
    process-default behavior.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _raise_interrupt(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _execute_point(
    point: SweepPoint,
    sim: SimulationConfig,
    constants: CalibrationConstants,
    trainer_kwargs: Mapping[str, Any],
    invariants: str = "off",
) -> Tuple[PointValue, float, Dict[str, Tuple[int, int]]]:
    """Run one simulation (also the process-pool worker).

    OOM and crashes are returned as data rather than raised: custom
    exception constructors do not survive the pool's pickle round-trip,
    and the parent applies the spec's policies anyway.  The third element
    is the point's invariant-check statistics (plain picklable dict,
    empty when ``invariants="off"``); it is collected even when the point
    fails, so a strict-mode violation still reports which checks ran.
    """
    from repro.checks.engine import CheckEngine
    from repro.train.trainer import Trainer

    engine = CheckEngine(invariants)
    kwargs = dict(trainer_kwargs)
    kwargs.update(point.override_dict())
    if engine.enabled and "checks" not in kwargs:
        kwargs["checks"] = engine
    start = time.perf_counter()
    try:
        value: PointValue = Trainer(
            point.config, sim=sim, constants=constants, **kwargs
        ).run()
    except OutOfMemoryError as exc:
        value = OomInfo(
            device=exc.device, requested=exc.requested, free=exc.free,
            message=str(exc),
        )
    except Exception as exc:  # noqa: BLE001 - converted to data, re-raised by policy
        value = FailureInfo(
            error_type=type(exc).__name__, message=str(exc), attempts=1,
        )
    return value, time.perf_counter() - start, engine.stats_dict()


def steady_twin_point(
    point: SweepPoint,
    trainer_kwargs: Mapping[str, Any],
    invariants: str,
) -> Optional[SweepPoint]:
    """The point ``point`` can be derived from, or ``None``.

    Only points executed with invariant checks off qualify; the rest of
    the rule, which also requires a synchronous strategy, is
    :func:`~repro.train.steady.steady_twin` over the trainer keyword
    arguments the point would run with.
    """
    from repro.train.steady import steady_twin

    if invariants != "off":
        return None
    kwargs = dict(trainer_kwargs)
    kwargs.update(point.overrides)
    twin = steady_twin(point.config, kwargs)
    if twin is None:
        return None
    return dataclasses.replace(point, config=twin)


def derive_value(twin_value: PointValue, config: TrainingConfig) -> PointValue:
    """A point's value from its twin's: a rebased result, or the same OOM.

    OOM depends only on the network, batch and GPU count, and its record
    carries no epoch field, so the twin's record is the point's.
    """
    from repro.train.steady import rebase

    if isinstance(twin_value, OomInfo):
        return twin_value
    return rebase(twin_value, config)


@dataclass(frozen=True)
class PointOutcome:
    """One sweep point's result plus how it was obtained."""

    point: SweepPoint
    result: Optional[Any]        # TrainingResult | None on OOM
    source: str                  # "executed" | "memory" | "disk" | "derived"
    oom: Optional[OomInfo] = None
    elapsed: float = 0.0
    failure: Optional[FailureInfo] = None

    @property
    def ok(self) -> bool:
        return self.oom is None and self.failure is None


class SweepResults:
    """Outcomes of one executed spec, in spec order, with lookup helpers."""

    def __init__(self, name: str, outcomes: Tuple[PointOutcome, ...]) -> None:
        self.name = name
        self.outcomes = outcomes

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @staticmethod
    def _matches(outcome: PointOutcome, criteria: Mapping[str, Any]) -> bool:
        tags = outcome.point.tag_dict()
        for key, wanted in criteria.items():
            if key in tags:
                have: Any = tags[key]
            elif hasattr(outcome.point.config, key):
                have = getattr(outcome.point.config, key)
            else:
                return False
            if have != wanted:
                return False
        return True

    def outcomes_for(self, **criteria: Any) -> List[PointOutcome]:
        """Every outcome matching the criteria, in spec order.

        Criteria match, in precedence order, the point's tags, then
        :class:`TrainingConfig` fields; enum-valued fields
        compare equal to their string values (``comm_method="nccl"``).
        """
        return [o for o in self.outcomes if self._matches(o, criteria)]

    def outcome(self, **criteria: Any) -> PointOutcome:
        """The unique outcome matching the criteria (KeyError otherwise)."""
        found = self.outcomes_for(**criteria)
        if not found:
            raise KeyError(f"no sweep point matches {criteria!r}")
        if len(found) > 1:
            raise KeyError(
                f"{len(found)} sweep points match {criteria!r}; narrow the lookup"
            )
        return found[0]

    def result(self, **criteria: Any) -> Any:
        """The unique matching result; raises on OOM or failed points."""
        out = self.outcome(**criteria)
        if out.oom is not None:
            raise OutOfMemoryError(out.oom.device, out.oom.requested, out.oom.free)
        if out.failure is not None:
            raise SweepPointError(
                out.point.describe(), out.failure.attempts, out.failure.message
            )
        return out.result

    def try_result(self, **criteria: Any) -> Optional[Any]:
        """Like :meth:`result` but ``None`` for OOM, failed or missing points."""
        try:
            return self.result(**criteria)
        except (KeyError, OutOfMemoryError, SweepPointError):
            return None


@dataclass
class RunnerStats:
    """Where this runner's results came from (for progress reporting)."""

    executed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    #: Points answered from their steady-state twin's result.
    derived: int = 0
    oom: int = 0
    retried: int = 0
    failed: int = 0
    #: Wall-clock seconds spent actually simulating points this run.
    sim_seconds: float = 0.0
    #: Wall-clock seconds cache hits and derived points would have cost
    #: to simulate (summed from the ``perf`` metadata of the entries they
    #: were answered from -- a derived point's is its twin's; entries
    #: without metadata contribute 0).
    saved_seconds: float = 0.0
    #: Fault-injected points seen this run (executed or cache hits whose
    #: result carries a ``faults`` summary).
    faulted: int = 0
    #: Total modeled resilience overhead across those points (simulated
    #: seconds: re-ring transitions + crash recovery + checkpoints).
    fault_overhead: float = 0.0

    @property
    def total(self) -> int:
        return self.executed + self.memory_hits + self.disk_hits + self.derived

    def describe(self) -> str:
        base = (
            f"{self.executed} simulated, {self.disk_hits} from disk cache, "
            f"{self.memory_hits} memoized, {self.oom} OOM"
        )
        if self.derived:
            base += f", {self.derived} derived"
        if self.retried or self.failed:
            base += f", {self.retried} retried, {self.failed} failed"
        return base

    def describe_timing(self) -> Optional[str]:
        """One-line cache-hit/miss timing summary, or ``None`` if idle.

        Kept separate from :meth:`describe` (whose format downstream
        tooling matches) and only rendered once any wall-clock was
        actually spent or saved.
        """
        if self.sim_seconds <= 0.0 and self.saved_seconds <= 0.0:
            return None
        derived = (
            f" and {self.derived} derived point(s)" if self.derived else ""
        )
        return (
            f"timing: {self.sim_seconds:.2f}s simulating "
            f"({self.executed} point(s)), ~{self.saved_seconds:.2f}s "
            f"avoided by {self.memory_hits + self.disk_hits} cache hit(s)"
            f"{derived}"
        )

    def describe_faults(self) -> Optional[str]:
        """One-line recovery-breakdown summary, or ``None`` if no point
        this run (executed or replayed from cache) was fault-injected."""
        if not self.faulted:
            return None
        return (
            f"faults: {self.faulted} fault-injected point(s), "
            f"{self.fault_overhead:.2f}s modeled recovery overhead"
        )


class SweepRunner:
    """Executes :class:`SweepSpec` points with memoization and caching.

    Also provides a single-configuration interface (:meth:`get` /
    :meth:`try_get` / ``len``), so anchor validation and ad-hoc callers
    can fetch single configurations through the same memo the sweeps
    fill.
    """

    def __init__(
        self,
        sim: SimulationConfig = SimulationConfig(),
        constants: CalibrationConstants = CALIBRATION,
        trainer_kwargs: Optional[Mapping[str, Any]] = None,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        bus: Optional[EventBus] = None,
        retries: int = 1,
        retry_backoff: float = 0.05,
        point_timeout: Optional[float] = None,
        invariants: str = "off",
    ) -> None:
        """``retries`` is the number of *re*-executions granted to a
        crashing point (so a point runs at most ``retries + 1`` times);
        ``retry_backoff`` is the base of the exponential wall-clock
        backoff slept between attempts.  ``point_timeout`` bounds one
        point's wall-clock execution in seconds; a point that exceeds it
        is recorded as a timed-out failure (not retried -- the simulator
        is deterministic, so a hang would simply hang again) while the
        rest of the sweep continues.  Timeout enforcement routes the
        sweep through a process pool even when ``jobs=1``; the stuck
        worker process is abandoned and may run to completion in the
        background.

        ``invariants`` enables runtime physical-invariant verification
        (:mod:`repro.checks`) for every executed point: ``"off"``
        (default, zero overhead), ``"warn"`` (violations are recorded on
        each result and aggregated in :attr:`check_stats`) or
        ``"strict"`` (a violation fails the point, subject to the spec's
        failure policy; violating results are never cached).  The mode is
        deliberately *not* part of the cache fingerprint -- checks
        observe a run without changing its modeled numbers."""
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError(f"point_timeout must be positive, got {point_timeout}")
        self.sim = sim
        self.constants = constants
        self.trainer_kwargs: Dict[str, Any] = dict(trainer_kwargs or {})
        self.jobs = jobs
        self.store = store
        self.bus = bus
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.point_timeout = point_timeout
        self.invariants = CheckMode.parse(invariants).value
        self.stats = RunnerStats()
        #: Aggregated ``{invariant: [checked, violated]}`` across every
        #: point this runner executed (cache hits contribute nothing --
        #: their checks ran when the entry was first simulated).
        self.check_stats: Dict[str, List[int]] = {}
        #: Each memoized point's entry; its ``elapsed`` lets memory hits
        #: credit :attr:`RunnerStats.saved_seconds`.
        self._memo: Dict[str, CacheEntry] = {}

    def __len__(self) -> int:
        """Distinct results currently held in memory."""
        return len(self._memo)

    # ------------------------------------------------------------------
    # Sweep execution
    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResults:
        """Execute (or answer from cache) every point of ``spec``."""
        total = len(spec.points)
        outcomes: List[Optional[PointOutcome]] = [None] * total
        pending: List[Tuple[int, Optional[str], SweepPoint]] = []
        # Misses waiting on a twin that is not cached yet, with its key.
        waiting: List[Tuple[int, str, SweepPoint, str, SweepPoint]] = []

        for index, point in enumerate(spec.points):
            self._publish(SweepPointStart(
                sweep=spec.name, index=index, total=total,
                label=point.describe(),
            ))
            key = self._key(point)
            entry = self._lookup(key)
            if entry is None:
                twin = self._twin(point, key)
                if twin is None:
                    pending.append((index, key, point))
                    continue
                twin_key = self._key(twin)
                twin_entry = self._lookup(twin_key)
                if twin_entry is None:
                    waiting.append((index, key, point, twin_key, twin))
                    continue
                if twin_key not in self._memo:
                    self._promote(twin_key, twin_entry)
                self._derive(spec, index, total, point, key, twin_entry,
                             outcomes)
            else:
                source = "memory" if key in self._memo else "disk"
                if source == "disk":
                    self._promote(key, entry)  # for later lookups
                    self.stats.disk_hits += 1
                else:
                    self.stats.memory_hits += 1
                self.stats.saved_seconds += entry.elapsed
                self._note_faults(entry.value)
                self._finish(spec, index, total, point, entry.value, source,
                             0.0, outcomes)

        if pending or waiting:
            try:
                with _sigterm_as_interrupt():
                    self._execute_misses(spec, total, pending, waiting,
                                         outcomes)
            except KeyboardInterrupt:
                completed = sum(1 for o in outcomes if o is not None)
                print(
                    f"sweep {spec.name!r} interrupted: {completed}/{total} "
                    f"point(s) finished and flushed to the result store "
                    f"({self.stats.describe()})",
                    file=sys.stderr,
                )
                raise SweepInterrupted(spec.name, completed, total) from None

        final = [o for o in outcomes if o is not None]
        if spec.oom_policy is OomPolicy.RAISE:
            for outcome in final:
                if outcome.oom is not None:
                    raise OutOfMemoryError(
                        outcome.oom.device, outcome.oom.requested, outcome.oom.free
                    )
        elif spec.oom_policy is OomPolicy.SKIP:
            final = [o for o in final if o.oom is None]
        if spec.failure_policy is FailurePolicy.RAISE:
            for outcome in final:
                if outcome.failure is not None:
                    raise SweepPointError(
                        outcome.point.describe(),
                        outcome.failure.attempts,
                        outcome.failure.message,
                    )
        elif spec.failure_policy is FailurePolicy.SKIP:
            final = [o for o in final if o.failure is None]
        return SweepResults(name=spec.name, outcomes=tuple(final))

    # ------------------------------------------------------------------
    # Single-point interface
    # ------------------------------------------------------------------
    def run_point(self, point: SweepPoint) -> Any:
        """Execute one point (memo/disk-cached); raises on OOM."""
        results = self.run(SweepSpec(name="point", points=(point,)))
        return results.outcomes[0].result

    def get(
        self,
        network: str,
        batch_size: int,
        num_gpus: int,
        comm_method: CommMethodName,
        scaling: ScalingMode = ScalingMode.STRONG,
        overlap_bp_wu: bool = True,
    ) -> Any:
        """The (memoized) result for one configuration.

        Propagates :class:`~repro.core.errors.OutOfMemoryError` so callers
        can report untrainable configurations, as the paper does.
        """
        config = TrainingConfig(
            network=network,
            batch_size=batch_size,
            num_gpus=num_gpus,
            comm_method=comm_method,
            scaling=scaling,
            overlap_bp_wu=overlap_bp_wu,
        )
        return self.run_point(SweepPoint(config=config))

    def try_get(self, *args: Any, **kwargs: Any) -> Optional[Any]:
        """Like :meth:`get` but returns ``None`` on OOM."""
        try:
            return self.get(*args, **kwargs)
        except OutOfMemoryError:
            return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _key(self, point: SweepPoint) -> Optional[str]:
        return point_fingerprint(
            point, self.sim, self.constants, self.trainer_kwargs
        )

    def _twin(self, point: SweepPoint,
              key: Optional[str]) -> Optional[SweepPoint]:
        """The steady-state twin a cacheable miss derives from, if any."""
        if key is None:
            return None
        return steady_twin_point(point, self.trainer_kwargs, self.invariants)

    def _lookup(self, key: Optional[str]) -> Optional[CacheEntry]:
        if key is None:
            return None
        entry = self._memo.get(key)
        if entry is None and self.store is not None:
            entry = self.store.load_entry(key)
        return entry

    def _promote(self, key: str, entry: CacheEntry) -> None:
        """Memoize an entry loaded from the store."""
        self._memo[key] = entry

    def _derive(
        self,
        spec: SweepSpec,
        index: int,
        total: int,
        point: SweepPoint,
        key: str,
        twin: CacheEntry,
        outcomes: List[Optional[PointOutcome]],
    ) -> None:
        """Answer ``point`` from its twin's entry and record it."""
        value = derive_value(twin.value, point.config)
        self.stats.derived += 1
        self.stats.saved_seconds += twin.elapsed
        self._record(key, value, twin.elapsed)
        self._finish(spec, index, total, point, value, "derived", 0.0,
                     outcomes)

    def _record(
        self,
        key: Optional[str],
        value: PointValue,
        elapsed: float = 0.0,
        check_stats: Optional[Dict[str, Tuple[int, int]]] = None,
    ) -> None:
        if key is None:
            return
        if isinstance(value, FailureInfo):
            # Failures are transient: caching one would make a crashed
            # point permanently "fail" from cache on every future run.
            return
        self._memo[key] = CacheEntry(value=value, elapsed=elapsed)
        self._note_faults(value)
        if self.store is not None:
            self.store.store(key, value, elapsed=elapsed, check_stats=check_stats)

    def _finish(
        self,
        spec: SweepSpec,
        index: int,
        total: int,
        point: SweepPoint,
        value: PointValue,
        source: str,
        elapsed: float,
        outcomes: List[Optional[PointOutcome]],
    ) -> None:
        """Store ``point``'s outcome at ``outcomes[index]``, then publish it.

        The outcome is stored first: a SIGTERM handled while a subscriber
        runs must find the point already counted as finished.
        """
        label = point.describe()
        if isinstance(value, OomInfo):
            self.stats.oom += 1
            outcomes[index] = PointOutcome(
                point=point, result=None, source=source, oom=value,
                elapsed=elapsed,
            )
            self._publish(SweepPointOom(
                sweep=spec.name, index=index, total=total,
                label=label, message=value.message,
            ))
        elif isinstance(value, FailureInfo):
            self.stats.failed += 1
            outcomes[index] = PointOutcome(
                point=point, result=None, source=source, failure=value,
                elapsed=elapsed,
            )
            self._publish(SweepPointFailed(
                sweep=spec.name, index=index, total=total,
                label=label, attempts=value.attempts,
                reason=f"{value.error_type}: {value.message}",
            ))
        else:
            outcomes[index] = PointOutcome(
                point=point, result=value, source=source, elapsed=elapsed
            )
            self._publish(SweepPointDone(
                sweep=spec.name, index=index, total=total,
                label=label, source=source, elapsed=elapsed,
            ))

    def _note_faults(self, value: PointValue) -> None:
        summary = getattr(value, "faults", None)
        if summary is not None:
            self.stats.faulted += 1
            self.stats.fault_overhead += summary.overhead

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff slept before re-attempt ``attempt + 1``."""
        return backoff_delay(self.retry_backoff, attempt)

    def _note_retry(
        self, spec: SweepSpec, total: int, index: int, point: SweepPoint,
        attempt: int, value: FailureInfo,
    ) -> float:
        backoff = self._backoff(attempt)
        self.stats.retried += 1
        self._publish(SweepPointRetry(
            sweep=spec.name, index=index, total=total,
            label=point.describe(), attempt=attempt,
            max_attempts=self.retries + 1,
            reason=f"{value.error_type}: {value.message}", backoff=backoff,
        ))
        return backoff

    def _execute_misses(
        self,
        spec: SweepSpec,
        total: int,
        pending: List[Tuple[int, Optional[str], SweepPoint]],
        waiting: List[Tuple[int, str, SweepPoint, str, SweepPoint]],
        outcomes: List[Optional[PointOutcome]],
    ) -> None:
        """Execute the misses, each missing twin once, then derive.

        A twin that is itself a pending point runs as that point;
        the others run alongside as twin jobs (index ``None``).  A point
        whose twin failed or timed out runs itself afterwards.
        """
        queued = {key for _, key, _ in pending}
        twins: Dict[str, SweepPoint] = {}
        for _, _, _, twin_key, twin in waiting:
            if twin_key not in queued:
                twins.setdefault(twin_key, twin)
        jobs: List[Tuple[Optional[int], Optional[str], SweepPoint]] = [
            (None, twin_key, twin) for twin_key, twin in twins.items()]
        self._execute_pending(spec, total, jobs + pending, outcomes)
        fallback: List[Tuple[Optional[int], Optional[str], SweepPoint]] = []
        for index, key, point, twin_key, _ in waiting:
            entry = self._lookup(twin_key)
            if entry is None:
                fallback.append((index, key, point))
            else:
                self._derive(spec, index, total, point, key, entry, outcomes)
        if fallback:
            self._execute_pending(spec, total, fallback, outcomes)

    def _execute_pending(
        self,
        spec: SweepSpec,
        total: int,
        pending: List[Tuple[Optional[int], Optional[str], SweepPoint]],
        outcomes: List[Optional[PointOutcome]],
    ) -> None:
        """Execute points in spec position ``index``, and twin jobs.

        A twin job (``index`` ``None``) makes one attempt and only
        records its value: it has no outcome, publishes no events, and
        its failure is left to the points waiting on it.
        """
        # Timeouts need an interruptible boundary around the simulation,
        # which only a separate worker process provides -- so a timeout
        # routes even a serial sweep through a 1-worker pool.
        if (self.jobs > 1 and len(pending) > 1) or self.point_timeout is not None:
            self._execute_pool(spec, total, pending, outcomes)
            return
        for index, key, point in pending:
            retries = self.retries if index is not None else 0
            attempt = 1
            while True:
                with PERF.span("runner.point"):
                    value, elapsed, cstats = _execute_point(
                        point, self.sim, self.constants, self.trainer_kwargs,
                        self.invariants,
                    )
                merge_stats(self.check_stats, cstats)
                if not isinstance(value, FailureInfo) or attempt > retries:
                    break
                time.sleep(self._note_retry(
                    spec, total, index, point, attempt, value))
                attempt += 1
            self._executed(spec, total, outcomes, index, key, point, value,
                           attempt, elapsed, cstats)

    def _executed(
        self,
        spec: SweepSpec,
        total: int,
        outcomes: List[Optional[PointOutcome]],
        index: Optional[int],
        key: Optional[str],
        point: SweepPoint,
        value: PointValue,
        attempt: int,
        elapsed: float,
        cstats: Dict[str, Tuple[int, int]],
    ) -> None:
        """Account, record and (for a spec point) finish one execution."""
        if isinstance(value, FailureInfo):
            value = dataclasses.replace(value, attempts=attempt)
        self.stats.executed += 1
        self.stats.sim_seconds += elapsed
        self._record(key, value, elapsed, cstats)
        if index is not None:
            self._finish(spec, index, total, point, value, "executed",
                         elapsed, outcomes)

    def _execute_pool(
        self,
        spec: SweepSpec,
        total: int,
        pending: List[Tuple[int, Optional[str], SweepPoint]],
        outcomes: List[Optional[PointOutcome]],
    ) -> None:
        """Pool execution with per-point retry and wall-clock timeout.

        A worker that dies fails every in-flight future with
        ``BrokenProcessPool``; those points are retried like any other
        failure, and the :class:`~repro.runner.pool.PoolDriver` runs the
        retries on a fresh pool.  A timed-out future cannot be
        interrupted (ProcessPoolExecutor has no kill primitive), so it is
        abandoned: its outcome is recorded as a timeout failure, the wait
        loop stops tracking it, and the final shutdown terminates the
        stuck worker.
        """
        deadline = self.point_timeout
        driver = PoolDriver(min(self.jobs, len(pending)))
        state: Dict[concurrent.futures.Future,
                    Tuple[Optional[int], Optional[str], SweepPoint, int]] = {}
        running_since: Dict[concurrent.futures.Future, float] = {}
        abandoned = False
        interrupted = False

        def submit(index: Optional[int], key: Optional[str],
                   point: SweepPoint, attempt: int) -> None:
            future = driver.submit(
                _execute_point, point, self.sim, self.constants,
                self.trainer_kwargs, self.invariants,
            )
            state[future] = (index, key, point, attempt)

        try:
            for index, key, point in pending:
                submit(index, key, point, 1)
            while state:
                done, _ = concurrent.futures.wait(
                    set(state),
                    timeout=_TIMEOUT_POLL if deadline is not None else None,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in done:
                    index, key, point, attempt = state.pop(future)
                    running_since.pop(future, None)
                    try:
                        value, elapsed, cstats = future.result()
                        merge_stats(self.check_stats, cstats)
                    except Exception as exc:  # noqa: BLE001 - worker died
                        value = FailureInfo(
                            error_type=type(exc).__name__,
                            message=str(exc), attempts=attempt,
                        )
                        elapsed = 0.0
                        cstats = {}
                    if (isinstance(value, FailureInfo) and index is not None
                            and attempt <= self.retries):
                        time.sleep(self._note_retry(
                            spec, total, index, point, attempt, value))
                        submit(index, key, point, attempt + 1)
                        continue
                    self._executed(spec, total, outcomes, index, key, point,
                                   value, attempt, elapsed, cstats)
                if deadline is None:
                    continue
                for future in [f for f in state if f.running()]:
                    started = running_since.setdefault(future, now)
                    if now - started < deadline:
                        continue
                    index, key, point, attempt = state.pop(future)
                    running_since.pop(future, None)
                    abandoned = True
                    value = FailureInfo(
                        error_type="TimeoutError",
                        message=(
                            f"point exceeded the {deadline:g}s wall-clock "
                            f"timeout and was abandoned"
                        ),
                        attempts=attempt,
                        timed_out=True,
                    )
                    self.stats.executed += 1
                    self.stats.sim_seconds += now - started
                    if index is not None:
                        self._finish(spec, index, total, point, value,
                                     "executed", now - started, outcomes)
        except KeyboardInterrupt:
            # Graceful shutdown: pending futures are cancelled and busy
            # workers terminated by the cleanup below; completed points
            # were recorded (and flushed to the store) as they finished.
            interrupted = True
            raise
        finally:
            # After an abandon every tracked future has completed, so the
            # only busy workers are the stuck ones; after an interrupt the
            # in-flight points are abandoned by design.
            driver.shutdown(wait=False, kill_workers=abandoned or interrupted)

    def _publish(self, event: Any) -> None:
        if self.bus is not None:
            self.bus.publish(event)
