"""Asyncio wrapper around the simulation process pool.

The service shares the runner's module-level pool worker
(:func:`repro.runner.runner._execute_point` -- OOM and crashes come back
as data, invariant stats as a plain dict), but drives it from the event
loop: each point execution is ``loop.run_in_executor`` on a
:class:`~concurrent.futures.ProcessPoolExecutor`, so the server keeps
accepting connections while simulations run.

Worker death (SIGKILL, segfault) surfaces as
:class:`~concurrent.futures.process.BrokenProcessPool` on *every*
in-flight future.  Every coroutine that observes the break reports the
crash to the circuit breaker, asks the
:class:`~repro.runner.pool.PoolDriver` to replace that pool, sleeps a
seeded, jittered backoff and retries its point up to ``retries`` times.
The pool is replaced once: the replacement never awaits, so it runs to
completion on the event loop before any other coroutine resumes, and
the later callers find a pool that is no longer the broken one.
"""

from __future__ import annotations

import asyncio
import functools
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.runner.pool import PoolDriver, backoff_delay
from repro.runner.runner import _execute_point
from repro.runner.spec import SweepPoint
from repro.service.admission import CircuitBreaker

#: Base of the exponential backoff between crash retries (seconds).
RETRY_BACKOFF = 0.05
#: Each backoff is widened by a random factor in ``[1, 1 + RETRY_JITTER)``
#: so clients retrying the same crashed point do not hit the fresh pool
#: in lockstep; the RNG is seeded, so one executor's sleeps are
#: reproducible.
RETRY_JITTER = 0.5
RETRY_SEED = 0


class PoolExecutor:
    """Crash-tolerant point execution on a process pool."""

    def __init__(
        self,
        jobs: int = 2,
        sim: SimulationConfig = SimulationConfig(),
        constants: CalibrationConstants = CALIBRATION,
        trainer_kwargs: Optional[Mapping[str, Any]] = None,
        invariants: str = "off",
        retries: int = 1,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._driver = PoolDriver(jobs)
        self.sim = sim
        self.constants = constants
        self.trainer_kwargs: Dict[str, Any] = dict(trainer_kwargs or {})
        self.invariants = invariants
        self.retries = retries
        self._rng = random.Random(RETRY_SEED)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: Points submitted but not yet finished -- the queue-depth gauge.
        self.inflight = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, built on first use."""
        return self._driver.current()

    @property
    def rebuilds(self) -> int:
        """Pools this executor had to rebuild after a worker crash."""
        return self._driver.rebuilds

    def worker_pids(self) -> List[int]:
        """Pids of the live pool workers (spawned lazily on first use)."""
        return self._driver.worker_pids()

    def prestart(self) -> None:
        """Spawn the pool eagerly so ``stats`` can report worker pids."""
        # Submitting a trivial task forces worker creation on all
        # Python versions (3.8's pool spawns lazily per task).
        self._driver.submit(int, 0).result()

    def _backoff(self, attempt: int) -> float:
        return backoff_delay(RETRY_BACKOFF, attempt, RETRY_JITTER, self._rng)

    async def execute(
        self, point: SweepPoint,
    ) -> Tuple[Any, float, Dict[str, Tuple[int, int]]]:
        """Run one point; returns ``(value, elapsed, check_stats)``.

        A worker crash is retried (on a rebuilt pool) up to ``retries``
        times; the final failure propagates as
        :class:`BrokenProcessPool` for the server to convert into a
        failed-point payload.
        """
        loop = asyncio.get_running_loop()
        task = functools.partial(
            _execute_point, point, self.sim, self.constants,
            self.trainer_kwargs, self.invariants,
        )
        self.inflight += 1
        try:
            attempt = 0
            while True:
                attempt += 1
                pool = self._ensure_pool()
                try:
                    result = await loop.run_in_executor(pool, task)
                except BrokenProcessPool:
                    self.breaker.record_failure()
                    self._driver.replace(pool)
                    if attempt > self.retries:
                        raise
                    await asyncio.sleep(self._backoff(attempt))
                    continue
                self.breaker.record_success()
                return result
        finally:
            self.inflight -= 1

    def shutdown(self, kill_workers: bool = False) -> None:
        """Tear the pool down (used by graceful drain).

        ``kill_workers=True`` terminates worker processes outright --
        the drain path's last resort for a hung simulation, mirroring
        the runner's timeout-abandonment semantics.
        """
        self._driver.shutdown(kill_workers=kill_workers)
