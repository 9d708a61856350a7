"""The crash-tolerant process pool shared by the runner and the service.

A worker that dies (SIGKILL, segfault, ``os._exit``) breaks a
:class:`~concurrent.futures.ProcessPoolExecutor` for good: every
in-flight future fails with
:class:`~concurrent.futures.process.BrokenProcessPool` and so does every
later ``submit``.  :class:`PoolDriver` owns the pool's lifecycle --
building it lazily, swapping in a fresh one once per break, listing the
worker pids, and a shutdown that can terminate busy workers -- so a
retry after a crash runs on a live pool.

Replacement is keyed on pool identity: :meth:`PoolDriver.replace` only
acts while the broken pool is still the current one, so any number of
callers that observed the same break replace it exactly once.
"""

from __future__ import annotations

import random
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional


def backoff_delay(base: float, attempt: int, jitter: float = 0.0,
                  rng: Optional[random.Random] = None) -> float:
    """Exponential backoff slept before re-attempt ``attempt + 1``.

    ``base * 2**(attempt - 1)``, widened by a random factor in
    ``[1, 1 + jitter)`` drawn from ``rng`` when ``jitter`` is non-zero.
    """
    delay = base * (2 ** (attempt - 1))
    if jitter:
        delay *= 1.0 + rng.random() * jitter
    return delay


class PoolDriver:
    """One replaceable :class:`ProcessPoolExecutor` of ``jobs`` workers."""

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pools replaced after a worker crash.
        self.rebuilds = 0

    def current(self) -> ProcessPoolExecutor:
        """The live pool, built on first use (workers fork lazily)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def replace(self, broken: ProcessPoolExecutor) -> None:
        """Swap in a fresh pool if ``broken`` is still the current one."""
        if self._pool is broken:
            broken.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self.rebuilds += 1

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit to the live pool, replacing it first if a worker died."""
        pool = self.current()
        try:
            return pool.submit(fn, *args)
        except BrokenProcessPool:
            self.replace(pool)
            return self.current().submit(fn, *args)

    def worker_pids(self) -> List[int]:
        """Pids of the live pool's workers (empty before the first task)."""
        pool = self._pool
        if pool is None or pool._processes is None:
            return []
        return [p.pid for p in pool._processes.values() if p.pid is not None]

    def shutdown(self, wait: bool = True, kill_workers: bool = False) -> None:
        """Tear the pool down, cancelling queued work.

        ``kill_workers=True`` terminates the worker processes outright --
        the last resort for a hung or abandoned point, without which the
        interpreter's exit-time join would wait on it forever.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill_workers and pool._processes:
            for proc in list(pool._processes.values()):
                proc.terminate()
        pool.shutdown(wait=wait and not kill_workers, cancel_futures=True)
