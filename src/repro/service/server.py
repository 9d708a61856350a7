"""The sweep service itself: asyncio server + robustness envelope.

:class:`SweepService` accepts newline-delimited JSON requests
(:mod:`repro.service.protocol`) and serves each sweep point from, in
order: the store entries it has already served (a bounded in-memory
LRU), the crash-safe store
(:class:`~repro.runner.ResultStore`), the in-flight registry
(:class:`~repro.service.dedup.InflightRegistry` -- concurrent identical
points simulate once), or the process pool
(:class:`~repro.service.executor.PoolExecutor`).  A miss that differs
from its steady-state twin only in epoch size is derived from the twin
(:mod:`repro.train.steady`), which goes through the same served
entries, store, dedup and pool path under its own key.  Around that sit the
admission controller (quotas + queue watermarks -> ``busy``), the
circuit breaker (crash loops -> analytic answers while OPEN), budget
and deadline load-shedding (over-limit points degrade to
:func:`~repro.service.analytic.analytic_estimate`, marked
``degraded: true``), and a graceful SIGTERM/SIGINT drain that stops
admitting, finishes or abandons in-flight work, places the point files
still waiting, flushes the store journal and exits 0 (1 if a drain
step, such as the store's close, failed).  A request that derives
points answers once their journal lines are fsynced; their point files
are placed afterwards, while no request is mid-dispatch.

Run it via ``repro-experiments serve`` (see :func:`main` for flags);
the line ``listening on <host>:<port>`` on stdout marks readiness.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import functools
import pathlib
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from concurrent.futures.process import BrokenProcessPool

from repro.core.config import SimulationConfig
from repro.core.constants import CALIBRATION, CalibrationConstants
from repro.obs.bus import EventBus
from repro.obs.events import ServiceRequestEvent
from repro.obs.export import JsonlRecorder, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.runner.fingerprint import point_fingerprint
from repro.runner.runner import derive_value, steady_twin_point
from repro.runner.spec import FailureInfo, SweepPoint
from repro.runner.store import CacheEntry, ResultStore
from repro.service import protocol
from repro.service.admission import AdmissionController, CircuitBreaker
from repro.service.analytic import (
    AnalyticUnsupported,
    analytic_estimate,
    degradable,
)
from repro.service.dedup import InflightRegistry
from repro.service.executor import PoolExecutor


@dataclass
class ServiceConfig:
    """Everything tunable about one :class:`SweepService` instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral; real port is printed
    jobs: int = 2
    cache_dir: Optional[pathlib.Path] = pathlib.Path("results/service-cache")
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    constants: CalibrationConstants = CALIBRATION
    invariants: str = "off"
    max_inflight_per_client: int = 4
    queue_high: int = 64
    queue_low: int = 32
    default_budget: Optional[int] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    retries: int = 1
    drain_timeout: float = 10.0


def install_service_metrics(registry: MetricsRegistry) -> Dict[str, Any]:
    """Create the service instrument set on ``registry``.

    Kept separate from :func:`~repro.obs.bridge.install_default_metrics`
    so per-run training sessions (and their golden exporter files) are
    unaffected; the service merges both sets into one registry.
    """
    return {
        "requests": registry.counter(
            "service_requests_total",
            "Sweep-service requests by final status", ("status",)),
        "points": registry.counter(
            "service_points_total",
            "Sweep points served, by source", ("source",)),
        "shed": registry.counter(
            "service_shed_total",
            "Requests shed by admission/load-shedding, by reason",
            ("reason",)),
        "queue_depth": registry.gauge(
            "service_queue_depth",
            "Points submitted to the worker pool and not yet finished"),
        "request_seconds": registry.histogram(
            "service_request_seconds",
            "Wall-clock latency of sweep requests"),
        "saved_seconds": registry.counter(
            "service_saved_seconds_total",
            "Simulation seconds avoided by cache hits and dedup"),
        "rebuilds": registry.counter(
            "service_pool_rebuilds_total",
            "Process-pool rebuilds after worker crashes"),
    }


@dataclass
class _Tally:
    """Per-request sourcing counters (what the response reports)."""

    executed: int = 0
    disk_hits: int = 0
    deduped: int = 0
    degraded: int = 0
    derived: int = 0
    sim_seconds: float = 0.0
    saved_seconds: float = 0.0
    #: Derived points, ``(point, key, entry, text)``, that the request
    #: journals with one :meth:`ResultStore.commit` before it answers.
    writes: List[Tuple[SweepPoint, str, CacheEntry, str]] = field(
        default_factory=list)
    #: The keys of ``writes`` this request claimed in ``_deriving``.
    claimed: List[str] = field(default_factory=list)

    def sourcing(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "disk_hits": self.disk_hits,
            "deduped": self.deduped,
            "degraded": self.degraded,
            "derived": self.derived,
            "sim_seconds": round(self.sim_seconds, 6),
            "saved_seconds": round(self.saved_seconds, 6),
        }


class _Lru(collections.OrderedDict):
    """A dict of at most ``bound`` entries, least recently used first."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound

    def hit(self, key: Any, default: Any = None) -> Any:
        """The value under ``key`` (now most recently used), or ``default``."""
        value = self.get(key, default)
        if value is not default:
            self.move_to_end(key)
        return value

    def keep(self, key: Any, value: Any) -> None:
        """Add ``key``, evicting the least recently used entry if full."""
        self[key] = value
        if len(self) > self.bound:
            self.popitem(last=False)


#: What :meth:`_Lru.hit` returns for a key the memo does not hold, where
#: ``None`` is a value (an unfingerprintable point's store key).
_ABSENT = object()


def _encoded(point: SweepPoint, value: Any) -> str:
    """The encoded result of a simulated (or failed) ``point``."""
    return protocol.result_text(protocol.value_payload(point.describe(), value))


class SweepService:
    """One resilient sweep server (see the module docstring)."""

    #: The bound of each per-point memo: points whose store entries the
    #: service keeps in memory with their encoded results, the degraded
    #: answers it has encoded, and the wire points and store keys it
    #: remembers.  A decoded entry with its ~0.25 KB text is ~4 KB, a
    #: degraded text ~0.5 KB and a parsed point or key ~1 KB, so the four
    #: memos stay under ~7 MB when full.
    SERVED_POINTS = 1024

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        bus: Optional[EventBus] = None,
        registry: Optional[MetricsRegistry] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = install_service_metrics(self.registry)
        if store is not None:
            self.store: Optional[ResultStore] = store
        elif config.cache_dir is not None:
            self.store = ResultStore(config.cache_dir)
        else:
            self.store = None
        self.admission = AdmissionController(
            max_inflight_per_client=config.max_inflight_per_client,
            queue_high=config.queue_high,
            queue_low=config.queue_low,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
        )
        self.executor = PoolExecutor(
            jobs=config.jobs,
            sim=config.sim,
            constants=config.constants,
            invariants=config.invariants,
            retries=config.retries,
            breaker=self.breaker,
        )
        self.dedup = InflightRegistry()
        #: Derived keys whose request has not committed them yet.  A
        #: concurrent request for one waits for that commit and serves
        #: the committed entry instead of deriving it again.
        self._deriving = InflightRegistry()
        #: Store entries already served, by point, most recently used
        #: last, each with its encoded result (:func:`protocol.result_text`).
        #: A point's key hashes its config with this service's fixed
        #: simulation settings, constants and schema, and the entry under a
        #: key never changes, so a kept entry cannot go stale.  Misses stay
        #: out: another process sharing the store may commit them later.
        self._served = _Lru(self.SERVED_POINTS)
        #: Encoded analytic answers, by point.  The estimate depends only
        #: on the point and this service's fixed constants, so it cannot
        #: go stale; a point the model cannot answer is not kept.
        self._degraded = _Lru(self.SERVED_POINTS)
        #: Wire points already parsed, by :func:`protocol.point_fields`.
        self._parsed = _Lru(self.SERVED_POINTS)
        #: Store keys already computed, by point.
        self._keys = _Lru(self.SERVED_POINTS)
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        #: Connection-handler tasks with a request mid-dispatch, plus the
        #: count of such requests; ``_idle`` is set whenever the count is
        #: zero so drain can await quiescence without polling.
        self._active: Set[asyncio.Task] = set()
        self._busy = 0
        self._idle: Optional[asyncio.Event] = None
        #: The task placing committed entries' point files, and the error
        #: that stopped it, if one did (they are then placed at close).
        self._placer: Optional[asyncio.Task] = None
        self._place_error: Optional[OSError] = None
        self.port: Optional[int] = None
        #: What made the drain fail (a store close on a full disk), if
        #: anything; :meth:`run` then exits 1.
        self.drain_error: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and prestart the worker pool."""
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.executor.prestart()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> int:
        """Serve until drained; returns the process exit status: 0, or 1
        when the drain failed (:attr:`drain_error`)."""
        await self.start()
        print(f"listening on {self.config.host}:{self.port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, self.request_drain)
        assert self._stopped is not None
        await self._stopped.wait()
        return 0 if self.drain_error is None else 1

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        if self._drain_task is None:
            self.draining = True
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain())

    async def _drain(self) -> None:
        """Settle and close everything, then stop.

        The service stops even when a step fails (a store close on a
        full disk): the error is printed to stderr and kept in
        :attr:`drain_error`.
        """
        try:
            await self._settle()
            print("drained: journal flushed, exiting", file=sys.stderr,
                  flush=True)
        except Exception as exc:
            self.drain_error = exc
            print(f"drain failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            sys.stderr.flush()
        finally:
            if self._stopped is not None:
                self._stopped.set()

    async def _settle(self) -> None:
        """Stop admitting, settle in-flight work, and close the store."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        hung = False
        assert self._idle is not None
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            hung = True
            pending = {t for t in self._active if not t.done()}
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        drained = ConnectionResetError("service drained before completion")
        self.dedup.abandon_all(drained)
        self._deriving.abandon_all(drained)
        # A hung simulation cannot be joined; kill its worker outright
        # (the runner's timeout path has the same abandonment contract).
        self.executor.shutdown(kill_workers=hung)
        if self._placer is not None:
            self._placer.cancel()
            await asyncio.gather(self._placer, return_exceptions=True)
        if self.store is not None:
            self.store.close()                  # places what is left

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode(protocol.error_response(
                        "error", error="request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                task = asyncio.current_task()
                assert task is not None and self._idle is not None
                self._active.add(task)
                self._busy += 1
                self._idle.clear()
                try:
                    response = await self._dispatch(line.decode("utf-8"))
                finally:
                    self._active.discard(task)
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(self, line: str) -> bytes:
        """The response line to one request line."""
        try:
            data = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            self.metrics["requests"].labels(status="error").inc()
            return protocol.encode(protocol.error_response("error",
                                                          error=str(exc)))
        op = data["op"]
        if op == "ping":
            return protocol.encode({"status": "ok", "pong": True})
        if op == "stats":
            return protocol.encode({"status": "ok",
                                    "stats": self.service_stats()})
        if op == "drain":
            self.request_drain()
            return protocol.encode({"status": "ok", "draining": True})
        try:
            request = protocol.parse_sweep(data, self._wire_point)
        except protocol.ProtocolError as exc:
            self.metrics["requests"].labels(status="error").inc()
            return protocol.encode(protocol.error_response("error",
                                                          error=str(exc)))
        return await self._handle_sweep(request)

    def service_stats(self) -> Dict[str, Any]:
        """The ``stats`` op payload (also used by tests and the client)."""
        reg = self.registry
        return {
            "admitted": reg.counter_value(
                "service_requests_total", status="ok"),
            "busy": reg.counter_value("service_requests_total", status="busy"),
            "rejected": reg.counter_value(
                "service_requests_total", status="rejected"),
            "points_executed": reg.counter_value(
                "service_points_total", source="executed"),
            "points_disk": reg.counter_value(
                "service_points_total", source="disk"),
            "points_deduped": reg.counter_value(
                "service_points_total", source="dedup"),
            "points_degraded": reg.counter_value(
                "service_points_total", source="degraded"),
            "points_derived": reg.counter_value(
                "service_points_total", source="derived"),
            "saved_seconds": self.metrics["saved_seconds"].value,
            "queue_depth": self.executor.inflight,
            "inflight_keys": len(self.dedup),
            "breaker": self.breaker.state,
            "rebuilds": self.executor.rebuilds,
            "workers": self.executor.worker_pids(),
            "store_entries": len(self.store) if self.store is not None else 0,
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    # Per-point memos
    # ------------------------------------------------------------------
    def _wire_point(self, raw: Any) -> SweepPoint:
        """:func:`protocol.point_from_dict`, building each point once.

        The field checks run on every call; only a point that passed the
        config's validation is kept, so a bad point fails every time.
        """
        fields = protocol.point_fields(raw)
        point = self._parsed.hit(fields)
        if point is None:
            point = protocol.point_from_fields(fields)
            self._parsed.keep(fields, point)
        return point

    def _store_key(self, point: SweepPoint) -> Optional[str]:
        """``point``'s store key, hashed once per point."""
        key = self._keys.hit(point, _ABSENT)
        if key is _ABSENT:
            key = point_fingerprint(point, self.config.sim,
                                    self.config.constants)
            self._keys.keep(point, key)
        return key

    def _load_served(
        self, point: SweepPoint, key: Optional[str],
    ) -> Optional[Tuple[CacheEntry, str]]:
        """``point``'s store entry and encoded result, kept in ``_served``;
        ``None`` on a miss, which is not kept."""
        if self.store is None or key is None:
            return None
        entry = self.store.load_entry(key)
        if entry is None:
            return None
        served = (entry, _encoded(point, entry.value))
        self._served.keep(point, served)
        return served

    # Labelled counter children every request touches, looked up once
    # per service on first use (a child renders once it exists).
    @functools.cached_property
    def _ok_requests(self) -> Any:
        return self.metrics["requests"].labels(status="ok")

    @functools.cached_property
    def _disk_points(self) -> Any:
        return self.metrics["points"].labels(source="disk")

    # ------------------------------------------------------------------
    # Sweep serving
    # ------------------------------------------------------------------
    def _shed(
        self, request: protocol.SweepRequest, reason: str, status: str,
        started: float,
    ) -> bytes:
        """Account and encode a non-``ok`` response."""
        self.metrics["requests"].labels(status=status).inc()
        self.metrics["shed"].labels(reason=reason).inc()
        if self.bus.wants(ServiceRequestEvent):
            self.bus.publish(ServiceRequestEvent(
                client=request.client, status=status,
                points=len(request.points), executed=0, disk_hits=0,
                deduped=0, degraded=0, shed_reason=reason,
                elapsed=time.monotonic() - started,
            ))
        return protocol.encode(protocol.error_response(status, reason=reason))

    async def _handle_sweep(self, request: protocol.SweepRequest) -> bytes:
        started = time.monotonic()
        if self.draining:
            return self._shed(request, "draining", "rejected", started)
        shed = self.admission.admit(request.client, self.executor.inflight)
        if shed is not None:
            return self._shed(request, shed, "busy", started)
        try:
            return await self._serve_admitted(request, started)
        finally:
            self.admission.release(request.client)
            self.metrics["queue_depth"].set(self.executor.inflight)

    async def _serve_admitted(
        self, request: protocol.SweepRequest, started: float,
    ) -> bytes:
        cfg = self.config
        deadline_at = (
            started + request.deadline if request.deadline is not None else None
        )
        tally = _Tally()
        texts: List[str] = [""] * len(request.points)

        # Pass 1: committed results, from memory or the sharded store.
        # A kept result is encoded once and joined into every response
        # that serves it.  A missed point is served once per request,
        # however often the request lists it: each miss maps to its store
        # key and the indices of its copies.
        misses: Dict[SweepPoint, Tuple[Optional[str], List[int]]] = {}
        for index, point in enumerate(request.points):
            served = self._served.hit(point)
            if served is None:
                copies = misses.get(point)
                if copies is not None:
                    copies[1].append(index)
                    continue
                key = self._store_key(point)
                served = self._load_served(point, key)
                if served is None:
                    misses[point] = (key, [index])
                    continue
            entry, texts[index] = served
            tally.disk_hits += 1
            tally.saved_seconds += entry.elapsed
        if tally.disk_hits:
            self._disk_points.inc(tally.disk_hits)

        # Pass 2: budget classification.  Distinct missed points beyond
        # the simulation budget degrade to the analytic fast path; if
        # any of them cannot degrade (a non-synchronous strategy,
        # degradation forbidden), the whole request is refused up front
        # rather than partially executed.
        budget = (
            request.budget if request.budget is not None
            else cfg.default_budget
        )
        quota = budget if budget is not None else len(misses)
        over = list(misses)[quota:]
        if over and (not request.degrade
                     or not all(degradable(p) for p in over)):
            return self._shed(request, "budget", "rejected", started)

        async def serve_point(
            rank: int, point: SweepPoint, key: Optional[str],
            indices: List[int],
        ) -> None:
            may_simulate = (
                rank < quota
                and (deadline_at is None or time.monotonic() < deadline_at)
                and self.breaker.allow()
            )
            if may_simulate:
                text = await self._simulate_point(point, key, tally)
            else:
                text = self._degrade_point(point, request, tally)
            for index in indices:
                texts[index] = text
            if len(indices) > 1:
                # The other copies share the first copy's answer.
                tally.deduped += len(indices) - 1
                self.metrics["points"].labels(source="dedup").inc(
                    len(indices) - 1)
            self.metrics["queue_depth"].set(self.executor.inflight)

        try:
            # Every point settles before a failure propagates, so no
            # derived key is claimed after the ``finally`` below.
            for outcome in await asyncio.gather(*(
                serve_point(rank, point, key, indices)
                for rank, (point, (key, indices)) in enumerate(misses.items())
            ), return_exceptions=True):
                if isinstance(outcome, BaseException):
                    raise outcome
            # One journal fsync for the request's derived entries, before
            # it answers: a response never reports a write that is not
            # durable.  Their point files are placed later, while no
            # request is mid-dispatch; until then the store and
            # ``_served`` answer them.
            store_s = 0.0
            if tally.writes and self.store is not None:
                store_started = time.monotonic()
                self.store.commit([(key, entry.value, entry.elapsed, None)
                                   for _, key, entry, _ in tally.writes])
                store_s = time.monotonic() - store_started
                committed = {}
                for point, key, entry, text in tally.writes:
                    self._served.keep(point, (entry, text))
                    committed[key] = (entry, text)
                for key in tally.claimed:
                    self._deriving.resolve(key, committed[key])
                tally.claimed.clear()
                self._start_placer()
        finally:
            # Uncommitted derivations (a failed point or commit, or a
            # cancelled request): their waiters derive the points.
            for key in tally.claimed:
                self._deriving.resolve(key, None)
        self._ok_requests.inc()
        elapsed = time.monotonic() - started
        self.metrics["request_seconds"].observe(elapsed)
        self.metrics["saved_seconds"].inc(tally.saved_seconds)
        if self.bus.wants(ServiceRequestEvent):
            self.bus.publish(ServiceRequestEvent(
                client=request.client, status="ok",
                points=len(request.points), executed=tally.executed,
                disk_hits=tally.disk_hits, deduped=tally.deduped,
                degraded=tally.degraded, shed_reason="", elapsed=elapsed,
                derived=tally.derived, store_s=store_s,
            ))
        return protocol.encode_results(texts, tally.sourcing())

    async def _simulate_point(
        self, point: SweepPoint, key: Optional[str], tally: _Tally,
    ) -> str:
        """Serve one cache miss, encoded: derive it from its steady-state
        twin, else dedup onto in-flight work, else execute."""
        if key is None:
            value, elapsed, _stats = await self._execute(point)
            tally.executed += 1
            tally.sim_seconds += elapsed
            self.metrics["points"].labels(source="executed").inc()
            return _encoded(point, value)
        text = await self._derive_point(point, key, tally)
        if text is not None:
            return text
        try:
            value, elapsed, executed = await self._run_once(point, key)
        except (ConnectionResetError, BrokenProcessPool) as exc:
            return _encoded(point, FailureInfo(
                error_type=type(exc).__name__, message=str(exc),
                attempts=1,
            ))
        if executed:
            tally.executed += 1
            tally.sim_seconds += elapsed
            self.metrics["points"].labels(source="executed").inc()
        else:
            tally.deduped += 1
            tally.saved_seconds += elapsed
            self.metrics["points"].labels(source="dedup").inc()
        return _encoded(point, value)

    async def _run_once(
        self, point: SweepPoint, key: str,
    ) -> Tuple[Any, float, bool]:
        """``(value, elapsed, executed_here)`` of ``point``, simulated once
        across concurrent requests and stored under ``key``.

        A follower re-raises the leader's ``ConnectionResetError`` or
        ``BrokenProcessPool``.
        """
        leader, future = self.dedup.claim(key)
        if not leader:
            value, elapsed = await asyncio.shield(future)
            return value, elapsed, False
        try:
            value, elapsed, stats = await self._execute(point)
        except BaseException as exc:
            self.dedup.fail(key, exc)
            raise
        if self.store is not None and not isinstance(value, FailureInfo):
            self.store.store(key, value, elapsed=elapsed,
                             check_stats=stats or None)
        self.dedup.resolve(key, (value, elapsed))
        return value, elapsed, True

    async def _derive_point(
        self, point: SweepPoint, key: str, tally: _Tally,
    ) -> Optional[str]:
        """The point's encoded result from its twin, or ``None`` to run it
        itself.

        The twin comes from the entries already served, the store,
        another request's in-flight execution of the same key, or from
        executing it here; a twin that fails leaves the point to the
        normal path.  The derived entry joins ``tally.writes``, which
        the request commits in one batch and then keeps in ``_served``.
        A concurrent request that misses it before then waits for that
        commit and serves the committed entry as a disk hit, as it would
        had it come after the commit; if the deriving request does not
        commit it, the waiter derives it itself.
        """
        cfg = self.config
        twin = steady_twin_point(point, self.executor.trainer_kwargs,
                                 cfg.invariants)
        if twin is None:
            return None
        if self.store is None:
            # Nothing is committed, so there is nothing to wait for.
            return await self._derive_from_twin(point, key, twin, tally)
        # Claimed before any await, so each request claims all of its
        # derived keys at once and only ever waits on requests that
        # claimed theirs earlier: no two requests wait on each other.
        leader, future = self._deriving.claim(key)
        if not leader:
            served = await asyncio.shield(future)
            if served is None:
                # Not committed there: derive it here, unclaimed, so that
                # no request ever waits on one that claimed later.
                return await self._derive_from_twin(point, key, twin, tally)
            entry, text = served
            tally.disk_hits += 1
            tally.saved_seconds += entry.elapsed
            self._disk_points.inc()
            return text
        try:
            text = await self._derive_from_twin(point, key, twin, tally)
        except BaseException:
            self._deriving.resolve(key, None)
            raise
        if text is None:
            self._deriving.resolve(key, None)
        else:
            tally.claimed.append(key)
        return text

    async def _derive_from_twin(
        self, point: SweepPoint, key: str, twin: SweepPoint, tally: _Tally,
    ) -> Optional[str]:
        """:meth:`_derive_point`'s derivation, once no other request is
        deriving ``key``."""
        twin_key = self._store_key(twin)
        served = self._served.hit(twin) or self._load_served(twin, twin_key)
        if served is not None:
            value, elapsed = served[0].value, served[0].elapsed
            tally.saved_seconds += elapsed
        else:
            try:
                value, elapsed, executed = await self._run_once(
                    twin, twin_key)
            except (ConnectionResetError, BrokenProcessPool):
                return None
            if executed:
                tally.sim_seconds += elapsed
            else:
                tally.saved_seconds += elapsed
        if isinstance(value, FailureInfo):
            return None
        value = derive_value(value, point.config)
        # The entry load_entry would return once the commit is placed.
        entry = CacheEntry(value=value, elapsed=float(elapsed))
        text = _encoded(point, value)
        tally.writes.append((point, key, entry, text))
        tally.derived += 1
        self.metrics["points"].labels(source="derived").inc()
        return text

    def _start_placer(self) -> None:
        """Run :meth:`_place_while_idle` unless it is running or failed."""
        if self._place_error is None and (
                self._placer is None or self._placer.done()):
            self._placer = asyncio.get_running_loop().create_task(
                self._place_while_idle())

    async def _place_while_idle(self) -> None:
        """Place the store's committed point files, one per loop turn,
        only while no request is mid-dispatch.

        A failed placement (a full disk) is reported on stderr once and
        stops the placer: the entry stays journaled and answered from
        memory, and the store places it at the next checkpoint or at
        close, whose failure fails the drain.
        """
        assert self.store is not None and self._idle is not None
        while self.store.unplaced:
            if not self._idle.is_set():
                await self._idle.wait()
                continue
            try:
                self.store.place(1)
            except OSError as exc:
                self._place_error = exc
                print(f"placing a point file failed: {type(exc).__name__}: "
                      f"{exc}; its entry stays journaled and is placed "
                      f"again at close", file=sys.stderr, flush=True)
                return
            await asyncio.sleep(0)

    async def _execute(
        self, point: SweepPoint,
    ) -> Tuple[Any, float, Dict[str, Any]]:
        """Run one point on the pool; a dead pool becomes a FailureInfo."""
        before = self.executor.rebuilds
        try:
            value, elapsed, stats = await self.executor.execute(point)
        except BrokenProcessPool as exc:
            value = FailureInfo(
                error_type="WorkerCrashError",
                message=f"worker pool broke repeatedly: {exc}",
                attempts=self.config.retries + 1,
            )
            elapsed, stats = 0.0, {}
        if self.executor.rebuilds > before:
            self.metrics["rebuilds"].inc(self.executor.rebuilds - before)
        return value, elapsed, stats

    def _degrade_point(
        self, point: SweepPoint, request: protocol.SweepRequest, tally: _Tally,
    ) -> str:
        """Answer one shed point analytically (or record why not), encoded;
        an analytic answer is estimated and encoded once per point."""
        if not request.degrade:
            return _encoded(point, FailureInfo(
                error_type="Shed",
                message="load shed (degradation disabled by the request)",
                attempts=0,
            ))
        text = self._degraded.hit(point)
        if text is None:
            try:
                payload = analytic_estimate(point, self.config.constants)
            except AnalyticUnsupported as exc:
                return _encoded(point, FailureInfo(
                    error_type="Shed", message=str(exc), attempts=0))
            text = protocol.result_text(payload)
            self._degraded.keep(point, text)
        tally.degraded += 1
        self.metrics["points"].labels(source="degraded").inc()
        return text


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments serve``: run a sweep service until drained."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve sweep simulations over a newline-delimited "
                    "JSON TCP protocol with admission control, in-flight "
                    "dedup, a crash-safe sharded cache and graceful "
                    "degradation (see docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = ephemeral, printed "
                             "on startup)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="worker processes (default: 2)")
    parser.add_argument("--cache-dir", type=pathlib.Path,
                        default=pathlib.Path("results/service-cache"),
                        metavar="DIR",
                        help="result store root "
                             "(default: results/service-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="serve without a persistent store")
    parser.add_argument("--warmup", type=int, default=1,
                        help="simulation warm-up iterations (default: 1)")
    parser.add_argument("--iterations", type=int, default=3,
                        help="measured iterations per point (default: 3)")
    parser.add_argument("--invariants", choices=("off", "warn", "strict"),
                        default="off",
                        help="invariant verification for executed points")
    parser.add_argument("--max-inflight-per-client", type=int, default=4,
                        metavar="N",
                        help="concurrent admitted requests per client id")
    parser.add_argument("--queue-high", type=int, default=64, metavar="N",
                        help="pool backlog that starts returning busy")
    parser.add_argument("--queue-low", type=int, default=32, metavar="N",
                        help="backlog that resumes admission")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="default per-request simulation budget "
                             "(points beyond it degrade analytically)")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        metavar="N",
                        help="consecutive worker crashes that open the "
                             "circuit breaker")
    parser.add_argument("--breaker-cooldown", type=float, default=5.0,
                        metavar="SECONDS",
                        help="seconds the breaker stays open")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="grace period for in-flight requests on "
                             "SIGTERM before workers are killed")
    parser.add_argument("--obs-jsonl", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="stream service events (one JSON object per "
                             "line) to PATH")
    parser.add_argument("--prom", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="write Prometheus text metrics to PATH on exit")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    config = ServiceConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        sim=SimulationConfig(warmup_iterations=args.warmup,
                             measure_iterations=args.iterations),
        invariants=args.invariants,
        max_inflight_per_client=args.max_inflight_per_client,
        queue_high=args.queue_high, queue_low=args.queue_low,
        default_budget=args.budget,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        drain_timeout=args.drain_timeout,
    )
    service = SweepService(config)
    jsonl_fp = None
    if args.obs_jsonl is not None:
        args.obs_jsonl.parent.mkdir(parents=True, exist_ok=True)
        jsonl_fp = args.obs_jsonl.open("w")
        JsonlRecorder(service.bus, stream=jsonl_fp)
    try:
        status = asyncio.run(service.run())
    except KeyboardInterrupt:
        # The signal handler normally converts SIGINT into a drain; this
        # only fires if the interrupt lands outside the loop's control.
        status = 0
    finally:
        if jsonl_fp is not None:
            jsonl_fp.close()
        if args.prom is not None:
            args.prom.parent.mkdir(parents=True, exist_ok=True)
            args.prom.write_text(render_prometheus(service.registry))
    return status


if __name__ == "__main__":
    sys.exit(main())
