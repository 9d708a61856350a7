"""The simulation environment: clock, event heap and same-instant FIFO.

Pending events live in two places: an event due at the current instant
(``succeed``, ``fail``, a process start, a timeout too short to move
the clock) waits in a FIFO and draws no insertion number; only a later
one goes onto the heap as ``(time, eid, event)``.  :meth:`Environment._dispatch` still runs them
in exactly ``(time, insertion)`` order (docs/PERF.md, "Same-instant
events skip the heap").

The clock is translation-invariant.  The heap stores absolute instants
``ORIGIN + t`` rather than ``t``: every instant below ``ORIGIN`` seconds
of simulated time then lies in one binade and shares one ulp (2**-46 s),
so ``now + delay`` rounds the same way wherever a chain of timeouts
starts, and ``now - start`` is exact.  A process replayed from a later
quiescent boundary therefore reproduces its durations bit for bit, which
is what lets the trainer stop after one measured iteration
(docs/PERF.md, "Exact periodicity").  The origin never leaves this
module: :attr:`Environment.now`, :meth:`Environment.peek`,
``run(until=...)``, the observer callback and the ``sim.event``
checkpoint all speak seconds since start.  ``now`` is a plain attribute
set to ``_now - ORIGIN`` whenever the clock moves (once per instant),
since kernels, DMAs and collectives read it several times per event.

The event loop is also the proof of ``temporal.event-monotone``: it
refuses to advance the clock to a heap entry below it, and FIFO entries
are at the current instant by construction, so an attached check engine
is only told how many events were dispatched (one bulk count per loop
run), and the ``sim.event`` checkpoint fires only on the heap entry that
fails the test (docs/INVARIANTS.md).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.perf.spans import PERF
from repro.sim.events import AllOf, Event, Process, Timeout

#: Absolute heap time of simulated instant 0.  A module constant, not an
#: option: the instants ``[0, ORIGIN)`` share the ulp of ``[ORIGIN,
#: 2 * ORIGIN)``, far finer than any modelled duration (the longest
#: simulated horizon of the paper's sweeps is a few seconds).
ORIGIN = 64.0

#: The invariant the event loop's ordering test proves (the checker
#: registered at the ``sim.event`` checkpoint).
EVENT_MONOTONE = "temporal.event-monotone"


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties are broken by insertion order, which makes every run fully
    deterministic.  :attr:`now` is the current simulated time in seconds
    since start (exact); read it, never assign it.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = ORIGIN + initial_time
        self.now = self._now - ORIGIN
        self._eid = 0
        # Events at later instants, as (absolute time, eid, event).
        self._queue: List[Tuple[float, int, Event]] = []
        # Events at the current instant, in dispatch order.
        self._fifo: Deque[Event] = deque()
        self._observer = None
        self._observer_every = 1
        self._steps = 0
        self._dispatched = 0
        self._checks = None
        # Every Resource built on this environment, for quiescent().
        self._resources: List[Any] = []

    def set_checks(self, checks) -> None:
        """Attach a :class:`~repro.checks.CheckEngine` (or ``None``).

        When attached and enabled, every dispatched event counts as one
        evaluation of ``temporal.event-monotone`` (the loop's own
        ordering test is the proof; see :meth:`_dispatch`), and an event
        popped below the clock fires the ``sim.event`` checkpoint before
        the loop raises.
        """
        self._checks = checks if checks is not None and checks.enabled else None

    def set_observer(self, observer, every: int = 1) -> None:
        """Attach an ``observer(now, queue_depth)`` callback.

        Called after every ``every``-th dispatched event with the current
        simulated time and the number of pending events (heap plus
        same-instant FIFO); used by the observability
        layer to sample ``sim_event_queue_depth``.  Pass ``None`` to
        detach.
        """
        if every < 1:
            raise SimulationError(f"observer interval must be >= 1, got {every}")
        self._observer = observer
        self._observer_every = every

    def quiescent(self) -> bool:
        """Whether replaying from here is translation-invariant.

        True when no event is pending (heap and FIFO empty), every
        :class:`~repro.sim.resources.Resource` on this environment is
        idle with nobody queued, and the clock is still inside the
        origin's binade.  From such a state a deterministic process runs
        the same way, bit for bit, whenever it starts.
        """
        if self._queue or self._fifo or self._now >= 2 * ORIGIN:
            return False
        return not any(r._users or r._waiting for r in self._resources)

    @property
    def dispatched(self) -> int:
        """Events processed so far (feeds the ``sim.events`` perf counter).

        Maintained unconditionally -- one integer increment per event is
        the cheapest instrumentation :mod:`repro.perf` can buy, far below
        the cost of a gating branch plus attribute lookups would be.
        """
        return self._dispatched

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event; trigger it with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a simulated-time deadline (float) or an event; when
        an event is given its value is returned (or its exception raised).
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float("inf") if until is None else ORIGIN + float(until)
        if deadline < self._now:
            raise SimulationError(
                f"deadline {until} is in the past (now={self.now})")
        self._dispatch(None, deadline)
        if deadline != float("inf"):
            self._now = deadline
            self.now = deadline - ORIGIN
        return None

    def _run_until_event(self, until: Event) -> Any:
        if until.env is not self:
            raise SimulationError("run(until=...) got an event from another environment")
        self._dispatch(until, float("inf"))
        if not until.ok:
            raise until.value
        return until.value

    def _dispatch(self, until: Optional[Event], deadline: float) -> None:
        """The event loop behind :meth:`run`.

        Processes events in ``(time, insertion)`` order until ``until``
        has been processed or the next event lies beyond ``deadline``.
        Running out of events before ``until`` fires is an error.  Each
        event counts once towards :attr:`dispatched`, and every
        ``observer_every``-th one is reported to the observer.

        The FIFO holds the current instant's events in order.  Only when
        it is empty does the clock advance: the heap top must not lie
        below the clock, and it and every other heap entry at its
        instant move into the FIFO in heap order.  The order is exact: a
        heap entry at instant T was pushed before the clock reached T,
        so it was inserted before every event triggered at T.

        The clock-advance comparison is ``temporal.event-monotone``; a
        heap top below the clock raises :class:`SimulationError`.  With
        a check engine attached, every dispatched event counts as one
        evaluation, in a single add when the loop ends (also when a
        callback raises), and a failing heap top fires the ``sim.event``
        checkpoint before the loop raises.
        """
        checks = self._checks
        start = self._dispatched
        # The stats entry opens with the first dispatched event, where a
        # per-event checkpoint would open it, so the key order holds.
        opening = (checks.stats if checks is not None
                   and EVENT_MONOTONE not in checks.stats else None)
        queue = self._queue
        fifo = self._fifo
        append = fifo.append
        popleft = fifo.popleft
        pop = heapq.heappop
        observer = self._observer
        now = self._now
        try:
            while until is None or not until._processed:
                if not fifo:
                    if not queue:
                        if until is None:
                            return
                        raise SimulationError(
                            "event queue drained before target event fired")
                    when = queue[0][0]
                    if when > deadline:
                        return
                    if when < now:
                        if checks is not None:
                            # Recorded, published, and raised under
                            # strict, like any violation; the clock still
                            # cannot run backwards, so the loop raises
                            # whatever the mode.
                            checks.check("sim.event", when=when - ORIGIN,
                                         now=now - ORIGIN)
                        raise SimulationError("event scheduled in the past")
                    self._now = now = when
                    self.now = when - ORIGIN
                    while queue and queue[0][0] == when:
                        append(pop(queue)[2])
                event = popleft()
                if opening is not None:
                    opening.setdefault(EVENT_MONOTONE, [0, 0])
                    opening = None
                self._dispatched += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if observer is not None:
                    self._steps += 1
                    if self._steps % self._observer_every == 0:
                        observer(now - ORIGIN, len(queue) + len(fifo))
        finally:
            passed = self._dispatched - start
            if checks is not None and passed:
                checks.stats[EVENT_MONOTONE][0] += passed
                PERF.count("checks.evaluations", passed)

    def peek(self) -> float:
        """Timestamp of the next pending event, or ``inf`` if none."""
        if self._fifo:
            return self._now - ORIGIN
        return self._queue[0][0] - ORIGIN if self._queue else float("inf")
