"""Event types for the discrete-event engine.

Events move through three states: *pending* (created), *triggered*
(given a value and queued on the environment: on its same-instant FIFO
when due now, on its heap when due later) and *processed* (callbacks
ran).  Processes are events too, so a process can ``yield`` another
process to join on its completion.

Every event class declares ``__slots__``: events are the engine's most
allocated objects, and a slotted event is smaller and faster to touch.
Code that needs per-event bookkeeping keeps it beside the event (a dict
keyed by the event), not on it.

A processed event keeps its outcome and its ``_processed`` mark but
drops its callback list (``callbacks`` becomes ``None``), so a waiter
that skips the processed check fails loudly rather than hanging.
:class:`Process` and :class:`AllOf` check first; a process that yields a
processed event gets its outcome back at once, in the same callback,
with no event dispatched.

Hot paths -- a process's start event, a resource's requests, a kernel's
or a DMA's timeout -- build their events directly (``Event.__new__``
plus the slot stores, or ``Timeout(env, delay)``), so no ``__init__``
chain runs per event; each queues its event where the public factory
would, so the dispatch order is unchanged.

Two ways to run sub-work from a process generator:

* ``yield from sub(...)`` runs ``sub`` inline on the caller's own
  stream -- no extra :class:`Process`, no start or join event.  This is
  the rule for work that only the caller waits on: one GPU's FP/BP
  kernel chain, a DMA leg, a P2P tree edge's chunks and add kernel, the
  parameter servers' steps.
* ``yield env.process(sub(...))`` starts a process and joins it.  Its
  start and completion events take queue positions among other events
  at the same simulated time.  Keep it only where the sub-work's first
  request can tie with a same-instant grant on a GPU engine: inlining
  then moves that request ahead of the tie and changes which kernel
  gets the engine.  NCCL's reduce and update joins and its AllReduce
  join are such sites: inlining them moves 290 and 19 of perfbench's
  2,939 answers (docs/PERF.md, "Only holds and real dependencies").
  ``tools/answer_diff.py`` tells the two kinds apart: an inlined join
  whose sub-work cannot tie moves no answer.

Work that runs beside its caller (each GPU's tax kernel of a collective,
the edges of a tree stage) needs its own process either way.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from repro.core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Callbacks receive the event itself once it is processed.  ``succeed``
    and ``fail`` trigger the event; triggering twice is an error.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not available yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not available yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._fifo.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will re-raise it."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._fifo.append(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        # A delay too small to move the clock is due now.
        now = env._now
        when = now + delay
        if when == now:
            env._fifo.append(self)
        else:
            env._eid += 1
            heapq.heappush(env._queue, (when, env._eid, self))


class Process(Event):
    """Wraps a generator; completion of the generator triggers the event.

    The generator yields events; the process resumes when the yielded event
    is processed.  A failed event re-raises its exception inside the
    generator, letting simulation code use ordinary ``try``/``except``.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._generator = generator
        # Kick the process off at the current simulation time.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._processed = False
        env._fifo.append(init)

    def _resume(self, trigger: Event) -> None:
        # A dispatched trigger always carries its outcome, so read the
        # fields directly rather than through the checking properties.
        ok, value = trigger._ok, trigger._value
        generator = self._generator
        while True:
            try:
                if ok:
                    next_event = generator.send(value)
                else:
                    next_event = generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if not isinstance(next_event, Event):
                self.fail(SimulationError(f"process yielded non-event {next_event!r}"))
                return
            if next_event.env is not self.env:
                self.fail(SimulationError(
                    "process yielded event from another environment"))
                return
            if not next_event._processed:
                next_event.callbacks.append(self._resume)
                return
            # Already processed: its outcome goes straight back in.
            ok, value = next_event._ok, next_event._value


class AllOf(Event):
    """Succeeds when every constituent event has succeeded.

    Already-processed constituents count immediately; a failed constituent
    fails the combinator with the same exception.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.env is not self.env:
                raise SimulationError("condition spans two environments")
        for event in self._events:
            if event._processed:
                if not event._ok and not self.triggered:
                    self.fail(event._value)
            else:
                self._pending += 1
                event.callbacks.append(self._on_event)
        if not self.triggered and self._pending == 0:
            self.succeed([e._value for e in self._events])

    def _on_event(self, event: Event) -> None:
        # Called on a dispatched constituent: its outcome is set, so the
        # fields are read directly rather than through the properties.
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])
