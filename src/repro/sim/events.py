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
:class:`Process` (a zero-delay *poke*) and :class:`AllOf` check first.

Hot paths -- a process's start event, a resource's requests, a kernel's
or a DMA's timeout -- build their events directly (``Event.__new__``
plus the slot stores, or ``Timeout(env, delay)``), so no ``__init__``
chain runs per event; each queues its event where the public factory
would, so the dispatch order is unchanged.

Two ways to run sub-work from a process generator:

* ``yield from sub(...)`` runs ``sub`` inline on the caller's own
  stream -- no extra :class:`Process`, no start or join event.  Use it
  for sequential work that only the caller waits on, such as one GPU's
  FP/BP kernel chain.
* ``yield env.process(sub(...))`` starts a process and joins it.  Its
  start and completion events take queue positions among other events
  at the same simulated time, so keep it wherever the tie order among
  same-time grants matters.  The communicators keep it: their
  collective and accumulate kernels contend for GPU engines with BP
  kernels, and inlining their joins reorders those same-time grants
  and moves simulated answers.
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
        self.env.schedule(self)
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
        # Environment.schedule, inlined: a delay too small to move the
        # clock is due now.
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
        try:
            # A dispatched trigger always carries its outcome, so read the
            # fields directly rather than through the checking properties.
            if trigger._ok:
                next_event = self._generator.send(trigger._value)
            else:
                next_event = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(next_event, Event):
            self.fail(SimulationError(f"process yielded non-event {next_event!r}"))
            return
        if next_event.env is not self.env:
            self.fail(SimulationError("process yielded event from another environment"))
            return
        if next_event._processed:
            # Already-processed event: resume immediately (zero delay).
            poke = Event(self.env)
            poke._ok = next_event._ok
            poke._value = next_event._value
            poke.callbacks.append(self._resume)
            self.env.schedule(poke)
        else:
            next_event.callbacks.append(self._resume)


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
