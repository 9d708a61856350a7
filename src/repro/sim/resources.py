"""Shared-resource primitives for the event engine.

:class:`Resource` models FIFO mutual exclusion with a configurable capacity
(GPU execution engines, DMA copy engines, interconnect links).
:class:`Store` is an unbounded FIFO hand-off queue between processes (used
for CUDA stream work queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional, TYPE_CHECKING

from repro.core.errors import SimulationError
from repro.sim.events import _PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment


class Request(Event):
    """A claim on a :class:`Resource` slot (built by the resource)."""

    __slots__ = ("resource",)


class Resource:
    """A capacity-limited resource with FIFO granting.

    Usage inside a process generator::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)

    which :meth:`hold` spells ``yield from resource.hold(service_time)``.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()
        env._resources.append(self)

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once the slot is granted."""
        req = Request.__new__(Request)
        req.env = env = self.env
        req.resource = self
        req.callbacks = []
        req._processed = False
        if len(self._users) < self.capacity:
            # Granted: triggered now, as ``succeed()`` would.
            req._value = None
            req._ok = True
            self._users.append(req)
            env._fifo.append(req)
        else:
            req._value = _PENDING
            req._ok = None
            self._waiting.append(req)
        return req

    def request_now(self) -> Optional[Request]:
        """Claim a free slot at once, or return ``None`` if all are held.

        The returned request is already granted and processed, so the
        caller holds the slot without a grant event and need not yield
        it.  A free slot means nobody waits, so this keeps FIFO order;
        when the resource is full, fall back to :meth:`request`.
        """
        if len(self._users) >= self.capacity:
            return None
        req = Request.__new__(Request)
        req.env = self.env
        req.resource = self
        req.callbacks = None
        req._value = None
        req._ok = True
        req._processed = True
        self._users.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("release() of a request that does not hold the resource")
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()

    def hold(self, delay: float) -> Generator[Event, None, None]:
        """Claim a slot (a free one at once, with no grant event), keep
        it for ``delay`` seconds, then release it."""
        req = self.request_now()
        if req is None:
            req = self.request()
            yield req
        try:
            yield Timeout(self.env, delay)
        finally:
            self.release(req)


class Store:
    """Unbounded FIFO queue; ``get`` blocks until an item is available."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
