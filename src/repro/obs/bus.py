"""A tiny synchronous publish/subscribe bus for observability events.

Handlers run inline in ``publish`` (the simulation is single-threaded and
deterministic, so there is nothing to defer).  Dispatch is by exact event
class for speed, with :class:`~repro.obs.events.ObsEvent` (or ``None``)
acting as the wildcard subscription.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from repro.obs.events import ObsEvent

Handler = Callable[[ObsEvent], None]


class EventBus:
    """Routes typed events from emitters to subscribers."""

    def __init__(self) -> None:
        self._handlers: Dict[Optional[type], List[Handler]] = {}

    def subscribe(self, event_type: Optional[Type[ObsEvent]], handler: Handler) -> Handler:
        """Register ``handler`` for ``event_type``.

        ``None`` (or the :class:`ObsEvent` base class) subscribes to every
        event.  Returns the handler so callers can keep it for
        :meth:`unsubscribe`.
        """
        key = None if event_type in (None, ObsEvent) else event_type
        self._handlers.setdefault(key, []).append(handler)
        return handler

    def unsubscribe(self, event_type: Optional[Type[ObsEvent]], handler: Handler) -> None:
        """Remove a previously registered handler (no-op if absent)."""
        key = None if event_type in (None, ObsEvent) else event_type
        try:
            self._handlers.get(key, []).remove(handler)
        except ValueError:
            pass

    def publish(self, event: ObsEvent) -> None:
        """Deliver ``event`` to its type's subscribers, then to wildcards."""
        for handler in self._handlers.get(type(event), ()):
            handler(event)
        for handler in self._handlers.get(None, ()):
            handler(event)

    def wants(self, event_type: Type[ObsEvent]) -> bool:
        """Whether publishing an ``event_type`` event reaches any handler:
        one subscribed to that exact type, or a wildcard.  Emitters ask
        before building an event, so an unobserved type costs nothing."""
        return bool(self._handlers.get(event_type) or self._handlers.get(None))

    def subscriber_count(self, event_type: Optional[Type[ObsEvent]] = None) -> int:
        """Number of handlers registered for ``event_type`` (or wildcard)."""
        key = None if event_type in (None, ObsEvent) else event_type
        return len(self._handlers.get(key, ()))
