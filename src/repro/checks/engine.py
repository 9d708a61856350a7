"""The invariant engine: enforcement modes, violation records, statistics.

:class:`CheckEngine` is the single object threaded through the simulator.
Instrumented components call ``engine.check(point, **payload)`` at their
checkpoints; the engine dispatches the payload to every checker registered
for ``point`` (see :mod:`repro.checks.registry`) and enforces the result
according to its :class:`CheckMode`:

``off``
    ``check()`` returns immediately — callers additionally gate payload
    construction on :attr:`CheckEngine.enabled`, so a disabled engine (or
    no engine at all, the default) leaves simulated outputs byte-identical.
``warn``
    Violations are appended to :attr:`CheckEngine.violations`, logged on
    the ``repro.checks`` logger, and published to the observability bus as
    :class:`~repro.obs.events.InvariantViolationEvent` (feeding the
    ``repro_invariant_violations_total`` counter).
``strict``
    Everything ``warn`` does, then
    :class:`~repro.core.errors.InvariantViolationError` is raised.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError, InvariantViolationError
from repro.checks.registry import checkers_at
from repro.perf.spans import PERF

logger = logging.getLogger("repro.checks")


class CheckMode(enum.Enum):
    """Enforcement mode of a :class:`CheckEngine`."""

    OFF = "off"
    WARN = "warn"
    STRICT = "strict"

    @classmethod
    def parse(cls, value: Union[str, "CheckMode", None]) -> "CheckMode":
        """Coerce a CLI/string spelling (or ``None`` = off) to a mode."""
        if value is None:
            return cls.OFF
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown invariants mode {value!r}; expected one of "
                f"{', '.join(m.value for m in cls)}"
            ) from None


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation.

    ``at`` is the simulated time the checkpoint fired (0.0 for checks that
    run outside the sim clock, e.g. at communicator construction).
    """

    invariant: str
    checkpoint: str
    message: str
    at: float = 0.0


class CheckEngine:
    """Dispatches checkpoint payloads to registered invariant checkers.

    One engine is created per trainer run (the sweep runner builds one per
    point when ``invariants`` is not ``off``).  It accumulates per-invariant
    ``[checked, violated]`` counters in :attr:`stats` and the full
    :class:`Violation` records in :attr:`violations`; both survive a strict
    raise so failed runs still report what fired.
    """

    def __init__(self, mode: Union[str, CheckMode] = CheckMode.OFF,
                 bus: Optional[Any] = None) -> None:
        self.mode = CheckMode.parse(mode)
        self.bus = bus
        self.stats: Dict[str, List[int]] = {}
        self.violations: List[Violation] = []

    @property
    def enabled(self) -> bool:
        """True when checkpoints should build payloads and call :meth:`check`."""
        return self.mode is not CheckMode.OFF

    def bind_bus(self, bus: Any) -> None:
        """Attach an observability :class:`~repro.obs.bus.EventBus`."""
        self.bus = bus

    def check(self, point: str, **payload: Any) -> None:
        """Run every checker registered at ``point`` against ``payload``.

        No-op in ``off`` mode.  In ``warn`` mode violations are recorded,
        logged, and published; in ``strict`` mode the first violation also
        raises :class:`~repro.core.errors.InvariantViolationError`.
        """
        if self.mode is CheckMode.OFF:
            return
        perf = PERF.enabled
        if perf:
            # One payload was built by the calling checkpoint; each checker
            # dispatch is counted separately so the ratio is visible.
            PERF.count("checks.payloads")
        stats = self.stats
        for checker in checkers_at(point):
            if perf:
                PERF.count("checks.evaluations")
            entry = stats.get(checker.invariant)
            if entry is None:
                entry = stats[checker.invariant] = [0, 0]
            entry[0] += 1
            result = checker.fn(payload)
            if result is None:
                continue
            messages = [result] if isinstance(result, str) else list(result)
            if not messages:
                continue
            entry[1] += len(messages)
            at = float(payload.get("now", 0.0))
            for message in messages:
                self._handle_violation(checker.invariant, point, message, at)

    def _handle_violation(self, invariant: str, checkpoint: str,
                          message: str, at: float) -> None:
        """Record, log, publish, and (in strict mode) raise one violation."""
        violation = Violation(invariant, checkpoint, message, at)
        self.violations.append(violation)
        logger.warning("invariant %s violated at %s (t=%g): %s",
                       invariant, checkpoint, at, message)
        if self.bus is not None:
            from repro.obs.events import InvariantViolationEvent

            self.bus.publish(InvariantViolationEvent(
                invariant=invariant, checkpoint=checkpoint,
                message=message, mode=self.mode.value, at=at))
        if self.mode is CheckMode.STRICT:
            raise InvariantViolationError(invariant, checkpoint, message)

    def violation_records(self) -> Tuple[Violation, ...]:
        """The accumulated violations as an immutable tuple."""
        return tuple(self.violations)

    def stats_dict(self) -> Dict[str, Tuple[int, int]]:
        """Picklable ``{invariant: (checked, violated)}`` snapshot."""
        return {name: (entry[0], entry[1]) for name, entry in self.stats.items()}


def merge_stats(target: Dict[str, List[int]],
                stats: Dict[str, Tuple[int, int]]) -> None:
    """Fold one engine's :meth:`CheckEngine.stats_dict` into ``target``.

    Used by the sweep runner to aggregate per-point statistics (worker
    processes ship their engine's snapshot back with each result).
    """
    for name, (checked, violated) in stats.items():
        entry = target.setdefault(name, [0, 0])
        entry[0] += checked
        entry[1] += violated
