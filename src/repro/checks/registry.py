"""Registry of invariant checkers keyed by checkpoint.

A *checker* is a plain function taking a payload dict and returning either
``None`` (the invariant holds), a string, or an iterable of strings (one
per violated property).  Checkers register themselves with the
:func:`invariant` decorator, declaring the checkpoint they attach to, a
dotted ``category.name`` identity, and a one-line description::

    @invariant("sim.event", name="event-monotone", category="temporal",
               description="event timestamps never run backwards")
    def check_event_monotone(payload):
        if payload["when"] < payload["now"]:
            return f"event at t={payload['when']} scheduled before now=..."

The four categories mirror the physics the paper's figures rest on:
``conservation`` (bytes in == bytes out), ``capacity`` (nothing exceeds a
hardware ceiling), ``temporal`` (clocks and spans are ordered), and
``structural`` (rings/trees actually span the participants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

#: Result type a checker may return: nothing, one message, or several.
CheckResult = Union[None, str, Iterable[str]]

#: Signature of a checker function.
CheckerFn = Callable[[Mapping[str, Any]], CheckResult]

#: The only valid checker categories.
CATEGORIES = ("conservation", "capacity", "temporal", "structural")


@dataclass(frozen=True)
class Checker:
    """One registered invariant checker.

    ``invariant`` is the dotted ``category.name`` identity used in
    violation records, obs metric labels, and the selfcheck report (e.g.
    ``"conservation.collective-wire"``); it is derived once, here, because
    the engine reads it on every evaluation.
    """

    name: str
    category: str
    checkpoint: str
    description: str
    fn: CheckerFn
    invariant: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariant", f"{self.category}.{self.name}")


#: Checkers per checkpoint, stored as the tuple :func:`checkers_at` returns.
_BY_POINT: Dict[str, Tuple[Checker, ...]] = {}
_BY_INVARIANT: Dict[str, Checker] = {}


def invariant(
    checkpoint: str,
    *,
    name: str,
    category: str,
    description: str,
) -> Callable[[CheckerFn], CheckerFn]:
    """Class-level decorator registering ``fn`` as a checker.

    Raises :class:`ValueError` for an unknown category or a duplicate
    ``category.name`` identity — checker identities are global so that
    violation records and metrics stay unambiguous.
    """
    if category not in CATEGORIES:
        raise ValueError(
            f"unknown checker category {category!r}; expected one of {CATEGORIES}")

    def register(fn: CheckerFn) -> CheckerFn:
        checker = Checker(name, category, checkpoint, description, fn)
        if checker.invariant in _BY_INVARIANT:
            raise ValueError(f"duplicate invariant {checker.invariant!r}")
        _BY_INVARIANT[checker.invariant] = checker
        _BY_POINT[checkpoint] = _BY_POINT.get(checkpoint, ()) + (checker,)
        return fn

    return register


def checkers_at(checkpoint: str) -> Tuple[Checker, ...]:
    """All checkers attached to ``checkpoint`` (empty tuple if none)."""
    return _BY_POINT.get(checkpoint, ())


def all_checkers() -> Tuple[Checker, ...]:
    """Every registered checker, sorted by ``category.name``."""
    return tuple(_BY_INVARIANT[k] for k in sorted(_BY_INVARIANT))


def get_checker(invariant_name: str) -> Optional[Checker]:
    """Look one checker up by its dotted identity (``None`` if absent)."""
    return _BY_INVARIANT.get(invariant_name)
