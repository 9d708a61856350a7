"""Discrete-event simulation kernel.

A small, deterministic, generator-based engine in the style of SimPy:

* :class:`~repro.sim.engine.Environment` owns the virtual clock, the
  event heap for later instants and the FIFO of events due now.
* Processes are plain Python generators that ``yield`` events
  (:class:`~repro.sim.events.Timeout`, other processes, the ``AllOf``
  combinator, or bare :class:`~repro.sim.events.Event` instances).
* :class:`~repro.sim.resources.Resource` provides FIFO mutual exclusion used
  to model GPU execution engines, DMA copy engines and interconnect links.

The engine is intentionally minimal -- no real time, no threads -- so runs
are exactly reproducible.
"""

from repro.sim.engine import Environment
from repro.sim.events import AllOf, Event, Process, Timeout
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Timeout",
]
